//! The network server: one reactor thread that multiplexes every
//! connection over epoll/kqueue and runs each request's
//! [`NavService::dispatch`] itself, inline, between socket events.
//!
//! ## Why inline
//!
//! A wire request is a sub-µs to ~12 µs in-process call; a list-tables
//! step is the slowest class. Handing it to another thread and waking the
//! reactor back through a self-pipe costs more than that (≈19 µs per
//! request on a 2-vCPU host), so the reactor owns the sockets *and* the
//! dispatches. The cost is head-of-line blocking across connections,
//! bounded by the slowest single dispatch: the reactor answers one
//! request, then moves on to the next ready socket.
//!
//! ## Exactly-once steps
//!
//! Every envelope carries a client-chosen sequence number. The reactor
//! keeps a per-session cache of `(last seq, framed response)` and
//! consults it *before* dispatching: a resent `Step` (same session, same
//! seq — what the client does after a torn connection) returns the cached
//! bytes without re-applying the step. The cache entry is written
//! **before** the first write attempt, so even `net.conn_drop` (kill the
//! conn after dispatch, before the write) cannot lose a step: the
//! reconnecting client resends, hits the cache, and observes the
//! bit-identical response it would have gotten the first time.
//!
//! ## Backpressure, in layers
//!
//! 1. **Accept time**: past `max_conns`, the fresh socket gets a single
//!    `Overloaded{retry_after_ms}` frame and is closed — shed before any
//!    buffer, session, or gate resource is touched.
//! 2. **Admission gate**: an admitted connection's step still goes
//!    through [`NavService`]'s semaphore; a shed there comes back as the
//!    same first-class `Overloaded` wire frame, which the client's
//!    [`RetryPolicy`](dln_serve::RetryPolicy) already honors. The reactor
//!    holds at most one permit, so when in-process callers saturate the
//!    gate it queues behind them like any other caller.
//! 3. **Idle TTL**: connections silent past `idle_ttl_ms` (by the
//!    injected [`Clock`], so tests drive it manually) are dropped; their
//!    sessions stay in the registry for the service's own TTL sweep, so a
//!    returning client can reconnect and continue the walk.
//!
//! ## Session ownership
//!
//! Sessions belong to the reactor, not to the connection that opened
//! them: a client may resume a session over any later connection. The
//! reactor remembers every session opened over the wire until it is
//! closed, and the same idle sweep that reaps connections forgets the
//! sessions, and drops the cache entries, that the service no longer
//! holds (closed elsewhere or TTL-evicted after their client went away).
//! With `idle_ttl_ms` 0 there is no sweep and both are kept until
//! `Close` or shutdown.
//!
//! ## Shutdown
//!
//! [`NetServer::shutdown`] stops accepting, flushes pending responses
//! (best effort), then closes through [`NavService::close_session`]
//! every session opened over the wire or holding a cache entry, whatever
//! connection it last used, so a stopped front-end leaves no sessions
//! holding registry capacity.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use dln_fault::{failpoints, DlnError, DlnResult};
use dln_serve::{ApiRequest, ApiResponse, Clock, NavService, SessionId, WireError};

use crate::conn::{Conn, ConnState, ReadOutcome};
use crate::poller::{Event, Interest, Poller, Waker};
use crate::wire;

/// Failpoint: drop a freshly accepted socket before registering it.
pub const FP_ACCEPT_FAIL: &str = "net.accept_fail";
/// Failpoint: discard a readiness worth of input and tear the conn down
/// (the client sees EOF mid-request and must reconnect + resend).
pub const FP_READ_TORN: &str = "net.read_torn";
/// Failpoint: flush responses one byte per readiness edge, forcing the
/// partial-write resumption path.
pub const FP_WRITE_PARTIAL: &str = "net.write_partial";
/// Failpoint: after a step is dispatched *and cached*, drop the conn
/// without writing the response (keyed on session⊕seq, so the retried
/// request — a cache hit — is deterministically allowed through).
pub const FP_CONN_DROP: &str = "net.conn_drop";

/// Tuning knobs for [`NetServer`]. Most fields have an environment
/// override so deployments configure the front-end without code.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Listen address (`DLN_LISTEN`, default `127.0.0.1:0` = ephemeral).
    pub addr: String,
    /// Connection cap; accepts past it are shed with an `Overloaded`
    /// frame (`DLN_NET_MAX_CONNS`, default 16384).
    pub max_conns: usize,
    /// Unread: the reactor runs every dispatch itself. Kept so callers
    /// that build a `NetConfig` with a struct literal still compile.
    pub workers: usize,
    /// Idle connection TTL in clock-ms; 0 disables the sweep
    /// (`DLN_NET_IDLE_TTL_MS`, default 0).
    pub idle_ttl_ms: u64,
    /// Per-frame payload cap in bytes (default [`wire::MAX_FRAME_LEN`]).
    pub max_frame_len: u32,
    /// The retry hint attached to accept-time `Overloaded` sheds.
    pub shed_retry_after_ms: u64,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: 16384,
            workers: 0,
            idle_ttl_ms: 0,
            max_frame_len: wire::MAX_FRAME_LEN,
            shed_retry_after_ms: 50,
        }
    }
}

fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl NetConfig {
    /// Build a config from `DLN_LISTEN` / `DLN_NET_MAX_CONNS` /
    /// `DLN_NET_IDLE_TTL_MS`, falling back to the defaults above for
    /// anything unset or unparseable.
    pub fn from_env() -> NetConfig {
        let d = NetConfig::default();
        NetConfig {
            addr: std::env::var("DLN_LISTEN").unwrap_or(d.addr),
            max_conns: env_parse("DLN_NET_MAX_CONNS", d.max_conns),
            idle_ttl_ms: env_parse("DLN_NET_IDLE_TTL_MS", d.idle_ttl_ms),
            ..d
        }
    }
}

/// Counters the benchmark and tests read; all monotonic except the
/// `cached_sessions` gauge.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections accepted and registered.
    pub accepted: AtomicU64,
    /// Accepts shed at the `max_conns` cap.
    pub shed_accepts: AtomicU64,
    /// Well-formed requests the reactor answered (cache hits included).
    pub requests: AtomicU64,
    /// Step retries answered from the exactly-once cache.
    pub dedup_hits: AtomicU64,
    /// Connections torn down by error, EOF, failpoint, or idle TTL.
    pub closed: AtomicU64,
    /// Connections reaped by the idle-TTL sweep specifically.
    pub idle_reaped: AtomicU64,
    /// Sessions holding an exactly-once cache entry now (a gauge).
    pub cached_sessions: AtomicU64,
}

/// The running network front-end. [`shutdown`](NetServer::shutdown) and
/// dropping both take the graceful path: the reactor flushes what it can
/// and closes every wire session before it exits.
pub struct NetServer {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    reactor: Option<JoinHandle<()>>,
    stats: Arc<NetStats>,
}

impl NetServer {
    /// Bind, spawn the reactor thread, and start serving `svc`.
    pub fn start(
        svc: Arc<NavService>,
        config: NetConfig,
        clock: Arc<dyn Clock>,
    ) -> DlnResult<NetServer> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| DlnError::io(format!("net bind {}", config.addr), e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| DlnError::io("net listener nonblocking", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| DlnError::io("net local_addr", e))?;

        let stop = Arc::new(AtomicBool::new(false));
        let waker = Arc::new(Waker::new()?);
        let stats = Arc::new(NetStats::default());

        let reactor = {
            let stop = Arc::clone(&stop);
            let waker = Arc::clone(&waker);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("dln-net-reactor".to_string())
                .spawn(move || {
                    let Ok(poller) = Poller::new() else {
                        return; // no poller, no server
                    };
                    let last_sweep_ms = clock.now();
                    let mut r = Reactor {
                        listener,
                        poller,
                        waker,
                        conns: HashMap::new(),
                        next_token: 2,
                        svc,
                        clock,
                        config,
                        stop,
                        stats,
                        cache: HashMap::new(),
                        sessions: HashSet::new(),
                        last_sweep_ms,
                    };
                    r.run();
                })
                .map_err(|e| DlnError::io("net spawn reactor", e))?
        };

        Ok(NetServer {
            local_addr,
            stop,
            waker,
            reactor: Some(reactor),
            stats,
        })
    }

    /// The bound address (resolves the `:0` ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Serving counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Graceful shutdown: stop accepting, flush pending responses, close
    /// every wire session, then join the reactor.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;

/// Per-session exactly-once cache: session id → (last step seq, framed
/// response).
type Cache = HashMap<u64, (u64, Vec<u8>)>;

struct Reactor {
    listener: TcpListener,
    poller: Poller,
    waker: Arc<Waker>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    svc: Arc<NavService>,
    clock: Arc<dyn Clock>,
    config: NetConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<NetStats>,
    cache: Cache,
    /// Sessions opened over the wire and not yet closed, on any connection.
    sessions: HashSet<SessionId>,
    /// Clock-ms of the last idle-TTL scan.
    last_sweep_ms: u64,
}

impl Reactor {
    fn run(&mut self) {
        if self
            .poller
            .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .is_err()
        {
            return;
        }
        if self
            .poller
            .register(self.waker.read_fd(), TOKEN_WAKER, Interest::READ)
            .is_err()
        {
            return;
        }

        let mut events: Vec<Event> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            events.clear();
            // 100 ms cap so the idle sweep and stop flag are checked even
            // on a completely quiet socket set.
            if self.poller.wait(100, &mut events).is_err() {
                break;
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    // Woken for stop; the loop condition sees the flag.
                    TOKEN_WAKER => self.waker.drain(),
                    token => self.conn_ready(token, ev),
                }
            }
            self.sweep_idle();
        }
        self.graceful_drain();
    }

    fn now(&self) -> u64 {
        self.clock.now()
    }

    // -- accept path ------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if failpoints::should_fail(FP_ACCEPT_FAIL) {
            // Injected accept failure: the socket evaporates before the
            // client's first request; the client reconnects.
            self.stats.closed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.conns.len() >= self.config.max_conns {
            self.shed(stream);
            return;
        }
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.conns.insert(token, Conn::new(stream, self.now()));
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Over the connection cap: one `Overloaded` frame, then close. The
    /// socket is fresh (empty send buffer), so a best-effort blocking-ish
    /// write of a ~30-byte frame cannot meaningfully stall the reactor.
    fn shed(&mut self, mut stream: TcpStream) {
        self.stats.shed_accepts.fetch_add(1, Ordering::Relaxed);
        let resp = ApiResponse::Error(WireError::Overloaded {
            retry_after_ms: self.config.shed_retry_after_ms,
        });
        let payload = wire::encode_response(0, &resp);
        let mut framed = Vec::new();
        wire::encode_frame(&payload, &mut framed);
        let _ = stream.write_all(&framed);
    }

    // -- conn events ------------------------------------------------------

    fn conn_ready(&mut self, token: u64, ev: &Event) {
        let Some(conn) = self.conns.get(&token) else {
            return; // already torn down this tick
        };
        match conn.state {
            // Only a partial write leaves a conn `Writing`, and it is the
            // one case whose interest is WRITE rather than READ.
            ConnState::Writing if ev.writable => self.resume_write(token),
            ConnState::Idle if ev.readable => self.read(token),
            _ => {}
        }
    }

    fn read(&mut self, token: u64) {
        if failpoints::should_fail(FP_READ_TORN) {
            // Injected torn read: the bytes are gone and so is the conn.
            // The client's recovery is reconnect + resend (the dedup cache
            // makes the resend exactly-once).
            self.teardown(token);
            return;
        }
        let now = self.now();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let outcome = conn.read_ready(self.config.max_frame_len, now);
        self.serve(token, outcome);
    }

    /// A partial write is writable again: finish it, then go on with any
    /// request the peer pipelined behind it.
    fn resume_write(&mut self, token: u64) {
        if !self.flush(token, true) {
            return;
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            let next = conn.next_buffered_frame(self.config.max_frame_len);
            self.serve(token, next);
        }
    }

    /// Answer `next`, then every complete frame already buffered behind
    /// it. A loop, not recursion: a peer that pipelines thousands of tiny
    /// frames must not grow the reactor's stack. Stops at a partial frame,
    /// at a partial write (resumed under WRITE readiness), or when the
    /// conn is gone.
    fn serve(&mut self, token: u64, mut next: ReadOutcome) {
        loop {
            match next {
                ReadOutcome::Frame(payload) => {
                    if !self.answer(token, &payload) {
                        return;
                    }
                }
                ReadOutcome::Incomplete => return,
                ReadOutcome::Eof | ReadOutcome::Broken(_) => {
                    self.teardown(token);
                    return;
                }
            }
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            next = conn.next_buffered_frame(self.config.max_frame_len);
        }
    }

    /// Run one request to completion: replay or dispatch it, record its
    /// session bookkeeping, cache a step's response, and write the reply.
    /// Returns true when the reply is fully out and the conn is `Idle`.
    fn answer(&mut self, token: u64, payload: &[u8]) -> bool {
        let Ok((seq, req)) = wire::decode_request(payload, "net request") else {
            // Framing held but the payload is garbage: unrecoverable for
            // this conn (we cannot even answer with the right seq).
            self.teardown(token);
            return false;
        };
        self.stats.requests.fetch_add(1, Ordering::Relaxed);

        // Exactly-once: a resent Step (same session, same seq) replays the
        // cached response instead of re-applying the step.
        if let ApiRequest::Step { session, .. } = &req {
            if let Some((cached_seq, framed)) = self.cache.get(&session.0) {
                if *cached_seq == seq {
                    self.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    let framed = framed.clone();
                    return self.write_response(token, framed);
                }
            }
        }

        let resp = self.svc.dispatch(&req);

        // Session bookkeeping for the graceful-shutdown close.
        match (&req, &resp) {
            (_, ApiResponse::Opened { session }) => {
                self.sessions.insert(*session);
            }
            (ApiRequest::Close { session }, _) => {
                self.sessions.remove(session);
            }
            _ => {}
        }

        let mut framed = Vec::new();
        wire::encode_frame(&wire::encode_response(seq, &resp), &mut framed);

        match (&req, &resp) {
            (
                ApiRequest::Step { session, .. },
                ApiResponse::Error(
                    WireError::SessionNotFound { .. } | WireError::SessionExpired { .. },
                ),
            )
            | (ApiRequest::Close { session }, ApiResponse::Closed { .. }) => {
                self.cache.remove(&session.0);
                self.cache_changed();
            }
            (ApiRequest::Step { session, .. }, _) => {
                // Store BEFORE the write attempt: this ordering is what
                // makes net.conn_drop recoverable without replaying.
                self.cache.insert(session.0, (seq, framed.clone()));
                self.cache_changed();
                // Keyed on (session ⊕ rotated seq): deterministic in the
                // request identity. Fires only on the first application (a
                // retry is a cache hit and returns above), so a dropped
                // conn cannot loop forever.
                if failpoints::should_fail_keyed(FP_CONN_DROP, session.0 ^ seq.rotate_left(32)) {
                    self.teardown(token);
                    return false;
                }
            }
            _ => {}
        }
        self.write_response(token, framed)
    }

    fn write_response(&mut self, token: u64, framed: Vec<u8>) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        conn.queue_response(framed);
        self.flush(token, false)
    }

    /// Flush the queued response. `write_armed` says whether an earlier
    /// partial write switched the conn's interest to WRITE; `epoll_ctl`
    /// runs only on the two transitions (first partial write → WRITE,
    /// drain after one → READ), never on the common one-shot write.
    /// Returns true when the response is fully out.
    fn flush(&mut self, token: u64, write_armed: bool) -> bool {
        let now = self.now();
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let chunk = if failpoints::should_fail(FP_WRITE_PARTIAL) {
            1
        } else {
            usize::MAX
        };
        let fd = conn.stream.as_raw_fd();
        match conn.write_ready(now, chunk) {
            Ok(true) => {
                if write_armed {
                    let _ = self.poller.modify(fd, token, Interest::READ);
                }
                true
            }
            Ok(false) => {
                if !write_armed {
                    let _ = self.poller.modify(fd, token, Interest::WRITE);
                }
                false
            }
            Err(_) => {
                self.teardown(token);
                false
            }
        }
    }

    /// Publish the cache size to the `cached_sessions` gauge.
    fn cache_changed(&self) {
        self.stats
            .cached_sessions
            .store(self.cache.len() as u64, Ordering::Relaxed);
    }

    // -- lifecycle --------------------------------------------------------

    fn sweep_idle(&mut self) {
        let ttl = self.config.idle_ttl_ms;
        if ttl == 0 {
            return;
        }
        // The scan is O(conns) and the loop turns about once per request,
        // so scan at most once per quarter TTL of clock time.
        let now = self.now();
        if now.saturating_sub(self.last_sweep_ms) < (ttl / 4).max(1) {
            return;
        }
        self.last_sweep_ms = now;
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.state == ConnState::Idle && now.saturating_sub(c.last_active_ms) > ttl
            })
            .map(|(t, _)| *t)
            .collect();
        for token in stale {
            self.stats.idle_reaped.fetch_add(1, Ordering::Relaxed);
            self.teardown(token);
        }
        // Forget the sessions the service no longer holds, so a session
        // abandoned with its connection leaves nothing behind once the
        // service's TTL sweep evicts it.
        let svc = &self.svc;
        self.sessions.retain(|&sid| svc.holds_session(sid));
        self.cache
            .retain(|&sid, _| svc.holds_session(SessionId(sid)));
        self.cache_changed();
    }

    /// Remove a connection. Its sessions stay in the registry for the
    /// service TTL sweep — the contract that lets a client reconnect after
    /// a torn connection and continue its walk.
    fn teardown(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.stats.closed.fetch_add(1, Ordering::Relaxed);
        // Socket closes on drop.
    }

    /// The graceful path: no new accepts (loop already exited), flush
    /// what a partial write left queued, drop the connections, then close
    /// every session opened over the wire or holding a cache entry.
    fn graceful_drain(&mut self) {
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        let now = self.now();
        for conn in self.conns.values_mut() {
            if conn.has_pending_write() {
                let _ = conn.write_ready(now, usize::MAX);
            }
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.teardown(token);
        }
        // A session in both sets is closed twice; the second is a no-op.
        let cached = self.cache.drain().map(|(sid, _)| SessionId(sid));
        for sid in self.sessions.drain().chain(cached) {
            let _ = self.svc.close_session(sid);
        }
        self.cache_changed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::time::Duration;

    use dln_org::eval::NavConfig;
    use dln_org::{clustering_org, OrgContext};
    use dln_serve::{ServeConfig, WallClock};
    use dln_synth::TagCloudConfig;

    use crate::Client;

    fn server() -> NetServer {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let org = clustering_org(&ctx);
        let svc = NavService::new(ctx, org, NavConfig::default(), ServeConfig::default());
        NetServer::start(
            Arc::new(svc),
            NetConfig::default(),
            Arc::new(WallClock::new()),
        )
        .expect("server starts")
    }

    #[test]
    fn pipelined_frames_are_answered_in_order() {
        const N: u64 = 10_000;
        let server = server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut frames = Vec::new();
        for seq in 1..=N {
            wire::encode_frame(&wire::encode_request(seq, &ApiRequest::Ping), &mut frames);
        }
        // One `write_all` of every frame, from a second thread so neither
        // side's socket buffers can wedge the other while this one reads.
        let mut tx = stream.try_clone().expect("clone");
        let writer = std::thread::spawn(move || tx.write_all(&frames));

        let mut rbuf = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut next = 1;
        while next <= N {
            while let Some((payload, consumed)) =
                wire::try_decode_frame(&rbuf, wire::MAX_FRAME_LEN, "t").expect("clean frame")
            {
                let (seq, resp) = wire::decode_response(payload, "t").expect("response");
                assert_eq!(seq, next, "pongs arrive in seq order");
                assert!(matches!(resp, ApiResponse::Pong), "{resp:?}");
                rbuf.drain(..consumed);
                next += 1;
            }
            if next > N {
                break;
            }
            let n = stream.read(&mut chunk).expect("read");
            assert!(n > 0, "server closed the conn after {} pongs", next - 1);
            rbuf.extend_from_slice(&chunk[..n]);
        }
        writer.join().expect("writer thread").expect("write_all");
        assert!(rbuf.is_empty(), "no bytes past the last pong");
        assert_eq!(server.stats().requests.load(Ordering::Relaxed), N);

        let mut other = Client::connect(server.local_addr().to_string()).expect("connect");
        other.ping().expect("a second client is served afterwards");
        server.shutdown();
    }
}
