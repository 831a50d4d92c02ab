//! The blocking wire client.
//!
//! [`Client`] speaks the framed protocol over one `TcpStream` and
//! presents the same typed surface as
//! [`NavService`](dln_serve::NavService) itself — `open`, `step`,
//! `path`, `close` — returning [`ServeResult`], so existing call sites
//! (and [`RetryPolicy`](dln_serve::RetryPolicy)) work unchanged against
//! a remote service.
//!
//! ## Recovery contract
//!
//! Two failure planes are kept strictly separate:
//!
//! * **Typed refusals** (`Overloaded`, `Stale`, `SessionNotFound`, …)
//!   arrive as error *frames* and are rehydrated into the matching
//!   [`ServeError`] — the caller's retry policy decides.
//! * **Transport failures** (connection reset, EOF mid-frame, corrupt
//!   bytes) are handled *inside* the client: drop the stream, reconnect,
//!   and resend the same envelope with the **same sequence number**. The
//!   server's exactly-once cache turns the resend into a replay, so a
//!   step is never applied twice no matter where the connection died.
//!   Only after `max_reconnects` consecutive transport failures does the
//!   client surface a [`ServeError::Nav`]/Io to the caller.
//!
//! Sequence numbers are per-client and monotonic; the pairing invariant
//! is checked on every response (a mismatched seq is a transport error —
//! except an `Overloaded` shed frame, which the server may emit before it
//! has read anything, and which maps straight to the typed refusal).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use dln_fault::{DlnError, DlnResult};
use dln_org::StateId;
use dln_serve::service::{StepRequest, StepResponse};
use dln_serve::{ApiRequest, ApiResponse, ServeError, ServeResult, SessionId, WireError};

use crate::wire;

/// A blocking connection to a [`NetServer`](crate::server::NetServer).
pub struct Client {
    addr: String,
    stream: Option<TcpStream>,
    rbuf: Vec<u8>,
    seq: u64,
    /// Transport-level reconnect attempts per request before giving up.
    pub max_reconnects: u32,
    /// Per-request socket read timeout.
    pub read_timeout: Duration,
}

impl Client {
    /// Connect to `addr` (e.g. `"127.0.0.1:7070"`).
    pub fn connect(addr: impl Into<String>) -> DlnResult<Client> {
        let mut c = Client {
            addr: addr.into(),
            stream: None,
            rbuf: Vec::new(),
            seq: 0,
            max_reconnects: 8,
            read_timeout: Duration::from_secs(10),
        };
        c.ensure_stream()?;
        Ok(c)
    }

    fn ensure_stream(&mut self) -> DlnResult<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)
                .map_err(|e| DlnError::io(format!("net client connect {}", self.addr), e))?;
            s.set_nodelay(true)
                .map_err(|e| DlnError::io("net client nodelay", e))?;
            s.set_read_timeout(Some(self.read_timeout))
                .map_err(|e| DlnError::io("net client read timeout", e))?;
            self.rbuf.clear();
            self.stream = Some(s);
        }
        // The Option was just filled; unwrap_or_else keeps the lint regime
        // (deny(unwrap_used)) honest without an unreachable panic path.
        match self.stream.as_mut() {
            Some(s) => Ok(s),
            None => Err(DlnError::io(
                "net client",
                std::io::Error::new(std::io::ErrorKind::NotConnected, "stream vanished"),
            )),
        }
    }

    /// One request/response exchange at the transport level.
    fn exchange_once(&mut self, framed: &[u8], seq: u64) -> DlnResult<ApiResponse> {
        let max_len = wire::MAX_FRAME_LEN;
        let stream = self.ensure_stream()?;
        stream
            .write_all(framed)
            .map_err(|e| DlnError::io("net client write", e))?;
        // Read until one complete frame (or a transport error).
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((payload, consumed)) =
                wire::try_decode_frame(&self.rbuf, max_len, "net client frame")?
            {
                let (got_seq, resp) = wire::decode_response(payload, "net client response")?;
                self.rbuf.drain(..consumed);
                if got_seq != seq {
                    // An accept-time shed is the one legitimate unpaired
                    // frame (the server answers before reading).
                    if let ApiResponse::Error(WireError::Overloaded { .. }) = resp {
                        return Ok(resp);
                    }
                    return Err(DlnError::corrupt(
                        "net client",
                        format!("response seq {got_seq} does not match request seq {seq}"),
                    ));
                }
                return Ok(resp);
            }
            let stream = match self.stream.as_mut() {
                Some(s) => s,
                None => {
                    return Err(DlnError::io(
                        "net client",
                        std::io::Error::new(std::io::ErrorKind::NotConnected, "stream vanished"),
                    ))
                }
            };
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(DlnError::io(
                        "net client read",
                        std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "server closed mid-response",
                        ),
                    ))
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(DlnError::io("net client read", e)),
            }
        }
    }

    /// Send one request; reconnect + resend (same seq) on transport
    /// failure; rehydrate typed refusals into [`ServeError`].
    fn request(&mut self, req: &ApiRequest) -> ServeResult<ApiResponse> {
        self.seq += 1;
        let seq = self.seq;
        let payload = wire::encode_request(seq, req);
        let mut framed = Vec::new();
        wire::encode_frame(&payload, &mut framed);

        let mut last_err: Option<DlnError> = None;
        for attempt in 0..=self.max_reconnects {
            if attempt > 0 {
                // Fresh socket, same envelope: the server's exactly-once
                // cache makes the resend a replay, never a double-apply.
                self.stream = None;
                self.rbuf.clear();
                std::thread::sleep(Duration::from_millis(2u64 << attempt.min(6)));
            }
            match self.exchange_once(&framed, seq) {
                Ok(ApiResponse::Error(wire_err)) => return Err(ServeError::from(wire_err)),
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    // Transport-plane failure: the stream state is unknown
                    // (half-written request, half-read response) — only a
                    // reconnect restores framing.
                    self.stream = None;
                    self.rbuf.clear();
                    last_err = Some(e);
                }
            }
        }
        Err(ServeError::Nav(last_err.unwrap_or_else(|| {
            DlnError::io("net client", std::io::Error::other("request failed"))
        })))
    }

    fn unexpected(resp: ApiResponse, wanted: &str) -> ServeError {
        ServeError::Nav(DlnError::corrupt(
            "net client",
            format!("expected {wanted}, got {resp:?}"),
        ))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> ServeResult<()> {
        match self.request(&ApiRequest::Ping)? {
            ApiResponse::Pong => Ok(()),
            other => Err(Self::unexpected(other, "Pong")),
        }
    }

    /// Open a session (fault key 0); see [`open_keyed`](Client::open_keyed).
    pub fn open(&mut self) -> ServeResult<SessionId> {
        self.open_keyed(0)
    }

    /// Open a session with a deterministic fault key, mirroring
    /// [`NavService::open_session_keyed`](dln_serve::NavService::open_session_keyed).
    pub fn open_keyed(&mut self, fault_key: u64) -> ServeResult<SessionId> {
        match self.request(&ApiRequest::Open { fault_key })? {
            ApiResponse::Opened { session } => Ok(session),
            other => Err(Self::unexpected(other, "Opened")),
        }
    }

    /// One navigation step, exactly-once even across reconnects.
    pub fn step(&mut self, session: SessionId, req: &StepRequest) -> ServeResult<StepResponse> {
        let resp = self.request(&ApiRequest::Step {
            session,
            req: req.clone(),
        })?;
        match resp {
            ApiResponse::Step(view) => Ok(view),
            other => Err(Self::unexpected(other, "Step")),
        }
    }

    /// The session's root-anchored path.
    pub fn path(&mut self, session: SessionId) -> ServeResult<Vec<StateId>> {
        match self.request(&ApiRequest::Path { session })? {
            ApiResponse::Path { path, .. } => Ok(path),
            other => Err(Self::unexpected(other, "Path")),
        }
    }

    /// Close a session.
    pub fn close(&mut self, session: SessionId) -> ServeResult<()> {
        match self.request(&ApiRequest::Close { session })? {
            ApiResponse::Closed { .. } => Ok(()),
            other => Err(Self::unexpected(other, "Closed")),
        }
    }
}
