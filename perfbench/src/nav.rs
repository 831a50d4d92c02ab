//! Closed-loop navigation load over the wire, its request log, and the
//! in-process replay that checks the answers and splits the wire step
//! into layers.
//!
//! Each connection multiplexes many logical sessions. Every session
//! carries its own query near one lake topic (topics drawn Zipf) and
//! walks the organization: descend (mostly to the best-ranked child),
//! backtrack, list tables, and now and then close and reopen. What a
//! session does next depends only on its own seeded generator and the
//! answers it got, so the request sequence is a function of the seed and
//! the organization.

use std::time::Instant;

use dln_fault::DlnError;
use dln_net::{wire, Client};
use dln_org::StateId;
use dln_serve::service::tables_at;
use dln_serve::{
    ApiRequest, ApiResponse, NavService, ServeError, SessionId, StepAction, StepRequest,
    StepResponse,
};

use crate::lakegen::{fnv1a, query_near, Rng, Zipf, FNV_BASIS};
use crate::stats::median;

/// Share of steps that also list the tables under the state.
const LIST_TABLES: f64 = 0.2;
/// Share of requests that close the session (it is reopened next).
const CLOSE: f64 = 0.02;
/// Share of requests that descend when the state has children.
const DESCEND: f64 = 0.7;
/// A digest of every `SAMPLE_EVERY`-th step answer is kept for the replay
/// check.
const SAMPLE_EVERY: usize = 16;
/// Requests logged per connection for the replay; later ones are sent but
/// not logged, so the benchmark's own memory does not grow with speed.
const LOG_CAP: usize = 100_000;

/// One request as logged: which logical session and what it asked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Open the session.
    Open,
    /// Close the session.
    Close,
    /// One navigation step.
    Step(StepAction, bool),
}

/// Failures by kind, counted per request.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fails {
    /// Transport failures the client could not recover from.
    pub transport: u64,
    /// `Overloaded` refusals.
    pub overloaded: u64,
    /// `SessionLimit`, `SessionNotFound` and `SessionExpired` refusals.
    pub session: u64,
    /// `Nav` refusals of a descend whose child vanished in a migration.
    pub stale: u64,
    /// Any other refusal.
    pub other: u64,
}

impl Fails {
    /// All failures.
    pub fn total(&self) -> u64 {
        self.transport + self.overloaded + self.session + self.stale + self.other
    }

    fn add(&mut self, e: &ServeError) {
        match e {
            ServeError::Overloaded { .. } => self.overloaded += 1,
            ServeError::SessionLimit { .. }
            | ServeError::SessionNotFound { .. }
            | ServeError::SessionExpired { .. } => self.session += 1,
            ServeError::Nav(DlnError::InvalidNavigation { .. }) => self.stale += 1,
            ServeError::Nav(DlnError::Io { .. }) => self.transport += 1,
            _ => self.other += 1,
        }
    }

    /// Sum of two tallies.
    pub fn merge(&mut self, o: &Fails) {
        self.transport += o.transport;
        self.overloaded += o.overloaded;
        self.session += o.session;
        self.stale += o.stale;
        self.other += o.other;
    }
}

/// What a session keeps of its last answer: the depth and the ranked
/// children, all its next request needs.
struct View {
    depth: usize,
    children: Vec<(StateId, f64)>,
}

impl View {
    fn of(r: &StepResponse) -> View {
        View {
            depth: r.depth,
            children: r
                .children
                .iter()
                .map(|c| (c.state, c.prob.unwrap_or(0.0)))
                .collect(),
        }
    }
}

/// Digest of a step answer's wire encoding with the session id (assigned
/// independently by each service) blanked.
fn answer_digest(mut r: StepResponse) -> u64 {
    r.session = SessionId(0);
    fnv1a(FNV_BASIS, &wire::encode_response(0, &ApiResponse::Step(r)))
}

/// A logical session's client-side state.
pub struct Session {
    query: Vec<f32>,
    rng: Rng,
    id: Option<SessionId>,
    view: Option<View>,
}

impl Session {
    /// Session number `idx` of the run with seed `seed`: its own query
    /// near a Zipf-drawn topic and its own generator.
    pub fn new(seed: u64, idx: usize, centers: &[Vec<f32>], topic_zipf: &Zipf) -> Session {
        let mut rng = Rng::new(seed, 1_000 + idx as u64);
        let topic = topic_zipf.sample(&mut rng);
        Session {
            query: query_near(centers, topic, &mut rng),
            rng,
            id: None,
            view: None,
        }
    }

    /// The next request, given the last answer.
    fn next_op(&mut self) -> Op {
        if self.id.is_none() {
            return Op::Open;
        }
        let list = self.rng.unit() < LIST_TABLES;
        let Some(view) = &self.view else {
            return Op::Step(StepAction::Stay, list);
        };
        let r = self.rng.unit();
        if r < CLOSE {
            return Op::Close;
        }
        if view.children.is_empty() || (r >= DESCEND && view.depth > 0) {
            return Op::Step(StepAction::Backtrack, list);
        }
        // Mostly follow the model's best child; sometimes explore.
        let pick = if self.rng.below(10) < 7 {
            view.children
                .iter()
                .enumerate()
                .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
                .map_or(0, |(i, _)| i)
        } else {
            self.rng.below(view.children.len())
        };
        Op::Step(StepAction::Descend(view.children[pick].0), list)
    }

    fn step_request(&self, action: StepAction, list_tables: bool) -> StepRequest {
        StepRequest {
            action,
            query: Some(self.query.clone()),
            deadline_ms: None,
            list_tables,
        }
    }
}

/// The sessions of a run with `n` sessions.
pub fn sessions(seed: u64, n: usize, centers: &[Vec<f32>]) -> Vec<Session> {
    let zipf = Zipf::new(centers.len(), 1.0);
    (0..n)
        .map(|i| Session::new(seed, i, centers, &zipf))
        .collect()
}

/// One client connection driving a slice of the sessions.
pub struct Conn {
    client: Client,
    /// Index of this connection's first session in the run.
    pub base: usize,
    sessions: Vec<Session>,
    rng: Rng,
    /// Every request sent: (session index within the run, op).
    pub log: Vec<(u32, Op)>,
    /// Kept step answers: (position in `log`, digest of the answer or
    /// `None` for a refusal).
    pub samples: Vec<(usize, Option<u64>)>,
    /// Step latencies of the measured phase, µs.
    pub lat_us: Vec<f64>,
    /// End of each measured window, as a length of `lat_us`.
    pub window_ends: Vec<usize>,
    /// Traced spans of measured steps: (start, end) in seconds since the
    /// phase began. Recorded only when tracing.
    pub spans: Vec<(f64, f64)>,
    /// Requests sent during the measured phase.
    pub attempted: u64,
    /// Failures during the measured phase.
    pub fails: Fails,
    steps: usize,
}

impl Conn {
    /// Connect to `addr` and open every session of `sessions`.
    pub fn open(
        addr: &str,
        base: usize,
        sessions: Vec<Session>,
        seed: u64,
    ) -> Result<Conn, String> {
        let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let mut c = Conn {
            client,
            base,
            sessions,
            rng: Rng::new(seed, 500 + base as u64),
            log: Vec::new(),
            samples: Vec::new(),
            lat_us: Vec::new(),
            window_ends: Vec::new(),
            spans: Vec::new(),
            attempted: 0,
            fails: Fails::default(),
            steps: 0,
        };
        for i in 0..c.sessions.len() {
            c.request(i, None)
                .map_err(|e| format!("opening session {}: {e}", base + i))?;
        }
        Ok(c)
    }

    /// Send session `i`'s next request. With `phase` set, the request is
    /// timed against that phase start (and traced if `trace`).
    fn request(&mut self, i: usize, phase: Option<(Instant, bool)>) -> Result<(), ServeError> {
        let s = &mut self.sessions[i];
        let op = s.next_op();
        let logged = self.log.len() < LOG_CAP;
        if logged {
            self.log.push(((self.base + i) as u32, op));
        }
        let t = Instant::now();
        let out = match op {
            Op::Open => self.client.open().map(|id| {
                s.id = Some(id);
                s.view = None;
            }),
            Op::Close => {
                let id =
                    s.id.take()
                        .expect("close is only chosen for an open session");
                s.view = None;
                self.client.close(id)
            }
            Op::Step(action, list) => {
                let id = s.id.expect("steps are only chosen for an open session");
                let out = self.client.step(id, &s.step_request(action, list));
                let end = Instant::now();
                if let Some((t0, trace)) = phase {
                    self.lat_us.push((end - t).as_secs_f64() * 1e6);
                    if trace {
                        self.spans
                            .push(((t - t0).as_secs_f64(), (end - t0).as_secs_f64()));
                    }
                }
                let sampled = logged && self.steps.is_multiple_of(SAMPLE_EVERY);
                self.steps += 1;
                let pos = self.log.len() - 1;
                match out {
                    Ok(r) => {
                        s.view = Some(View::of(&r));
                        if sampled {
                            self.samples.push((pos, Some(answer_digest(r))));
                        }
                        Ok(())
                    }
                    Err(e) => {
                        if sampled {
                            self.samples.push((pos, None));
                        }
                        Err(e)
                    }
                }
            }
        };
        if let Err(e) = &out {
            // A refused step keeps the session where it was: refresh the view.
            s.view = None;
            if phase.is_some() {
                self.fails.add(e);
            }
        }
        if phase.is_some() {
            self.attempted += 1;
        }
        out
    }

    /// One turn of the closed loop: pick a session at random, send its
    /// next request and wait for the answer.
    fn turn(&mut self, phase: Option<(Instant, bool)>) {
        let i = self.rng.below(self.sessions.len());
        let _ = self.request(i, phase);
    }

    /// The closed loop until `until`, timed against `t0`. Ends a measured
    /// window.
    pub fn run(&mut self, t0: Instant, until: Instant, trace: bool) {
        while Instant::now() < until {
            self.turn(Some((t0, trace)));
        }
        self.window_ends.push(self.lat_us.len());
    }

    /// `n` turns of the closed loop, untimed.
    pub fn run_turns(&mut self, n: usize) {
        for _ in 0..n {
            self.turn(None);
        }
    }

    /// Forget every session's last answer, as a client does when told of a
    /// new epoch: each session's next request is a `Stay` step, which
    /// migrates it and returns the children it may descend to now.
    pub fn forget_views(&mut self) {
        for s in &mut self.sessions {
            s.view = None;
        }
    }

    /// Step latencies of measured window `k`.
    pub fn window(&self, k: usize) -> &[f64] {
        let start = if k == 0 { 0 } else { self.window_ends[k - 1] };
        &self.lat_us[start..self.window_ends[k]]
    }
}

/// Per-layer times from the replay, µs medians over step requests.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// `wire::encode_request` + framing.
    pub client_encode_us: f64,
    /// Frame check + `wire::decode_request`.
    pub server_decode_us: f64,
    /// `NavService::dispatch`.
    pub dispatch_us: f64,
    /// `wire::encode_response` + framing.
    pub server_encode_us: f64,
    /// Frame check + `wire::decode_response`.
    pub client_decode_us: f64,
    /// `OrgSnapshot::transition_probs` at the state a step landed on.
    pub rank_us: f64,
    /// `tables_at` on steps that list tables.
    pub tables_us: f64,
    /// Step answers compared with the wire.
    pub compared: usize,
}

/// Per-step times of the replay, µs, pooled over every replay of a run:
/// the five parts of a step, the Eq 1 kernel and `tables_at`, in the order
/// of [`Layers`]' fields.
#[derive(Default)]
pub struct Timings {
    parts: [Vec<f64>; 7],
    /// Step answers compared with the wire.
    pub compared: usize,
}

impl Timings {
    /// The median of each part.
    pub fn layers(&self) -> Layers {
        let m = |i: usize| median(&self.parts[i]);
        Layers {
            client_encode_us: m(0),
            server_decode_us: m(1),
            dispatch_us: m(2),
            server_encode_us: m(3),
            client_decode_us: m(4),
            rank_us: m(5),
            tables_us: m(6),
            compared: self.compared,
        }
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Replay every connection's log, one connection after another, against
/// `svc` (a second service opened from the same store), checking each kept
/// wire answer bit for bit (wire encoding, session id mapped) and timing
/// the layers of each step into `times`.
pub fn replay(
    svc: &NavService,
    conns: &[Conn],
    all: &[Session],
    times: &mut Timings,
) -> Result<(), String> {
    let mut ids: Vec<Option<SessionId>> = vec![None; all.len()];
    let t = &mut times.parts;
    let snap = svc.snapshot();
    for conn in conns {
        let mut samples = conn.samples.iter().peekable();
        for (pos, &(sess, op)) in conn.log.iter().enumerate() {
            let sess = sess as usize;
            let req = match op {
                Op::Open => ApiRequest::Open { fault_key: 0 },
                Op::Close => ApiRequest::Close {
                    session: ids[sess]
                        .take()
                        .ok_or("replay: close of an unopened session")?,
                },
                Op::Step(action, list) => ApiRequest::Step {
                    session: ids[sess].ok_or("replay: step on an unopened session")?,
                    req: all[sess].step_request(action, list),
                },
            };
            let is_step = matches!(op, Op::Step(..));
            let start = Instant::now();
            let framed = {
                let mut out = Vec::new();
                wire::encode_frame(&wire::encode_request(pos as u64, &req), &mut out);
                out
            };
            let client_encode = us(start);
            let start = Instant::now();
            let decoded = wire::try_decode_frame(&framed, wire::MAX_FRAME_LEN, "replay")
                .and_then(|f| {
                    let (payload, _) =
                        f.ok_or_else(|| DlnError::corrupt("replay", "short frame"))?;
                    wire::decode_request(payload, "replay")
                })
                .map_err(|e| format!("replay: request does not decode: {e}"))?;
            let server_decode = us(start);
            let start = Instant::now();
            let resp = svc.dispatch(&decoded.1);
            let dispatch = us(start);
            let start = Instant::now();
            let framed = {
                let mut out = Vec::new();
                wire::encode_frame(&wire::encode_response(pos as u64, &resp), &mut out);
                out
            };
            let server_encode = us(start);
            let start = Instant::now();
            wire::try_decode_frame(&framed, wire::MAX_FRAME_LEN, "replay")
                .and_then(|f| {
                    let (payload, _) =
                        f.ok_or_else(|| DlnError::corrupt("replay", "short frame"))?;
                    wire::decode_response(payload, "replay")
                })
                .map_err(|e| format!("replay: response does not decode: {e}"))?;
            let client_decode = us(start);
            if is_step {
                for (v, x) in t.iter_mut().zip([
                    client_encode,
                    server_decode,
                    dispatch,
                    server_encode,
                    client_decode,
                ]) {
                    v.push(x);
                }
            }
            let sampled = samples.next_if(|(p, _)| *p == pos);
            match (&resp, op) {
                (ApiResponse::Opened { session }, Op::Open) => ids[sess] = Some(*session),
                (ApiResponse::Closed { .. }, Op::Close) => {}
                (ApiResponse::Step(view), Op::Step(_, list)) => {
                    let start = Instant::now();
                    std::hint::black_box(snap.transition_probs(view.state, &all[sess].query));
                    t[5].push(us(start));
                    if list {
                        let start = Instant::now();
                        std::hint::black_box(tables_at(&snap, view.state));
                        t[6].push(us(start));
                    }
                }
                (ApiResponse::Error(_), Op::Step(..)) => {}
                (other, _) => return Err(format!("replay: unexpected answer {other:?} to {op:?}")),
            }
            if let Some(&(_, wire_digest)) = sampled {
                let replayed = match resp {
                    ApiResponse::Step(r) => Some(answer_digest(r)),
                    _ => None,
                };
                if replayed != wire_digest {
                    return Err(format!(
                        "request {pos}: wire answer differs from the in-process replay"
                    ));
                }
                times.compared += 1;
            }
        }
    }
    Ok(())
}
