//! The length-prefixed binary wire protocol.
//!
//! One frame carries one message:
//!
//! ```text
//! ┌────────────┬────────────┬─────────────────┬──────────────────┐
//! │ magic  u32 │ len    u32 │ payload (len B) │ fnv1a(payload)   │
//! │ "DLN1" LE  │ ≤ cap      │                 │ u64              │
//! └────────────┴────────────┴─────────────────┴──────────────────┘
//! ```
//!
//! The magic doubles as the protocol version (`DLN1`); a future format
//! bump changes the magic, so an old peer refuses a new frame instead of
//! misparsing it. `len` is capped ([`MAX_FRAME_LEN`] by default, smaller
//! caps configurable) and validated *before* any allocation — an
//! adversarial length can cost at most one `Corrupt` error, never memory.
//! The trailing FNV-1a checksum is the same integrity primitive every
//! durable artifact in the workspace uses (`dln-persist`); a torn or
//! bit-flipped frame is a typed [`DlnError::Corrupt`], never a panic.
//!
//! The payload is a request or response *envelope*: a `u64` sequence
//! number followed by the [`ApiRequest`] / [`ApiResponse`] body. The
//! sequence number is what makes retries exactly-once: the server caches
//! the last response per session, and a client resending seq `q` after a
//! torn connection gets the cached bytes instead of a re-applied step.
//!
//! Every float crosses the wire as its IEEE-754 bit pattern (`f32 → u32`,
//! `f64 → u64`), so a decoded response is bit-identical to the encoded
//! one — the property the wire-vs-library test asserts with
//! `f64::to_bits` equality.
//!
//! The frame header and every payload are written with
//! [`dln_persist::Writer`] and read with [`dln_persist::Reader`], the
//! codec of every durable record in the workspace. Its reads are
//! bounds-checked, refuse a bool or option tag other than 0 or 1, refuse
//! a count whose elements cannot fit in the bytes that remain, and refuse
//! trailing bytes after a complete message.

use dln_fault::{DlnError, DlnResult};
use dln_lake::TableId;
use dln_org::StateId;
use dln_persist::{fnv1a, verify_sealed, Reader, Writer};
use dln_serve::service::{ChildView, StepAction, StepRequest, StepResponse, SwapOutcome};
use dln_serve::{ApiRequest, ApiResponse, SessionId, WireError};

/// Frame magic; doubles as the wire-format version: the bytes "DLN1" read
/// as a little-endian u32.
pub const MAGIC: u32 = 0x314E_4C44;

/// Default cap on a frame's payload length (16 MiB). A frame header
/// announcing more than the configured cap is rejected as `Corrupt`
/// before any allocation happens.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Frame header length (magic + payload length).
pub const HEADER_LEN: usize = 8;

/// Frame trailer length (FNV-1a checksum).
pub const TRAILER_LEN: usize = 8;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Append one finished frame (header + `payload` + checksum) to `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    let mut w = Writer::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    w.u32(MAGIC);
    w.u32(payload.len() as u32);
    w.bytes(payload);
    w.u64(fnv1a(payload));
    if out.is_empty() {
        // Every caller starts from an empty buffer: hand it the frame
        // instead of copying it.
        *out = w.into_bytes();
    } else {
        out.extend_from_slice(&w.into_bytes());
    }
}

/// Try to extract one frame from the front of `buf`.
///
/// * `Ok(None)` — the buffer holds a valid prefix of a frame; read more.
/// * `Ok(Some((payload, consumed)))` — one complete, checksum-verified
///   frame; the caller drains `consumed` bytes.
/// * `Err(Corrupt)` — bad magic, an over-cap length, or a checksum
///   mismatch. The connection is beyond recovery (framing is lost) and
///   must be closed.
pub fn try_decode_frame<'a>(
    buf: &'a [u8],
    max_len: u32,
    context: &str,
) -> DlnResult<Option<(&'a [u8], usize)>> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let mut r = Reader::new(buf, 0, context);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(DlnError::corrupt(
            context,
            format!("bad frame magic {magic:#010x} (expected {MAGIC:#010x})"),
        ));
    }
    let len = r.u32()?;
    if len > max_len {
        return Err(DlnError::corrupt(
            context,
            format!("frame length {len} exceeds the {max_len}-byte cap"),
        ));
    }
    let total = HEADER_LEN + len as usize + TRAILER_LEN;
    if buf.len() < total {
        return Ok(None);
    }
    // Payload plus its FNV-1a checksum is a sealed record.
    let payload = verify_sealed(&buf[HEADER_LEN..total], context)?;
    Ok(Some((payload, total)))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The error for a tag byte that names no variant of `what`.
fn unknown_tag(context: &str, what: &str, tag: u8) -> DlnError {
    DlnError::corrupt(context, format!("unknown {what} tag {tag}"))
}

const REQ_PING: u8 = 0;
const REQ_OPEN: u8 = 1;
const REQ_STEP: u8 = 2;
const REQ_PATH: u8 = 3;
const REQ_CLOSE: u8 = 4;

fn enc_step_request(e: &mut Writer, req: &StepRequest) {
    match req.action {
        StepAction::Descend(StateId(s)) => {
            e.u8(0);
            e.u32(s);
        }
        StepAction::Backtrack => e.u8(1),
        StepAction::Reset => e.u8(2),
        StepAction::Stay => e.u8(3),
    }
    e.opt(&req.query, |e, q| {
        e.u32(q.len() as u32);
        for &v in q {
            e.f32(v);
        }
    });
    e.opt(&req.deadline_ms, |e, &d| e.u64(d));
    e.bool(req.list_tables);
}

fn dec_step_request(d: &mut Reader<'_>, context: &str) -> DlnResult<StepRequest> {
    let action = match d.u8()? {
        0 => StepAction::Descend(StateId(d.u32()?)),
        1 => StepAction::Backtrack,
        2 => StepAction::Reset,
        3 => StepAction::Stay,
        other => return Err(unknown_tag(context, "step action", other)),
    };
    let query = d.opt(|d| {
        let n = d.count(4)?;
        let mut q = Vec::with_capacity(n);
        for _ in 0..n {
            q.push(d.f32()?);
        }
        Ok(q)
    })?;
    let deadline_ms = d.opt(|d| d.u64())?;
    let list_tables = d.bool()?;
    Ok(StepRequest {
        action,
        query,
        deadline_ms,
        list_tables,
    })
}

/// Encode a `(seq, request)` envelope into a payload buffer.
pub fn encode_request(seq: u64, req: &ApiRequest) -> Vec<u8> {
    let mut e = Writer::with_capacity(64);
    e.u64(seq);
    match req {
        ApiRequest::Ping => e.u8(REQ_PING),
        ApiRequest::Open { fault_key } => {
            e.u8(REQ_OPEN);
            e.u64(*fault_key);
        }
        ApiRequest::Step { session, req } => {
            e.u8(REQ_STEP);
            e.u64(session.0);
            enc_step_request(&mut e, req);
        }
        ApiRequest::Path { session } => {
            e.u8(REQ_PATH);
            e.u64(session.0);
        }
        ApiRequest::Close { session } => {
            e.u8(REQ_CLOSE);
            e.u64(session.0);
        }
    }
    e.into_bytes()
}

/// Decode a `(seq, request)` envelope from a frame payload.
pub fn decode_request(payload: &[u8], context: &str) -> DlnResult<(u64, ApiRequest)> {
    let mut d = Reader::new(payload, 0, context);
    let seq = d.u64()?;
    let req = match d.u8()? {
        REQ_PING => ApiRequest::Ping,
        REQ_OPEN => ApiRequest::Open {
            fault_key: d.u64()?,
        },
        REQ_STEP => {
            let session = SessionId(d.u64()?);
            let req = dec_step_request(&mut d, context)?;
            ApiRequest::Step { session, req }
        }
        REQ_PATH => ApiRequest::Path {
            session: SessionId(d.u64()?),
        },
        REQ_CLOSE => ApiRequest::Close {
            session: SessionId(d.u64()?),
        },
        other => return Err(unknown_tag(context, "request", other)),
    };
    d.finish()?;
    Ok((seq, req))
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

const RESP_PONG: u8 = 0;
const RESP_OPENED: u8 = 1;
const RESP_STEP: u8 = 2;
const RESP_PATH: u8 = 3;
const RESP_CLOSED: u8 = 4;
const RESP_ERROR: u8 = 5;

const ERR_OVERLOADED: u8 = 0;
const ERR_SESSION_LIMIT: u8 = 1;
const ERR_SESSION_NOT_FOUND: u8 = 2;
const ERR_SESSION_EXPIRED: u8 = 3;
const ERR_STALE: u8 = 4;
const ERR_NAV: u8 = 5;

fn enc_step_response(e: &mut Writer, r: &StepResponse) {
    e.u64(r.session.0);
    e.u64(r.epoch);
    e.u32(r.state.0);
    e.u64(r.depth as u64);
    e.str(&r.label);
    e.opt(&r.at_tag_state, |e, &t| e.u32(t));
    e.u32(r.children.len() as u32);
    for c in &r.children {
        e.u32(c.state.0);
        e.str(&c.label);
        e.opt(&c.prob, |e, &p| e.f64(p));
    }
    e.u32(r.tables.len() as u32);
    for &(tid, n) in &r.tables {
        e.u32(tid.0);
        e.u64(n as u64);
    }
    e.bool(r.degraded);
    match r.swap {
        SwapOutcome::Current => e.u8(0),
        SwapOutcome::Pinned { epoch } => {
            e.u8(1);
            e.u64(epoch);
        }
        SwapOutcome::Migrated {
            from_epoch,
            to_epoch,
            lost_depth,
        } => {
            e.u8(2);
            e.u64(from_epoch);
            e.u64(to_epoch);
            e.u64(lost_depth as u64);
        }
    }
}

fn dec_step_response(d: &mut Reader<'_>, context: &str) -> DlnResult<StepResponse> {
    let session = SessionId(d.u64()?);
    let epoch = d.u64()?;
    let state = StateId(d.u32()?);
    let depth = d.u64()? as usize;
    let label = d.str()?;
    let at_tag_state = d.opt(|d| d.u32())?;
    let n_children = d.count(9)?;
    let mut children = Vec::with_capacity(n_children);
    for _ in 0..n_children {
        let state = StateId(d.u32()?);
        let label = d.str()?;
        let prob = d.opt(|d| d.f64())?;
        children.push(ChildView { state, label, prob });
    }
    let n_tables = d.count(12)?;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let tid = TableId(d.u32()?);
        let n = d.u64()? as usize;
        tables.push((tid, n));
    }
    let degraded = d.bool()?;
    let swap = match d.u8()? {
        0 => SwapOutcome::Current,
        1 => SwapOutcome::Pinned { epoch: d.u64()? },
        2 => SwapOutcome::Migrated {
            from_epoch: d.u64()?,
            to_epoch: d.u64()?,
            lost_depth: d.u64()? as usize,
        },
        other => return Err(unknown_tag(context, "swap outcome", other)),
    };
    Ok(StepResponse {
        session,
        epoch,
        state,
        depth,
        label,
        at_tag_state,
        children,
        tables,
        degraded,
        swap,
    })
}

fn enc_wire_error(e: &mut Writer, err: &WireError) {
    match err {
        WireError::Overloaded { retry_after_ms } => {
            e.u8(ERR_OVERLOADED);
            e.u64(*retry_after_ms);
        }
        WireError::SessionLimit { capacity } => {
            e.u8(ERR_SESSION_LIMIT);
            e.u64(*capacity);
        }
        WireError::SessionNotFound { session } => {
            e.u8(ERR_SESSION_NOT_FOUND);
            e.u64(session.0);
        }
        WireError::SessionExpired { session, injected } => {
            e.u8(ERR_SESSION_EXPIRED);
            e.u64(session.0);
            e.bool(*injected);
        }
        WireError::Stale {
            session_epoch,
            current_epoch,
        } => {
            e.u8(ERR_STALE);
            e.u64(*session_epoch);
            e.u64(*current_epoch);
        }
        WireError::Nav { message } => {
            e.u8(ERR_NAV);
            e.str(message);
        }
    }
}

fn dec_wire_error(d: &mut Reader<'_>, context: &str) -> DlnResult<WireError> {
    Ok(match d.u8()? {
        ERR_OVERLOADED => WireError::Overloaded {
            retry_after_ms: d.u64()?,
        },
        ERR_SESSION_LIMIT => WireError::SessionLimit { capacity: d.u64()? },
        ERR_SESSION_NOT_FOUND => WireError::SessionNotFound {
            session: SessionId(d.u64()?),
        },
        ERR_SESSION_EXPIRED => WireError::SessionExpired {
            session: SessionId(d.u64()?),
            injected: d.bool()?,
        },
        ERR_STALE => WireError::Stale {
            session_epoch: d.u64()?,
            current_epoch: d.u64()?,
        },
        ERR_NAV => WireError::Nav { message: d.str()? },
        other => return Err(unknown_tag(context, "error", other)),
    })
}

/// Encode a `(seq, response)` envelope into a payload buffer.
pub fn encode_response(seq: u64, resp: &ApiResponse) -> Vec<u8> {
    let mut e = Writer::with_capacity(64);
    e.u64(seq);
    match resp {
        ApiResponse::Pong => e.u8(RESP_PONG),
        ApiResponse::Opened { session } => {
            e.u8(RESP_OPENED);
            e.u64(session.0);
        }
        ApiResponse::Step(r) => {
            e.u8(RESP_STEP);
            enc_step_response(&mut e, r);
        }
        ApiResponse::Path { session, path } => {
            e.u8(RESP_PATH);
            e.u64(session.0);
            e.u32(path.len() as u32);
            for &StateId(s) in path {
                e.u32(s);
            }
        }
        ApiResponse::Closed { session } => {
            e.u8(RESP_CLOSED);
            e.u64(session.0);
        }
        ApiResponse::Error(err) => {
            e.u8(RESP_ERROR);
            enc_wire_error(&mut e, err);
        }
    }
    e.into_bytes()
}

/// Decode a `(seq, response)` envelope from a frame payload.
pub fn decode_response(payload: &[u8], context: &str) -> DlnResult<(u64, ApiResponse)> {
    let mut d = Reader::new(payload, 0, context);
    let seq = d.u64()?;
    let resp = match d.u8()? {
        RESP_PONG => ApiResponse::Pong,
        RESP_OPENED => ApiResponse::Opened {
            session: SessionId(d.u64()?),
        },
        RESP_STEP => ApiResponse::Step(dec_step_response(&mut d, context)?),
        RESP_PATH => {
            let session = SessionId(d.u64()?);
            let n = d.count(4)?;
            let mut path = Vec::with_capacity(n);
            for _ in 0..n {
                path.push(StateId(d.u32()?));
            }
            ApiResponse::Path { session, path }
        }
        RESP_CLOSED => ApiResponse::Closed {
            session: SessionId(d.u64()?),
        },
        RESP_ERROR => ApiResponse::Error(dec_wire_error(&mut d, context)?),
        other => return Err(unknown_tag(context, "response", other)),
    };
    d.finish()?;
    Ok((seq, resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_of(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(payload, &mut out);
        out
    }

    #[test]
    fn frame_round_trip_and_partial_reads() {
        let buf = frame_of(b"hello wire");
        assert_eq!(buf[..4], *b"DLN1");
        // Every strict prefix is Incomplete, never an error.
        for cut in 0..buf.len() {
            let out = try_decode_frame(&buf[..cut], MAX_FRAME_LEN, "t").expect("prefix is clean");
            assert!(out.is_none(), "prefix of {cut} bytes decoded a frame");
        }
        let (payload, consumed) = try_decode_frame(&buf, MAX_FRAME_LEN, "t")
            .expect("full frame")
            .expect("complete");
        assert_eq!(payload, b"hello wire");
        assert_eq!(consumed, buf.len());
        // Two frames back to back: the first decode leaves the second.
        let mut two = buf.clone();
        two.extend_from_slice(&frame_of(b"second"));
        let (p1, c1) = try_decode_frame(&two, MAX_FRAME_LEN, "t").unwrap().unwrap();
        assert_eq!(p1, b"hello wire");
        let (p2, _) = try_decode_frame(&two[c1..], MAX_FRAME_LEN, "t")
            .unwrap()
            .unwrap();
        assert_eq!(p2, b"second");
    }

    #[test]
    fn bad_magic_oversize_and_flips_are_typed_corrupt() {
        let buf = frame_of(b"payload");
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            try_decode_frame(&bad, MAX_FRAME_LEN, "t"),
            Err(DlnError::Corrupt { .. })
        ));
        // Oversized announced length is rejected before allocation.
        let mut big = buf.clone();
        big[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            try_decode_frame(&big, 1024, "t"),
            Err(DlnError::Corrupt { .. })
        ));
        // Every single-bit payload/checksum flip fails the checksum.
        for i in HEADER_LEN..buf.len() {
            let mut flip = buf.clone();
            flip[i] ^= 0x10;
            assert!(
                matches!(
                    try_decode_frame(&flip, MAX_FRAME_LEN, "t"),
                    Err(DlnError::Corrupt { .. })
                ),
                "flip at {i} not caught"
            );
        }
    }

    #[test]
    fn request_round_trip_every_variant() {
        let reqs = [
            ApiRequest::Ping,
            ApiRequest::Open { fault_key: 77 },
            ApiRequest::Step {
                session: SessionId(3),
                req: StepRequest {
                    action: StepAction::Descend(StateId(9)),
                    query: Some(vec![0.25, -1.5, f32::MIN_POSITIVE]),
                    deadline_ms: Some(17),
                    list_tables: true,
                },
            },
            ApiRequest::Step {
                session: SessionId(u64::MAX),
                req: StepRequest {
                    action: StepAction::Reset,
                    query: None,
                    deadline_ms: None,
                    list_tables: false,
                },
            },
            ApiRequest::Path {
                session: SessionId(5),
            },
            ApiRequest::Close {
                session: SessionId(6),
            },
        ];
        for (i, req) in reqs.iter().enumerate() {
            let payload = encode_request(i as u64, req);
            let (seq, back) = decode_request(&payload, "t").expect("round trip");
            assert_eq!(seq, i as u64);
            assert_eq!(format!("{back:?}"), format!("{req:?}"), "variant {i}");
        }
    }

    #[test]
    fn response_round_trip_preserves_float_bits() {
        let resp = ApiResponse::Step(StepResponse {
            session: SessionId(8),
            epoch: 3,
            state: StateId(11),
            depth: 2,
            label: "étiquette".to_string(),
            at_tag_state: Some(4),
            children: vec![
                ChildView {
                    state: StateId(12),
                    label: "a".into(),
                    prob: Some(0.1 + 0.2), // deliberately non-representable
                },
                ChildView {
                    state: StateId(13),
                    label: String::new(),
                    prob: None,
                },
            ],
            tables: vec![(TableId(0), 5), (TableId(9), 1)],
            degraded: true,
            swap: SwapOutcome::Migrated {
                from_epoch: 1,
                to_epoch: 3,
                lost_depth: 1,
            },
        });
        let payload = encode_response(42, &resp);
        let (seq, back) = decode_response(&payload, "t").expect("round trip");
        assert_eq!(seq, 42);
        let (ApiResponse::Step(a), ApiResponse::Step(b)) = (&resp, &back) else {
            panic!("variant changed");
        };
        assert_eq!(a.label, b.label);
        assert_eq!(a.children.len(), b.children.len());
        for (ca, cb) in a.children.iter().zip(&b.children) {
            assert_eq!(
                ca.prob.map(f64::to_bits),
                cb.prob.map(f64::to_bits),
                "probability bits must survive the wire"
            );
        }
        assert_eq!(a.tables, b.tables);
        assert_eq!(a.swap, b.swap);

        // Every error variant survives too.
        let errors = [
            WireError::Overloaded { retry_after_ms: 9 },
            WireError::SessionLimit { capacity: 2 },
            WireError::SessionNotFound {
                session: SessionId(1),
            },
            WireError::SessionExpired {
                session: SessionId(2),
                injected: true,
            },
            WireError::Stale {
                session_epoch: 0,
                current_epoch: 4,
            },
            WireError::Nav {
                message: "not a child".into(),
            },
        ];
        for err in errors {
            let payload = encode_response(1, &ApiResponse::Error(err.clone()));
            let (_, back) = decode_response(&payload, "t").expect("round trip");
            let ApiResponse::Error(back) = back else {
                panic!("variant changed")
            };
            assert_eq!(back, err);
        }
    }

    #[test]
    fn adversarial_payloads_are_corrupt_never_panics_or_overallocation() {
        // Truncations of a valid request payload.
        let payload = encode_request(
            7,
            &ApiRequest::Step {
                session: SessionId(3),
                req: StepRequest {
                    action: StepAction::Stay,
                    query: Some(vec![1.0; 8]),
                    deadline_ms: Some(5),
                    list_tables: true,
                },
            },
        );
        for cut in 0..payload.len() {
            assert!(
                decode_request(&payload[..cut], "t").is_err(),
                "truncation at {cut} accepted"
            );
        }
        // A huge announced count with a tiny payload must be refused by the
        // plausibility bound, not attempted as an allocation.
        let mut evil = Vec::new();
        evil.extend_from_slice(&0u64.to_le_bytes()); // seq
        evil.push(2); // REQ_STEP
        evil.extend_from_slice(&0u64.to_le_bytes()); // session
        evil.push(3); // Stay
        evil.push(1); // Some(query)
        evil.extend_from_slice(&u32::MAX.to_le_bytes()); // count = 4 billion
        assert!(matches!(
            decode_request(&evil, "t"),
            Err(DlnError::Corrupt { .. })
        ));
        // Unknown tags at every layer.
        for bad_tag in [200u8, 255] {
            let mut p = vec![0; 8];
            p.push(bad_tag);
            assert!(decode_request(&p, "t").is_err());
            assert!(decode_response(&p, "t").is_err());
        }
        // Trailing garbage after a complete message is refused.
        let mut padded = encode_request(1, &ApiRequest::Ping);
        padded.push(0);
        assert!(decode_request(&padded, "t").is_err());
    }

    #[test]
    fn random_bytes_never_panic() {
        // A cheap deterministic fuzz: feed pseudo-random byte soup to the
        // frame and payload decoders; everything must come back as a typed
        // result, nothing may panic.
        let mut x = 0x12345678u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..500 {
            let len = (next() % 96) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let _ = try_decode_frame(&bytes, MAX_FRAME_LEN, "fuzz");
            let _ = decode_request(&bytes, "fuzz");
            let _ = decode_response(&bytes, "fuzz");
            // Also fuzz *inside* a valid frame so the payload decoders see
            // checksummed-but-meaningless bytes.
            let mut framed = Vec::new();
            encode_frame(&bytes, &mut framed);
            let decoded = try_decode_frame(&framed, MAX_FRAME_LEN, "fuzz")
                .expect("well-formed frame")
                .expect("complete");
            assert_eq!(decoded.0, &bytes[..], "round {round}");
        }
    }
}
