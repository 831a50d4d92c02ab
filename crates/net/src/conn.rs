//! Per-connection state machine.
//!
//! Each accepted socket owns one [`Conn`], driven entirely by the reactor
//! thread, which also runs every request's dispatch inline. The machine
//! has two states:
//!
//! ```text
//!          frame complete: dispatch, queue the response, write
//!   Idle ──────────────────────────────────────────────────► Writing
//!    ▲                                                          │
//!    └───── wbuf drained (at once, or under WRITE readiness) ───┘
//! ```
//!
//! Reading is implicit: a conn with a non-empty read buffer and no
//! complete frame is idle-with-partial-input. A conn has at most one
//! response in flight: bytes that arrive while it is `Writing` stay in the
//! socket or the read buffer and are parsed only after the response is
//! out, which bounds per-connection memory to one frame each way.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use dln_fault::DlnResult;

use crate::wire;

/// Lifecycle phase of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Waiting for (more of) a request frame.
    Idle,
    /// A response is being flushed; more [`write_ready`](Conn::write_ready)
    /// calls drain `wbuf`.
    Writing,
}

/// What a readiness edge did to the connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// Nothing actionable yet (partial frame, or `WouldBlock`).
    Incomplete,
    /// One complete, checksum-verified request payload.
    Frame(Vec<u8>),
    /// Peer closed cleanly (EOF with an empty buffer).
    Eof,
    /// Framing is unrecoverable (bad magic / oversize / checksum) or the
    /// socket errored; the conn must be torn down.
    Broken(dln_fault::DlnError),
}

/// One live client connection.
pub struct Conn {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Lifecycle phase.
    pub state: ConnState,
    /// Bytes read from the socket; `rbuf[rpos..]` is not yet parsed. A
    /// cut frame only advances `rpos`, so a pipelined burst costs one
    /// compaction per socket read rather than one memmove per frame.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Encoded response being flushed, plus the flush offset.
    wbuf: Vec<u8>,
    woff: usize,
    /// Clock-ms of the last byte in or out (idle-TTL accounting).
    pub last_active_ms: u64,
}

impl Conn {
    /// Wrap a freshly accepted nonblocking stream.
    pub fn new(stream: TcpStream, now_ms: u64) -> Conn {
        Conn {
            stream,
            state: ConnState::Idle,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            woff: 0,
            last_active_ms: now_ms,
        }
    }

    /// Drain the socket into `rbuf` and try to parse one frame.
    ///
    /// Call only in [`ConnState::Idle`]: while `Writing` the server leaves
    /// read readiness unconsumed (level-triggered polling re-reports it
    /// once the response is out).
    pub fn read_ready(&mut self, max_frame_len: u32, now_ms: u64) -> ReadOutcome {
        debug_assert_eq!(self.state, ConnState::Idle);
        self.rbuf.drain(..self.rpos);
        self.rpos = 0;
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF. Any buffered partial frame is a torn request the
                    // client never finished; drop it silently — the client
                    // treats its own connection loss as "resend after
                    // reconnect", so nothing is lost.
                    return ReadOutcome::Eof;
                }
                Ok(n) => {
                    self.last_active_ms = now_ms;
                    // Cap the read buffer at one max-size frame: a peer
                    // that streams garbage can cost at most the frame cap.
                    if self.rbuf.len() + n
                        > wire::HEADER_LEN + max_frame_len as usize + wire::TRAILER_LEN
                    {
                        return ReadOutcome::Broken(dln_fault::DlnError::corrupt(
                            "net conn",
                            "read buffer overflow without a complete frame",
                        ));
                    }
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return ReadOutcome::Broken(dln_fault::DlnError::io("net conn read", e)),
            }
        }
        self.try_frame(max_frame_len)
    }

    /// Attempt to cut one frame off the front of `rbuf`.
    fn try_frame(&mut self, max_frame_len: u32) -> ReadOutcome {
        let unparsed = &self.rbuf[self.rpos..];
        match wire::try_decode_frame(unparsed, max_frame_len, "net conn frame") {
            Ok(None) => ReadOutcome::Incomplete,
            Ok(Some((payload, consumed))) => {
                let frame = payload.to_vec();
                self.rpos += consumed;
                if self.rpos == self.rbuf.len() {
                    self.rbuf.clear();
                    self.rpos = 0;
                }
                ReadOutcome::Frame(frame)
            }
            Err(e) => ReadOutcome::Broken(e),
        }
    }

    /// Queue an already-framed response and enter [`ConnState::Writing`].
    pub fn queue_response(&mut self, framed: Vec<u8>) {
        debug_assert!(self.wbuf.len() == self.woff, "response queued over a flush");
        self.wbuf = framed;
        self.woff = 0;
        self.state = ConnState::Writing;
    }

    /// Flush as much of `wbuf` as the socket accepts.
    ///
    /// Returns `Ok(true)` when the buffer is fully drained (the conn
    /// returns to `Idle`), `Ok(false)` on a partial write (stay `Writing`,
    /// keep WRITE interest). `max_chunk` exists for the
    /// `net.write_partial` failpoint, which sets it to 1 to force the
    /// resumption path; normal operation passes `usize::MAX`.
    pub fn write_ready(&mut self, now_ms: u64, max_chunk: usize) -> DlnResult<bool> {
        while self.woff < self.wbuf.len() {
            let end = self
                .woff
                .saturating_add(max_chunk.max(1))
                .min(self.wbuf.len());
            match self.stream.write(&self.wbuf[self.woff..end]) {
                Ok(0) => {
                    return Err(dln_fault::DlnError::io(
                        "net conn write",
                        io::Error::new(io::ErrorKind::WriteZero, "peer stopped accepting bytes"),
                    ))
                }
                Ok(n) => {
                    self.woff += n;
                    self.last_active_ms = now_ms;
                    if max_chunk != usize::MAX {
                        // Failpoint mode: one tiny chunk per readiness edge
                        // so partial-write resumption actually exercises.
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(dln_fault::DlnError::io("net conn write", e)),
            }
        }
        if self.woff == self.wbuf.len() {
            self.wbuf.clear();
            self.woff = 0;
            self.state = ConnState::Idle;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// True when a response is queued but not fully flushed.
    pub fn has_pending_write(&self) -> bool {
        self.woff < self.wbuf.len()
    }

    /// After a response is out, parse any already-buffered next request
    /// (bytes the peer pipelined behind the one just answered).
    pub fn next_buffered_frame(&mut self, max_frame_len: u32) -> ReadOutcome {
        if self.rpos == self.rbuf.len() {
            ReadOutcome::Incomplete
        } else {
            self.try_frame(max_frame_len)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        (client, server)
    }

    #[test]
    fn frames_assemble_across_partial_reads() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 0);
        let mut framed = Vec::new();
        wire::encode_frame(b"abcdefgh", &mut framed);
        // Send the frame one byte at a time; the conn must never error and
        // must produce exactly one frame at the end.
        let mut got = None;
        for (i, b) in framed.iter().enumerate() {
            client.write_all(&[*b]).expect("send byte");
            client.flush().expect("flush");
            // Give the kernel a moment to deliver.
            std::thread::sleep(std::time::Duration::from_millis(1));
            match conn.read_ready(wire::MAX_FRAME_LEN, i as u64) {
                ReadOutcome::Incomplete => {}
                ReadOutcome::Frame(f) => got = Some((i, f)),
                other => panic!("unexpected outcome at byte {i}: {other:?}"),
            }
        }
        let (at, frame) = got.expect("frame never completed");
        assert_eq!(at, framed.len() - 1);
        assert_eq!(frame, b"abcdefgh");
        assert_eq!(conn.state, ConnState::Idle);
    }

    #[test]
    fn partial_writes_resume_until_drained() {
        let (client, server) = pair();
        let mut conn = Conn::new(server, 0);
        let mut framed = Vec::new();
        wire::encode_frame(&vec![7u8; 300], &mut framed);
        let total = framed.len();
        conn.queue_response(framed);
        assert_eq!(conn.state, ConnState::Writing);
        // Failpoint-style 1-byte chunks: each call makes progress; the
        // buffer drains after exactly `total` calls.
        let mut calls = 0;
        while !conn.write_ready(calls, 1).expect("write") {
            calls += 1;
            assert!(calls < total as u64 + 10, "flush never completed");
        }
        assert_eq!(conn.state, ConnState::Idle);
        assert!(!conn.has_pending_write());
        // The peer received the whole frame intact.
        let mut rx = vec![0u8; total];
        let mut c = client;
        c.set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .expect("timeout");
        c.read_exact(&mut rx).expect("receive");
        let (payload, _) = wire::try_decode_frame(&rx, wire::MAX_FRAME_LEN, "t")
            .expect("well-formed")
            .expect("complete");
        assert_eq!(payload, &vec![7u8; 300][..]);
    }

    #[test]
    fn garbage_input_breaks_the_conn_with_a_typed_error() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 0);
        client.write_all(&[0xAA; 16]).expect("send garbage");
        client.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(5));
        match conn.read_ready(wire::MAX_FRAME_LEN, 1) {
            ReadOutcome::Broken(e) => {
                assert!(matches!(e, dln_fault::DlnError::Corrupt { .. }), "{e}")
            }
            other => panic!("expected Broken, got {other:?}"),
        }
    }
}
