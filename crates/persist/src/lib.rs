//! Shared persistence plumbing: checksum framing, little-endian codecs,
//! the atomic write / `.prev` rotation / fallback-load protocol, and the
//! sequenced snapshot + WAL log.
//!
//! Every durable artifact in the workspace — search checkpoints,
//! organization stores and the maintainer's state file (`dln-org`), and
//! the CDC change log (`lake::cdc`) — shares one torn-write story,
//! implemented here once:
//!
//! * **FNV-1a 64 checksums** ([`fnv1a`]) over every byte that matters.
//! * **Atomic publish** ([`atomic_write`]): the encoded buffer is written
//!   to `<path>.tmp`, fsynced, then renamed over `path`; an existing file
//!   is rotated to `<path>.prev` first so one previous generation always
//!   survives a torn write of the newest.
//! * **Fallback load** ([`load_with_fallback`]): when the newest file is
//!   unreadable or fails its checksum, the rotated previous generation is
//!   tried; only a double failure is an error — and on a double failure
//!   the files on disk are left byte-for-byte untouched for forensics.
//! * **Sequenced logs** ([`SeqLog`]): a compacted snapshot plus a WAL of
//!   checksummed, sequence-numbered frames with ack-after-durable appends.
//!   The change log instantiates it with a [`SeqState`] that folds
//!   events in and owns the snapshot body.
//!
//! [`Writer`] and [`Reader`] are the one little-endian record codec: the
//! durable record formats above and the `dln-net` wire protocol (frame
//! header and every request and response payload) encode and decode
//! through them, so the adversarial-input rules (typed `Corrupt`, strict
//! bool and option tags, counts bounded by the bytes that remain, no
//! trailing bytes) live in one place. The store's fixed-width section
//! format, read in place with `align_to`, uses [`fnv1a`] and
//! [`atomic_write`] directly.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use dln_fault::{DlnError, DlnResult};

/// FNV-1a 64 over a byte slice — the integrity checksum used by every
/// on-disk artifact in this workspace (and by the organization
/// fingerprint in `dln-org`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The `<path>.prev` rotation target for `path`.
pub fn prev_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".prev");
    PathBuf::from(os)
}

/// The `<path>.tmp` staging target for [`atomic_write`].
fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Atomically publish `bytes` at `path`.
///
/// The buffer is staged at `<path>.tmp` and fsynced before any visible
/// change; an existing `path` is then rotated to `<path>.prev` (the
/// one-generation fallback) and the staged file renamed into place. A
/// crash at any point leaves either the old generation, or the new one
/// with the old at `.prev` — never a half-written `path`.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> DlnResult<()> {
    use std::io::Write as _;
    let tmp = tmp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)
            .map_err(|e| DlnError::io(format!("creating {}", tmp.display()), e))?;
        f.write_all(bytes)
            .map_err(|e| DlnError::io(format!("writing {}", tmp.display()), e))?;
        f.sync_all()
            .map_err(|e| DlnError::io(format!("fsyncing {}", tmp.display()), e))?;
    }
    if path.exists() {
        std::fs::rename(path, prev_path(path))
            .map_err(|e| DlnError::io(format!("rotating {}", path.display()), e))?;
    }
    std::fs::rename(&tmp, path)
        .map_err(|e| DlnError::io(format!("publishing {}", path.display()), e))
}

/// Load the artifact at `path` via `load`, falling back to the rotated
/// previous generation (`<path>.prev`) when the newest file is unreadable
/// or fails its integrity checks. Errors only when both generations are
/// unusable; `what` names the artifact kind in warnings and errors. The
/// load path never writes: a double failure leaves both generations on
/// disk exactly as found, so the corruption can be inspected post-mortem.
pub fn load_with_fallback<T>(
    path: &Path,
    what: &str,
    load: impl Fn(&Path) -> DlnResult<T>,
) -> DlnResult<T> {
    match load(path) {
        Ok(v) => Ok(v),
        Err(primary) => {
            let prev = prev_path(path);
            eprintln!(
                "warning: {what} {} unusable ({primary}); trying {}",
                path.display(),
                prev.display()
            );
            load(&prev).map_err(|fallback| {
                DlnError::corrupt(
                    path.display().to_string(),
                    format!("both generations unusable — newest: {primary}; previous: {fallback}"),
                )
            })
        }
    }
}

/// Little-endian record encoder. The caller appends fields in order and
/// finishes with [`Writer::seal`], which appends the FNV-1a checksum of
/// every preceding byte, or with [`Writer::into_bytes`] when the
/// enclosing frame carries the checksum.
pub struct Writer(Vec<u8>);

impl Writer {
    /// A writer with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer(Vec::with_capacity(capacity))
    }
    /// Append raw bytes.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }
    /// Append one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    /// Append a little-endian u32.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian u64.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Append an f32 as its IEEE-754 bits.
    #[inline]
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    /// Append an f64 as its IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Append a bool as one byte, 0 or 1.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    /// Append an option: tag byte 0 for `None`, or 1 followed by `put`'s
    /// encoding of the value.
    pub fn opt<T>(&mut self, v: &Option<T>, put: impl FnOnce(&mut Writer, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                put(self, x);
            }
        }
    }
    /// Append a string as a u32 byte length plus its UTF-8 bytes.
    #[inline]
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.bytes(v.as_bytes());
    }
    /// The bytes written so far, unsealed.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
    /// Append the FNV-1a checksum of everything written so far and return
    /// the finished buffer.
    pub fn seal(mut self) -> Vec<u8> {
        let checksum = fnv1a(&self.0);
        self.u64(checksum);
        self.0
    }
}

/// Little-endian record decoder over a checked byte slice.
///
/// Every read is bounds-checked and reports [`DlnError::Corrupt`] with
/// `context` (the source path or connection) on truncation, on a bool or
/// option tag other than 0 or 1, and on trailing bytes ([`finish`]). A
/// count ([`count`], [`len_prefix`]) is refused unless that many elements
/// of the caller's minimum size fit in the bytes that remain, so no
/// input, checksummed or not, makes a decoder allocate more than its own
/// length.
///
/// [`finish`]: Reader::finish
/// [`count`]: Reader::count
/// [`len_prefix`]: Reader::len_prefix
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    context: &'a str,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes` starting at `pos`, attributing errors to
    /// `context`.
    pub fn new(bytes: &'a [u8], pos: usize, context: &'a str) -> Self {
        Reader {
            bytes,
            pos,
            context,
        }
    }

    fn corrupt(&self, detail: String) -> DlnError {
        DlnError::corrupt(self.context, detail)
    }

    /// Take the next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> DlnResult<&'a [u8]> {
        if n > self.bytes.len() - self.pos {
            return Err(self.corrupt(format!("truncated at byte {} (wanted {n} more)", self.pos)));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> DlnResult<u8> {
        Ok(self.take(1)?[0])
    }
    /// Read a little-endian u32.
    #[inline]
    pub fn u32(&mut self) -> DlnResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    /// Read a little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> DlnResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    /// Read an f32 written by [`Writer::f32`].
    #[inline]
    pub fn f32(&mut self) -> DlnResult<f32> {
        Ok(f32::from_bits(self.u32()?))
    }
    /// Read an f64 written by [`Writer::f64`].
    #[inline]
    pub fn f64(&mut self) -> DlnResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Read a bool written by [`Writer::bool`]; any byte but 0 or 1 is
    /// `Corrupt`.
    #[inline]
    pub fn bool(&mut self) -> DlnResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.corrupt(format!("bool byte {b} (expected 0 or 1)"))),
        }
    }
    /// Read an option written by [`Writer::opt`], decoding a present value
    /// with `get`; a tag byte but 0 or 1 is `Corrupt`.
    pub fn opt<T>(
        &mut self,
        get: impl FnOnce(&mut Reader<'a>) -> DlnResult<T>,
    ) -> DlnResult<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => get(self).map(Some),
            b => Err(self.corrupt(format!("option byte {b} (expected 0 or 1)"))),
        }
    }
    /// Read a string written by [`Writer::str`].
    #[inline]
    pub fn str(&mut self) -> DlnResult<String> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.corrupt(format!("invalid UTF-8 in string at byte {}", self.pos)))
    }
    /// Read a u32 count of elements that each take at least `min_elem`
    /// bytes; refused unless they fit in the bytes that remain.
    #[inline]
    pub fn count(&mut self, min_elem: usize) -> DlnResult<usize> {
        let n = self.u32()?;
        self.bounded(n.into(), min_elem)
    }
    /// Read a u64 length prefix, bounded like [`count`](Reader::count).
    #[inline]
    pub fn len_prefix(&mut self, min_elem: usize) -> DlnResult<usize> {
        let n = self.u64()?;
        self.bounded(n, min_elem)
    }
    #[inline]
    fn bounded(&self, n: u64, min_elem: usize) -> DlnResult<usize> {
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(min_elem.max(1) as u64) > remaining as u64 {
            return Err(self.corrupt(format!(
                "implausible count {n} at byte {} ({remaining} bytes remain)",
                self.pos
            )));
        }
        Ok(n as usize)
    }
    /// End the record: `Corrupt` unless every byte was read.
    pub fn finish(self) -> DlnResult<()> {
        match self.bytes.len() - self.pos {
            0 => Ok(()),
            n => Err(self.corrupt(format!("{n} trailing bytes after a complete record"))),
        }
    }
}

/// Split a sealed buffer into its payload and verify the trailing FNV-1a
/// checksum, reporting [`DlnError::Corrupt`] (attributed to `context`) on
/// mismatch or if the buffer is too short to carry one.
pub fn verify_sealed<'a>(bytes: &'a [u8], context: &str) -> DlnResult<&'a [u8]> {
    if bytes.len() < 8 {
        return Err(DlnError::corrupt(
            context,
            format!(
                "{} bytes is too short for a checksummed record",
                bytes.len()
            ),
        ));
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes([
        tail[0], tail[1], tail[2], tail[3], tail[4], tail[5], tail[6], tail[7],
    ]);
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(DlnError::corrupt(
            context,
            format!("checksum mismatch (stored {stored:#x}, computed {computed:#x}) — torn or corrupt write"),
        ));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Sequenced snapshot + WAL log
// ---------------------------------------------------------------------------

/// The state a [`SeqLog`] folds its events into, plus the codecs of both.
pub trait SeqState: Default {
    /// One appended event.
    type Event;
    /// Magic prefix of the snapshot file.
    const MAGIC: &'static [u8; 8];
    /// Snapshot format version.
    const VERSION: u8;
    /// The log's name in warnings and errors (`"change-log"`).
    const NAME: &'static str;
    /// Failpoint site that tears an append after ⅔ of its frame.
    const TORN_SITE: &'static str;

    /// Fold the durable event numbered `seq` into the state.
    fn fold(&mut self, seq: u64, event: &Self::Event);
    /// Serialize one event (the frame body after its sequence number).
    fn encode_event(event: &Self::Event) -> Vec<u8>;
    /// Decode one event. An error on a checksum-valid frame quarantines
    /// the frame: it was not torn, so later frames still apply.
    fn decode_event(bytes: &[u8], context: &str) -> DlnResult<Self::Event>;
    /// Write the snapshot body, which follows the magic, the version and
    /// the covered sequence number.
    fn write_snapshot(&self, quarantined: u64, w: &mut Writer);
    /// Read a body written by [`write_snapshot`](Self::write_snapshot);
    /// `seq` is the sequence number the snapshot covers. Returns the state
    /// and the quarantine count the body carries (0 if it carries none).
    fn read_snapshot(r: &mut Reader<'_>, seq: u64, context: &str) -> DlnResult<(Self, u64)>;
}

/// The WAL of the sequenced log rooted at `base`: `<base>.wal`.
pub fn wal_path(base: &Path) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// One WAL frame: `[len:u64][body][fnv1a(body):u64]` with
/// `body = [seq:u64][payload]`.
pub fn wal_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(24 + payload.len());
    frame.extend_from_slice(&(8 + payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&fnv1a(&frame[8..]).to_le_bytes());
    frame
}

/// The checksum-valid frame body at `pos` and the offset after the frame;
/// `None` at a clean end or a torn tail.
fn next_frame(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let len = u64::from_le_bytes(bytes.get(pos..pos + 8)?.try_into().ok()?) as usize;
    let body_end = (pos + 8).checked_add(len)?;
    let end = body_end.checked_add(8)?;
    let body = bytes.get(pos + 8..body_end)?;
    let stored = u64::from_le_bytes(bytes.get(body_end..end)?.try_into().ok()?);
    (fnv1a(body) == stored).then_some((body, end))
}

/// Cut the file at `path` to `len` bytes and fsync it.
fn set_file_len(path: &Path, len: u64) -> DlnResult<()> {
    let io_err = |e| DlnError::io(path.display().to_string(), e);
    let f = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(io_err)?;
    f.set_len(len).map_err(io_err)?;
    f.sync_all().map_err(io_err)
}

/// A durable, sequenced event log: a compacted snapshot plus a WAL tail.
///
/// On disk this is two files derived from one base path:
///
/// * `<base>` — the **snapshot**: a sealed record (`S::MAGIC`, version,
///   last covered sequence number, then the [`SeqState`]'s own body)
///   published with [`atomic_write`], so one previous generation always
///   survives at `<base>.prev`.
/// * `<base>.wal` — the **WAL**: frames built by [`wal_frame`], fsynced
///   per append.
///
/// Appends are **ack-after-durable**: the sequence number is returned
/// only once the frame is on disk, so a torn append (including the
/// injected `S::TORN_SITE` tear) is never acknowledged and is discarded by
/// the next append or open. On open a torn WAL tail is truncated with a
/// warning; a *gap* in sequence numbers is [`DlnError::Corrupt`] (frames
/// do not tear mid-file, so a gap means lost data); a checksum-valid frame
/// whose event does not decode is **quarantined** — counted, its sequence
/// number consumed, and every later frame still applied. [`compact`]
/// atomically rewrites the snapshot from the folded state and empties the
/// WAL; a crash between the two steps is safe because frames the snapshot
/// already covers are skipped by sequence number on the next open.
///
/// [`compact`]: SeqLog::compact
#[derive(Debug)]
pub struct SeqLog<S: SeqState> {
    snap_path: PathBuf,
    wal_path: PathBuf,
    state: S,
    /// Last durably appended (or quarantine-skipped) sequence number.
    last_seq: u64,
    /// Length of the known-valid WAL prefix (bytes).
    clean_len: u64,
    /// Checksum-valid frames whose event failed to decode.
    quarantined: u64,
}

impl<S: SeqState> SeqLog<S> {
    /// Open (or create) the log rooted at `base`: a torn snapshot falls
    /// back to `<base>.prev`, the WAL is folded in and a torn tail
    /// truncated. Opening writes nothing unless there is a tail to cut.
    pub fn open(base: &Path) -> DlnResult<SeqLog<S>> {
        let snap_path = base.to_path_buf();
        let wal_path = wal_path(base);
        let (mut state, snap_seq, mut quarantined) =
            if snap_path.exists() || prev_path(&snap_path).exists() {
                let what = format!("{} snapshot", S::NAME);
                load_with_fallback(&snap_path, &what, Self::load_snapshot)?
            } else {
                (S::default(), 0, 0)
            };
        let bytes = match std::fs::read(&wal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(DlnError::io(wal_path.display().to_string(), e)),
        };
        let context = wal_path.display().to_string();
        let mut last_seq = snap_seq;
        let mut clean_len = 0usize;
        while let Some((body, end)) = next_frame(&bytes, clean_len) {
            let mut r = Reader::new(body, 0, &context);
            let seq = r.u64()?;
            if seq > snap_seq {
                if seq != last_seq + 1 {
                    return Err(DlnError::corrupt(
                        &context,
                        format!(
                            "{} sequence gap: expected {}, found {seq}",
                            S::NAME,
                            last_seq + 1
                        ),
                    ));
                }
                match S::decode_event(&body[8..], &context) {
                    Ok(ev) => state.fold(seq, &ev),
                    Err(e) => {
                        eprintln!("warning: quarantining {} frame seq {seq} ({e})", S::NAME);
                        quarantined += 1;
                    }
                }
                last_seq = seq;
            }
            clean_len = end;
        }
        if clean_len < bytes.len() {
            eprintln!(
                "warning: {} WAL {context} has a torn tail ({clean_len} of {} bytes valid); truncating",
                S::NAME,
                bytes.len()
            );
            set_file_len(&wal_path, clean_len as u64)?;
        }
        Ok(SeqLog {
            snap_path,
            wal_path,
            state,
            last_seq,
            clean_len: clean_len as u64,
            quarantined,
        })
    }

    fn load_snapshot(path: &Path) -> DlnResult<(S, u64, u64)> {
        let bytes = std::fs::read(path).map_err(|e| DlnError::io(path.display().to_string(), e))?;
        let context = path.display().to_string();
        let payload = verify_sealed(&bytes, &context)?;
        let mut r = Reader::new(payload, 0, &context);
        if r.take(8)? != S::MAGIC {
            return Err(DlnError::corrupt(
                &context,
                format!("not a {} snapshot", S::NAME),
            ));
        }
        let version = r.u8()?;
        if version != S::VERSION {
            return Err(DlnError::corrupt(
                &context,
                format!("unsupported {} snapshot version {version}", S::NAME),
            ));
        }
        let seq = r.u64()?;
        let (state, quarantined) = S::read_snapshot(&mut r, seq, &context)?;
        r.finish()?;
        Ok((state, seq, quarantined))
    }

    /// Durably append one event and return its sequence number. The frame
    /// is fsynced before this returns `Ok`; on any error (including the
    /// injected tear) nothing is acknowledged and the write is discarded
    /// by the next append or open.
    pub fn append(&mut self, event: &S::Event) -> DlnResult<u64> {
        let seq = self.last_seq + 1;
        let frame = wal_frame(seq, &S::encode_event(event));
        let torn = dln_fault::should_fail(S::TORN_SITE);
        let write_len = if torn {
            frame.len() * 2 / 3
        } else {
            frame.len()
        };
        let io_err = |e| DlnError::io(self.wal_path.display().to_string(), e);
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.wal_path)
            .map_err(io_err)?;
        // Discard any torn tail a previous failed append left behind.
        f.set_len(self.clean_len).map_err(io_err)?;
        f.seek(SeekFrom::Start(self.clean_len)).map_err(io_err)?;
        f.write_all(&frame[..write_len]).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
        if torn {
            return Err(DlnError::corrupt(
                self.wal_path.display().to_string(),
                format!("injected torn {} append ({})", S::NAME, S::TORN_SITE),
            ));
        }
        self.clean_len += frame.len() as u64;
        self.last_seq = seq;
        self.state.fold(seq, event);
        Ok(seq)
    }

    /// Atomically rewrite the snapshot from the folded state, then empty
    /// the WAL.
    pub fn compact(&mut self) -> DlnResult<()> {
        let mut w = Writer::with_capacity(256);
        w.bytes(S::MAGIC);
        w.u8(S::VERSION);
        w.u64(self.last_seq);
        self.state.write_snapshot(self.quarantined, &mut w);
        atomic_write(&self.snap_path, &w.seal())?;
        set_file_len(&self.wal_path, 0)?;
        self.clean_len = 0;
        Ok(())
    }

    /// Everything ever durably appended, folded (snapshot ∪ valid WAL
    /// frames).
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Sequence number of the last durably appended frame.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Checksum-valid frames whose event failed to decode.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn seal_and_verify_roundtrip() {
        let mut w = Writer::with_capacity(16);
        w.u32(7);
        w.u64(u64::MAX);
        w.u8(3);
        let buf = w.seal();
        let payload = verify_sealed(&buf, "test").expect("verify");
        let mut r = Reader::new(payload, 0, "test");
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u8().unwrap(), 3);
        r.finish().expect("every byte read");
    }

    #[test]
    fn reader_refuses_bad_tags_implausible_counts_and_trailing_bytes() {
        let mut w = Writer::with_capacity(32);
        w.bool(true);
        w.opt(&Some(-0.0f64), |w, &v| w.f64(v));
        w.opt(&None::<u8>, |w, &v| w.u8(v));
        w.f32(f32::MIN_POSITIVE);
        w.u32(2);
        w.u64(1);
        w.str("ok");
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf, 0, "t");
        assert!(r.bool().unwrap());
        assert_eq!(
            r.opt(|r| r.f64()).unwrap().map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(r.opt(|r| r.u8()).unwrap(), None);
        assert_eq!(r.f32().unwrap().to_bits(), f32::MIN_POSITIVE.to_bits());
        // Two elements of 7 bytes fit in the 14 that follow the count; of 8
        // they do not.
        assert_eq!(Reader::new(&buf[15..], 0, "t").count(7).unwrap(), 2);
        assert!(Reader::new(&buf[15..], 0, "t").count(8).is_err());
        assert_eq!(r.count(1).unwrap(), 2);
        assert_eq!(r.len_prefix(6).unwrap(), 1);
        assert_eq!(r.str().unwrap(), "ok");
        r.finish().unwrap();

        let corrupt = |res: DlnResult<()>| assert!(matches!(res, Err(DlnError::Corrupt { .. })));
        corrupt(Reader::new(&[2], 0, "t").bool().map(drop));
        corrupt(Reader::new(&[2, 0], 0, "t").opt(|r| r.u8()).map(drop));
        corrupt(Reader::new(&[0, 0], 0, "t").finish());
        let huge = u64::MAX.to_le_bytes();
        corrupt(Reader::new(&huge, 0, "t").len_prefix(1).map(drop));
        corrupt(Reader::new(&huge, 0, "t").count(0).map(drop));
        corrupt(Reader::new(&huge[..4], 0, "t").str().map(drop));
    }

    #[test]
    fn every_flipped_byte_fails_verification() {
        let mut w = Writer::with_capacity(8);
        w.u64(0x0123_4567_89ab_cdef);
        let buf = w.seal();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(verify_sealed(&bad, "test").is_err(), "flip at {i}");
        }
    }

    #[test]
    fn atomic_write_rotates_and_survives() {
        let dir = std::env::temp_dir().join(format!("dln_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        atomic_write(&path, b"gen-1").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"gen-1");
        assert!(!prev_path(&path).exists());
        atomic_write(&path, b"gen-2").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"gen-2");
        assert_eq!(std::fs::read(prev_path(&path)).unwrap(), b"gen-1");
        // No .tmp litter is left behind.
        assert!(!dir.join("artifact.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_with_fallback_prefers_newest_then_prev() {
        let dir = std::env::temp_dir().join(format!("dln_persist_fb_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        let load = |p: &Path| -> DlnResult<Vec<u8>> {
            let b = std::fs::read(p).map_err(|e| DlnError::io(p.display().to_string(), e))?;
            if b.starts_with(b"ok:") {
                Ok(b)
            } else {
                Err(DlnError::corrupt(p.display().to_string(), "bad prefix"))
            }
        };
        atomic_write(&path, b"ok:1").unwrap();
        assert_eq!(
            load_with_fallback(&path, "artifact", load).unwrap(),
            b"ok:1"
        );
        // Newest torn, previous good.
        atomic_write(&path, b"torn").unwrap();
        assert_eq!(
            load_with_fallback(&path, "artifact", load).unwrap(),
            b"ok:1"
        );
        // Both bad: a combined Corrupt error.
        atomic_write(&path, b"torn2").unwrap();
        let err = load_with_fallback(&path, "artifact", load).unwrap_err();
        assert!(matches!(err, DlnError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn double_corruption_is_typed_and_leaves_files_for_forensics() {
        // Both generations hold sealed records; both are then corrupted.
        // The load must surface a typed `Corrupt` (no panic) and must not
        // modify, truncate, rotate, or delete either file — a post-mortem
        // needs the torn bytes exactly as the crash left them.
        let dir = std::env::temp_dir().join(format!("dln_persist_forensic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        let seal = |tag: u64| {
            let mut w = Writer::with_capacity(16);
            w.u64(tag);
            w.seal()
        };
        atomic_write(&path, &seal(1)).unwrap();
        atomic_write(&path, &seal(2)).unwrap();
        // Corrupt both generations in place (flip one payload byte each).
        for p in [path.clone(), prev_path(&path)] {
            let mut b = std::fs::read(&p).unwrap();
            b[3] ^= 0xFF;
            std::fs::write(&p, &b).unwrap();
        }
        let newest_before = std::fs::read(&path).unwrap();
        let prev_before = std::fs::read(prev_path(&path)).unwrap();
        let load = |p: &Path| -> DlnResult<u64> {
            let b = std::fs::read(p).map_err(|e| DlnError::io(p.display().to_string(), e))?;
            let payload = verify_sealed(&b, &p.display().to_string())?;
            Reader::new(payload, 0, "forensic").u64()
        };
        let err = load_with_fallback(&path, "artifact", load).unwrap_err();
        assert!(matches!(err, DlnError::Corrupt { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("both generations"), "combined context: {msg}");
        // Forensics: both corrupt files survive byte-for-byte.
        assert_eq!(std::fs::read(&path).unwrap(), newest_before);
        assert_eq!(std::fs::read(prev_path(&path)).unwrap(), prev_before);
        assert!(!dir.join("artifact.bin.tmp").exists(), "no staging litter");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_both_generations_is_an_error() {
        let path = std::env::temp_dir().join("dln_persist_never_written.bin");
        let err = load_with_fallback(&path, "artifact", |p| {
            std::fs::read(p).map_err(|e| DlnError::io(p.display().to_string(), e))
        })
        .unwrap_err();
        assert!(matches!(err, DlnError::Corrupt { .. }), "{err}");
    }
}
