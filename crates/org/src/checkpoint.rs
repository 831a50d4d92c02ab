//! Crash-safe search checkpoints.
//!
//! A [`Checkpoint`] captures everything [`crate::search::optimize`] needs
//! to continue an interrupted run **bit-identically**: the committed
//! operation log (the organization and the incremental evaluator are both
//! deterministic replays of it — rejected proposals roll back bit-exactly,
//! so the post-replay state equals the live state at the checkpointed
//! round, bit for bit), the xoshiro256++ RNG state, the sweep cursor
//! (level snapshot, sweep-start reachability, visit list and position),
//! every counter, and the per-proposal trajectory.
//!
//! ## File format
//!
//! A checkpoint file is a little-endian binary record:
//!
//! ```text
//! magic "DLNCKPT\x01" · u32 version · fingerprints · RNG state ·
//! counters · op log · per-proposal records · sweep cursor · u64 FNV-1a
//! ```
//!
//! The trailing checksum covers every preceding byte. A torn or partial
//! write — simulated by the `checkpoint.torn` failpoint, which truncates
//! the buffer before it reaches the filesystem — fails the checksum on
//! load and is reported as [`DlnError::Corrupt`]. Publication goes
//! through the shared [`dln_persist`] plumbing: [`Checkpoint::save`]
//! stages to `<path>.tmp`, fsyncs, rotates the previous file to
//! `<path>.prev` and renames into place, so
//! [`Checkpoint::load_with_fallback`] can fall back one generation when
//! the newest checkpoint is torn.
//!
//! Two fingerprints guard against resuming under the wrong conditions:
//! the *config* fingerprint (seed, plateau/iteration budgets,
//! acceptance parameters) and the *initial-organization* fingerprint
//! ([`Organization::fingerprint`](crate::Organization::fingerprint)) — resuming replays the op log against
//! the caller-provided initial organization, which must be the one the
//! original run started from. The worker-thread count is deliberately
//! excluded: results never depend on it.

use std::path::{Path, PathBuf};

use dln_fault::{DlnError, DlnResult};

use crate::ops::OpKind;
use crate::search::IterStats;
use dln_persist::{self as persist, Reader, Writer};

/// File magic (8 bytes, includes a format generation byte).
const MAGIC: &[u8; 8] = b"DLNCKPT\x01";
/// Format version, bumped on any layout change. Version 2 dropped the
/// cancelled-draft counter that followed `accepted`; a version-1
/// file is refused, and a maintainer restarts that shard's search.
const VERSION: u32 = 2;

/// Where and how often [`crate::search::optimize`] checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Checkpoint file path. The previous generation is kept at
    /// `<path>.prev` as the torn-write fallback.
    pub path: PathBuf,
    /// Write a checkpoint every this many resolution rounds (0 disables
    /// periodic writes; a deadline exit still writes a final checkpoint).
    pub every_rounds: usize,
}

/// The saved sweep cursor: where in the level walk the search stopped.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct CursorSnapshot {
    /// Level snapshot taken at sweep start (`u32::MAX` = unreachable).
    pub levels: Vec<u32>,
    /// Sweep-start reachability (exact bits; orders the level visit lists
    /// of the remaining levels in this sweep).
    pub reach_sweep: Vec<f64>,
    /// Deepest level of this sweep.
    pub max_level: u32,
    /// Level currently being walked (0: sweep not yet entered a level).
    pub level: u32,
    /// Visit list of the current level.
    pub at_level: Vec<u32>,
    /// Next position in `at_level`.
    pub idx: u64,
    /// Whether any proposal applied so far in this sweep.
    pub proposed_this_sweep: bool,
}

/// A resumable snapshot of an interrupted search run.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Fingerprint of the [`crate::search::SearchConfig`] that produced
    /// this run — resuming under a different configuration is refused.
    pub(crate) config_fingerprint: u64,
    /// Fingerprint of the initial organization the run started from.
    pub(crate) init_fingerprint: u64,
    /// Raw xoshiro256++ state at the checkpointed round boundary.
    pub(crate) rng_state: [u64; 4],
    /// Proposals made so far.
    pub(crate) iterations: u64,
    /// Proposals accepted so far.
    pub(crate) accepted: u64,
    /// Current plateau counter.
    pub(crate) plateau: u64,
    /// Resolution rounds completed so far.
    pub(crate) rounds: u64,
    /// Current effectiveness (exact bits; verified after replay).
    pub(crate) eff_bits: u64,
    /// Best effectiveness seen (exact bits).
    pub(crate) best_bits: u64,
    /// Initial effectiveness (exact bits; verified against the rebuilt
    /// evaluator before replay).
    pub(crate) initial_bits: u64,
    /// Wall-clock spent before this checkpoint, in nanoseconds.
    pub(crate) elapsed_nanos: u64,
    /// Number of leading ops of `op_log` after which the best organization
    /// was captured (0: the initial organization is the best so far).
    pub(crate) best_at_ops: u64,
    /// Committed operations in order: `(target slot, kind)`.
    pub(crate) op_log: Vec<(u32, u8)>,
    /// Per-proposal trajectory so far.
    pub(crate) iter_stats: Vec<IterStats>,
    /// The sweep cursor.
    pub(crate) cursor: CursorSnapshot,
}

/// Encode an [`OpKind`] for the op log.
pub(crate) fn encode_kind(kind: OpKind) -> u8 {
    match kind {
        OpKind::AddParent => 1,
        OpKind::DeleteParent => 2,
    }
}

/// Decode an op-log kind byte.
pub(crate) fn decode_kind(b: u8) -> Option<OpKind> {
    match b {
        1 => Some(OpKind::AddParent),
        2 => Some(OpKind::DeleteParent),
        _ => None,
    }
}

impl Checkpoint {
    /// Serialize to the checkpoint wire format (checksum included).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(
            256 + self.op_log.len() * 5
                + self.iter_stats.len() * 44
                + self.cursor.levels.len() * 16,
        );
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.u64(self.config_fingerprint);
        w.u64(self.init_fingerprint);
        for s in self.rng_state {
            w.u64(s);
        }
        w.u64(self.iterations);
        w.u64(self.accepted);
        w.u64(self.plateau);
        w.u64(self.rounds);
        w.u64(self.eff_bits);
        w.u64(self.best_bits);
        w.u64(self.initial_bits);
        w.u64(self.elapsed_nanos);
        w.u64(self.best_at_ops);
        w.u64(self.op_log.len() as u64);
        for &(slot, kind) in &self.op_log {
            w.u32(slot);
            w.u8(kind);
        }
        w.u64(self.iter_stats.len() as u64);
        for s in &self.iter_stats {
            w.u8(match s.op {
                None => 0,
                Some(k) => encode_kind(k),
            });
            w.bool(s.accepted);
            w.f64(s.effectiveness);
            w.u64(s.states_visited as u64);
            w.u64(s.states_alive as u64);
            w.u64(s.queries_evaluated as u64);
            w.u64(s.attrs_covered as u64);
        }
        let c = &self.cursor;
        w.u64(c.levels.len() as u64);
        for &l in &c.levels {
            w.u32(l);
        }
        w.u64(c.reach_sweep.len() as u64);
        for &r in &c.reach_sweep {
            w.f64(r);
        }
        w.u32(c.max_level);
        w.u32(c.level);
        w.u64(c.at_level.len() as u64);
        for &s in &c.at_level {
            w.u32(s);
        }
        w.u64(c.idx);
        w.bool(c.proposed_this_sweep);
        w.seal()
    }

    /// Decode and integrity-check a checkpoint buffer. `context` names the
    /// source (a path) for error messages.
    pub(crate) fn decode(bytes: &[u8], context: &str) -> DlnResult<Checkpoint> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(DlnError::corrupt(
                context,
                format!("{} bytes is too short for a checkpoint", bytes.len()),
            ));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(DlnError::corrupt(context, "bad magic"));
        }
        let payload = persist::verify_sealed(bytes, context)?;
        let mut r = Reader::new(payload, MAGIC.len(), context);
        let version = r.u32()?;
        if version != VERSION {
            return Err(DlnError::corrupt(
                context,
                format!("unsupported checkpoint version {version} (expected {VERSION})"),
            ));
        }
        let config_fingerprint = r.u64()?;
        let init_fingerprint = r.u64()?;
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = r.u64()?;
        }
        let iterations = r.u64()?;
        let accepted = r.u64()?;
        let plateau = r.u64()?;
        let rounds = r.u64()?;
        let eff_bits = r.u64()?;
        let best_bits = r.u64()?;
        let initial_bits = r.u64()?;
        let elapsed_nanos = r.u64()?;
        let best_at_ops = r.u64()?;
        let n_ops = r.len_prefix(5)?;
        let mut op_log = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let slot = r.u32()?;
            let kind = r.u8()?;
            if decode_kind(kind).is_none() {
                return Err(DlnError::corrupt(context, format!("bad op kind {kind}")));
            }
            op_log.push((slot, kind));
        }
        let n_stats = r.len_prefix(42)?; // two u8 and five u64 each
        let mut iter_stats = Vec::with_capacity(n_stats);
        for _ in 0..n_stats {
            let op = match r.u8()? {
                0 => None,
                b => Some(
                    decode_kind(b)
                        .ok_or_else(|| DlnError::corrupt(context, format!("bad stat op {b}")))?,
                ),
            };
            let accepted = r.bool()?;
            let effectiveness = r.f64()?;
            let states_visited = r.u64()? as usize;
            let states_alive = r.u64()? as usize;
            let queries_evaluated = r.u64()? as usize;
            let attrs_covered = r.u64()? as usize;
            iter_stats.push(IterStats {
                op,
                accepted,
                effectiveness,
                states_visited,
                states_alive,
                queries_evaluated,
                attrs_covered,
            });
        }
        let n_levels = r.len_prefix(4)?;
        let mut levels = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            levels.push(r.u32()?);
        }
        let n_reach = r.len_prefix(8)?;
        let mut reach_sweep = Vec::with_capacity(n_reach);
        for _ in 0..n_reach {
            reach_sweep.push(r.f64()?);
        }
        let max_level = r.u32()?;
        let level = r.u32()?;
        let n_at = r.len_prefix(4)?;
        let mut at_level = Vec::with_capacity(n_at);
        for _ in 0..n_at {
            at_level.push(r.u32()?);
        }
        let idx = r.u64()?;
        let proposed_this_sweep = r.bool()?;
        r.finish()?;
        Ok(Checkpoint {
            config_fingerprint,
            init_fingerprint,
            rng_state,
            iterations,
            accepted,
            plateau,
            rounds,
            eff_bits,
            best_bits,
            initial_bits,
            elapsed_nanos,
            best_at_ops,
            op_log,
            iter_stats,
            cursor: CursorSnapshot {
                levels,
                reach_sweep,
                max_level,
                level,
                at_level,
                idx,
                proposed_this_sweep,
            },
        })
    }

    /// Write the checkpoint to `path` via the shared atomic-publish
    /// protocol ([`persist::atomic_write`]): staged at `<path>.tmp`,
    /// fsynced, the previous generation rotated to `<path>.prev`.
    ///
    /// Fault-injection site `checkpoint.torn`: when it fires, the encoded
    /// buffer is truncated before hitting the filesystem — the resulting
    /// file fails its checksum on load, exactly like a real partial write.
    pub fn save(&self, path: &Path) -> DlnResult<()> {
        let mut buf = self.encode();
        if dln_fault::should_fail("checkpoint.torn") {
            let keep = buf.len() * 2 / 3;
            eprintln!(
                "warning: injected torn write on {} ({keep} of {} bytes)",
                path.display(),
                buf.len()
            );
            buf.truncate(keep);
        }
        persist::atomic_write(path, &buf)
    }

    /// Load and integrity-check the checkpoint at `path`.
    pub fn load(path: &Path) -> DlnResult<Checkpoint> {
        let bytes = std::fs::read(path)
            .map_err(|e| DlnError::io(format!("reading {}", path.display()), e))?;
        Self::decode(&bytes, &path.display().to_string())
    }

    /// Load the checkpoint at `path`, falling back to the rotated previous
    /// generation (`<path>.prev`) when the newest file is unreadable or
    /// fails its checksum (torn write). Errors only when both generations
    /// are unusable.
    pub fn load_with_fallback(path: &Path) -> DlnResult<Checkpoint> {
        persist::load_with_fallback(path, "checkpoint", Self::load)
    }

    /// Proposals made up to this checkpoint.
    pub fn iterations(&self) -> usize {
        self.iterations as usize
    }

    /// Resolution rounds completed up to this checkpoint.
    pub fn rounds(&self) -> usize {
        self.rounds as usize
    }

    /// Committed operations in the replay log.
    pub fn n_committed_ops(&self) -> usize {
        self.op_log.len()
    }

    /// Effectiveness at the checkpointed round boundary.
    pub fn effectiveness(&self) -> f64 {
        f64::from_bits(self.eff_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            config_fingerprint: 0x1122_3344,
            init_fingerprint: 0x5566_7788,
            rng_state: [1, 2, 3, u64::MAX],
            iterations: 42,
            accepted: 17,
            plateau: 3,
            rounds: 21,
            eff_bits: 0.875f64.to_bits(),
            best_bits: 0.9f64.to_bits(),
            initial_bits: 0.5f64.to_bits(),
            elapsed_nanos: 123_456_789,
            best_at_ops: 2,
            op_log: vec![(7, 1), (3, 2), (9, 1)],
            iter_stats: vec![
                IterStats {
                    op: Some(OpKind::AddParent),
                    accepted: true,
                    effectiveness: 0.7,
                    states_visited: 10,
                    states_alive: 20,
                    queries_evaluated: 30,
                    attrs_covered: 40,
                },
                IterStats {
                    op: None,
                    accepted: false,
                    effectiveness: 0.7,
                    states_visited: 0,
                    states_alive: 20,
                    queries_evaluated: 0,
                    attrs_covered: 0,
                },
            ],
            cursor: CursorSnapshot {
                levels: vec![0, 1, 2, u32::MAX],
                reach_sweep: vec![0.25, 0.5, -0.0, 1.0],
                max_level: 2,
                level: 1,
                at_level: vec![3, 1, 2],
                idx: 1,
                proposed_this_sweep: true,
            },
        }
    }

    fn assert_roundtrip(a: &Checkpoint, b: &Checkpoint) {
        assert_eq!(a.config_fingerprint, b.config_fingerprint);
        assert_eq!(a.init_fingerprint, b.init_fingerprint);
        assert_eq!(a.rng_state, b.rng_state);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.plateau, b.plateau);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.eff_bits, b.eff_bits);
        assert_eq!(a.best_bits, b.best_bits);
        assert_eq!(a.initial_bits, b.initial_bits);
        assert_eq!(a.elapsed_nanos, b.elapsed_nanos);
        assert_eq!(a.best_at_ops, b.best_at_ops);
        assert_eq!(a.op_log, b.op_log);
        assert_eq!(a.iter_stats, b.iter_stats);
        assert_eq!(a.cursor, b.cursor);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = sample();
        let bytes = c.encode();
        let d = Checkpoint::decode(&bytes, "test").expect("decode");
        assert_roundtrip(&c, &d);
    }

    #[test]
    fn sealed_version_one_checkpoint_is_refused_by_version() {
        // A version-1 image: the version-2 record with the counter it
        // dropped (a u64 after `accepted`) put back, re-sealed so the
        // checksum holds and only the version can refuse it.
        let v2 = sample().encode();
        let after_accepted = MAGIC.len() + 4 + 8 + 8 + 4 * 8 + 8 + 8;
        let mut w = Writer::with_capacity(v2.len() + 8);
        w.bytes(MAGIC);
        w.u32(1);
        w.bytes(&v2[MAGIC.len() + 4..after_accepted]);
        w.u64(5);
        w.bytes(&v2[after_accepted..v2.len() - 8]);
        let v1 = w.seal();
        persist::verify_sealed(&v1, "test").expect("the image is well sealed");
        match Checkpoint::decode(&v1, "test") {
            Err(DlnError::Corrupt { detail, .. }) => {
                assert!(detail.contains("version 1"), "{detail}")
            }
            other => panic!("a version-1 checkpoint must be refused: {other:?}"),
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                Checkpoint::decode(&bad, "test").is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_as_corrupt() {
        let bytes = sample().encode();
        for keep in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            let err = Checkpoint::decode(&bytes[..keep], "test").unwrap_err();
            assert!(
                matches!(err, DlnError::Corrupt { .. }),
                "keep={keep}: {err}"
            );
        }
    }

    #[test]
    fn save_rotates_and_fallback_survives_torn_write() {
        let dir = std::env::temp_dir().join(format!("dln_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("search.ckpt");
        let mut first = sample();
        first.rounds = 1;
        first.save(&path).expect("clean write");
        assert_eq!(Checkpoint::load(&path).unwrap().rounds, 1);
        // Second write is torn: the newest file fails its checksum, the
        // rotated previous generation still loads.
        let mut second = sample();
        second.rounds = 2;
        {
            let _fp = dln_fault::scoped("checkpoint.torn:1.0:0").unwrap();
            second.save(&path).expect("torn write still writes bytes");
        }
        assert!(matches!(
            Checkpoint::load(&path),
            Err(DlnError::Corrupt { .. })
        ));
        let recovered = Checkpoint::load_with_fallback(&path).expect("fallback");
        assert_eq!(recovered.rounds, 1, "fallback is the previous generation");
        // A third clean write rotates the torn file away; the newest loads.
        let mut third = sample();
        third.rounds = 3;
        third.save(&path).expect("clean write");
        assert_eq!(Checkpoint::load_with_fallback(&path).unwrap().rounds, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_both_generations_is_an_error() {
        let path = std::env::temp_dir().join("dln_ckpt_never_written.ckpt");
        assert!(Checkpoint::load_with_fallback(&path).is_err());
    }
}
