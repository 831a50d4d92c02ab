//! Golden image of the Metropolis search.
//!
//! One approximate-evaluation walk (`rep_fraction` 0.1, 60 proposals, no
//! plateau stop, acceptance sharpening β = 50) over the clustering organization of the paper-scale
//! synthetic tag cloud (2,651 attributes, 364 tags, generated from its
//! fixed seed). The run folds into one FNV-1a digest:
//!
//! * the final `Organization::fingerprint`;
//! * the initial and final effectiveness bits, the proposal, acceptance
//!   and round counts and the stop reason;
//! * every per-proposal `IterStats` record (operation, acceptance,
//!   effectiveness bits and the re-evaluation counters).
//!
//! The walk accepts about one proposal in six (10 of 60) and rejects the
//! rest, so both the commit path and the rollback path of the incremental
//! evaluator shape the trajectory. The pinned value was produced by the
//! search as it stood before proposal batching was removed,
//! folding only its serial (width-1) walk; it must be reproduced at every
//! thread count and on the scalar kernels (`DLN_SIMD=0`), so any change
//! to the evaluator's arithmetic, its cache invalidation or the walk
//! shows up here.

use datalake_nav::org::{
    clustering_org, IterStats, OpKind, OrgContext, SearchConfig, SearchStats, StopReason,
};
use datalake_nav::synth::TagCloudConfig;

/// Digest of the walk below.
const SEARCH_DIGEST: u64 = 0x94f8_eb7f_d76c_d65b;

const SEED: u64 = 0x5eed_0018;
const PROPOSALS: usize = 60;
/// Sharper than β = 1 (which accepts nearly every proposal) and softer
/// than the default (which rejects nearly all of these 60): about one
/// proposal in five is accepted.
const ACCEPTANCE_POWER: f64 = 50.0;

/// 64-bit FNV-1a over length-prefixed fields.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, x: u64) {
        for &b in 8u64.to_le_bytes().iter().chain(&x.to_le_bytes()) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn iter(&mut self, s: &IterStats) {
        self.u64(match s.op {
            None => 0,
            Some(OpKind::AddParent) => 1,
            Some(OpKind::DeleteParent) => 2,
        });
        self.u64(s.accepted as u64);
        self.u64(s.effectiveness.to_bits());
        for n in [
            s.states_visited,
            s.states_alive,
            s.queries_evaluated,
            s.attrs_covered,
        ] {
            self.u64(n as u64);
        }
    }
    fn run(&mut self, fingerprint: u64, st: &SearchStats) {
        self.u64(fingerprint);
        self.u64(st.initial_effectiveness.to_bits());
        self.u64(st.final_effectiveness.to_bits());
        for n in [st.iterations, st.accepted, st.rounds] {
            self.u64(n as u64);
        }
        self.u64(match st.stop {
            StopReason::Plateau => 0,
            StopReason::MaxIters => 1,
            StopReason::NoProposals => 2,
            StopReason::Deadline => 3,
            StopReason::Killed => 4,
        });
        self.u64(st.iter_stats.len() as u64);
        for s in &st.iter_stats {
            self.iter(s);
        }
    }
}

#[test]
fn approximate_walks_match_the_pinned_digest_at_any_thread_count() {
    let bench = TagCloudConfig::paper().generate();
    let ctx = OrgContext::full(&bench.lake);
    assert!(ctx.n_attrs() >= 2_000, "{} attributes", ctx.n_attrs());
    let initial = clustering_org(&ctx);
    let cfg = SearchConfig {
        rep_fraction: 0.1,
        max_iters: PROPOSALS,
        plateau_iters: usize::MAX,
        seed: SEED,
        deadline: None,
        checkpoint: None,
        acceptance_power: ACCEPTANCE_POWER,
        ..Default::default()
    };
    for threads in [1, 2, 4] {
        let mut org = initial.clone();
        let st = rayon::with_num_threads(threads, || {
            datalake_nav::org::search::optimize(&ctx, &mut org, &cfg)
        });
        assert_eq!(st.iterations, PROPOSALS);
        assert!(
            st.accepted > 0 && st.accepted < st.iterations,
            "the walk must accept some proposals and reject others ({} of {})",
            st.accepted,
            st.iterations
        );
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.run(org.fingerprint(), &st);
        assert_eq!(
            h.0, SEARCH_DIGEST,
            "search digest {:#018x} at {threads} thread(s)",
            h.0
        );
    }
}
