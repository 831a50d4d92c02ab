//! Golden image of the §4.4 study.
//!
//! One small `run_study` (the Socrata generator's small lake split into
//! two tag-disjoint sub-lakes with seed 7, 8 participants, 2 dimensions,
//! 60 search proposals per dimension, an 80-action budget) folds into one
//! FNV-1a digest:
//!
//! * every participant's verified found set and `n_found`, per modality;
//! * every pairwise-disjointness value's bits, per modality;
//! * the H1 and H2 Mann–Whitney `u1` and `p_value` bits;
//! * the cross-modality overlap and the largest session of each modality.
//!
//! The study builds its organizations with the Metropolis search and walks
//! them through the Eq 1 kernel, so a change to either — or to the
//! participant model, its action accounting or the keyword engine — shows
//! up here. The digest must be reproduced at every thread count and on the
//! scalar kernels (`DLN_SIMD=0`).

use datalake_nav::org::SearchConfig;
use datalake_nav::study::{run_study, AgentConfig, MannWhitney, ModalityResult, StudyConfig};
use datalake_nav::synth::SocrataConfig;

/// Digest of the study below.
const STUDY_DIGEST: u64 = 0x46ee_637e_c89b_6ca4;

/// 64-bit FNV-1a over length-prefixed fields.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, x: u64) {
        for &b in 8u64.to_le_bytes().iter().chain(&x.to_le_bytes()) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    fn modality(&mut self, m: &ModalityResult) {
        self.u64(m.found.len() as u64);
        for set in &m.found {
            self.u64(set.len() as u64);
            for t in set {
                self.u64(t.index() as u64);
            }
        }
        self.u64(m.n_found.len() as u64);
        for &n in &m.n_found {
            self.f64(n);
        }
        self.u64(m.disjointness.len() as u64);
        for &d in &m.disjointness {
            self.f64(d);
        }
    }
    fn test(&mut self, t: &Option<MannWhitney>) {
        match t {
            None => self.u64(0),
            Some(t) => {
                self.u64(1);
                self.f64(t.u1);
                self.f64(t.p_value);
            }
        }
    }
}

#[test]
fn small_study_matches_the_pinned_digest_at_any_thread_count() {
    let s = SocrataConfig::small().generate();
    let ((l2, v2), (l3, v3)) = s.split_disjoint(7);
    let cfg = StudyConfig {
        n_participants: 8,
        n_dims: 2,
        search: SearchConfig {
            max_iters: 60,
            ..Default::default()
        },
        agent: AgentConfig {
            budget: 80,
            ..Default::default()
        },
        ..Default::default()
    };
    for threads in [1, 4] {
        let r = rayon::with_num_threads(threads, || {
            run_study(&l2, &v2, &l3, &v3, &s.model, &cfg).expect("study")
        });
        assert_eq!(r.nav.found.len(), 8);
        assert!(
            r.nav.n_found.iter().any(|&n| n > 0.0),
            "navigation must find something for the digest to pin a walk"
        );
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.modality(&r.nav);
        h.modality(&r.search);
        h.test(&r.h1);
        h.test(&r.h2);
        h.f64(r.cross_modality_overlap);
        h.u64(r.max_nav_found as u64);
        h.u64(r.max_search_found as u64);
        assert_eq!(
            h.0, STUDY_DIGEST,
            "study digest {:#018x} at {threads} thread(s)",
            h.0
        );
    }
}
