//! Golden image of k-medoids.
//!
//! Two fits over the paper-scale synthetic tag cloud (2,651 attributes,
//! 364 tags, 50-d topics, generated from its fixed seed) are folded into
//! one FNV-1a digest of `medoids`, `assignments`, `cost.to_bits()` and
//! `iterations`:
//!
//! * the approximate evaluation's representatives, k-medoids with
//!   `k = ⌈0.1 · n⌉ = 266` over the attribute topics (the fit
//!   `Representatives::kmedoids` runs), where hundreds of medoids move in
//!   the first iterations;
//! * the `k = 4` partition of the tags into dimensions (the fit
//!   `partition_tags` runs).
//!
//! The pinned value was produced by the plain Voronoi iteration (a full
//! assignment pass after every medoid update, every cluster updated every
//! iteration). The fit must reproduce it at every thread count and on the
//! scalar gram kernel (`DLN_SIMD=0`), so any change to seeding, tie
//! breaking, medoid update, reassignment or the distance kernels shows
//! up here.

use datalake_nav::cluster::{CosinePoints, KMedoids};
use datalake_nav::org::multidim::partition_tags;
use datalake_nav::org::{OrgContext, Representatives};
use datalake_nav::synth::TagCloudConfig;

/// Digest of the two fits below.
const KMEDOIDS_DIGEST: u64 = 0xb46f_0fcd_7bd7_d648;

const REP_SEED: u64 = 0x4e9d;
const TAG_SEED: u64 = 11;

/// 64-bit FNV-1a over length-prefixed fields.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, x: u64) {
        for &b in 8u64.to_le_bytes().iter().chain(&x.to_le_bytes()) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn fit(&mut self, km: &KMedoids) {
        for list in [&km.medoids, &km.assignments] {
            self.u64(list.len() as u64);
            for &x in list {
                self.u64(x as u64);
            }
        }
        self.u64(km.cost.to_bits());
        self.u64(km.iterations as u64);
    }
}

#[test]
fn representative_and_tag_fits_match_the_pinned_digest_at_any_thread_count() {
    let bench = TagCloudConfig::paper().generate();
    let lake = &bench.lake;
    let ctx = OrgContext::full(lake);
    let attrs = CosinePoints::new(
        ctx.attrs()
            .iter()
            .map(|a| a.unit_topic.as_slice())
            .collect(),
    );
    let tags = CosinePoints::new(
        lake.tags()
            .iter()
            .map(|t| t.unit_topic.as_slice())
            .collect(),
    );
    let n = ctx.n_attrs();
    assert!(n >= 2_000, "the lake must be large enough: {n} attributes");
    let k = (n as f64 * 0.1).ceil() as usize;
    for threads in [1, 2, 4] {
        let (reps, dims, r, groups) = rayon::with_num_threads(threads, || {
            (
                KMedoids::fit(&attrs, k, REP_SEED),
                KMedoids::fit(&tags, 4, TAG_SEED),
                // The pinned fits are the ones the organization code runs.
                Representatives::kmedoids(&ctx, 0.1, REP_SEED),
                partition_tags(lake, 4, TAG_SEED),
            )
        });

        let reps_medoids: Vec<usize> = r.reps.iter().map(|&m| m as usize).collect();
        let reps_owner: Vec<usize> = r.rep_of_attr.iter().map(|&c| c as usize).collect();
        assert_eq!(reps_medoids, reps.medoids, "{threads} thread(s)");
        assert_eq!(reps_owner, reps.assignments, "{threads} thread(s)");
        let mut want_groups = dims.clusters();
        want_groups.retain(|g| !g.is_empty());
        let got_groups: Vec<Vec<usize>> = groups
            .iter()
            .map(|g| g.iter().map(|t| t.index()).collect())
            .collect();
        assert_eq!(got_groups, want_groups, "{threads} thread(s)");

        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.fit(&reps);
        h.fit(&dims);
        assert_eq!(
            h.0, KMEDOIDS_DIGEST,
            "k-medoids digest {:#018x} at {threads} thread(s) (reps: {} iterations, \
             cost {}; tags: {} iterations, cost {})",
            h.0, reps.iterations, reps.cost, dims.iterations, dims.cost
        );
    }
}
