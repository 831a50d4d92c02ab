//! Sharded multi-root organization construction.
//!
//! One dimension's local search is the construction bottleneck: its cost
//! grows superlinearly in the tag count (every proposal re-evaluates an
//! affected subgraph against every representative query). Sharding splits
//! the dimension's tags into [`SearchConfig::shards`] embedding clusters
//! (k-medoids over tag unit topics, the same partitioner the §2.5
//! multi-dimensional build uses), optimizes one *shard organization* per
//! cluster — fully in parallel, each on its own deterministic RNG
//! substream — and stitches the shard roots back together under a single
//! top-level **router** state, producing one ordinary [`Organization`]
//! over the whole dimension.
//!
//! The router is simply the stitched organization's root: its tag set is
//! the full dimension (so the inclusion property holds toward every shard
//! root), and its outgoing transition probabilities come from the same
//! Eq 1 softmax over child topic vectors that governs every other state —
//! no special casing anywhere downstream. The [`crate::eval`]
//! reachability model, [`crate::navigate`] walks, and the serving layer's
//! snapshot/replay machinery all consume the stitched DAG as-is.
//!
//! Because Eq 1 splits a state's outgoing mass across all of its
//! children, the router does not adopt the shard roots directly (a k-way
//! fan-out would dilute every shard's reach roughly k-fold): the stitch
//! agglomeratively pairs shard roots by topic similarity into a binary
//! **routing tier** of junction states, the same low fan-out shape the
//! agglomerative initializer and the local search themselves produce.
//!
//! Determinism contract:
//!
//! * `ShardPolicy::Fixed(1)` (or a partition that collapses to one
//!   cluster) is the ordinary [`clustering_org`](init::clustering_org) +
//!   [`optimize`](search::optimize) path, reproduced **bit-for-bit**.
//! * `ShardPolicy::Auto` resolves the count from the knee of the
//!   k-medoids cost spectrum over the dimension's tag topics
//!   ([`auto_partition_k`], seeded from the same derived partition seed),
//!   so the decision is deterministic in `(lake, group, cfg.seed)` and
//!   invariant to the worker count like everything else.
//! * For any shard count, every shard's walk is seeded by
//!   `derive_shard_seed` — a splitmix64 substream of the configured
//!   seed indexed by shard position — so the stitched result is a pure
//!   function of `(lake, group, cfg)` and **invariant to the worker
//!   count**: shards are distributed over the `rayon::par_map` workers in
//!   contiguous runs (one each up to the worker count; shards {0, 1} and
//!   {2, 3} of four at two workers), but each shard's construction never
//!   depends on which thread ran it.
//!
//! See DESIGN.md §5e for the partitioning rationale, the router
//! reachability model, and the full determinism argument.

use dln_cluster::{auto_partition_k, partition_indices, CosinePoints, ShardSpectrum};
use dln_embed::dot;
use dln_lake::{DataLake, TagId};

use crate::bitset::BitSet;
use crate::builder::BuiltOrganization;
use crate::ctx::OrgContext;
use crate::graph::{Organization, StateId};
use crate::init;
use crate::search::{self, SearchConfig, SearchStats, ShardPolicy};

/// Largest shard count [`ShardPolicy::Auto`] will consider — the top of the
/// `auto_partition_k` candidate ladder (further clamped to the dimension's
/// tag count).
///
/// Sharding trades stitched effectiveness for construction speed: every
/// extra shard boundary loses cross-shard structure, and at the fixed-4
/// operating point the loss is already ~5% on the bench lake
/// (BENCH_shard.json). `Auto` exists to shard *less* than the fixed
/// default when the tag spectrum doesn't justify it — never more — so its
/// candidate ladder stops at the fixed-4 baseline. That makes the policy's
/// guarantee structural: the knee is always ≤ 4, and the auto build can
/// only recover effectiveness relative to fixed-4, not fall below it by
/// oversharding a spectrum whose elbow sits further out.
pub const AUTO_SHARD_MAX: usize = 4;

/// A stitched, sharded organization over one tag group.
pub struct ShardedBuild {
    /// The stitched organization with its full-group context — a perfectly
    /// ordinary [`BuiltOrganization`] whose root is the router.
    /// `search_stats` is the whole-group run for the unsharded (`shards =
    /// 1`) path and `None` for a stitched build (per-shard runs live in
    /// [`ShardedBuild::shard_stats`]).
    pub built: BuiltOrganization,
    /// The tag partition, in shard order (lake-global ids, ascending
    /// within each shard).
    pub shard_tags: Vec<Vec<TagId>>,
    /// Per-shard local-search statistics; `None` for singleton-tag shards,
    /// which need no search.
    pub shard_stats: Vec<Option<SearchStats>>,
    /// The stitched state that roots each shard (reachable from the
    /// router through the routing tier; for singleton shards this is the
    /// tag state itself).
    pub shard_roots: Vec<StateId>,
    /// The k-medoids cost spectrum behind a [`ShardPolicy::Auto`] decision
    /// (`None` under a fixed policy) — kept so benches and logs can show
    /// *why* the count was picked.
    pub shard_spectrum: Option<ShardSpectrum>,
}

impl ShardedBuild {
    /// Number of shards (1 for the unsharded path).
    pub fn n_shards(&self) -> usize {
        self.shard_tags.len()
    }

    /// Exact effectiveness (Eq 6) of the stitched organization.
    pub fn effectiveness(&self) -> f64 {
        self.built.effectiveness()
    }

    /// Total search proposals across all shards.
    pub fn total_iterations(&self) -> usize {
        self.shard_stats
            .iter()
            .flatten()
            .map(|s| s.iterations)
            .sum()
    }
}

/// splitmix64 — the seed-stream mixer (Steele et al., OOPSLA 2014).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG seed of shard `shard`'s local search: an independent splitmix64
/// substream of the configured seed, so per-shard walks are deterministic
/// in `(cfg.seed, shard index)` and nothing else — in particular, not in
/// the worker count or the shard-to-thread assignment.
fn derive_shard_seed(seed: u64, shard: usize) -> u64 {
    splitmix64(seed ^ splitmix64(0x5AA4_D5EE ^ (shard as u64)))
}

/// The k-medoids seed of the tag partition, derived from the search seed
/// so the whole construction remains a function of one configured seed.
fn partition_seed(seed: u64) -> u64 {
    splitmix64(seed ^ 0x0005_16AD_C0DE)
}

/// One shard's construction output.
enum ShardOutput {
    /// A singleton-tag shard: no interior structure to build — the router
    /// links straight to the tag state.
    Leaf(TagId),
    /// An optimized shard organization over its restricted context.
    Org(Box<(OrgContext, Organization, SearchStats)>),
}

/// Sharded construction over *all* tags of the lake (a 1-dimensional
/// organization). `cfg.shards` controls the split; `Fixed(1)` reproduces
/// [`crate::builder::OrganizerBuilder::build_optimized`] bit-for-bit.
pub fn build_sharded(lake: &DataLake, cfg: &SearchConfig) -> ShardedBuild {
    let group: Vec<TagId> = lake.tag_ids().collect();
    build_sharded_group(lake, &group, cfg)
}

/// Sharded construction over one tag group (one dimension of a §2.5
/// multi-dimensional organization).
///
/// The shard count comes from [`SearchConfig::shards`]: a fixed count is
/// clamped to the tag count; [`ShardPolicy::Auto`] sweeps the k-medoids
/// cost spectrum over the group's tag topics (candidates up to
/// [`AUTO_SHARD_MAX`], same derived seed as the partition itself) and
/// splits at its knee — including deciding *not* to split when the curve
/// says the tags don't decompose. The spectrum is kept on the result.
pub fn build_sharded_group(lake: &DataLake, group: &[TagId], cfg: &SearchConfig) -> ShardedBuild {
    let ctx = OrgContext::for_tag_group(lake, group);
    let n_tags = ctx.n_tags();
    if n_tags <= 1 || cfg.shards == ShardPolicy::Fixed(1) || cfg.shards == ShardPolicy::Fixed(0) {
        return build_unsharded(ctx, cfg, None);
    }
    let points = CosinePoints::new(ctx.tags().iter().map(|t| t.unit_topic.as_slice()).collect());
    let (k, spectrum) = match cfg.shards {
        ShardPolicy::Fixed(k) => (k.min(n_tags), None),
        ShardPolicy::Auto => {
            let spec = auto_partition_k(
                &points,
                AUTO_SHARD_MAX.min(n_tags),
                partition_seed(cfg.seed),
            );
            (spec.knee, Some(spec))
        }
    };
    if k <= 1 {
        return build_unsharded(ctx, cfg, spectrum);
    }
    // Partition the group's tags by embedding cluster.
    let groups = partition_indices(&points, k, partition_seed(cfg.seed));
    if groups.len() <= 1 {
        return build_unsharded(ctx, cfg, spectrum);
    }
    let shard_tags: Vec<Vec<TagId>> = groups
        .iter()
        .map(|g| g.iter().map(|&t| ctx.tag(t as u32).global).collect())
        .collect();
    let n = shard_tags.len();

    // Per-shard construction, one `par_map` item per shard: each worker
    // takes a contiguous run of shards and runs them inline (no nested
    // fan-out), so `DLN_THREADS` governs the concurrency while every
    // shard's result stays a pure function of (lake, shard tags, derived
    // seed). Singleton shards need no search: a one-tag universe has no
    // structure to search.
    let outputs = rayon::par_map(n, |i| match shard_tags[i].as_slice() {
        [only] => ShardOutput::Leaf(*only),
        _ => build_one_shard(lake, &shard_tags, i, cfg),
    });

    // Stitch the shard roots under the router's routing tier.
    let (organization, shard_roots) = stitch(&ctx, &outputs);
    let shard_stats: Vec<Option<SearchStats>> = outputs
        .iter()
        .map(|o| match o {
            ShardOutput::Leaf(_) => None,
            ShardOutput::Org(b) => Some(b.2.clone()),
        })
        .collect();
    ShardedBuild {
        built: BuiltOrganization {
            ctx,
            organization,
            nav: cfg.nav,
            search_stats: None,
        },
        shard_tags,
        shard_stats,
        shard_roots,
        shard_spectrum: spectrum,
    }
}

/// The single-shard path: exactly [`init::clustering_org`] +
/// [`search::optimize`] over the full group context, bit-for-bit (the
/// `shards` knob itself is invisible to the walk). `spectrum` carries the
/// cost curve when an [`ShardPolicy::Auto`] sweep concluded "don't split".
fn build_unsharded(
    ctx: OrgContext,
    cfg: &SearchConfig,
    spectrum: Option<ShardSpectrum>,
) -> ShardedBuild {
    let mut organization = init::clustering_org(&ctx);
    let stats = search::optimize(&ctx, &mut organization, cfg);
    let root = organization.root();
    let all_tags: Vec<TagId> = ctx.tags().iter().map(|t| t.global).collect();
    ShardedBuild {
        built: BuiltOrganization {
            ctx,
            organization,
            nav: cfg.nav,
            search_stats: Some(stats.clone()),
        },
        shard_tags: vec![all_tags],
        shard_stats: vec![Some(stats)],
        shard_roots: vec![root],
        shard_spectrum: spectrum,
    }
}

/// Optimize shard `i` on its restricted context with its derived seed.
/// Checkpointing is disabled per shard — shards would race on one
/// checkpoint path; crash safety for sharded builds is simply re-running
/// the (much cheaper) shards.
fn build_one_shard(
    lake: &DataLake,
    shard_tags: &[Vec<TagId>],
    i: usize,
    cfg: &SearchConfig,
) -> ShardOutput {
    let shard_cfg = SearchConfig {
        seed: derive_shard_seed(cfg.seed, i),
        shards: ShardPolicy::Fixed(1),
        checkpoint: None,
        ..cfg.clone()
    };
    let sctx = OrgContext::for_tag_group(lake, &shard_tags[i]);
    let mut org = init::clustering_org(&sctx);
    let stats = search::optimize(&sctx, &mut org, &shard_cfg);
    ShardOutput::Org(Box::new((sctx, org, stats)))
}

/// Graft every shard organization into one DAG over the full-group
/// context, rooted at the router.
///
/// [`Organization::with_tag_states`] already provides the router (the
/// root, covering every group tag) and one canonical tag state per tag.
/// Each shard's alive, reachable states are then copied in topological
/// order — tag states map onto the canonical ones, interior states are
/// re-derived from their (translated) tag sets, so their attribute
/// unions and topic vectors are recomputed against the full context —
/// followed by the shard's edges; the shard roots are finally paired
/// into the binary routing tier hanging off the router (see the module
/// docs for why the router must not adopt them directly).
/// Per-tag attribute populations are identical in the shard and
/// full-group contexts (admission only requires one group tag), so the
/// copied states are the *same* states, and inclusion holds everywhere:
/// along copied edges because the shard organizations validate, and at
/// the router because its tag set is the whole group.
fn stitch(ctx: &OrgContext, outputs: &[ShardOutput]) -> (Organization, Vec<StateId>) {
    let mut stitched = Organization::with_tag_states(ctx);
    let router = stitched.root();
    let mut shard_roots = Vec::with_capacity(outputs.len());
    let to_full = |sctx: &OrgContext, t_s: u32| -> u32 {
        ctx.local_tag(sctx.tag(t_s).global)
            .unwrap_or_else(|| unreachable!("shard tags are drawn from the full group"))
    };
    for output in outputs {
        match output {
            ShardOutput::Leaf(tag) => {
                let t = ctx
                    .local_tag(*tag)
                    .unwrap_or_else(|| unreachable!("shard tags are drawn from the full group"));
                shard_roots.push(stitched.tag_state(t));
            }
            ShardOutput::Org(boxed) => {
                let (sctx, sorg, _) = boxed.as_ref();
                let order: Vec<StateId> = sorg.topo_order().to_vec();
                let mut map: Vec<Option<StateId>> = vec![None; sorg.n_slots()];
                for &sid in &order {
                    let st = sorg.state(sid);
                    let mapped = match st.tag {
                        Some(t_s) => stitched.tag_state(to_full(sctx, t_s)),
                        None => {
                            let tags = BitSet::from_iter_with_capacity(
                                ctx.n_tags(),
                                st.tags.iter().map(|t_s| to_full(sctx, t_s)),
                            );
                            stitched.add_state(ctx, tags, None)
                        }
                    };
                    map[sid.index()] = Some(mapped);
                }
                let mapped = |sid: StateId| {
                    map[sid.index()]
                        .unwrap_or_else(|| unreachable!("topo order covers every copied state"))
                };
                for &sid in &order {
                    for &c in &sorg.state(sid).children {
                        stitched.add_edge(mapped(sid), mapped(c));
                    }
                }
                shard_roots.push(mapped(sorg.root()));
            }
        }
    }

    // Routing tier: agglomeratively pair the shard roots by topic
    // similarity until at most two remain, creating one interior
    // "junction" state per merge, and hang that frontier off the router.
    // Eq 1 splits a state's outgoing mass across *all* its children, so a
    // k-way router would dilute every shard's reach roughly k-fold; a
    // binary routing tier keeps the fan-out the navigation model rewards
    // (it is the same shape the agglomerative initializer and the local
    // search themselves produce). The merge order is a deterministic
    // function of the shard-root topics alone.
    let mut frontier: Vec<StateId> = shard_roots.clone();
    while frontier.len() > 2 {
        let (mut bi, mut bj, mut best) = (0usize, 1usize, f32::NEG_INFINITY);
        for i in 0..frontier.len() {
            for j in (i + 1)..frontier.len() {
                let sim = dot(
                    &stitched.state(frontier[i]).unit_topic,
                    &stitched.state(frontier[j]).unit_topic,
                );
                if sim > best {
                    (bi, bj, best) = (i, j, sim);
                }
            }
        }
        let (a, b) = (frontier[bi], frontier[bj]);
        let mut tags = stitched.state(a).tags.clone();
        tags.union_with(&stitched.state(b).tags);
        let junction = stitched.add_state(ctx, tags, None);
        stitched.add_edge(junction, a);
        stitched.add_edge(junction, b);
        frontier.remove(bj);
        frontier[bi] = junction;
    }
    for &top in &frontier {
        stitched.add_edge(router, top);
    }
    (stitched, shard_roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::Representatives;
    use crate::builder::OrganizerBuilder;
    use crate::eval::Evaluator;
    use dln_synth::TagCloudConfig;

    fn cfg(shards: usize, max_iters: usize) -> SearchConfig {
        policy_cfg(ShardPolicy::Fixed(shards), max_iters)
    }

    fn policy_cfg(shards: ShardPolicy, max_iters: usize) -> SearchConfig {
        SearchConfig {
            shards,
            max_iters,
            deadline: None,
            checkpoint: None,
            ..Default::default()
        }
    }

    #[test]
    fn one_shard_reproduces_build_optimized_bit_for_bit() {
        let bench = TagCloudConfig::small().generate();
        let c = cfg(1, 150);
        let plain = OrganizerBuilder::new(&bench.lake)
            .search_config(c.clone())
            .build_optimized();
        let sharded = build_sharded(&bench.lake, &c);
        assert_eq!(sharded.n_shards(), 1);
        assert_eq!(
            sharded.built.organization.fingerprint(),
            plain.organization.fingerprint(),
            "shards = 1 must be today's path, bit for bit"
        );
    }

    #[test]
    fn stitched_organization_validates_and_covers_all_tags() {
        let bench = TagCloudConfig::small().generate();
        let sharded = build_sharded(&bench.lake, &cfg(4, 120));
        assert!(sharded.n_shards() > 1, "small TagCloud splits");
        let org = &sharded.built.organization;
        let ctx = &sharded.built.ctx;
        org.validate(ctx)
            .expect("stitched org is structurally valid");
        assert_eq!(ctx.n_tags(), bench.lake.n_tags());
        // The partition covers every tag exactly once.
        let total: usize = sharded.shard_tags.iter().map(Vec::len).sum();
        assert_eq!(total, bench.lake.n_tags());
        // The routing tier keeps the router binary, and every shard root
        // is reachable from the router through it.
        assert!(org.state(org.root()).children.len() <= 2);
        let mut reachable = std::collections::HashSet::new();
        let mut stack = vec![org.root()];
        while let Some(s) = stack.pop() {
            if reachable.insert(s) {
                stack.extend(org.state(s).children.iter().copied());
            }
        }
        for root in &sharded.shard_roots {
            assert!(reachable.contains(root), "shard root {root:?} unreachable");
        }
    }

    #[test]
    fn sharded_build_is_thread_count_invariant() {
        let bench = TagCloudConfig::small().generate();
        let c = cfg(3, 100);
        let prints: Vec<_> = [1usize, 2, 4]
            .into_iter()
            .map(|threads| {
                rayon::with_num_threads(threads, || build_sharded(&bench.lake, &c))
                    .built
                    .organization
                    .fingerprint()
            })
            .collect();
        assert!(
            prints.iter().all(|p| *p == prints[0]),
            "worker count must not change the stitched organization"
        );
    }

    #[test]
    fn shard_count_beyond_tags_degrades_to_singletons() {
        let bench = TagCloudConfig::small().generate();
        let n_tags = bench.lake.n_tags();
        let sharded = build_sharded(&bench.lake, &cfg(n_tags * 2, 60));
        assert!(sharded.n_shards() <= n_tags);
        sharded
            .built
            .organization
            .validate(&sharded.built.ctx)
            .expect("singleton-heavy stitch is valid");
        // Every singleton shard roots at its tag state directly.
        for (tags, &root) in sharded.shard_tags.iter().zip(&sharded.shard_roots) {
            if let [only] = tags.as_slice() {
                let t = sharded.built.ctx.local_tag(*only).unwrap();
                assert_eq!(root, sharded.built.organization.tag_state(t));
            }
        }
    }

    #[test]
    fn stitched_evaluator_agrees_with_fresh_recompute() {
        // Incremental evaluation on the stitched DAG (router hop included)
        // must track a from-scratch recompute, at 1 and 4 workers.
        let bench = TagCloudConfig::small().generate();
        let sharded = build_sharded(&bench.lake, &cfg(3, 80));
        let ctx = &sharded.built.ctx;
        for threads in [1usize, 4] {
            let mut org = sharded.built.organization.clone();
            let stats =
                rayon::with_num_threads(threads, || search::optimize(ctx, &mut org, &cfg(1, 40)));
            let reps = Representatives::exact(ctx);
            let fresh = Evaluator::new(ctx, &org, sharded.built.nav, &reps).effectiveness();
            assert!(
                (stats.final_effectiveness - fresh).abs() < 1e-9,
                "incremental {} vs fresh {} at {threads} threads",
                stats.final_effectiveness,
                fresh
            );
        }
    }

    #[test]
    fn sharded_effectiveness_is_sane() {
        let bench = TagCloudConfig::small().generate();
        let sharded = build_sharded(&bench.lake, &cfg(4, 120));
        let eff = sharded.effectiveness();
        assert!(eff > 0.0 && eff <= 1.0, "effectiveness {eff} out of range");
        // Shard metadata is consistent.
        assert_eq!(sharded.shard_stats.len(), sharded.n_shards());
        assert_eq!(sharded.shard_roots.len(), sharded.n_shards());
    }

    #[test]
    fn auto_policy_resolves_to_spectrum_knee_and_stays_deterministic() {
        let bench = TagCloudConfig::small().generate();
        let c = policy_cfg(ShardPolicy::Auto, 100);
        let a = build_sharded(&bench.lake, &c);
        let spec = a.shard_spectrum.as_ref().expect("auto keeps its spectrum");
        assert_eq!(spec.candidates[0], 1);
        assert!(spec.knee >= 1 && spec.knee <= AUTO_SHARD_MAX);
        // The realized shard count matches the knee unless the partition
        // collapsed below it.
        assert!(a.n_shards() <= spec.knee.max(1));
        // Deterministic, and invariant to the worker count.
        for threads in [1usize, 4] {
            let again = rayon::with_num_threads(threads, || build_sharded(&bench.lake, &c));
            assert_eq!(
                again.built.organization.fingerprint(),
                a.built.organization.fingerprint(),
                "auto policy diverged at {threads} threads"
            );
            assert_eq!(
                again.shard_spectrum.as_ref().unwrap().knee,
                spec.knee,
                "knee diverged at {threads} threads"
            );
        }
        // A fixed policy never records a spectrum.
        assert!(build_sharded(&bench.lake, &cfg(2, 60))
            .shard_spectrum
            .is_none());
    }

    #[test]
    fn auto_policy_never_loses_to_fixed_four_on_bench_lake() {
        // Acceptance criterion: on the bench lake family, the data-driven
        // count must match or beat the historical fixed-4 default (which
        // BENCH_shard.json showed costing 5.4% effectiveness).
        let bench = TagCloudConfig::small().generate();
        let auto = build_sharded(&bench.lake, &policy_cfg(ShardPolicy::Auto, 120));
        let fixed4 = build_sharded(&bench.lake, &cfg(4, 120));
        let (ea, e4) = (auto.effectiveness(), fixed4.effectiveness());
        assert!(
            ea >= e4 - 1e-9,
            "auto ({} shards, eff {ea}) fell below fixed-4 (eff {e4}); spectrum {:?}",
            auto.n_shards(),
            auto.shard_spectrum
        );
    }

    #[test]
    fn derived_seeds_are_distinct_substreams() {
        let mut seen = std::collections::HashSet::new();
        for shard in 0..64 {
            assert!(seen.insert(derive_shard_seed(42, shard)));
        }
        assert!(!seen.contains(&42), "substreams avoid the base seed");
    }
}
