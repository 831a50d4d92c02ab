//! High-level construction API.
//!
//! [`OrganizerBuilder`] wires together context extraction, initialization,
//! and local search, producing a [`BuiltOrganization`] ready for
//! evaluation, serving, and success-curve reporting.

use dln_lake::{DataLake, TagId};

use crate::approx::Representatives;
use crate::ctx::OrgContext;
use crate::eval::{self, Evaluator, NavConfig};
use crate::graph::Organization;
use crate::init;
use crate::search::{self, SearchConfig, SearchStats};
use crate::success::{self, SuccessCurve};

/// Fluent builder for organizations over a data lake (or one tag group of
/// it).
pub struct OrganizerBuilder<'a> {
    lake: &'a DataLake,
    group: Option<Vec<TagId>>,
    cfg: SearchConfig,
}

impl<'a> OrganizerBuilder<'a> {
    /// A builder over every tag of `lake` with default parameters.
    pub fn new(lake: &'a DataLake) -> OrganizerBuilder<'a> {
        OrganizerBuilder {
            lake,
            group: None,
            cfg: SearchConfig::default(),
        }
    }

    /// Restrict to a tag group (one dimension of a multi-dimensional
    /// organization, §2.5).
    pub fn tag_group(mut self, tags: Vec<TagId>) -> Self {
        self.group = Some(tags);
        self
    }

    /// Set the γ of the transition model (Eq 1).
    pub fn gamma(mut self, gamma: f32) -> Self {
        self.cfg.nav.gamma = gamma;
        self
    }

    /// Set the RNG seed of the local search.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Set the representative fraction (§3.4; 1.0 = exact, paper uses 0.1).
    pub fn rep_fraction(mut self, fraction: f64) -> Self {
        self.cfg.rep_fraction = fraction;
        self
    }

    /// Set the plateau length that terminates the search (paper: 50).
    pub fn plateau_iters(mut self, iters: usize) -> Self {
        self.cfg.plateau_iters = iters;
        self
    }

    /// Set the hard cap on search proposals.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.cfg.max_iters = iters;
        self
    }

    /// Replace the whole search configuration.
    pub fn search_config(mut self, cfg: SearchConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The current search configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.cfg
    }

    fn make_ctx(&self) -> OrgContext {
        match &self.group {
            Some(g) => OrgContext::for_tag_group(self.lake, g),
            None => OrgContext::full(self.lake),
        }
    }

    /// The flat (tag-portal) baseline organization (§3.2).
    pub fn build_flat(&self) -> BuiltOrganization {
        let ctx = self.make_ctx();
        let organization = init::flat_org(&ctx);
        BuiltOrganization {
            ctx,
            organization,
            nav: self.cfg.nav,
            search_stats: None,
        }
    }

    /// The agglomerative-clustering organization (§4.3.1's `clustering`),
    /// without local search.
    pub fn build_clustering(&self) -> BuiltOrganization {
        let ctx = self.make_ctx();
        let organization = init::clustering_org(&ctx);
        BuiltOrganization {
            ctx,
            organization,
            nav: self.cfg.nav,
            search_stats: None,
        }
    }

    /// Sharded construction ([`crate::shard`], DESIGN.md §5e): the group's
    /// tags are split into [`SearchConfig::shards`] embedding clusters —
    /// a fixed count, or the knee of the tag-similarity cost spectrum
    /// under `ShardPolicy::Auto` (`DLN_SHARDS=auto`) — each shard is
    /// optimized in parallel, and the shard roots are stitched under a
    /// router state. With `Fixed(1)` (the default unless `DLN_SHARDS`
    /// says otherwise) this is
    /// [`build_optimized`](Self::build_optimized), bit for bit.
    pub fn build_sharded(&self) -> crate::shard::ShardedBuild {
        match &self.group {
            Some(g) => crate::shard::build_sharded_group(self.lake, g, &self.cfg),
            None => crate::shard::build_sharded(self.lake, &self.cfg),
        }
    }

    /// The full pipeline: clustering initialization followed by Metropolis
    /// local search (§3.3).
    pub fn build_optimized(&self) -> BuiltOrganization {
        let ctx = self.make_ctx();
        let mut organization = init::clustering_org(&ctx);
        let stats = search::optimize(&ctx, &mut organization, &self.cfg);
        BuiltOrganization {
            ctx,
            organization,
            nav: self.cfg.nav,
            search_stats: Some(stats),
        }
    }
}

/// An organization bundled with its context and construction record.
pub struct BuiltOrganization {
    /// The universe the organization was built over.
    pub ctx: OrgContext,
    /// The organization DAG.
    pub organization: Organization,
    /// Navigation-model parameters used during construction.
    pub nav: NavConfig,
    /// Local-search statistics (`None` for flat / clustering builds).
    pub search_stats: Option<SearchStats>,
}

impl BuiltOrganization {
    /// Exact organization effectiveness (Eq 6) over the context's tables.
    pub fn effectiveness(&self) -> f64 {
        let reps = Representatives::exact(&self.ctx);
        Evaluator::new(&self.ctx, &self.organization, self.nav, &reps).effectiveness()
    }

    /// Exact discovery probability of every *lake* attribute (Def. 1);
    /// attributes outside this organization's context get 0.0.
    pub fn attr_discovery_global(&self, lake: &DataLake) -> Vec<f64> {
        let local = eval::discovery_probs(&self.ctx, &self.organization, self.nav);
        let mut out = vec![0.0f64; lake.n_attrs()];
        for (i, a) in self.ctx.attrs().iter().enumerate() {
            out[a.global.index()] = local[i];
        }
        out
    }

    /// The Figure 2 success curve of this organization over `lake`.
    pub fn success_curve(&self, lake: &DataLake, theta: f32) -> SuccessCurve {
        let disc = self.attr_discovery_global(lake);
        success::success_curve(lake, &disc, theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dln_synth::TagCloudConfig;

    #[test]
    fn builder_pipeline_end_to_end() {
        let bench = TagCloudConfig::small().generate();
        let builder = OrganizerBuilder::new(&bench.lake)
            .gamma(20.0)
            .seed(11)
            .max_iters(200);
        let flat = builder.build_flat();
        let clus = builder.build_clustering();
        let opt = builder.build_optimized();
        opt.organization.validate(&opt.ctx).expect("valid");
        let (ef, ec, eo) = (
            flat.effectiveness(),
            clus.effectiveness(),
            opt.effectiveness(),
        );
        assert!(ec > ef, "clustering {ec} must beat flat {ef}");
        assert!(
            eo >= ec,
            "optimized {eo} must never end below clustering {ec}"
        );
        assert!(opt.search_stats.is_some());
    }

    #[test]
    fn attr_discovery_global_covers_all_lake_attrs() {
        let bench = TagCloudConfig::small().generate();
        let built = OrganizerBuilder::new(&bench.lake).build_clustering();
        let disc = built.attr_discovery_global(&bench.lake);
        assert_eq!(disc.len(), bench.lake.n_attrs());
        assert!(disc.iter().all(|d| (0.0..=1.0).contains(d)));
        assert!(disc.iter().any(|&d| d > 0.0));
    }

    #[test]
    fn tag_group_restricts_context() {
        let bench = TagCloudConfig::small().generate();
        let group: Vec<_> = bench.lake.tag_ids().take(6).collect();
        let built = OrganizerBuilder::new(&bench.lake)
            .tag_group(group)
            .build_clustering();
        assert_eq!(built.ctx.n_tags(), 6);
        let disc = built.attr_discovery_global(&bench.lake);
        // Out-of-group attributes are undiscoverable in this dimension.
        let zeros = disc.iter().filter(|&&d| d == 0.0).count();
        assert!(zeros > 0);
    }

    #[test]
    fn success_curve_from_built_org() {
        let bench = TagCloudConfig::small().generate();
        let built = OrganizerBuilder::new(&bench.lake).build_clustering();
        let curve = built.success_curve(&bench.lake, 0.9);
        assert_eq!(curve.per_table.len(), bench.lake.n_tables());
        assert!(curve.mean > 0.0);
    }

    #[test]
    fn discovery_and_success_are_thread_count_invariant() {
        let bench = TagCloudConfig::small().generate();
        let lake = &bench.lake;
        let built = OrganizerBuilder::new(lake).build_clustering();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let run = |threads| {
            rayon::with_num_threads(threads, || {
                let disc = built.attr_discovery_global(lake);
                let sets = success::similar_sets(lake, 0.9);
                let curve = built.success_curve(lake, 0.9);
                let tables: Vec<_> = curve.per_table.iter().map(|(t, _)| *t).collect();
                (
                    bits(&disc),
                    sets,
                    tables,
                    bits(&curve.values()),
                    curve.mean.to_bits(),
                )
            })
        };
        let serial = run(1);
        for threads in [2, 4] {
            assert!(
                run(threads) == serial,
                "results changed at {threads} threads"
            );
        }
    }
}
