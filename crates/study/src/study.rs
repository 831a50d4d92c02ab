//! The full study harness (§4.4): within-subject design, balanced
//! latin-square blocking, relevance verification, and hypothesis tests.

use std::collections::BTreeSet;

use dln_embed::{dot, SyntheticEmbedding};
use dln_fault::{DlnError, DlnResult};
use dln_lake::{DataLake, TableId, TagId, ValueStore};
use dln_org::{MultiDimConfig, MultiDimOrganization, SearchConfig};
use dln_search::{ExpansionConfig, KeywordSearch};
use dln_serve::RetryPolicy;

use crate::agents::{AgentConfig, Scenario, SearchAgent};
use crate::concurrent::{ServedAgent, ServedDim, ServedOutcome};
use crate::metrics::{mean_pairwise_disjointness, overlap_fraction};
use crate::stats::{mann_whitney_u, median, MannWhitney};

/// Study-wide configuration.
#[derive(Clone, Debug)]
pub struct StudyConfig {
    /// Number of participants (the paper recruited 12).
    pub n_participants: usize,
    /// Behaviour parameters shared by all participants (individual seeds
    /// are derived per participant).
    pub agent: AgentConfig,
    /// Dimensions of the organizations built per study lake.
    pub n_dims: usize,
    /// Local-search configuration for organization construction.
    pub search: SearchConfig,
    /// Number of tags blended into each scenario topic.
    pub scenario_tags: usize,
    /// Ground-truth relevance threshold (collaborator verification), used
    /// by [`default_scenario`]-style fixed-threshold scenarios.
    pub relevance_threshold: f32,
    /// Target ground-truth size for difficulty-matched scenarios.
    pub target_relevant: usize,
    /// How many navigation-click-equivalents one keyword-search action
    /// (formulating a query / reading a ranked result) costs. Navigation
    /// clicks are fast; composing queries and scanning result lists is
    /// slow. The search agent's action budget is `budget / this`.
    pub search_action_cost: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            n_participants: 12,
            agent: AgentConfig::default(),
            n_dims: 2,
            search: SearchConfig {
                max_iters: 200,
                ..Default::default()
            },
            scenario_tags: 3,
            relevance_threshold: 0.6,
            target_relevant: 90,
            search_action_cost: 6.0,
            seed: 0x57AD_517E,
        }
    }
}

/// Aggregated per-modality outcome.
#[derive(Clone, Debug)]
pub struct ModalityResult {
    /// Verified-relevant result set per participant session.
    pub found: Vec<BTreeSet<TableId>>,
    /// Number of relevant tables found per session.
    pub n_found: Vec<f64>,
    /// Pairwise disjointness among sessions of the same scenario.
    pub disjointness: Vec<f64>,
    /// Fraction of collected tables rejected by verification (the paper
    /// reports < 1% for both modalities).
    pub irrelevant_rate: f64,
}

/// The study report: everything §4.4 tabulates.
#[derive(Clone, Debug)]
pub struct StudyReport {
    /// Navigation outcomes.
    pub nav: ModalityResult,
    /// Keyword-search outcomes.
    pub search: ModalityResult,
    /// H1 test (number of relevant tables found, navigation vs search).
    pub h1: Option<MannWhitney>,
    /// H2 test (pairwise disjointness, navigation vs search).
    pub h2: Option<MannWhitney>,
    /// Median disjointness for navigation (paper: 0.985).
    pub nav_disjointness_median: f64,
    /// Median disjointness for search (paper: 0.916).
    pub search_disjointness_median: f64,
    /// Fraction of tables found by both modalities (paper: ≈5%).
    pub cross_modality_overlap: f64,
    /// Largest session result (paper: 44 nav / 34 search).
    pub max_nav_found: usize,
    /// Largest search session result.
    pub max_search_found: usize,
    /// What each navigation session met on its dimension services, in
    /// participant order (its `found` is before verification).
    pub nav_sessions: Vec<ServedOutcome>,
}

impl std::fmt::Display for StudyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== simulated user study (paper §4.4) ==")?;
        writeln!(
            f,
            "relevant tables found: nav median {:.1} (max {}), search median {:.1} (max {})",
            median(&self.nav.n_found).unwrap_or(0.0),
            self.max_nav_found,
            median(&self.search.n_found).unwrap_or(0.0),
            self.max_search_found,
        )?;
        match &self.h1 {
            Some(h1) => writeln!(
                f,
                "H1 (similar #found): Mann-Whitney U = {:.1}, p = {:.4} ({})",
                h1.u1,
                h1.p_value,
                if h1.p_value > 0.05 {
                    "no significant difference, as the paper found"
                } else {
                    "significant difference"
                }
            )?,
            None => writeln!(f, "H1: test degenerate")?,
        }
        writeln!(
            f,
            "disjointness: nav median {:.3} vs search median {:.3}",
            self.nav_disjointness_median, self.search_disjointness_median
        )?;
        match &self.h2 {
            Some(h2) => writeln!(
                f,
                "H2 (nav more disjoint): Mann-Whitney U = {:.1}, p = {:.4} ({})",
                h2.u1,
                h2.p_value,
                if h2.p_value < 0.05
                    && self.nav_disjointness_median > self.search_disjointness_median
                {
                    "confirmed, as the paper found"
                } else {
                    "not confirmed"
                }
            )?,
            None => writeln!(f, "H2: test degenerate")?,
        }
        writeln!(
            f,
            "cross-modality overlap: {:.1}% (paper: ~5%)",
            100.0 * self.cross_modality_overlap
        )?;
        write!(
            f,
            "irrelevant before verification: nav {:.1}%, search {:.1}% (paper: <1%)",
            100.0 * self.nav.irrelevant_rate,
            100.0 * self.search.irrelevant_rate
        )
    }
}

/// Choose a coherent scenario for a lake with a *calibrated difficulty*:
/// the paper matched its two scenarios "in difficulty by asking a number
/// of domain experts ... to rate several candidate scenarios". Here the
/// equivalent is a target ground-truth size: the relevance threshold is
/// bisected until roughly `target_relevant` tables qualify, so the two
/// sub-lakes' scenarios are comparable.
fn calibrated_scenario(
    lake: &DataLake,
    label: &str,
    n_tags: usize,
    target_relevant: usize,
) -> DlnResult<Scenario> {
    // Candidate seed tags: the most popular ones (a scenario must be about
    // something the lake actually covers). For each, build the scenario at
    // a fixed threshold and keep the one whose ground-truth size is
    // closest to the target.
    let mut candidates: Vec<TagId> = lake.tag_ids().collect();
    candidates.sort_by_key(|&t| std::cmp::Reverse(lake.tag(t).attrs.len()));
    candidates.truncate(50);
    let mut best: Option<(Scenario, usize)> = None;
    for &seed in &candidates {
        let sc = scenario_from_seed(lake, label, seed, n_tags, 0.6);
        let diff = sc.relevant.len().abs_diff(target_relevant);
        if best.as_ref().map(|(_, d)| diff < *d).unwrap_or(true) {
            best = Some((sc, diff));
        }
    }
    match best {
        Some((sc, _)) => Ok(sc),
        None => Err(DlnError::InvalidConfig(format!(
            "calibrated_scenario({label}): lake has no tags to anchor a scenario on"
        ))),
    }
}

/// Scenario anchored at an explicit seed tag: the seed plus its `n − 1`
/// nearest tags by topic cosine.
fn scenario_from_seed(
    lake: &DataLake,
    label: &str,
    seed_tag: TagId,
    n_tags: usize,
    threshold: f32,
) -> Scenario {
    let seed_unit = &lake.tag(seed_tag).unit_topic;
    let mut others: Vec<TagId> = lake.tag_ids().filter(|&t| t != seed_tag).collect();
    others.sort_by(|&a, &b| {
        let sa = dot(&lake.tag(a).unit_topic, seed_unit);
        let sb = dot(&lake.tag(b).unit_topic, seed_unit);
        sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut tags = vec![seed_tag];
    tags.extend(others.into_iter().take(n_tags.saturating_sub(1)));
    Scenario::from_tags(lake, label, &tags, threshold)
}

/// Choose a coherent scenario for a lake: the most popular tag plus its
/// `n − 1` nearest tags by topic cosine.
pub fn default_scenario(
    lake: &DataLake,
    label: &str,
    n_tags: usize,
    threshold: f32,
) -> DlnResult<Scenario> {
    let Some(seed_tag) = lake.tag_ids().max_by_key(|&t| lake.tag(t).attrs.len()) else {
        return Err(DlnError::InvalidConfig(format!(
            "default_scenario({label}): lake has no tags to anchor a scenario on"
        )));
    };
    let seed_unit = &lake.tag(seed_tag).unit_topic;
    let mut others: Vec<TagId> = lake.tag_ids().filter(|&t| t != seed_tag).collect();
    others.sort_by(|&a, &b| {
        let sa = dot(&lake.tag(a).unit_topic, seed_unit);
        let sb = dot(&lake.tag(b).unit_topic, seed_unit);
        sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut tags = vec![seed_tag];
    tags.extend(others.into_iter().take(n_tags.saturating_sub(1)));
    Ok(Scenario::from_tags(lake, label, &tags, threshold))
}

/// Run the full study over two tag-disjoint lakes (the paper's Socrata-2 /
/// Socrata-3) and the values of their attributes, which the keyword-search
/// modality indexes. Returns the aggregated report.
///
/// The latin-square blocking (4 balanced blocks over lake × technique
/// order) is reproduced so that, exactly as in the paper, every
/// participant performs one navigation session and one search session on
/// *different* lakes.
pub fn run_study(
    lake2: &DataLake,
    values2: &ValueStore,
    lake3: &DataLake,
    values3: &ValueStore,
    model: &SyntheticEmbedding,
    cfg: &StudyConfig,
) -> DlnResult<StudyReport> {
    // Organizations and search engines per lake.
    let md_cfg = MultiDimConfig {
        n_dims: cfg.n_dims,
        search: cfg.search.clone(),
        partition_seed: cfg.seed ^ 0xD1,
    };
    // Each dimension is served on its own service, which the navigation
    // participants walk exactly as a remote user would.
    let serve = |lake| -> Vec<ServedDim> {
        MultiDimOrganization::build(lake, &md_cfg)
            .dims
            .into_iter()
            .map(ServedDim::serve)
            .collect()
    };
    let dims2 = serve(lake2);
    let dims3 = serve(lake3);
    let engine2 = KeywordSearch::build_with_expansion(
        lake2,
        values2,
        model.clone(),
        ExpansionConfig::default(),
    );
    let engine3 = KeywordSearch::build_with_expansion(
        lake3,
        values3,
        model.clone(),
        ExpansionConfig::default(),
    );
    // Difficulty-matched scenarios (the latin-square design assumes the
    // two scenarios are comparable; the paper vetted this with experts).
    let scenario2 =
        calibrated_scenario(lake2, "scenario-2", cfg.scenario_tags, cfg.target_relevant)?;
    let scenario3 =
        calibrated_scenario(lake3, "scenario-3", cfg.scenario_tags, cfg.target_relevant)?;

    // Latin-square blocks: (nav lake, search lake) alternating with order;
    // order is immaterial for agents but the lake assignment is balanced.
    let mut nav_sets_by_scenario: [Vec<BTreeSet<TableId>>; 2] = [Vec::new(), Vec::new()];
    let mut search_sets_by_scenario: [Vec<BTreeSet<TableId>>; 2] = [Vec::new(), Vec::new()];
    let mut nav_sessions = Vec::with_capacity(cfg.n_participants);
    let mut nav_raw_total = 0usize;
    let mut search_raw_total = 0usize;
    for p in 0..cfg.n_participants {
        let agent_cfg = AgentConfig {
            seed: cfg.seed ^ (0x9E37_79B9u64.wrapping_mul(p as u64 + 1)),
            ..cfg.agent.clone()
        };
        // Blocks: p % 4 ∈ {0: nav@2, 1: nav@3, 2: nav@2, 3: nav@3} with
        // technique order alternating (order has no effect on agents).
        let nav_on_2 = p % 2 == 0;
        let (nav_lake, nav_dims, nav_scenario, nav_idx) = if nav_on_2 {
            (lake2, &dims2, &scenario2, 0usize)
        } else {
            (lake3, &dims3, &scenario3, 1usize)
        };
        let (s_lake, s_engine, s_scenario, s_idx) = if nav_on_2 {
            (lake3, &engine3, &scenario3, 1usize)
        } else {
            (lake2, &engine2, &scenario2, 0usize)
        };
        let session = ServedAgent::run(
            nav_dims,
            nav_lake,
            nav_scenario,
            &agent_cfg,
            &RetryPolicy::default(),
            |_| {},
        );
        let nav_found = session.found.clone();
        nav_sessions.push(session);
        let search_cfg = AgentConfig {
            budget: (agent_cfg.budget as f64 / cfg.search_action_cost).round() as usize,
            ..agent_cfg.clone()
        };
        let s_found = SearchAgent::run(s_engine, model, s_lake, s_scenario, &search_cfg);
        // Verification (the paper's collaborators filtering irrelevant
        // results).
        nav_raw_total += nav_found.len();
        let nav_verified: BTreeSet<TableId> = nav_found
            .into_iter()
            .filter(|t| nav_scenario.relevant.contains(t))
            .collect();
        search_raw_total += s_found.len();
        let s_verified: BTreeSet<TableId> = s_found
            .into_iter()
            .filter(|t| s_scenario.relevant.contains(t))
            .collect();
        nav_sets_by_scenario[nav_idx].push(nav_verified);
        search_sets_by_scenario[s_idx].push(s_verified);
    }
    // Rejection counts (collected minus verified).
    let nav_kept_total: usize = nav_sets_by_scenario
        .iter()
        .flatten()
        .map(BTreeSet::len)
        .sum();
    let search_kept_total: usize = search_sets_by_scenario
        .iter()
        .flatten()
        .map(BTreeSet::len)
        .sum();
    let nav_rejected = nav_raw_total - nav_kept_total;
    let search_rejected = search_raw_total - search_kept_total;

    // Per-technique samples.
    let nav_found_all: Vec<BTreeSet<TableId>> =
        nav_sets_by_scenario.iter().flatten().cloned().collect();
    let search_found_all: Vec<BTreeSet<TableId>> =
        search_sets_by_scenario.iter().flatten().cloned().collect();
    let nav_counts: Vec<f64> = nav_found_all.iter().map(|s| s.len() as f64).collect();
    let search_counts: Vec<f64> = search_found_all.iter().map(|s| s.len() as f64).collect();
    // Disjointness per scenario per technique, pooled (the paper computes
    // pairs among participants on the same scenario with the same
    // technique).
    let mut nav_disj = Vec::new();
    let mut search_disj = Vec::new();
    for idx in 0..2 {
        nav_disj.extend(mean_pairwise_disjointness(&nav_sets_by_scenario[idx]));
        search_disj.extend(mean_pairwise_disjointness(&search_sets_by_scenario[idx]));
    }
    // Cross-modality overlap per scenario, averaged.
    let mut overlaps = Vec::new();
    for idx in 0..2 {
        let nav_union: BTreeSet<TableId> = nav_sets_by_scenario[idx]
            .iter()
            .flatten()
            .copied()
            .collect();
        let search_union: BTreeSet<TableId> = search_sets_by_scenario[idx]
            .iter()
            .flatten()
            .copied()
            .collect();
        if !nav_union.is_empty() || !search_union.is_empty() {
            overlaps.push(overlap_fraction(&nav_union, &search_union));
        }
    }
    let cross_modality_overlap = if overlaps.is_empty() {
        0.0
    } else {
        overlaps.iter().sum::<f64>() / overlaps.len() as f64
    };

    let h1 = mann_whitney_u(&nav_counts, &search_counts);
    let h2 = mann_whitney_u(&nav_disj, &search_disj);
    let max_nav_found = nav_found_all.iter().map(BTreeSet::len).max().unwrap_or(0);
    let max_search_found = search_found_all
        .iter()
        .map(BTreeSet::len)
        .max()
        .unwrap_or(0);
    Ok(StudyReport {
        nav: ModalityResult {
            n_found: nav_counts,
            disjointness: nav_disj.clone(),
            irrelevant_rate: rate(nav_rejected, nav_raw_total),
            found: nav_found_all,
        },
        search: ModalityResult {
            n_found: search_counts,
            disjointness: search_disj.clone(),
            irrelevant_rate: rate(search_rejected, search_raw_total),
            found: search_found_all,
        },
        h1,
        h2,
        nav_disjointness_median: median(&nav_disj).unwrap_or(1.0),
        search_disjointness_median: median(&search_disj).unwrap_or(1.0),
        cross_modality_overlap,
        max_nav_found,
        max_search_found,
        nav_sessions,
    })
}

fn rate(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dln_synth::SocrataConfig;

    fn small_study() -> StudyReport {
        let s = SocrataConfig::small().generate();
        let ((l2, v2), (l3, v3)) = s.split_disjoint(7);
        let cfg = StudyConfig {
            n_participants: 8,
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
        run_study(&l2, &v2, &l3, &v3, &s.model, &cfg).expect("study")
    }

    #[test]
    fn study_produces_complete_report() {
        let r = small_study();
        assert_eq!(r.nav.found.len(), 8);
        assert_eq!(r.search.found.len(), 8);
        assert!(!r.nav.disjointness.is_empty());
        assert!(!r.search.disjointness.is_empty());
        // Verified sets are all relevant by construction.
        assert!(r.nav.irrelevant_rate <= 0.5);
        assert!(r.search.irrelevant_rate <= 0.5);
        let text = format!("{r}");
        assert!(text.contains("H1"));
        assert!(text.contains("H2"));
    }

    #[test]
    fn served_recovery_paths_stay_quiet() {
        // The study's services are quiet (no deadline, no failpoint, one
        // participant at a time), so the agent's retry, reopen and
        // degraded-view paths never fire and the walk is the plain model.
        let r = small_study();
        assert_eq!(r.nav_sessions.len(), 8);
        for (p, o) in r.nav_sessions.iter().enumerate() {
            assert!(o.steps > 0, "participant {p} made no step");
            assert_eq!(
                (
                    o.degraded,
                    o.overload_exhausted,
                    o.lost_sessions,
                    o.reopens,
                    o.nav_rejects
                ),
                (0, 0, 0, 0, 0),
                "participant {p}"
            );
        }
    }

    #[test]
    fn both_modalities_find_tables() {
        let r = small_study();
        let nav_total: usize = r.nav.found.iter().map(|s| s.len()).sum();
        let search_total: usize = r.search.found.iter().map(|s| s.len()).sum();
        assert!(nav_total > 0, "navigation found nothing");
        assert!(search_total > 0, "search found nothing");
    }

    #[test]
    fn disjointness_values_are_probabilities() {
        let r = small_study();
        for d in r.nav.disjointness.iter().chain(&r.search.disjointness) {
            assert!((0.0..=1.0).contains(d));
        }
        assert!((0.0..=1.0).contains(&r.cross_modality_overlap));
    }

    #[test]
    fn default_scenario_is_well_formed() {
        let s = SocrataConfig::small().generate();
        let sc = default_scenario(&s.lake, "x", 3, 0.6).expect("scenario");
        assert!(!sc.relevant.is_empty());
        assert_eq!(sc.label, "x");
    }

    #[test]
    fn calibrated_scenarios_are_difficulty_matched() {
        // The latin-square design assumes the two lakes' scenarios are
        // comparable; calibration should bring their ground-truth sizes
        // within the same ballpark even though the sub-lakes differ.
        let s = SocrataConfig::small().generate();
        let ((l2, _), (l3, _)) = s.split_disjoint(7);
        let target = 30;
        let sc2 = calibrated_scenario(&l2, "a", 3, target).expect("scenario");
        let sc3 = calibrated_scenario(&l3, "b", 3, target).expect("scenario");
        assert!(!sc2.relevant.is_empty());
        assert!(!sc3.relevant.is_empty());
        let (n2, n3) = (sc2.relevant.len() as f64, sc3.relevant.len() as f64);
        let ratio = n2.max(n3) / n2.min(n3);
        assert!(
            ratio < 4.0,
            "scenario sizes should be comparable: {n2} vs {n3}"
        );
    }

    #[test]
    fn scenario_from_seed_anchors_on_the_seed_tag() {
        let s = SocrataConfig::small().generate();
        let seed = s.lake.tag_ids().next().unwrap();
        let sc = scenario_from_seed(&s.lake, "seeded", seed, 2, 0.5);
        // The seed tag's own tables should be heavily represented.
        let seed_tables: std::collections::BTreeSet<_> =
            s.lake.tag(seed).tables.iter().copied().collect();
        let hit = seed_tables
            .iter()
            .filter(|t| sc.relevant.contains(t))
            .count();
        assert!(
            hit * 2 >= seed_tables.len().min(10),
            "seed tag's tables should mostly be relevant ({hit}/{})",
            seed_tables.len()
        );
    }

    #[test]
    fn search_action_cost_shrinks_search_budget() {
        // Indirect but observable: with an enormous cost, searchers can do
        // almost nothing while navigation is unaffected.
        let s = SocrataConfig::small().generate();
        let ((l2, v2), (l3, v3)) = s.split_disjoint(7);
        let mk = |cost: f64| StudyConfig {
            n_participants: 4,
            search: SearchConfig {
                max_iters: 40,
                ..Default::default()
            },
            agent: AgentConfig {
                budget: 120,
                ..Default::default()
            },
            search_action_cost: cost,
            ..Default::default()
        };
        let cheap = run_study(&l2, &v2, &l3, &v3, &s.model, &mk(1.0)).expect("study");
        let pricey = run_study(&l2, &v2, &l3, &v3, &s.model, &mk(60.0)).expect("study");
        let total = |r: &StudyReport| r.search.n_found.iter().sum::<f64>();
        assert!(
            total(&cheap) >= total(&pricey),
            "costlier search actions cannot find more: {} vs {}",
            total(&cheap),
            total(&pricey)
        );
    }
}
