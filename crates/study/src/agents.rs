//! Simulated study participants.
//!
//! Each participant has a private *scenario* — an information need like the
//! paper's "smart city" / "clinical research" overview scenarios — modelled
//! as a topic vector, plus a personal relevance bar with noise. Two agent
//! types drive the two interfaces of §4.4:
//!
//! * [`ServedAgent`](crate::ServedAgent) walks the organization prototype
//!   through the navigation service: at every state it samples a child
//!   according to the transition model (Eq 1) — the same assumption the
//!   paper's navigation model makes about users — with occasional
//!   backtracking; at tag states it examines the tables behind the tag and
//!   collects those it deems relevant. Each UI action (step, backtrack,
//!   examine) spends budget, standing in for the study's 20-minute wall
//!   clock.
//! * [`SearchAgent`] uses the keyword-search engine: it composes queries
//!   from the vocabulary words closest to its scenario topic (real
//!   participants "used very similar keywords"), examines the top hits,
//!   and collects relevant ones.

use std::collections::BTreeSet;

use dln_embed::{dot, normalized, SyntheticEmbedding, TopicAccumulator};
use dln_lake::{DataLake, TableId, TagId};
use dln_search::KeywordSearch;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// An information-need scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable label ("smart city", "clinical research", ...).
    pub label: String,
    /// Unit topic vector of the need.
    pub unit_topic: Vec<f32>,
    /// Ground-truth relevant tables (the paper's collaborator
    /// verification): tables whose best attribute cosine to the scenario
    /// is at least the relevance threshold.
    pub relevant: BTreeSet<TableId>,
    /// The threshold used for the ground truth.
    pub threshold: f32,
}

impl Scenario {
    /// Build a scenario whose topic is the mean of a set of related tags —
    /// an *overview* need spanning several facets, like the paper's
    /// scenarios (smart-city participants variously found traffic, crime,
    /// and energy tables).
    pub fn from_tags(lake: &DataLake, label: &str, tags: &[TagId], threshold: f32) -> Scenario {
        assert!(!tags.is_empty(), "scenario needs at least one tag");
        let mut acc = TopicAccumulator::new(lake.dim());
        for &t in tags {
            let tag = lake.tag(t);
            if !tag.topic.is_empty() {
                acc.add(&tag.unit_topic);
            }
        }
        let unit_topic = normalized(&acc.mean());
        let relevant = Self::ground_truth(lake, &unit_topic, threshold);
        Scenario {
            label: label.to_string(),
            unit_topic,
            relevant,
            threshold,
        }
    }

    /// Tables whose best attribute cosine to `unit` is ≥ `threshold`.
    fn ground_truth(lake: &DataLake, unit: &[f32], threshold: f32) -> BTreeSet<TableId> {
        lake.table_ids()
            .filter(|&t| table_sim(lake, t, unit) >= threshold)
            .collect()
    }
}

/// Best attribute cosine of a table against a query vector — the relevance
/// judgement both agent kinds (and the serving-layer driver) apply when
/// "reading" a table.
pub fn table_sim(lake: &DataLake, table: TableId, unit: &[f32]) -> f32 {
    lake.table(table)
        .attrs
        .iter()
        .map(|&a| dot(&lake.attr(a).unit_topic, unit))
        .fold(f32::NEG_INFINITY, f32::max)
}

/// Participant behaviour parameters.
#[derive(Clone, Debug)]
pub struct AgentConfig {
    /// UI-action budget (the stand-in for the study's 20 minutes).
    pub budget: usize,
    /// Sampling temperature over the Eq 1 transition distribution
    /// (1.0 = the navigation model exactly; < 1 = more decisive users).
    pub temperature: f64,
    /// Personal relevance bar (cosine); per-participant noise is added.
    pub judge_threshold: f32,
    /// Std-dev of the personal threshold noise.
    pub judge_noise: f32,
    /// Results examined per keyword query.
    pub results_per_query: usize,
    /// Per-participant interpretation spread: the expected L2 norm of the
    /// Gaussian perturbation applied to the scenario topic before a
    /// participant starts working. Every participant reads an overview
    /// scenario ("smart city") differently — one thinks of traffic, one of
    /// crime, one of renewable energy (§4.4 reports exactly this) — and
    /// navigation amplifies those differences into different subtrees,
    /// while the shared search engine keeps pulling searchers back to the
    /// same head results.
    pub interpretation_noise: f32,
    /// Probability that a chosen keyword is a *misformulation* — a word
    /// from an unrelated part of the vocabulary. Real participants did not
    /// know the lake's vocabulary and often guessed wrong ("they were
    /// having a hard time finding keywords", §4.4); without this, a BM25
    /// engine over clean synthetic text is unrealistically precise.
    pub keyword_miss_rate: f64,
    /// Participant RNG seed.
    pub seed: u64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            budget: 120,
            temperature: 0.5,
            judge_threshold: 0.60,
            judge_noise: 0.03,
            results_per_query: 10,
            interpretation_noise: 0.45,
            keyword_miss_rate: 0.5,
            seed: 1,
        }
    }
}

/// A participant's private reading of the scenario topic.
pub(crate) fn personal_topic(cfg: &AgentConfig, scenario: &Scenario, rng: &mut StdRng) -> Vec<f32> {
    let dim = scenario.unit_topic.len();
    let comp = cfg.interpretation_noise / (dim.max(1) as f32).sqrt();
    let mut v: Vec<f32> = scenario
        .unit_topic
        .iter()
        .map(|x| {
            let u1: f32 = rng.random::<f32>().max(f32::MIN_POSITIVE);
            let u2: f32 = rng.random();
            let g = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
            x + comp * g
        })
        .collect();
    let n = dln_embed::l2_norm(&v);
    if n > 1e-6 {
        v.iter_mut().for_each(|x| *x /= n);
    }
    v
}

/// A participant's personal relevance bar: the scenario's (calibrated)
/// threshold plus individual noise. `cfg.judge_threshold` is used only
/// when the scenario carries no threshold (< 0).
pub(crate) fn personal_threshold(cfg: &AgentConfig, scenario: &Scenario, rng: &mut StdRng) -> f32 {
    // Small Gaussian perturbation via Box–Muller.
    let u1: f32 = rng.random::<f32>().max(f32::MIN_POSITIVE);
    let u2: f32 = rng.random();
    let g = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
    let base = if scenario.threshold > 0.0 {
        scenario.threshold
    } else {
        cfg.judge_threshold
    };
    base + cfg.judge_noise * g
}

pub(crate) fn sample_child(
    probs: &[(dln_org::StateId, f64)],
    temperature: f64,
    rng: &mut StdRng,
) -> dln_org::StateId {
    let temp = temperature.max(1e-3);
    let weights: Vec<f64> = probs.iter().map(|(_, p)| p.powf(1.0 / temp)).collect();
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return probs[rng.random_range(0..probs.len())].0;
    }
    let mut target = rng.random::<f64>() * total;
    for ((sid, _), w) in probs.iter().zip(weights.iter()) {
        if target < *w {
            return *sid;
        }
        target -= *w;
    }
    probs[probs.len() - 1].0
}

/// A participant using keyword search.
pub struct SearchAgent;

impl SearchAgent {
    /// Run one participant session against the search engine. Keywords are
    /// drawn from the vocabulary words nearest the scenario topic, which is
    /// why simulated searchers — like the paper's participants — end up
    /// issuing very similar queries.
    pub fn run(
        engine: &KeywordSearch,
        model: &SyntheticEmbedding,
        lake: &DataLake,
        scenario: &Scenario,
        cfg: &AgentConfig,
    ) -> BTreeSet<TableId> {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EA2C4);
        let bar = personal_threshold(cfg, scenario, &mut rng);
        let walk_topic = personal_topic(cfg, scenario, &mut rng);
        let mut found = BTreeSet::new();
        // Candidate keywords: vocabulary words near the scenario topic.
        // The pool is wide and rank-biased: participants do not know the
        // lake's vocabulary, so many of their formulations are off-target
        // ("they were having a hard time finding keywords that best
        // described their interest since they did not know what was
        // available", §4.4).
        let candidates = model.vocab().k_nearest(&walk_topic, 60);
        if candidates.is_empty() {
            return found;
        }
        let mut actions = 0usize;
        let mut examined: BTreeSet<TableId> = BTreeSet::new();
        while actions < cfg.budget {
            // Compose a 1–2 word query biased toward the top candidates.
            let n_words = 1 + usize::from(rng.random::<f64>() < 0.4);
            let mut query = String::new();
            for _ in 0..n_words {
                let tok = if rng.random::<f64>() < cfg.keyword_miss_rate {
                    // Misformulated keyword: anywhere in the vocabulary.
                    dln_embed::TokenId(rng.random_range(0..model.vocab().len() as u32))
                } else {
                    // Rank-biased choice among on-topic candidates.
                    let idx = (rng.random::<f64>() * rng.random::<f64>() * candidates.len() as f64)
                        as usize;
                    candidates[idx.min(candidates.len() - 1)].0
                };
                if !query.is_empty() {
                    query.push(' ');
                }
                query.push_str(model.vocab().word(tok));
            }
            actions += 1; // issuing the query
            let hits = engine.search(&query, cfg.results_per_query);
            for hit in hits {
                if actions >= cfg.budget {
                    break;
                }
                if !examined.insert(hit.table) {
                    continue; // already looked at this result
                }
                actions += 1; // examining a result
                if table_sim(lake, hit.table, &scenario.unit_topic) >= bar {
                    found.insert(hit.table);
                }
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServedAgent, ServedDim};
    use dln_org::OrganizerBuilder;
    use dln_serve::RetryPolicy;
    use dln_synth::SocrataConfig;

    fn setup() -> (DataLake, dln_lake::ValueStore, SyntheticEmbedding) {
        let s = SocrataConfig::small().generate();
        (s.lake, s.values, s.model)
    }

    fn scenario(lake: &DataLake) -> Scenario {
        let tags: Vec<TagId> = lake.tag_ids().take(3).collect();
        Scenario::from_tags(lake, "test scenario", &tags, 0.6)
    }

    fn navigate(
        dims: &[ServedDim],
        lake: &DataLake,
        sc: &Scenario,
        cfg: &AgentConfig,
    ) -> BTreeSet<TableId> {
        ServedAgent::run(dims, lake, sc, cfg, &RetryPolicy::default(), |_| {}).found
    }

    #[test]
    fn scenario_ground_truth_nonempty() {
        let (lake, _, _) = setup();
        let sc = scenario(&lake);
        assert!(!sc.relevant.is_empty(), "some tables must be relevant");
        assert!(sc.relevant.len() < lake.n_tables(), "not everything");
        assert!((dln_embed::l2_norm(&sc.unit_topic) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn navigation_agent_finds_mostly_relevant_tables() {
        let (lake, _, _) = setup();
        let sc = scenario(&lake);
        let built = OrganizerBuilder::new(&lake).max_iters(60).build_optimized();
        let dims = [ServedDim::serve(built)];
        let cfg = AgentConfig {
            budget: 150,
            seed: 42,
            ..Default::default()
        };
        let found = navigate(&dims, &lake, &sc, &cfg);
        assert!(!found.is_empty(), "agent should find something");
        let relevant = found.iter().filter(|t| sc.relevant.contains(t)).count();
        assert!(
            relevant as f64 / found.len() as f64 > 0.7,
            "mostly relevant ({relevant}/{})",
            found.len()
        );
    }

    #[test]
    fn search_agent_finds_mostly_relevant_tables() {
        let (lake, values, model) = setup();
        let sc = scenario(&lake);
        let engine = KeywordSearch::build_with_expansion(
            &lake,
            &values,
            model.clone(),
            dln_search::ExpansionConfig::default(),
        );
        let cfg = AgentConfig {
            budget: 150,
            seed: 43,
            ..Default::default()
        };
        let found = SearchAgent::run(&engine, &model, &lake, &sc, &cfg);
        assert!(!found.is_empty());
        let relevant = found.iter().filter(|t| sc.relevant.contains(t)).count();
        assert!(
            relevant as f64 / found.len() as f64 > 0.7,
            "mostly relevant ({relevant}/{})",
            found.len()
        );
    }

    #[test]
    fn different_seeds_give_different_navigation_paths() {
        let (lake, _, _) = setup();
        let sc = scenario(&lake);
        let built = OrganizerBuilder::new(&lake).max_iters(60).build_optimized();
        let dims = [ServedDim::serve(built)];
        let mk = |seed| {
            navigate(
                &dims,
                &lake,
                &sc,
                &AgentConfig {
                    budget: 100,
                    seed,
                    ..Default::default()
                },
            )
        };
        let a = mk(1);
        let b = mk(2);
        // Stochastic walks diverge (H2's mechanism).
        assert!(a != b || a.is_empty(), "two participants rarely coincide");
    }

    #[test]
    fn agents_respect_budget_zero() {
        let (lake, values, model) = setup();
        let sc = scenario(&lake);
        let built = OrganizerBuilder::new(&lake)
            .max_iters(10)
            .build_clustering();
        let dims = [ServedDim::serve(built)];
        let cfg = AgentConfig {
            budget: 0,
            ..Default::default()
        };
        assert!(navigate(&dims, &lake, &sc, &cfg).is_empty());
        let engine = KeywordSearch::build(&lake, &values);
        assert!(SearchAgent::run(&engine, &model, &lake, &sc, &cfg).is_empty());
    }

    #[test]
    fn agent_runs_are_deterministic_in_seed() {
        let (lake, _, _) = setup();
        let sc = scenario(&lake);
        let built = OrganizerBuilder::new(&lake)
            .max_iters(40)
            .build_clustering();
        let dims = [ServedDim::serve(built)];
        let cfg = AgentConfig {
            budget: 80,
            seed: 9,
            ..Default::default()
        };
        let a = navigate(&dims, &lake, &sc, &cfg);
        let b = navigate(&dims, &lake, &sc, &cfg);
        assert_eq!(a, b);
    }
}
