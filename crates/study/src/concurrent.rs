//! The navigation participant of the §4.4 study, speaking the serving
//! protocol.
//!
//! [`ServedAgent`] walks an organization through [`NavService::step`] —
//! the path the wire, the REPL and perfbench serve — with one service per
//! dimension ([`ServedDim`]). It reads its private scenario, samples
//! descents from the Eq 1 probabilities of each view at a temperature,
//! examines the tables behind tag states and spends an action budget
//! standing in for the study's 20-minute wall clock. Because a served
//! session can fail under it, it also *copes*: it retries shed requests
//! with [`RetryPolicy`] backoff, re-opens sessions lost to TTL or
//! injected drops, refreshes its view after migration invalidates a
//! chosen child, and accepts degraded (label-only) responses by falling
//! back to uniform child choice. On a quiet service none of those paths
//! fires, and [`run_study`](crate::run_study) reports the counters that
//! show it.
//!
//! Everything an agent does is a deterministic function of its seed and
//! the responses it receives, so when the service itself is deterministic
//! (no deadline pressure from a wall clock, capacity ≥ agents, no mid-run
//! publishes) a fleet of agents produces identical [`ServedOutcome`]s
//! whether run on one thread or many — the property the serve chaos suite
//! pins down.

use std::collections::BTreeSet;

use dln_embed::dot;
use dln_lake::{DataLake, TableId};
use dln_org::builder::BuiltOrganization;
use dln_org::StateId;
use dln_serve::{NavService, RetryPolicy, ServeConfig, ServeError, StepAction, StepRequest};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::agents::{personal_threshold, personal_topic, sample_child, table_sim};
use crate::{AgentConfig, Scenario};

/// One dimension of a served organization: the service over it and the
/// unit topic of its root, which the store does not hold. A participant
/// visits dimensions in order of their root topic's similarity to its
/// walk topic.
pub struct ServedDim {
    /// The service over the dimension's organization.
    pub svc: NavService,
    /// Unit topic of the dimension's root state.
    pub root_topic: Vec<f32>,
}

impl ServedDim {
    /// Serve `built` under the default [`ServeConfig`], moving its context
    /// and organization into the service.
    pub fn serve(built: BuiltOrganization) -> ServedDim {
        let org = built.organization;
        let root_topic = org.state(org.root()).unit_topic.clone();
        ServedDim {
            svc: NavService::new(built.ctx, org, built.nav, ServeConfig::default()),
            root_topic,
        }
    }
}

/// What one served participant experienced and achieved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServedOutcome {
    /// Tables the participant judged relevant and collected.
    pub found: BTreeSet<TableId>,
    /// Successful navigation steps (admitted, non-error responses).
    pub steps: u64,
    /// Responses that arrived deadline-degraded.
    pub degraded: u64,
    /// Requests shed even after the retry policy's attempts.
    pub overload_exhausted: u64,
    /// Sessions lost mid-run (TTL eviction or injected drop).
    pub lost_sessions: u64,
    /// Of those, losses injected by the `serve.drop_session` failpoint.
    pub injected_losses: u64,
    /// Fresh sessions opened after a loss (or stale rejection).
    pub reopens: u64,
    /// Descents refused because a hot-swap invalidated the chosen child
    /// between steps.
    pub nav_rejects: u64,
}

/// A study participant speaking the serving protocol.
pub struct ServedAgent;

enum Next {
    /// Refresh the view (first request, or after reopen/migration).
    Look,
    /// Descend into a child chosen from the previous view.
    Down(StateId),
    /// Backtrack out of an exhausted subtree / examined tag state.
    Up,
    /// Leave an exhausted dimension at its root: a fresh session on the
    /// next dimension's service, then a look at its root.
    Switch,
}

impl ServedAgent {
    /// Run one participant over the dimensions `dims` until the action
    /// budget is spent.
    ///
    /// Action accounting: the run's first view is free (the participant
    /// starts at the root without acting). Every other request costs one
    /// action, error or not, so a hostile fault schedule cannot trap the
    /// agent; moving to the next dimension is one such request. Examining
    /// a table the participant has not read before costs one more.
    ///
    /// `sleep` services retry backoff (tests inject a no-op or a capped
    /// sleeper so chaos runs stay fast).
    pub fn run(
        dims: &[ServedDim],
        lake: &DataLake,
        scenario: &Scenario,
        cfg: &AgentConfig,
        retry: &RetryPolicy,
        sleep: impl FnMut(u64),
    ) -> ServedOutcome {
        let dims: Vec<(&NavService, &[f32])> = dims
            .iter()
            .map(|d| (&d.svc, d.root_topic.as_slice()))
            .collect();
        Self::walk(&dims, lake, scenario, cfg, retry, sleep)
    }

    /// [`ServedAgent::run`] over `(service, root topic)` pairs.
    fn walk(
        dims: &[(&NavService, &[f32])],
        lake: &DataLake,
        scenario: &Scenario,
        cfg: &AgentConfig,
        retry: &RetryPolicy,
        mut sleep: impl FnMut(u64),
    ) -> ServedOutcome {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let bar = personal_threshold(cfg, scenario, &mut rng);
        // Walking follows the participant's private interpretation; the
        // final relevance judgement (reading the table) uses the actual
        // scenario.
        let walk_topic = personal_topic(cfg, scenario, &mut rng);
        let mut out = ServedOutcome::default();
        if dims.is_empty() {
            return out;
        }

        // Visit dimensions in order of root-topic similarity to the walk
        // topic (a user picks the most promising entry point first).
        let mut order: Vec<usize> = (0..dims.len()).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (dot(dims[a].1, &walk_topic), dot(dims[b].1, &walk_topic));
            sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut at = 0usize; // index into `order`

        // Fault keys are derived from the agent seed, not from the racy
        // order sessions get opened in; each later session shifts the key
        // so it does not replay an earlier one's fault schedule.
        let session_key = |n: u64| cfg.seed ^ n.wrapping_mul(0x9E37_79B9_97F4_A7C1);
        let mut opened = 0u64;
        let Ok(mut session) = dims[order[0]].0.open_session_keyed(session_key(0)) else {
            return out; // registry full: this participant never got in
        };

        // Tag states already read through, identified by (dimension,
        // epoch, state) — state ids are only meaningful within one
        // snapshot epoch of one dimension. A user does not descend into a
        // leaf they have already read through; after finishing a tag they
        // explore nearby siblings rather than restarting from the root.
        let mut visited: BTreeSet<(usize, u64, StateId)> = BTreeSet::new();
        // Tables already looked at: re-encountering one is free.
        let mut examined: BTreeSet<TableId> = BTreeSet::new();
        let mut actions = 0usize;
        let mut first_view = true;
        let mut next = Next::Look;

        while actions < cfg.budget {
            let action = match next {
                Next::Look => StepAction::Stay,
                Next::Down(c) => StepAction::Descend(c),
                Next::Up => StepAction::Backtrack,
                Next::Switch => {
                    let _ = dims[order[at]].0.close_session(session);
                    at = (at + 1) % order.len();
                    opened += 1;
                    match dims[order[at]].0.open_session_keyed(session_key(opened)) {
                        Ok(s) => session = s,
                        Err(_) => return out,
                    }
                    StepAction::Stay
                }
            };
            let dim = order[at];
            let svc = dims[dim].0;
            let req = StepRequest {
                query: Some(walk_topic.clone()),
                list_tables: true,
                ..StepRequest::action(action)
            };
            let resp = retry.run(&mut sleep, || svc.step(session, &req));
            if !std::mem::take(&mut first_view) {
                actions += 1;
            }
            let resp = match resp {
                Ok(r) => r,
                Err(ServeError::Overloaded { .. }) => {
                    out.overload_exhausted += 1;
                    continue; // keep the same intent, try again next round
                }
                Err(
                    e @ (ServeError::SessionExpired { .. }
                    | ServeError::SessionNotFound { .. }
                    | ServeError::Stale { .. }),
                ) => {
                    if let ServeError::SessionExpired { injected, .. } = e {
                        out.lost_sessions += 1;
                        out.injected_losses += u64::from(injected);
                    }
                    match svc.open_session_keyed(session_key(opened + 1)) {
                        Ok(s) => {
                            opened += 1;
                            out.reopens += 1;
                            session = s;
                            next = Next::Look;
                            continue;
                        }
                        Err(_) => break,
                    }
                }
                Err(ServeError::Nav(_)) => {
                    // The chosen child stopped existing (migration landed
                    // between steps). Re-look and re-choose.
                    out.nav_rejects += 1;
                    next = Next::Look;
                    continue;
                }
                Err(ServeError::SessionLimit { .. }) => break,
            };

            out.steps += 1;
            out.degraded += u64::from(resp.degraded);
            if resp.at_tag_state.is_some() {
                visited.insert((dim, resp.epoch, resp.state));
                // Examine the tables behind the tag, most covered first.
                // Degraded responses shed the table listing; the
                // participant backs out and keeps browsing rather than
                // erroring out.
                for &(table, _) in &resp.tables {
                    if actions >= cfg.budget {
                        break;
                    }
                    if !examined.insert(table) {
                        continue;
                    }
                    actions += 1;
                    if table_sim(lake, table, &scenario.unit_topic) >= bar {
                        out.found.insert(table);
                    }
                }
                next = Next::Up;
                continue;
            }
            // Candidate children: skip exhausted tag states.
            let candidates: Vec<&dln_serve::ChildView> = resp
                .children
                .iter()
                .filter(|c| !visited.contains(&(dim, resp.epoch, c.state)))
                .collect();
            if candidates.is_empty() {
                // Subtree exhausted: back up, or move on to the next
                // dimension from the root (with one dimension, the
                // backtrack is a no-op at the root).
                next = if resp.depth == 0 && dims.len() > 1 {
                    Next::Switch
                } else {
                    Next::Up
                };
                continue;
            }
            let ranked: Vec<(StateId, f64)> = candidates
                .iter()
                .filter_map(|c| c.prob.map(|p| (c.state, p)))
                .collect();
            next = if ranked.is_empty() {
                // Degraded view: labels only. Pick uniformly rather than
                // stall.
                Next::Down(candidates[rng.random_range(0..candidates.len())].state)
            } else {
                // Temperature-adjusted sample from the Eq 1 distribution.
                Next::Down(sample_child(&ranked, cfg.temperature, &mut rng))
            };
        }
        // Orderly exit merges the session's walk log into the service log.
        let _ = dims[order[at]].0.close_session(session);
        out
    }
}

/// Run `agents` against `svc`, one OS thread per participant, and return
/// their outcomes in participant order (thread scheduling cannot reorder
/// or lose results). The fleet browses the one dimension `svc` serves.
pub fn run_concurrent(
    svc: &NavService,
    lake: &DataLake,
    scenario: &Scenario,
    agents: &[AgentConfig],
    retry: &RetryPolicy,
) -> Vec<ServedOutcome> {
    let mut out: Vec<Option<ServedOutcome>> = Vec::new();
    out.resize_with(agents.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(agents.len());
        for cfg in agents {
            let retry = RetryPolicy {
                jitter_seed: retry.jitter_seed ^ cfg.seed,
                ..*retry
            };
            handles.push(scope.spawn(move || {
                // Bounded real sleep keeps backoff honest without letting a
                // chaotic schedule slow the suite down.
                let sleeper =
                    |ms: u64| std::thread::sleep(std::time::Duration::from_millis(ms.min(2)));
                ServedAgent::walk(&[(svc, &[])], lake, scenario, cfg, &retry, sleeper)
            }));
        }
        for (slot, h) in out.iter_mut().zip(handles) {
            *slot = Some(h.join().unwrap_or_default());
        }
    });
    out.into_iter().flatten().collect()
}

/// The same fleet, one participant after another on the calling thread —
/// the reference ordering the chaos suite compares concurrent runs
/// against.
pub fn run_serial(
    svc: &NavService,
    lake: &DataLake,
    scenario: &Scenario,
    agents: &[AgentConfig],
    retry: &RetryPolicy,
) -> Vec<ServedOutcome> {
    agents
        .iter()
        .map(|cfg| {
            let retry = RetryPolicy {
                jitter_seed: retry.jitter_seed ^ cfg.seed,
                ..*retry
            };
            ServedAgent::walk(&[(svc, &[])], lake, scenario, cfg, &retry, |_| {})
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dln_org::eval::NavConfig;
    use dln_org::{clustering_org, OrgContext};
    use dln_serve::ServeConfig;
    use dln_synth::SocrataConfig;

    fn setup() -> (DataLake, Scenario) {
        let s = SocrataConfig::small().generate();
        let tags: Vec<dln_lake::TagId> = s.lake.tag_ids().take(3).collect();
        let sc = Scenario::from_tags(&s.lake, "served", &tags, 0.6);
        (s.lake, sc)
    }

    fn fleet(n: u64, budget: usize) -> Vec<AgentConfig> {
        (0..n)
            .map(|i| AgentConfig {
                budget,
                seed: 100 + 17 * i,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn served_agent_matches_serial_rerun_and_finds_tables() {
        let (lake, sc) = setup();
        let ctx = OrgContext::full(&lake);
        let org = clustering_org(&ctx);
        let svc = NavService::new(ctx, org, NavConfig::default(), ServeConfig::default());
        let agents = fleet(4, 120);
        let retry = RetryPolicy::default();
        let a = run_serial(&svc, &lake, &sc, &agents, &retry);
        let b = run_serial(&svc, &lake, &sc, &agents, &retry);
        assert_eq!(a, b, "served walks are deterministic in the seed");
        assert!(
            a.iter().any(|o| !o.found.is_empty()),
            "some participant collects something"
        );
        assert!(a.iter().all(|o| o.steps > 0));
        assert_eq!(
            svc.stats()
                .closed
                .load(std::sync::atomic::Ordering::Relaxed),
            8,
            "every run closes its session"
        );
    }

    #[test]
    fn concurrent_fleet_agrees_with_serial_on_deterministic_outcomes() {
        let (lake, sc) = setup();
        let ctx = OrgContext::full(&lake);
        let org = clustering_org(&ctx);
        // A gate wide enough that no request can be shed: `overloaded`
        // depends on real arrival timing and would spoil exact equality.
        let wide = ServeConfig {
            max_concurrency: 8,
            queue_depth: 16,
            ..ServeConfig::default()
        };
        let svc = NavService::new(ctx.clone(), org.clone(), NavConfig::default(), wide);
        let agents = fleet(6, 80);
        let retry = RetryPolicy::default();
        let serial = run_serial(&svc, &lake, &sc, &agents, &retry);
        // Fresh service so session ids and logs start clean.
        let svc2 = NavService::new(ctx, org, NavConfig::default(), wide);
        let conc = run_concurrent(&svc2, &lake, &sc, &agents, &retry);
        assert_eq!(serial, conc, "interleaving must not change any outcome");
    }
}
