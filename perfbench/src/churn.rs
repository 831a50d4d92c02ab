//! The write side of the `churn` workload: seeded, localised CDC batches
//! appended durably through `Maintainer::ingest`, each followed by one
//! `NavService::run_maintenance_cycle`.

use std::time::Instant;

use dln_embed::TopicAccumulator;
use dln_lake::{AttrChange, ChangeEvent, DataLake};
use dln_org::Maintainer;
use dln_serve::NavService;

use crate::lakegen::Rng;

/// What the writer did during the measured phase.
#[derive(Default)]
pub struct ChurnOut {
    /// Latency of each durable CDC append, µs.
    pub append_us: Vec<f64>,
    /// Seconds from each batch's first append to its epoch published.
    pub cycle_s: Vec<f64>,
    /// Shards searched per cycle.
    pub searched: Vec<usize>,
    /// Slots in each cycle's republish scope.
    pub changed: Vec<usize>,
    /// Sequence numbers acknowledged by the change log, in order.
    pub acked: Vec<u64>,
}

impl ChurnOut {
    /// Append `o`'s figures to these.
    pub fn merge(&mut self, o: ChurnOut) {
        self.append_us.extend(o.append_us);
        self.cycle_s.extend(o.cycle_s);
        self.searched.extend(o.searched);
        self.changed.extend(o.changed);
        self.acked.extend(o.acked);
    }
}

/// A topic accumulator near label `label`'s direction in `lake`, nudged
/// deterministically so added attributes land inside the hot region.
fn topic_near(lake: &DataLake, label: &str, nudge: f32) -> Option<TopicAccumulator> {
    let unit = &lake.tag(lake.tag_by_label(label)?).unit_topic;
    let v: Vec<f32> = unit
        .iter()
        .enumerate()
        .map(|(i, x)| x + nudge * ((i % 3) as f32 - 1.0))
        .collect();
    let mut acc = TopicAccumulator::new(lake.dim());
    acc.add(&v);
    Some(acc)
}

/// One batch of `n` events whose labels all come from `hot`: adds of new
/// one-attribute tables, removes and retags of tables added earlier
/// (`live`).
pub fn batch(
    lake: &DataLake,
    hot: &[String],
    live: &mut Vec<String>,
    rng: &mut Rng,
    tag: usize,
    n: usize,
) -> Vec<ChangeEvent> {
    let mut events = Vec::with_capacity(n);
    for i in 0..n {
        let roll = rng.below(4);
        if roll >= 2 || live.is_empty() {
            let label = hot[rng.below(hot.len())].clone();
            let mut tags = vec![label.clone()];
            if rng.below(3) == 0 {
                tags.push(hot[rng.below(hot.len())].clone());
                tags.dedup();
            }
            let Some(topic) = topic_near(lake, &label, 0.01 * (i as f32 + 1.0)) else {
                continue;
            };
            let name = format!("churn_{tag}_{i}");
            events.push(ChangeEvent::TableAdded {
                name: name.clone(),
                tags,
                attrs: vec![AttrChange {
                    name: "c0".to_string(),
                    topic,
                    n_values: 6,
                    tags: Vec::new(),
                }],
            });
            live.push(name);
        } else if roll == 0 {
            let name = live.swap_remove(rng.below(live.len()));
            events.push(ChangeEvent::TableRemoved { name });
        } else {
            let name = live[rng.below(live.len())].clone();
            let mut tags = vec![hot[rng.below(hot.len())].clone()];
            if rng.below(2) == 0 {
                tags.push(hot[rng.below(hot.len())].clone());
                tags.dedup();
            }
            events.push(ChangeEvent::TableRetagged { name, tags });
        }
    }
    events
}

/// `cycles` times: append a batch of `events` events, run one maintenance
/// cycle, then call `after_publish` (which navigates the new epoch).
pub fn drive(
    svc: &NavService,
    maint: &mut Maintainer<'_>,
    hot: &[String],
    seed: u64,
    events: usize,
    cycles: usize,
    after_publish: &dyn Fn(),
) -> Result<ChurnOut, String> {
    let mut rng = Rng::new(seed, 7);
    let mut live = Vec::new();
    let mut out = ChurnOut::default();
    for n in 0..cycles {
        let evs = batch(maint.lake(), hot, &mut live, &mut rng, n, events);
        let first = Instant::now();
        for ev in &evs {
            let t = Instant::now();
            let seq = maint.ingest(ev).map_err(|e| format!("CDC append: {e}"))?;
            out.append_us.push(t.elapsed().as_secs_f64() * 1e6);
            out.acked.push(seq);
        }
        let report = svc
            .run_maintenance_cycle(maint)
            .map_err(|e| format!("maintenance cycle: {e}"))?;
        out.cycle_s.push(first.elapsed().as_secs_f64());
        if report.epoch.is_none() {
            return Err(format!(
                "batch {n}: the maintenance cycle published no epoch"
            ));
        }
        out.searched.push(report.searched_shards);
        out.changed.push(report.n_changed);
        after_publish();
    }
    Ok(out)
}
