//! CDC change stream for dynamic lakes: durable table add / remove /
//! retag events and the pure replay fold that materializes the lake they
//! describe.
//!
//! Production lakes ingest continuously; the organization must follow
//! without a full rebuild (DESIGN.md §5h/5i):
//!
//! * [`ChangeEvent`] — one ingest-side mutation, identified by *table
//!   name* (names are the stable identity across lake rebuilds; dense
//!   [`TableId`](crate::TableId)s are not). `TableRetagged` replaces the
//!   table's **entire** tag assignment: afterwards every attribute of the
//!   table carries exactly the new labels.
//! * [`ChangeLog`] — the durable, checksummed log: a
//!   [`dln_persist::SeqLog`] whose state is the full [`ChangeHistory`]
//!   (snapshot `DLNCDCSN` at `<base>`, WAL at `<base>.wal`). Appends are
//!   **ack-after-durable**, so a torn append (the injected
//!   `churn.log_torn` tear) is never acknowledged; a torn tail is
//!   truncated on open, a sequence gap is [`DlnError::Corrupt`], and a
//!   checksum-valid frame whose event does not decode is quarantined.
//! * [`replay`] — the pure fold `(seed lake, events) → lake`, over
//!   values-free catalogs (the lake keeps no raw values). Replay is
//!   deterministic and idempotent, which is what lets a crashed maintainer
//!   reconstruct the exact lake any committed plan was made against from
//!   `(seed, events ≤ applied_seq)` alone. Compacting the change log keeps
//!   the **full** event history in the snapshot — the seed lake is the
//!   replay anchor, so no event is ever folded away.
//!
//! Apply-level no-ops (removing an absent table, re-adding an existing
//! name, retagging an absent table) are *not* errors: CDC producers
//! legitimately duplicate on retry. The fold counts them so exact-delivery
//! accounting ("no event lost, none double-applied") stays testable.

use std::collections::HashMap;

use dln_embed::TopicAccumulator;
use dln_fault::{DlnError, DlnResult};
use dln_persist::{self as persist, SeqLog, SeqState};

use crate::builder::LakeBuilder;
use crate::model::DataLake;

/// One attribute of a [`ChangeEvent::TableAdded`] payload.
#[derive(Clone, Debug, PartialEq)]
pub struct AttrChange {
    /// Column name.
    pub name: String,
    /// Precomputed topic accumulator (CDC producers embed upstream).
    pub topic: TopicAccumulator,
    /// Total number of domain values (embedded or not).
    pub n_values: u32,
    /// Attribute-level tag labels (in addition to the table-level tags).
    pub tags: Vec<String>,
}

/// One ingest-side lake mutation, identified by table name.
#[derive(Clone, Debug, PartialEq)]
pub enum ChangeEvent {
    /// A new table arrived with its attributes and tags.
    TableAdded {
        /// Table name (the cross-rebuild identity).
        name: String,
        /// Table-level tag labels; every attribute inherits them.
        tags: Vec<String>,
        /// The table's attributes with precomputed topic accumulators.
        attrs: Vec<AttrChange>,
    },
    /// A table was dropped from the lake.
    TableRemoved {
        /// Name of the removed table.
        name: String,
    },
    /// A table's tag assignment was replaced: afterwards every attribute
    /// of the table carries exactly `tags`.
    TableRetagged {
        /// Name of the retagged table.
        name: String,
        /// The table's new (complete) tag label set.
        tags: Vec<String>,
    },
}

fn put_labels(w: &mut persist::Writer, labels: &[String]) {
    w.u32(labels.len() as u32);
    for l in labels {
        w.str(l);
    }
}

fn get_labels(r: &mut persist::Reader<'_>) -> DlnResult<Vec<String>> {
    // Each label is at least its u32 length.
    let n = r.count(4)?;
    (0..n).map(|_| r.str()).collect()
}

impl ChangeEvent {
    /// The name of the table this event concerns.
    pub fn table_name(&self) -> &str {
        match self {
            ChangeEvent::TableAdded { name, .. }
            | ChangeEvent::TableRemoved { name }
            | ChangeEvent::TableRetagged { name, .. } => name,
        }
    }

    /// Every tag label this event mentions (table- and attribute-level).
    pub fn labels(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        match self {
            ChangeEvent::TableAdded { tags, attrs, .. } => {
                out.extend(tags.iter().map(String::as_str));
                for a in attrs {
                    out.extend(a.tags.iter().map(String::as_str));
                }
            }
            ChangeEvent::TableRemoved { .. } => {}
            ChangeEvent::TableRetagged { tags, .. } => {
                out.extend(tags.iter().map(String::as_str));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Serialize to the little-endian record format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = persist::Writer::with_capacity(64);
        match self {
            ChangeEvent::TableAdded { name, tags, attrs } => {
                w.u8(1);
                w.str(name);
                put_labels(&mut w, tags);
                w.u32(attrs.len() as u32);
                for a in attrs {
                    w.str(&a.name);
                    w.u32(a.n_values);
                    w.u64(a.topic.count());
                    w.u32(a.topic.dim() as u32);
                    for &v in a.topic.sum() {
                        w.f32(v);
                    }
                    put_labels(&mut w, &a.tags);
                }
            }
            ChangeEvent::TableRemoved { name } => {
                w.u8(2);
                w.str(name);
            }
            ChangeEvent::TableRetagged { name, tags } => {
                w.u8(3);
                w.str(name);
                put_labels(&mut w, tags);
            }
        }
        // Unsealed: the WAL frame / snapshot carries the checksum.
        w.into_bytes()
    }

    /// Decode one event; a failure here on a checksum-valid frame is the
    /// quarantine path (version skew or a buggy producer, not a torn
    /// write).
    pub fn decode(bytes: &[u8], context: &str) -> DlnResult<ChangeEvent> {
        let mut r = persist::Reader::new(bytes, 0, context);
        let ev = match r.u8()? {
            1 => {
                let name = r.str()?;
                let tags = get_labels(&mut r)?;
                // name, n_values, count, dim and label count: 24 bytes.
                let n_attrs = r.count(24)?;
                let mut attrs = Vec::with_capacity(n_attrs);
                for _ in 0..n_attrs {
                    let name = r.str()?;
                    let n_values = r.u32()?;
                    let count = r.u64()?;
                    let dim = r.count(4)?;
                    let mut sum = Vec::with_capacity(dim);
                    for _ in 0..dim {
                        sum.push(r.f32()?);
                    }
                    let tags = get_labels(&mut r)?;
                    attrs.push(AttrChange {
                        name,
                        topic: TopicAccumulator::from_sum(sum, count),
                        n_values,
                        tags,
                    });
                }
                ChangeEvent::TableAdded { name, tags, attrs }
            }
            2 => ChangeEvent::TableRemoved { name: r.str()? },
            3 => ChangeEvent::TableRetagged {
                name: r.str()?,
                tags: get_labels(&mut r)?,
            },
            k => {
                return Err(DlnError::corrupt(
                    context,
                    format!("unknown change-event kind {k}"),
                ))
            }
        };
        r.finish()?;
        Ok(ev)
    }
}

/// The change log's folded state: the full decoded history,
/// `(seq, event)`, ascending. Quarantined sequence numbers are absent.
#[derive(Clone, Debug, Default)]
pub struct ChangeHistory(Vec<(u64, ChangeEvent)>);

impl ChangeHistory {
    /// The full history, ascending by sequence number.
    pub fn events(&self) -> &[(u64, ChangeEvent)] {
        &self.0
    }

    /// The events with sequence number ≤ `seq`, in order.
    pub fn events_through(&self, seq: u64) -> impl Iterator<Item = &ChangeEvent> {
        self.0
            .iter()
            .take_while(move |(s, _)| *s <= seq)
            .map(|(_, e)| e)
    }
}

/// Snapshot body: `[quarantined:u64][n:u64]` then per event
/// `[seq:u64][len:u64][event bytes]`.
impl SeqState for ChangeHistory {
    type Event = ChangeEvent;
    const MAGIC: &'static [u8; 8] = b"DLNCDCSN";
    const VERSION: u8 = 1;
    const NAME: &'static str = "change-log";
    const TORN_SITE: &'static str = "churn.log_torn";

    fn fold(&mut self, seq: u64, event: &ChangeEvent) {
        self.0.push((seq, event.clone()));
    }

    fn encode_event(event: &ChangeEvent) -> Vec<u8> {
        event.encode()
    }

    fn decode_event(bytes: &[u8], context: &str) -> DlnResult<ChangeEvent> {
        ChangeEvent::decode(bytes, context)
    }

    fn write_snapshot(&self, quarantined: u64, w: &mut persist::Writer) {
        w.u64(quarantined);
        w.u64(self.0.len() as u64);
        for (seq, ev) in &self.0 {
            w.u64(*seq);
            let bytes = ev.encode();
            w.u64(bytes.len() as u64);
            w.bytes(&bytes);
        }
    }

    fn read_snapshot(
        r: &mut persist::Reader<'_>,
        seq: u64,
        context: &str,
    ) -> DlnResult<(ChangeHistory, u64)> {
        let quarantined = r.u64()?;
        // Each event is at least its sequence number and length.
        let n = r.len_prefix(16)?;
        let mut events = Vec::with_capacity(n);
        let mut prev = 0u64;
        for _ in 0..n {
            let eseq = r.u64()?;
            if eseq <= prev || eseq > seq {
                return Err(DlnError::corrupt(context, "snapshot sequence disorder"));
            }
            prev = eseq;
            let len = r.len_prefix(1)?;
            events.push((eseq, ChangeEvent::decode(r.take(len)?, context)?));
        }
        Ok((ChangeHistory(events), quarantined))
    }
}

/// The durable CDC change log over the full [`ChangeHistory`]. See the
/// module docs for the on-disk contract.
pub type ChangeLog = SeqLog<ChangeHistory>;

/// What a [`replay`] fold did, beyond the lake itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Events applied with effect.
    pub applied: u64,
    /// Apply-level no-ops: remove of an absent table, add of an existing
    /// name, retag of an absent table (CDC retry duplicates).
    pub noops: u64,
}

/// One attribute of a table being replayed, borrowing its names from the
/// seed lake or the events (both outlive the fold).
struct AttrSpec<'a> {
    name: &'a str,
    topic: &'a TopicAccumulator,
    n_values: u32,
    tags: Vec<&'a str>,
}

struct TableSpec<'a> {
    name: &'a str,
    /// Table-level labels (only populated where attribute-level attachment
    /// cannot represent them: attribute-less tables, and retagged or
    /// event-added tables).
    table_tags: Vec<&'a str>,
    attrs: Vec<AttrSpec<'a>>,
}

/// Materialize the lake catalog described by `(seed, events)`: a pure,
/// deterministic, idempotent fold. Table identity is the name; events
/// apply in iteration order. Tag ids in the result are assigned by first
/// appearance in (table, attribute) order, which preserves the seed
/// lake's relative tag order for unchanged tables — `replay(seed, [])`
/// reproduces the seed lake's universe exactly (modulo dropped empties).
/// The fold is linear in the seed's attribute–tag associations plus the
/// events' size.
pub fn replay<'a>(
    seed: &'a DataLake,
    events: impl IntoIterator<Item = &'a ChangeEvent>,
) -> (DataLake, ReplayStats) {
    let labels = |tags: &'a [String]| tags.iter().map(String::as_str).collect::<Vec<_>>();
    // Seed import: re-attach every tag association at the attribute level
    // (exactly what the lake's own `project` does), so `attr_tags` — the
    // only association downstream consumers read — is reproduced verbatim.
    // Tables without attributes keep their tags at table level.
    let mut specs: Vec<Option<TableSpec<'a>>> = Vec::with_capacity(seed.n_tables());
    let mut by_name: HashMap<&'a str, usize> = HashMap::with_capacity(seed.n_tables());
    for tid in seed.table_ids() {
        let table = seed.table(tid);
        let table_tags = if table.attrs.is_empty() {
            table
                .tags
                .iter()
                .map(|&tg| seed.tag(tg).label.as_str())
                .collect()
        } else {
            Vec::new()
        };
        let attrs = table
            .attrs
            .iter()
            .map(|&aid| {
                let a = seed.attr(aid);
                AttrSpec {
                    name: &a.name,
                    topic: &a.topic,
                    n_values: a.n_values,
                    tags: seed
                        .attr_tags(aid)
                        .iter()
                        .map(|&tg| seed.tag(tg).label.as_str())
                        .collect(),
                }
            })
            .collect();
        by_name.insert(&table.name, specs.len());
        specs.push(Some(TableSpec {
            name: &table.name,
            table_tags,
            attrs,
        }));
    }
    let mut stats = ReplayStats::default();
    for ev in events {
        match ev {
            ChangeEvent::TableAdded { name, tags, attrs } => {
                if by_name.contains_key(name.as_str()) {
                    stats.noops += 1;
                    continue;
                }
                by_name.insert(name, specs.len());
                specs.push(Some(TableSpec {
                    name,
                    table_tags: labels(tags),
                    attrs: attrs
                        .iter()
                        .map(|a| AttrSpec {
                            name: &a.name,
                            topic: &a.topic,
                            n_values: a.n_values,
                            tags: labels(&a.tags),
                        })
                        .collect(),
                }));
                stats.applied += 1;
            }
            ChangeEvent::TableRemoved { name } => {
                let Some(i) = by_name.remove(name.as_str()) else {
                    stats.noops += 1;
                    continue;
                };
                specs[i] = None;
                stats.applied += 1;
            }
            ChangeEvent::TableRetagged { name, tags } => {
                let Some(&i) = by_name.get(name.as_str()) else {
                    stats.noops += 1;
                    continue;
                };
                let Some(spec) = specs[i].as_mut() else {
                    stats.noops += 1;
                    continue;
                };
                spec.table_tags = labels(tags);
                for a in &mut spec.attrs {
                    a.tags.clear();
                }
                stats.applied += 1;
            }
        }
    }
    let mut b = LakeBuilder::new(seed.dim());
    for spec in specs.into_iter().flatten() {
        let t = b.begin_table(spec.name);
        for label in &spec.table_tags {
            b.add_tag(t, label);
        }
        for a in spec.attrs {
            let aid = match b.try_add_attribute_raw(t, a.name, a.topic.clone(), a.n_values) {
                Ok(aid) => aid,
                // Unreachable by construction (seed and events share the
                // seed's dimension), but replay must never panic.
                Err(e) => {
                    eprintln!(
                        "warning: replay dropped attribute {}.{} ({e})",
                        spec.name, a.name
                    );
                    continue;
                }
            };
            for label in &a.tags {
                b.add_attr_tag(aid, label);
            }
        }
    }
    (b.build(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dln_embed::TopicAccumulator;
    use std::path::PathBuf;

    fn topic(bias: f32) -> TopicAccumulator {
        TopicAccumulator::from_sum(vec![bias, 1.0 - bias, 0.25], 2)
    }

    fn attr(name: &str, bias: f32, tags: &[&str]) -> AttrChange {
        AttrChange {
            name: name.to_string(),
            topic: topic(bias),
            n_values: 3,
            tags: tags.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn added(name: &str, tags: &[&str], attrs: Vec<AttrChange>) -> ChangeEvent {
        ChangeEvent::TableAdded {
            name: name.to_string(),
            tags: tags.iter().map(|s| s.to_string()).collect(),
            attrs,
        }
    }

    fn seed_lake() -> DataLake {
        let mut b = LakeBuilder::new(3);
        let t0 = b.begin_table("alpha");
        let a0 = b.add_attribute_raw(t0, "a", topic(0.9), 3);
        b.add_attr_tag(a0, "health");
        let t1 = b.begin_table("beta");
        let a1 = b.add_attribute_raw(t1, "b", topic(0.1), 3);
        b.add_attr_tag(a1, "transit");
        b.build()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dln_cdc_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    #[test]
    fn event_encode_decode_roundtrip() {
        let events = vec![
            added("t", &["x", "y"], vec![attr("c", 0.5, &["z"])]),
            ChangeEvent::TableRemoved {
                name: "gone".to_string(),
            },
            ChangeEvent::TableRetagged {
                name: "t".to_string(),
                tags: vec!["only".to_string()],
            },
        ];
        for ev in &events {
            let bytes = ev.encode();
            let back = ChangeEvent::decode(&bytes, "test").expect("decode");
            assert_eq!(&back, ev);
        }
    }

    #[test]
    fn every_flipped_byte_is_rejected_or_changes_the_event() {
        let ev = added("t", &["x"], vec![attr("c", 0.5, &["z"])]);
        let bytes = ev.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            // A flip either fails to decode (quarantine path) or decodes
            // to a *different* event — never silently to the same one.
            if let Ok(back) = ChangeEvent::decode(&bad, "test") {
                assert_ne!(back, ev, "flip at {i} must not be invisible");
            }
        }
    }

    #[test]
    fn log_roundtrip_compaction_and_full_history() {
        let dir = tmp("log");
        let base = dir.join("cdc");
        let _clean = dln_fault::scoped("").expect("clean scope");
        let mut log = ChangeLog::open(&base).expect("open");
        assert_eq!(log.last_seq(), 0);
        log.append(&added("t1", &["x"], vec![attr("a", 0.2, &[])]))
            .expect("append 1");
        log.append(&ChangeEvent::TableRemoved {
            name: "t1".to_string(),
        })
        .expect("append 2");
        assert_eq!(log.last_seq(), 2);
        // Reopen: WAL replays.
        let log2 = ChangeLog::open(&base).expect("reopen");
        assert_eq!(log2.last_seq(), 2);
        assert_eq!(log2.state().events().len(), 2);
        // Compact keeps the full history; later appends extend it.
        log.compact().expect("compact");
        log.append(&ChangeEvent::TableRetagged {
            name: "t2".to_string(),
            tags: vec![],
        })
        .expect("append 3");
        let log3 = ChangeLog::open(&base).expect("reopen after compact");
        assert_eq!(log3.last_seq(), 3);
        assert_eq!(
            log3.state().events().len(),
            3,
            "compaction folds nothing away"
        );
        assert_eq!(log3.state().events()[0].0, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_append_is_not_acked_and_recovers() {
        let dir = tmp("torn");
        let base = dir.join("cdc");
        let mut log;
        {
            let _clean = dln_fault::scoped("").expect("clean scope");
            log = ChangeLog::open(&base).expect("open");
            log.append(&added("t1", &[], vec![])).expect("append 1");
        }
        {
            let _torn = dln_fault::scoped("churn.log_torn:1.0:0").expect("torn scope");
            let err = log.append(&added("t2", &[], vec![])).unwrap_err();
            assert!(matches!(err, DlnError::Corrupt { .. }), "{err}");
        }
        assert_eq!(log.last_seq(), 1, "torn append not acked");
        {
            let _clean = dln_fault::scoped("").expect("clean scope");
            // Same handle recovers by rewinding to the clean prefix…
            log.append(&added("t3", &[], vec![]))
                .expect("append after torn");
            assert_eq!(log.last_seq(), 2);
            // …and a fresh open truncates any torn tail left on disk.
            let log2 = ChangeLog::open(&base).expect("reopen");
            assert_eq!(log2.last_seq(), 2);
            assert_eq!(log2.state().events()[1].1.table_name(), "t3");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequence_gap_is_typed_corrupt() {
        let dir = tmp("gap");
        let base = dir.join("cdc");
        let ev = added("t", &[], vec![]);
        let mut wal = persist::wal_frame(1, &ev.encode());
        wal.extend_from_slice(&persist::wal_frame(3, &ev.encode())); // 2 missing
        std::fs::write(persist::wal_path(&base), &wal).expect("write wal");
        let err = ChangeLog::open(&base).unwrap_err();
        assert!(matches!(err, DlnError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("sequence gap"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn undecodable_checksummed_frame_is_quarantined_not_fatal() {
        let dir = tmp("quarantine");
        let base = dir.join("cdc");
        let good = added("t", &[], vec![]);
        let mut wal = persist::wal_frame(1, &good.encode());
        wal.extend_from_slice(&persist::wal_frame(2, &[0xFF, 0x00, 0x01])); // junk payload
        wal.extend_from_slice(&persist::wal_frame(3, &good.encode()));
        std::fs::write(persist::wal_path(&base), &wal).expect("write wal");
        let log = ChangeLog::open(&base).expect("open quarantines, not fails");
        assert_eq!(log.last_seq(), 3, "sequence still advances");
        assert_eq!(log.quarantined(), 1);
        assert_eq!(
            log.state()
                .events()
                .iter()
                .map(|(s, _)| *s)
                .collect::<Vec<_>>(),
            vec![1, 3],
            "frames after the quarantined one still apply"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_of_no_events_reproduces_the_seed_universe() {
        let seed = seed_lake();
        let (lake, stats) = replay(&seed, []);
        assert_eq!(stats, ReplayStats::default());
        assert_eq!(lake.n_tables(), seed.n_tables());
        assert_eq!(lake.n_attrs(), seed.n_attrs());
        assert_eq!(lake.n_tags(), seed.n_tags());
        for (a, b) in seed.tags().iter().zip(lake.tags()) {
            assert_eq!(a.label, b.label, "tag order preserved");
            assert_eq!(a.attrs.len(), b.attrs.len());
        }
        // Idempotence: replaying the replayed lake changes nothing.
        let (again, _) = replay(&lake, []);
        assert_eq!(again.n_tags(), lake.n_tags());
        for (a, b) in lake.tags().iter().zip(again.tags()) {
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn replay_fold_semantics_and_noop_accounting() {
        let seed = seed_lake();
        let events = vec![
            added("gamma", &["civic"], vec![attr("g", 0.4, &[])]),
            ChangeEvent::TableRemoved {
                name: "alpha".to_string(),
            },
            ChangeEvent::TableRemoved {
                name: "alpha".to_string(), // duplicate: no-op
            },
            ChangeEvent::TableRetagged {
                name: "beta".to_string(),
                tags: vec!["mobility".to_string()],
            },
            ChangeEvent::TableRetagged {
                name: "nonexistent".to_string(), // no-op
                tags: vec![],
            },
            added("beta", &[], vec![]), // name exists: no-op
        ];
        let (lake, stats) = replay(&seed, &events);
        assert_eq!(stats.applied, 3);
        assert_eq!(stats.noops, 3);
        assert_eq!(lake.n_tables(), 2, "alpha out, gamma in");
        assert!(lake.tag_by_label("health").is_none(), "alpha's tag is gone");
        assert!(lake.tag_by_label("transit").is_none(), "retag replaced it");
        let mobility = lake.tag_by_label("mobility").expect("retag applied");
        assert_eq!(lake.tag(mobility).tables.len(), 1);
        let civic = lake.tag_by_label("civic").expect("added table's tag");
        assert_eq!(lake.tag(civic).attrs.len(), 1);
        // The retagged table's attribute carries exactly the new label.
        let beta = lake
            .table_ids()
            .find(|&t| lake.table(t).name == "beta")
            .expect("beta present");
        let beta_attr = lake.table(beta).attrs[0];
        assert_eq!(lake.attr_tags(beta_attr), &[mobility]);
    }
}
