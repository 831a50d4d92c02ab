//! Immutable organization snapshots and epoch-based hot-swap.
//!
//! A [`OrgSnapshot`] bundles everything a navigation request needs behind
//! one read surface ([`OrgView`]), plus a shared lazily-filled label cache
//! (state labels are pure string renderings of immutable structure, so one
//! computation serves every session). Two representations publish through
//! the same type:
//!
//! * **Owned** — the in-memory `(ctx, org)` pair produced by the
//!   organizer, with per-state child-topic matrices gathered lazily.
//! * **Mapped** — a [`MappedSnapshot`] opened zero-copy from a persistent
//!   store file (DESIGN.md §5g); child matrices were laid out at save
//!   time, so the Eq 1 ranking streams straight off the map.
//!
//! Snapshots are never mutated after publication: a maintained
//! organization is installed by [`SnapshotStore::publish`] (or
//! [`SnapshotStore::publish_mapped`] for a store file), which swaps the
//! *whole* `Arc` under a short write lock and bumps the epoch. Readers
//! clone the `Arc` under a read lock, so a request observes either the old
//! snapshot or the new one in its entirety — never a torn mix (the paper's
//! extended version re-optimizes organizations as the lake evolves; this
//! is the mechanism that lets serving ride through those republications).
//!
//! Sessions that were navigating the previous epoch are reconciled by
//! [`replay_path`]: states are matched across snapshots by their *tag
//! sets* (the semantic identity of a state — slot ids are allocation
//! accidents), walking the old path down the new DAG for as long as edges
//! with the same tag sets exist. The unreplayable suffix is reported as
//! `lost_depth` so the client can tell the user "you were moved up N
//! levels by a reorganization" instead of silently teleporting them.

use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use dln_fault::DlnResult;
use dln_org::eval::NavConfig;
use dln_org::{
    open_store_with_fallback, save_store, transition_probs_over, MappedSnapshot, OrgContext,
    OrgView, Organization, OwnedSnap, StateId,
};

/// Which representation backs a snapshot.
enum SnapSource {
    /// In-memory context + organization.
    Owned(OwnedSnap),
    /// Zero-copy view of a persistent store file.
    Mapped(Arc<MappedSnapshot>),
}

/// Scope of a publication: `None` on a whole-snapshot publish, `Some` on
/// a shard-level republish where only the listed slots changed relative
/// to the snapshot of `from_epoch`.
///
/// This is what lets the serving layer migrate sessions pinned to
/// *untouched* shards by swapping their snapshot `Arc` in place — no
/// path replay, no lost depth — while sessions inside the republished
/// shard take the ordinary [`replay_path`] route.
#[derive(Clone, Debug)]
pub struct PublishScope {
    from_epoch: u64,
    /// Sorted, deduplicated changed slot ids (tombstoned + grafted).
    changed: Vec<u32>,
}

impl PublishScope {
    /// A scope describing a republish of `changed` slots on top of the
    /// snapshot published at `from_epoch`.
    pub fn new(from_epoch: u64, mut changed: Vec<u32>) -> PublishScope {
        changed.sort_unstable();
        changed.dedup();
        PublishScope {
            from_epoch,
            changed,
        }
    }

    /// The epoch this republish was derived from: the in-place migration
    /// shortcut is only sound for sessions pinned exactly there.
    pub fn from_epoch(&self) -> u64 {
        self.from_epoch
    }

    /// Number of changed slots.
    pub fn n_changed(&self) -> usize {
        self.changed.len()
    }

    /// Does the scope touch `sid`?
    pub fn touches(&self, sid: StateId) -> bool {
        self.changed.binary_search(&sid.0).is_ok()
    }

    /// Does the scope touch any state on `path`?
    pub fn affects_path(&self, path: &[StateId]) -> bool {
        path.iter().any(|s| self.touches(*s))
    }
}

/// An immutable, shareable view of one published organization.
pub struct OrgSnapshot {
    epoch: u64,
    nav: NavConfig,
    source: SnapSource,
    /// Shard-republish scope, when this snapshot was published as one.
    scope: Option<PublishScope>,
    /// Per-slot display labels, computed on first use and shared by every
    /// session on this snapshot.
    labels: Vec<OnceLock<String>>,
    /// Per-slot row-major `n_children × dim` child unit-topic matrices for
    /// the Eq 1 transition ranking (owned snapshots only — mapped ones
    /// carry the matrices in the file), computed on first use and shared
    /// by every session: structure is immutable after publication, so one
    /// gather pays for the whole epoch and each request's ranking becomes
    /// a single streaming mat-vec over contiguous memory.
    child_mats: Vec<OnceLock<Vec<f32>>>,
}

impl OrgSnapshot {
    fn from_source(epoch: u64, nav: NavConfig, source: SnapSource) -> OrgSnapshot {
        let n_slots = match &source {
            SnapSource::Owned(o) => o.n_slots(),
            SnapSource::Mapped(m) => m.n_slots(),
        };
        let mut labels = Vec::with_capacity(n_slots);
        labels.resize_with(n_slots, OnceLock::new);
        let mut child_mats = Vec::with_capacity(n_slots);
        child_mats.resize_with(n_slots, OnceLock::new);
        OrgSnapshot {
            epoch,
            nav,
            source,
            scope: None,
            labels,
            child_mats,
        }
    }

    /// Wrap a context + organization as the snapshot for `epoch`.
    pub fn new(epoch: u64, ctx: Arc<OrgContext>, org: Arc<Organization>, nav: NavConfig) -> Self {
        OrgSnapshot::from_source(epoch, nav, SnapSource::Owned(OwnedSnap { ctx, org }))
    }

    /// Wrap an opened store file as the snapshot for `epoch`; the
    /// navigation-model parameters come from the file.
    fn from_mapped(epoch: u64, mapped: Arc<MappedSnapshot>) -> Self {
        let nav = mapped.nav();
        OrgSnapshot::from_source(epoch, nav, SnapSource::Mapped(mapped))
    }

    /// The epoch this snapshot was published at (0 = the initial one).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot's read surface.
    #[inline]
    pub fn view(&self) -> &dyn OrgView {
        match &self.source {
            SnapSource::Owned(o) => o,
            SnapSource::Mapped(m) => m.as_ref(),
        }
    }

    /// Is this snapshot served from a mapped store file?
    pub fn is_mapped(&self) -> bool {
        matches!(self.source, SnapSource::Mapped(_))
    }

    /// The shard-republish scope this snapshot was published with, if any.
    #[inline]
    pub fn scope(&self) -> Option<&PublishScope> {
        self.scope.as_ref()
    }

    /// The owned `(ctx, org)` pair behind this snapshot, when it is owned.
    /// The maintenance cycle needs the live structures to plan and
    /// graft against; a mapped snapshot returns `None` (maintaining a
    /// store file requires re-materializing it first).
    pub fn owned_parts(&self) -> Option<(Arc<OrgContext>, Arc<Organization>)> {
        match &self.source {
            SnapSource::Owned(o) => Some((Arc::clone(&o.ctx), Arc::clone(&o.org))),
            SnapSource::Mapped(_) => None,
        }
    }

    /// Navigation-model parameters.
    #[inline]
    pub fn nav(&self) -> NavConfig {
        self.nav
    }

    /// The root state.
    #[inline]
    pub fn root(&self) -> StateId {
        self.view().root()
    }

    /// Children of `sid`, in canonical order.
    #[inline]
    pub fn children(&self, sid: StateId) -> &[StateId] {
        self.view().children(sid)
    }

    /// The local tag when `sid` is a tag state.
    #[inline]
    pub fn state_tag(&self, sid: StateId) -> Option<u32> {
        self.view().state_tag(sid)
    }

    /// Display label of a state (§4.4 labelling scheme), cached across all
    /// sessions of this snapshot.
    pub fn label(&self, sid: StateId) -> &str {
        self.labels[sid.index()].get_or_init(|| self.view().label_of(sid, 2))
    }

    /// Eq 1 transition probabilities out of `sid` for a query topic,
    /// served from the snapshot's child-topic matrix — **bit-identical**
    /// to [`dln_org::transition_probs_from`] (both paths funnel into
    /// [`transition_probs_over`]: the same dot kernel row-by-row and the
    /// same softmax), whether the matrix was gathered lazily (owned) or
    /// laid out in the store file at save time (mapped).
    pub fn transition_probs(&self, sid: StateId, query_unit: &[f32]) -> Vec<(StateId, f64)> {
        match &self.source {
            SnapSource::Mapped(m) => transition_probs_over(
                m.children(sid),
                self.nav,
                m.child_mat(sid).unwrap_or(&[]),
                query_unit,
            ),
            SnapSource::Owned(o) => {
                let mat = self.child_mats[sid.index()].get_or_init(|| {
                    let children = o.children(sid);
                    let mut m = Vec::with_capacity(children.len() * o.dim());
                    for &c in children {
                        m.extend_from_slice(&o.org.state(c).unit_topic);
                    }
                    m
                });
                transition_probs_over(o.children(sid), self.nav, mat, query_unit)
            }
        }
    }

    /// Is `path` a root-anchored chain of alive edges on this snapshot?
    pub fn path_is_valid(&self, path: &[StateId]) -> bool {
        self.view().path_is_valid(path)
    }

    /// Persist this snapshot as a store file at `path` (atomic write +
    /// `.prev` rotation). Owned snapshots are encoded; mapped ones
    /// re-publish their exact bytes.
    pub fn save(&self, path: &Path) -> DlnResult<()> {
        match &self.source {
            SnapSource::Owned(o) => save_store(path, &o.ctx, &o.org, self.nav),
            SnapSource::Mapped(m) => m.save_to(path),
        }
    }
}

/// Replay `path` (valid on `old`) onto `new`, matching states by tag set
/// (compared as raw bitset words — for an equal tag universe, word
/// equality is set equality).
///
/// Returns the deepest replayable prefix (always at least the new root)
/// and the number of trailing old-path states that could not be matched.
pub fn replay_path(
    old: &OrgSnapshot,
    new: &OrgSnapshot,
    path: &[StateId],
) -> (Vec<StateId>, usize) {
    let (ov, nv) = (old.view(), new.view());
    let root = nv.root();
    let mut replayed = vec![root];
    // A different tag universe (republication over a different lake or tag
    // group) makes tag-set identity meaningless: keep only the root.
    if ov.n_tags() != nv.n_tags() {
        return (replayed, path.len().saturating_sub(1));
    }
    for old_sid in path.iter().skip(1) {
        let want = ov.state_tag_words(*old_sid);
        let here = *replayed.last().unwrap_or(&root);
        let next = nv
            .children(here)
            .iter()
            .copied()
            .find(|c| nv.alive(*c) && nv.state_tag_words(*c) == want);
        match next {
            Some(c) => replayed.push(c),
            None => break,
        }
    }
    let lost = path.len() - replayed.len();
    (replayed, lost)
}

/// The epoch-versioned publication point: one current snapshot, swapped
/// atomically.
pub struct SnapshotStore {
    current: RwLock<Arc<OrgSnapshot>>,
    /// Serializes publishers so concurrent `publish` calls get distinct,
    /// monotonically increasing epochs.
    publish_lock: Mutex<()>,
}

fn plock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn rlock<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|p| p.into_inner())
}

fn wlock<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|p| p.into_inner())
}

impl SnapshotStore {
    /// A store whose epoch 0 holds the given organization.
    pub fn new(ctx: OrgContext, org: Organization, nav: NavConfig) -> SnapshotStore {
        let snap = OrgSnapshot::new(0, Arc::new(ctx), Arc::new(org), nav);
        SnapshotStore {
            current: RwLock::new(Arc::new(snap)),
            publish_lock: Mutex::new(()),
        }
    }

    /// A store whose epoch 0 is opened zero-copy from the persistent
    /// store file at `path` (with `.prev` generation fallback) — the
    /// millisecond cold-start path.
    pub fn open_path(path: &Path) -> DlnResult<SnapshotStore> {
        let mapped = Arc::new(open_store_with_fallback(path)?);
        let snap = OrgSnapshot::from_mapped(0, mapped);
        Ok(SnapshotStore {
            current: RwLock::new(Arc::new(snap)),
            publish_lock: Mutex::new(()),
        })
    }

    /// The currently published snapshot. Cheap: one read lock + one `Arc`
    /// clone; the caller keeps the snapshot alive for as long as it needs
    /// it, independent of later publications.
    pub fn current(&self) -> Arc<OrgSnapshot> {
        Arc::clone(&rlock(&self.current))
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        rlock(&self.current).epoch()
    }

    fn install(&self, make: impl FnOnce(u64) -> OrgSnapshot) -> u64 {
        let _pub = plock(&self.publish_lock);
        let next_epoch = rlock(&self.current).epoch() + 1;
        let snap = Arc::new(make(next_epoch));
        *wlock(&self.current) = snap;
        next_epoch
    }

    /// Atomically publish a new organization; returns its epoch. In-flight
    /// requests holding the previous `Arc` finish on it untouched.
    pub fn publish(&self, ctx: OrgContext, org: Organization, nav: NavConfig) -> u64 {
        self.install(|e| OrgSnapshot::new(e, Arc::new(ctx), Arc::new(org), nav))
    }

    /// Atomically publish an opened store file; returns its epoch. Mapped
    /// epochs hot-swap exactly like owned ones — sessions migrate across
    /// by the same tag-set path replay.
    pub fn publish_mapped(&self, mapped: Arc<MappedSnapshot>) -> u64 {
        self.install(|e| OrgSnapshot::from_mapped(e, mapped))
    }

    /// Atomically publish a shard-level republish: `org` differs from the
    /// currently published snapshot only in the `changed` slots (the
    /// tombstoned and grafted states of one shard subtree). The snapshot
    /// carries a [`PublishScope`] anchored at the predecessor epoch, which
    /// the migration path uses to keep sessions on untouched shards in
    /// place instead of replaying them.
    pub fn publish_scoped(
        &self,
        ctx: Arc<OrgContext>,
        org: Organization,
        nav: NavConfig,
        changed: Vec<u32>,
    ) -> u64 {
        self.install(|e| {
            let mut snap = OrgSnapshot::new(e, ctx, Arc::new(org), nav);
            snap.scope = Some(PublishScope::new(e - 1, changed));
            snap
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dln_org::{clustering_org, flat_org};
    use dln_synth::TagCloudConfig;

    fn snap(epoch: u64) -> (OrgSnapshot, OrgSnapshot) {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let a = clustering_org(&ctx);
        let b = flat_org(&ctx);
        (
            OrgSnapshot::new(
                epoch,
                Arc::new(ctx.clone()),
                Arc::new(a),
                NavConfig::default(),
            ),
            OrgSnapshot::new(epoch + 1, Arc::new(ctx), Arc::new(b), NavConfig::default()),
        )
    }

    fn store_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dln_serve_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn labels_are_cached_and_stable() {
        let (s, _) = snap(0);
        let root = s.root();
        let l1 = s.label(root).to_string();
        let l2 = s.label(root).to_string();
        assert_eq!(l1, l2);
        assert!(!l1.is_empty());
    }

    #[test]
    fn cached_transition_ranking_matches_free_function_bitwise() {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let org = clustering_org(&ctx);
        let query = ctx.attr(0).unit_topic.clone();
        let alive: Vec<StateId> = org.alive_ids().collect();
        let free: Vec<_> = alive
            .iter()
            .map(|&sid| dln_org::transition_probs_from(&org, NavConfig::default(), sid, &query))
            .collect();
        let s = OrgSnapshot::new(0, Arc::new(ctx), Arc::new(org), NavConfig::default());
        for (sid, free) in alive.iter().zip(&free) {
            // Twice: first call fills the cache, second serves from it.
            for _ in 0..2 {
                let cached = s.transition_probs(*sid, &query);
                assert_eq!(free.len(), cached.len());
                for ((s1, p1), (s2, p2)) in free.iter().zip(&cached) {
                    assert_eq!(s1, s2);
                    assert_eq!(p1.to_bits(), p2.to_bits(), "state {} diverged", sid.0);
                }
            }
        }
    }

    #[test]
    fn mapped_snapshot_serves_bit_identical_rankings() {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let org = clustering_org(&ctx);
        let path = store_path("rankings.dlnstore");
        dln_org::save_store(&path, &ctx, &org, NavConfig::default()).unwrap();
        let mapped = Arc::new(dln_org::open_store(&path).unwrap());
        let query = ctx.attr(0).unit_topic.clone();
        let owned = OrgSnapshot::new(0, Arc::new(ctx), Arc::new(org), NavConfig::default());
        let snap = OrgSnapshot::from_mapped(0, mapped);
        assert!(snap.is_mapped() && !owned.is_mapped());
        for sid in owned.view().topo_order() {
            assert_eq!(snap.label(*sid), owned.label(*sid));
            let (m, o) = (
                snap.transition_probs(*sid, &query),
                owned.transition_probs(*sid, &query),
            );
            assert_eq!(m.len(), o.len());
            for ((s1, p1), (s2, p2)) in m.iter().zip(&o) {
                assert_eq!(s1, s2);
                assert_eq!(p1.to_bits(), p2.to_bits(), "state {} diverged", sid.0);
            }
        }
    }

    #[test]
    fn path_validity() {
        let (s, _) = snap(0);
        let root = s.root();
        let child = s.children(root)[0];
        assert!(s.path_is_valid(&[root, child]));
        assert!(!s.path_is_valid(&[child]), "must start at the root");
        assert!(!s.path_is_valid(&[]), "empty path is not a position");
        assert!(!s.path_is_valid(&[root, root]), "self loops are not edges");
    }

    #[test]
    fn replay_identical_snapshot_is_lossless() {
        let (s, _) = snap(0);
        let root = s.root();
        let mut path = vec![root];
        // Walk down two levels.
        for _ in 0..2 {
            let here = *path.last().unwrap();
            let Some(&c) = s.children(here).first() else {
                break;
            };
            path.push(c);
        }
        let (replayed, lost) = replay_path(&s, &s, &path);
        assert_eq!(replayed, path);
        assert_eq!(lost, 0);
    }

    #[test]
    fn replay_onto_different_structure_truncates() {
        let (clus, flat) = snap(0);
        // A depth-2+ path in the clustering org: interior states with
        // multi-tag sets do not exist in the flat org, so everything below
        // the root is lost unless the first step is a tag state.
        let root = clus.root();
        let mut path = vec![root];
        let mut here = root;
        for _ in 0..8 {
            let Some(&c) = clus
                .children(here)
                .iter()
                .find(|c| clus.state_tag(**c).is_none())
            else {
                break;
            };
            path.push(c);
            here = c;
        }
        assert!(path.len() >= 2, "clustering org has interior states");
        let (replayed, lost) = replay_path(&clus, &flat, &path);
        assert_eq!(replayed.len() + lost, path.len());
        assert!(flat.path_is_valid(&replayed));
        assert!(lost >= 1, "flat org lacks the interior states");
        // Tag-state steps DO survive: root → tag state replays fully.
        let ts = (0..clus.view().n_slots() as u32)
            .map(StateId)
            .find(|&s| clus.view().alive(s) && clus.state_tag(s) == Some(0))
            .expect("tag 0 has a state");
        if clus.children(root).contains(&ts) {
            let (r2, l2) = replay_path(&clus, &flat, &[root, ts]);
            assert_eq!(l2, 0);
            assert!(flat.path_is_valid(&r2));
        }
    }

    #[test]
    fn replay_across_owned_and_mapped_representations() {
        // The same organization, one epoch owned and one mapped from a
        // store file: every path replays losslessly in both directions.
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let org = clustering_org(&ctx);
        let path_file = store_path("replay.dlnstore");
        dln_org::save_store(&path_file, &ctx, &org, NavConfig::default()).unwrap();
        let mapped =
            OrgSnapshot::from_mapped(1, Arc::new(dln_org::open_store(&path_file).unwrap()));
        let owned = OrgSnapshot::new(0, Arc::new(ctx), Arc::new(org), NavConfig::default());
        let root = owned.root();
        let mut path = vec![root];
        let mut here = root;
        for _ in 0..3 {
            let Some(&c) = owned.children(here).first() else {
                break;
            };
            path.push(c);
            here = c;
        }
        for (a, b) in [(&owned, &mapped), (&mapped, &owned)] {
            let (replayed, lost) = replay_path(a, b, &path);
            assert_eq!(lost, 0, "identical structure replays losslessly");
            assert_eq!(replayed, path, "same slot ids: the store preserves them");
            assert!(b.path_is_valid(&replayed));
        }
    }

    #[test]
    fn store_publish_bumps_epoch_and_swaps_whole_snapshot() {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let store = SnapshotStore::new(ctx.clone(), clustering_org(&ctx), NavConfig::default());
        assert_eq!(store.epoch(), 0);
        let held = store.current();
        let e1 = store.publish(ctx.clone(), flat_org(&ctx), NavConfig::default());
        assert_eq!(e1, 1);
        assert_eq!(store.epoch(), 1);
        assert_eq!(held.epoch(), 0, "held snapshot is untouched by publish");
        assert_eq!(store.current().epoch(), 1);
    }

    #[test]
    fn open_path_and_publish_mapped_round_trip() {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let org = clustering_org(&ctx);
        let path = store_path("openpath.dlnstore");
        let owned = OrgSnapshot::new(
            0,
            Arc::new(ctx.clone()),
            Arc::new(org),
            NavConfig::default(),
        );
        owned.save(&path).unwrap();

        let store = SnapshotStore::open_path(&path).unwrap();
        assert_eq!(store.epoch(), 0);
        assert!(store.current().is_mapped());
        assert_eq!(store.current().root(), owned.root());

        // A mapped snapshot can itself be re-saved and re-published.
        let copy = store_path("openpath_copy.dlnstore");
        store.current().save(&copy).unwrap();
        let remapped = Arc::new(dln_org::open_store(&copy).unwrap());
        let e1 = store.publish_mapped(remapped);
        assert_eq!(e1, 1);
        assert!(store.current().is_mapped());
    }
}
