//! Immutable organization snapshots and epoch-based hot-swap.
//!
//! An [`OrgSnapshot`] is one published epoch of the navigation model: a
//! [`MappedSnapshot`] — store bytes, the one representation a step is
//! served from — plus a shared lazily-filled label cache (state labels
//! are pure string renderings of immutable structure, so one computation
//! serves every session). A snapshot opened from a store file
//! ([`SnapshotStore::open_path`], [`SnapshotStore::publish_path`]) maps
//! the file (DESIGN.md §5g); one published from the in-memory structs
//! ([`SnapshotStore::new`], [`SnapshotStore::publish`],
//! [`SnapshotStore::publish_scoped`]) encodes them into the same bytes on
//! the heap. Either way the bytes pass the store's open-time checks
//! before they are served, and the Eq 1 ranking streams off the
//! child-topic matrices laid out in them. A snapshot published from
//! structs also keeps them, as the input of the next maintenance cycle.
//!
//! Snapshots are never mutated after publication: a maintained
//! organization is installed by [`SnapshotStore::publish`], which swaps
//! the *whole* `Arc` under a short write lock and bumps the epoch. Readers
//! clone the `Arc` under a read lock, so a request observes either the old
//! snapshot or the new one in its entirety — never a torn mix (the paper's
//! extended version re-optimizes organizations as the lake evolves; this
//! is the mechanism that lets serving ride through those republications).
//! A publish whose bytes fail the checks returns the error and leaves the
//! live epoch in place.
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
    open_store_with_fallback, transition_probs_over, MappedSnapshot, OrgContext, Organization,
    StateId,
};

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
    /// The store bytes every served read comes from.
    view: MappedSnapshot,
    /// The in-memory pair the bytes were encoded from, kept as the
    /// maintenance cycle's input; `None` when opened from a store file.
    parts: Option<(Arc<OrgContext>, Arc<Organization>)>,
    /// Shard-republish scope, when this snapshot was published as one.
    scope: Option<PublishScope>,
    /// Per-slot display labels, computed on first use and shared by every
    /// session on this snapshot.
    labels: Vec<OnceLock<String>>,
}

impl OrgSnapshot {
    fn from_view(
        epoch: u64,
        view: MappedSnapshot,
        parts: Option<(Arc<OrgContext>, Arc<Organization>)>,
    ) -> OrgSnapshot {
        let mut labels = Vec::with_capacity(view.n_slots());
        labels.resize_with(view.n_slots(), OnceLock::new);
        OrgSnapshot {
            epoch,
            view,
            parts,
            scope: None,
            labels,
        }
    }

    /// Encode a context + organization as the snapshot for `epoch`
    /// ([`MappedSnapshot::encode`]); fails when the bytes fail the
    /// store's open-time checks.
    pub(crate) fn new(
        epoch: u64,
        ctx: Arc<OrgContext>,
        org: Arc<Organization>,
        nav: NavConfig,
    ) -> DlnResult<OrgSnapshot> {
        let view = MappedSnapshot::encode(&ctx, &org, nav)?;
        Ok(OrgSnapshot::from_view(epoch, view, Some((ctx, org))))
    }

    /// The epoch this snapshot was published at (0 = the initial one).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The store bytes this snapshot serves from.
    #[inline]
    pub fn view(&self) -> &MappedSnapshot {
        &self.view
    }

    /// Was this snapshot opened from a store file (rather than published
    /// from the in-memory structs)?
    pub fn is_mapped(&self) -> bool {
        self.parts.is_none()
    }

    /// The shard-republish scope this snapshot was published with, if any.
    #[inline]
    pub fn scope(&self) -> Option<&PublishScope> {
        self.scope.as_ref()
    }

    /// The `(ctx, org)` pair this snapshot was published from. The
    /// maintenance cycle needs the live structures to plan and graft
    /// against; a snapshot opened from a store file returns `None`
    /// (maintaining it requires re-materializing it first).
    pub fn owned_parts(&self) -> Option<(Arc<OrgContext>, Arc<Organization>)> {
        self.parts.clone()
    }

    /// Navigation-model parameters.
    #[inline]
    pub fn nav(&self) -> NavConfig {
        self.view.nav()
    }

    /// The root state.
    #[inline]
    pub fn root(&self) -> StateId {
        self.view.root()
    }

    /// Children of `sid`, in canonical order.
    #[inline]
    pub fn children(&self, sid: StateId) -> &[StateId] {
        self.view.children(sid)
    }

    /// The local tag when `sid` is a tag state.
    #[inline]
    pub fn state_tag(&self, sid: StateId) -> Option<u32> {
        self.view.state_tag(sid)
    }

    /// Display label of a state (§4.4 labelling scheme), cached across all
    /// sessions of this snapshot.
    pub fn label(&self, sid: StateId) -> &str {
        self.labels[sid.index()].get_or_init(|| self.view.label_of(sid, 2))
    }

    /// Eq 1 transition probabilities out of `sid` for a query topic,
    /// served from the snapshot's child-topic matrix — **bit-identical**
    /// to [`dln_org::transition_probs_from`] (both paths funnel into
    /// [`transition_probs_over`]: the same dot kernel row-by-row and the
    /// same softmax).
    pub fn transition_probs(&self, sid: StateId, query_unit: &[f32]) -> Vec<(StateId, f64)> {
        transition_probs_over(
            self.view.children(sid),
            self.nav(),
            self.view.child_mat(sid),
            query_unit,
        )
    }

    /// Is `path` a root-anchored chain of alive edges on this snapshot?
    pub fn path_is_valid(&self, path: &[StateId]) -> bool {
        self.view.path_is_valid(path)
    }

    /// Persist this snapshot's bytes as a store file at `path` (atomic
    /// write + `.prev` rotation).
    pub fn save(&self, path: &Path) -> DlnResult<()> {
        self.view.save_to(path)
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
    fn with_current(snap: OrgSnapshot) -> SnapshotStore {
        SnapshotStore {
            current: RwLock::new(Arc::new(snap)),
            publish_lock: Mutex::new(()),
        }
    }

    /// A store whose epoch 0 holds the given organization.
    ///
    /// # Panics
    /// When the encoded organization fails the store's open-time checks:
    /// a non-positive or non-finite γ in `nav`, or ids out of range in
    /// `org` (an organization that passes [`Organization::validate`] has
    /// none).
    pub fn new(ctx: OrgContext, org: Organization, nav: NavConfig) -> SnapshotStore {
        let snap = OrgSnapshot::new(0, Arc::new(ctx), Arc::new(org), nav)
            .unwrap_or_else(|e| panic!("encoding the initial snapshot: {e}"));
        SnapshotStore::with_current(snap)
    }

    /// A store whose epoch 0 is opened zero-copy from the persistent
    /// store file at `path` (with `.prev` generation fallback) — the
    /// millisecond cold-start path.
    pub fn open_path(path: &Path) -> DlnResult<SnapshotStore> {
        let view = open_store_with_fallback(path)?;
        Ok(SnapshotStore::with_current(OrgSnapshot::from_view(
            0, view, None,
        )))
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

    /// Build the next epoch's snapshot and swap it in; on error the live
    /// epoch stays.
    fn install(&self, make: impl FnOnce(u64) -> DlnResult<OrgSnapshot>) -> DlnResult<u64> {
        let _pub = plock(&self.publish_lock);
        let next_epoch = rlock(&self.current).epoch() + 1;
        let snap = Arc::new(make(next_epoch)?);
        *wlock(&self.current) = snap;
        Ok(next_epoch)
    }

    /// Atomically publish a new organization; returns its epoch. In-flight
    /// requests holding the previous `Arc` finish on it untouched.
    pub fn publish(&self, ctx: OrgContext, org: Organization, nav: NavConfig) -> DlnResult<u64> {
        self.install(|e| OrgSnapshot::new(e, Arc::new(ctx), Arc::new(org), nav))
    }

    /// Atomically publish the store file at `path` (with `.prev`
    /// fallback); returns its epoch. Sessions migrate across by the same
    /// tag-set path replay as under [`SnapshotStore::publish`].
    pub fn publish_path(&self, path: &Path) -> DlnResult<u64> {
        let view = open_store_with_fallback(path)?;
        self.install(|e| Ok(OrgSnapshot::from_view(e, view, None)))
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
    ) -> DlnResult<u64> {
        self.install(|e| {
            let mut snap = OrgSnapshot::new(e, ctx, Arc::new(org), nav)?;
            snap.scope = Some(PublishScope::new(e - 1, changed));
            Ok(snap)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dln_org::{clustering_org, flat_org, save_store};
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
            )
            .unwrap(),
            OrgSnapshot::new(epoch + 1, Arc::new(ctx), Arc::new(b), NavConfig::default()).unwrap(),
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
    fn published_snapshot_is_store_bytes_matching_the_struct_oracles() {
        let bench = TagCloudConfig::small().generate();
        let ctx = Arc::new(OrgContext::full(&bench.lake));
        let org = Arc::new(clustering_org(&ctx));
        let nav = NavConfig::default();
        let s = OrgSnapshot::new(0, Arc::clone(&ctx), Arc::clone(&org), nav).unwrap();
        assert!(!s.is_mapped() && !s.view().is_mmap());

        // The snapshot holds exactly the bytes `save_store` writes.
        let (written, held) = (store_path("oracle.dlnstore"), store_path("held.dlnstore"));
        save_store(&written, &ctx, &org, nav).unwrap();
        s.save(&held).unwrap();
        assert_eq!(
            std::fs::read(&written).unwrap(),
            std::fs::read(&held).unwrap()
        );

        let queries = [
            ctx.attr(0).unit_topic.clone(),
            ctx.attr(ctx.n_attrs() as u32 / 2).unit_topic.clone(),
        ];
        for sid in org.alive_ids() {
            for q in &queries {
                let oracle = dln_org::transition_probs_from(&org, nav, sid, q);
                let served = s.transition_probs(sid, q);
                assert_eq!(oracle.len(), served.len());
                for ((s1, p1), (s2, p2)) in oracle.iter().zip(&served) {
                    assert_eq!(s1, s2);
                    assert_eq!(p1.to_bits(), p2.to_bits(), "state {} diverged", sid.0);
                }
            }
            assert_eq!(s.label(sid), org.label(&ctx, sid, 2), "state {}", sid.0);
            // The tables under the state, counted over the structs.
            let attrs = &org.state(sid).attrs;
            let mut tables: Vec<(dln_lake::TableId, usize)> = ctx
                .tables()
                .iter()
                .map(|t| {
                    (
                        t.global,
                        t.attrs.iter().filter(|&&a| attrs.contains(a)).count(),
                    )
                })
                .filter(|&(_, n)| n > 0)
                .collect();
            tables.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            assert_eq!(s.view().tables_under(sid), tables, "state {}", sid.0);
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
        let mapped = OrgSnapshot::from_view(1, dln_org::open_store(&path_file).unwrap(), None);
        let owned =
            OrgSnapshot::new(0, Arc::new(ctx), Arc::new(org), NavConfig::default()).unwrap();
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
        let e1 = store
            .publish(ctx.clone(), flat_org(&ctx), NavConfig::default())
            .unwrap();
        assert_eq!(e1, 1);
        assert_eq!(store.epoch(), 1);
        assert_eq!(held.epoch(), 0, "held snapshot is untouched by publish");
        assert_eq!(store.current().epoch(), 1);
    }

    #[test]
    fn failed_publish_keeps_the_live_epoch() {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let store = SnapshotStore::new(ctx.clone(), clustering_org(&ctx), NavConfig::default());
        let live = store.current();
        // γ = 0 fails the store's META check; a truncated file fails open.
        let bad_nav = NavConfig { gamma: 0.0 };
        assert!(store.publish(ctx.clone(), flat_org(&ctx), bad_nav).is_err());
        let torn = store_path("torn_publish.dlnstore");
        live.save(&torn).unwrap();
        let bytes = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.publish_path(&torn).is_err());
        assert_eq!(store.epoch(), 0);
        assert!(Arc::ptr_eq(&live, &store.current()));
    }

    #[test]
    fn open_path_and_publish_path_round_trip() {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let org = clustering_org(&ctx);
        let path = store_path("openpath.dlnstore");
        let owned = OrgSnapshot::new(
            0,
            Arc::new(ctx.clone()),
            Arc::new(org),
            NavConfig::default(),
        )
        .unwrap();
        owned.save(&path).unwrap();

        let store = SnapshotStore::open_path(&path).unwrap();
        assert_eq!(store.epoch(), 0);
        assert!(store.current().is_mapped());
        assert_eq!(store.current().root(), owned.root());

        // A mapped snapshot can itself be re-saved and re-published.
        let copy = store_path("openpath_copy.dlnstore");
        store.current().save(&copy).unwrap();
        let e1 = store.publish_path(&copy).unwrap();
        assert_eq!(e1, 1);
        assert!(store.current().is_mapped());
    }
}
