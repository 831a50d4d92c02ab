//! Read-only accessor views over a complete serving snapshot.
//!
//! The serving layer historically read `OrgContext` / `Organization`
//! fields directly; the persistent store (DESIGN.md §5g) introduces a
//! second representation — borrowed sections of a memory-mapped file —
//! that must be served through the *same* surface. [`OrgView`] is that
//! surface: every navigation-time read (children, tag sets, labels,
//! tables, child-topic matrices) goes through it, implemented by
//!
//! * [`OwnedSnap`] — the in-memory `(ctx, org)` pair behind `Arc`s, and
//! * [`crate::store::MappedSnapshot`] — zero-copy slices into a mapped
//!   store file.
//!
//! Shared *semantics* live in the trait's provided methods (labelling,
//! attribute-set membership): implemented once, both representations
//! produce identical bytes by construction — the mapped-vs-in-memory
//! bit-identity the store tests assert.

use std::sync::Arc;

use dln_lake::TableId;

use crate::ctx::OrgContext;
use crate::graph::{Organization, StateId};

/// Iterate the set bits of a little-endian `u64` word slice in ascending
/// order — the zero-copy equivalent of [`crate::BitSet::iter`].
pub fn ones(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut rest = w;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let bit = rest.trailing_zeros();
            rest &= rest - 1;
            Some(wi as u32 * 64 + bit)
        })
    })
}

/// Does the little-endian word set `words` contain `v`?
#[inline]
fn word_contains(words: &[u64], v: u32) -> bool {
    let (b, m) = (v as usize / 64, 1u64 << (v % 64));
    b < words.len() && words[b] & m != 0
}

/// What a served navigation step reads of one published organization
/// snapshot: the children to rank (with their topic matrix), the state
/// sets and tag labels for §4.4 labelling, and the tables under a state.
/// Nothing else is exposed; a mapped store file holds exactly this.
///
/// All state sets are exposed as raw `u64` words (see
/// [`crate::BitSet::words`]): for a fixed universe size, word-slice
/// equality is set equality, which is what cross-epoch path replay
/// compares.
pub trait OrgView: Send + Sync {
    /// Embedding dimensionality.
    fn dim(&self) -> usize;
    /// Number of tags in the universe.
    fn n_tags(&self) -> usize;
    /// Number of tables in the universe.
    fn n_tables(&self) -> usize;
    /// Number of state slots (alive + tombstoned).
    fn n_slots(&self) -> usize;
    /// The root state.
    fn root(&self) -> StateId;
    /// Is the state slot alive?
    fn alive(&self, sid: StateId) -> bool;
    /// The local tag of a tag state, else `None`.
    fn state_tag(&self, sid: StateId) -> Option<u32>;
    /// Child states, in canonical (sorted) order.
    fn children(&self, sid: StateId) -> &[StateId];
    /// The state's tag set as raw words.
    fn state_tag_words(&self, sid: StateId) -> &[u64];
    /// The state's attribute set as raw words.
    fn state_attr_words(&self, sid: StateId) -> &[u64];
    /// The precomputed row-major `n_children × dim` child unit-topic
    /// matrix for Eq 1 ranking, when this representation stores one
    /// (the mapped store does; the in-memory snapshot caches per-state
    /// matrices one level up instead and returns `None` here).
    fn child_mat(&self, sid: StateId) -> Option<&[f32]>;
    /// Alive states in topological order (parents before children).
    fn topo_order(&self) -> &[StateId];
    /// Display label of tag `t`.
    fn tag_label(&self, t: u32) -> &str;
    /// `data(t)`: local attribute ids of tag `t`.
    fn tag_attrs(&self, t: u32) -> &[u32];
    /// Lake-global id of local table `ti`.
    fn table_global(&self, ti: u32) -> TableId;
    /// Local attribute ids of table `ti`.
    fn table_attrs(&self, ti: u32) -> &[u32];

    /// Does the state's attribute set contain `a`?
    #[inline]
    fn state_attr_contains(&self, sid: StateId, a: u32) -> bool {
        word_contains(self.state_attr_words(sid), a)
    }

    /// A human-readable label for a state — the §4.4 labelling scheme of
    /// [`Organization::label`], implemented once over the view surface so
    /// the in-memory and mapped representations render identical strings
    /// by construction: the tag label for tag states, otherwise the
    /// `max_tags` most *popular* member tags (popularity = attribute count
    /// within the state; ties broken by ascending tag id).
    fn label_of(&self, sid: StateId, max_tags: usize) -> String {
        if let Some(t) = self.state_tag(sid) {
            return self.tag_label(t).to_string();
        }
        let mut scored: Vec<(u32, usize)> = ones(self.state_tag_words(sid))
            .map(|t| {
                let pop = self
                    .tag_attrs(t)
                    .iter()
                    .filter(|&&a| self.state_attr_contains(sid, a))
                    .count();
                (t, pop)
            })
            .collect();
        scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let names: Vec<&str> = scored
            .iter()
            .take(max_tags.max(1))
            .map(|(t, _)| self.tag_label(*t))
            .collect();
        names.join(" / ")
    }

    /// Tables represented under `sid` (at least one attribute in the
    /// state's extent) as `(table, matching attribute count)`,
    /// most-covered first, ties by ascending table id — the serving-layer
    /// equivalent of [`crate::Navigator::tables_here`].
    fn tables_under(&self, sid: StateId) -> Vec<(TableId, usize)> {
        let mut counts: Vec<(TableId, usize)> = Vec::new();
        for ti in 0..self.n_tables() as u32 {
            let n = self
                .table_attrs(ti)
                .iter()
                .filter(|&&a| self.state_attr_contains(sid, a))
                .count();
            if n > 0 {
                counts.push((self.table_global(ti), n));
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        counts
    }

    /// Is `path` a root-anchored chain of alive edges on this view?
    fn path_is_valid(&self, path: &[StateId]) -> bool {
        let Some(&first) = path.first() else {
            return false;
        };
        if first != self.root() {
            return false;
        }
        path.iter()
            .all(|s| s.index() < self.n_slots() && self.alive(*s))
            && path.windows(2).all(|w| self.children(w[0]).contains(&w[1]))
    }
}

/// The in-memory snapshot representation: a context + organization pair
/// behind `Arc`s, viewed through [`OrgView`].
#[derive(Clone)]
pub struct OwnedSnap {
    /// The organization's context universe.
    pub ctx: Arc<OrgContext>,
    /// The organization DAG.
    pub org: Arc<Organization>,
}

impl OrgView for OwnedSnap {
    fn dim(&self) -> usize {
        self.ctx.dim()
    }
    fn n_tags(&self) -> usize {
        self.ctx.n_tags()
    }
    fn n_tables(&self) -> usize {
        self.ctx.n_tables()
    }
    fn n_slots(&self) -> usize {
        self.org.n_slots()
    }
    fn root(&self) -> StateId {
        self.org.root()
    }
    fn alive(&self, sid: StateId) -> bool {
        self.org.state(sid).alive
    }
    fn state_tag(&self, sid: StateId) -> Option<u32> {
        self.org.state(sid).tag
    }
    fn children(&self, sid: StateId) -> &[StateId] {
        &self.org.state(sid).children
    }
    fn state_tag_words(&self, sid: StateId) -> &[u64] {
        self.org.state(sid).tags.words()
    }
    fn state_attr_words(&self, sid: StateId) -> &[u64] {
        self.org.state(sid).attrs.words()
    }
    fn child_mat(&self, _sid: StateId) -> Option<&[f32]> {
        None
    }
    fn topo_order(&self) -> &[StateId] {
        self.org.topo_order()
    }
    fn tag_label(&self, t: u32) -> &str {
        &self.ctx.tag(t).label
    }
    fn tag_attrs(&self, t: u32) -> &[u32] {
        &self.ctx.tag(t).attrs
    }
    fn table_global(&self, ti: u32) -> TableId {
        self.ctx.tables()[ti as usize].global
    }
    fn table_attrs(&self, ti: u32) -> &[u32] {
        &self.ctx.tables()[ti as usize].attrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::clustering_org;
    use dln_synth::TagCloudConfig;

    fn owned() -> OwnedSnap {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let org = clustering_org(&ctx);
        OwnedSnap {
            ctx: Arc::new(ctx),
            org: Arc::new(org),
        }
    }

    #[test]
    fn ones_matches_bitset_iter() {
        let set = crate::BitSet::from_iter_with_capacity(200, [0u32, 5, 63, 64, 128, 199]);
        let via_words: Vec<u32> = ones(set.words()).collect();
        let via_iter: Vec<u32> = set.iter().collect();
        assert_eq!(via_words, via_iter);
        for v in 0..200 {
            assert_eq!(word_contains(set.words(), v), set.contains(v));
        }
        assert!(!word_contains(set.words(), 10_000));
    }

    #[test]
    fn owned_view_mirrors_structs() {
        let v = owned();
        assert_eq!(v.n_slots(), v.org.n_slots());
        assert_eq!(v.root(), v.org.root());
        for sid in v.org.alive_ids() {
            assert_eq!(v.children(sid), v.org.state(sid).children.as_slice());
            assert_eq!(v.state_tag(sid), v.org.state(sid).tag);
        }
    }

    #[test]
    fn label_of_matches_org_label_exactly() {
        let v = owned();
        for sid in v.org.alive_ids() {
            for max_tags in [0usize, 1, 2, 3] {
                assert_eq!(
                    v.label_of(sid, max_tags),
                    v.org.label(&v.ctx, sid, max_tags),
                    "state {} max_tags {max_tags}",
                    sid.0
                );
            }
        }
    }

    #[test]
    fn tables_under_matches_navigator() {
        let v = owned();
        let nav = crate::Navigator::new(&v.ctx, &v.org, crate::NavConfig::default());
        // Navigator sits at the root; compare against the view.
        assert_eq!(v.tables_under(v.root()), nav.tables_here());
    }

    #[test]
    fn path_validity_via_view() {
        let v = owned();
        let root = v.root();
        let child = v.children(root)[0];
        assert!(v.path_is_valid(&[root, child]));
        assert!(!v.path_is_valid(&[child]));
        assert!(!v.path_is_valid(&[]));
        assert!(!v.path_is_valid(&[root, root]));
    }
}
