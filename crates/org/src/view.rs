//! What a served step derives from a snapshot's store sections: the §4.4
//! state labels, the tables under a state and path validity.
//!
//! Every served snapshot is store bytes (DESIGN.md §5g), mapped from a
//! file or encoded from the in-memory structs at publish, so these reads
//! have one implementation, on [`MappedSnapshot`]. The tests below hold
//! it to the struct oracles: [`Organization::label`] and a table count
//! over the context and the organization.
//!
//! [`Organization::label`]: crate::Organization::label

use dln_lake::TableId;

use crate::graph::StateId;
use crate::store::MappedSnapshot;

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

impl MappedSnapshot {
    /// Does the state's attribute set contain `a`?
    #[inline]
    fn state_attr_contains(&self, sid: StateId, a: u32) -> bool {
        word_contains(self.state_attr_words(sid), a)
    }

    /// A human-readable label for a state — the §4.4 labelling scheme of
    /// [`crate::Organization::label`]: the tag label for tag states,
    /// otherwise the `max_tags` most *popular* member tags (popularity =
    /// attribute count within the state; ties broken by ascending tag id).
    pub fn label_of(&self, sid: StateId, max_tags: usize) -> String {
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
    /// most-covered first, ties by ascending table id — the shelf a served
    /// step lists.
    pub fn tables_under(&self, sid: StateId) -> Vec<(TableId, usize)> {
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

    /// Is `path` a root-anchored chain of alive edges on this snapshot?
    pub fn path_is_valid(&self, path: &[StateId]) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::OrgContext;
    use crate::eval::NavConfig;
    use crate::graph::Organization;
    use crate::init::clustering_org;
    use dln_synth::TagCloudConfig;

    fn fixture() -> (OrgContext, Organization, MappedSnapshot) {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let org = clustering_org(&ctx);
        let view = MappedSnapshot::encode(&ctx, &org, NavConfig::default()).unwrap();
        (ctx, org, view)
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
    fn label_of_matches_org_label_exactly() {
        let (ctx, org, v) = fixture();
        for sid in org.alive_ids() {
            for max_tags in [0usize, 1, 2, 3] {
                assert_eq!(
                    v.label_of(sid, max_tags),
                    org.label(&ctx, sid, max_tags),
                    "state {} max_tags {max_tags}",
                    sid.0
                );
            }
        }
    }

    /// The tables under `sid` counted over the structs.
    fn tables_under_structs(
        ctx: &OrgContext,
        org: &Organization,
        sid: StateId,
    ) -> Vec<(TableId, usize)> {
        let attrs = &org.state(sid).attrs;
        let mut counts: Vec<(TableId, usize)> = ctx
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
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        counts
    }

    #[test]
    fn tables_under_matches_the_struct_count() {
        let (ctx, org, v) = fixture();
        for sid in org.alive_ids() {
            assert_eq!(
                v.tables_under(sid),
                tables_under_structs(&ctx, &org, sid),
                "state {}",
                sid.0
            );
        }
    }

    #[test]
    fn path_validity_via_view() {
        let (_ctx, _org, v) = fixture();
        let root = v.root();
        let child = v.children(root)[0];
        assert!(v.path_is_valid(&[root, child]));
        assert!(!v.path_is_valid(&[child]));
        assert!(!v.path_is_valid(&[]));
        assert!(!v.path_is_valid(&[root, root]));
    }
}
