//! Core lake types: ids, tables, attributes, tags, and the [`DataLake`].

use dln_embed::TopicAccumulator;
use std::collections::HashMap;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The id as a usable index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_type!(
    /// Dense identifier of a table in a [`DataLake`].
    TableId
);
id_type!(
    /// Dense identifier of an attribute in a [`DataLake`].
    AttrId
);
id_type!(
    /// Dense identifier of a metadata tag in a [`DataLake`].
    TagId
);

/// A table: a named set of attributes plus its metadata tags.
#[derive(Clone, Debug)]
pub struct Table {
    /// Human-readable table name (e.g. the source file name).
    pub name: String,
    /// The table's text attributes, in declaration order.
    pub attrs: Vec<AttrId>,
    /// Metadata tags attached to the table (deduplicated, sorted).
    pub tags: Vec<TagId>,
}

/// A text attribute of a table, with its domain summarized as a topic
/// vector (Definition 4: the sample mean of the value embedding vectors).
/// Its raw values, where kept, are in a [`ValueStore`](crate::ValueStore)
/// beside the lake.
#[derive(Clone, Debug)]
pub struct Attribute {
    /// Column name.
    pub name: String,
    /// Owning table.
    pub table: TableId,
    /// Topic accumulator: sum + count of embedded value vectors.
    pub topic: TopicAccumulator,
    /// Unit-normalized topic vector, cached for cosine-as-dot evaluation.
    pub unit_topic: Vec<f32>,
    /// Total number of domain values (embedded or not).
    pub n_values: u32,
}

impl Attribute {
    /// Fraction of values with embedding vectors (the paper reports ~70%
    /// fastText coverage on its lakes).
    pub fn embedding_coverage(&self) -> f64 {
        if self.n_values == 0 {
            0.0
        } else {
            self.topic.count() as f64 / self.n_values as f64
        }
    }

    /// Whether this attribute has a usable (non-zero) topic vector.
    pub fn has_topic(&self) -> bool {
        !self.topic.is_empty()
    }
}

/// A metadata tag: `data(t)` is the set of attributes that inherit it
/// (Definition 5), and its topic vector is the sample mean over the values
/// of all those attributes.
#[derive(Clone, Debug)]
pub struct Tag {
    /// Tag label (keyword / concept from the publisher metadata).
    pub label: String,
    /// `data(t)`: attributes associated with this tag (sorted).
    pub attrs: Vec<AttrId>,
    /// Tables carrying this tag (sorted).
    pub tables: Vec<TableId>,
    /// Topic accumulator over the union of the attribute populations.
    pub topic: TopicAccumulator,
    /// Unit-normalized topic vector.
    pub unit_topic: Vec<f32>,
}

/// An immutable, id-indexed data lake: the catalog of tables, tags,
/// attribute topics and value counts. Raw values are not part of it (see
/// [`ValueStore`](crate::ValueStore)).
///
/// Invariants (checked by the builder, relied on everywhere):
/// * attribute/table/tag ids are dense `0..n`;
/// * `tables[a.table].attrs` contains `a`'s id for every attribute `a`;
/// * `tags[t].attrs` is exactly the union of the attrs of tables tagged `t`;
/// * topic vectors are consistent with the declared populations.
#[derive(Clone, Debug)]
pub struct DataLake {
    pub(crate) dim: usize,
    pub(crate) tables: Vec<Table>,
    pub(crate) attrs: Vec<Attribute>,
    pub(crate) tags: Vec<Tag>,
    /// Tags of each attribute (inherited from its table; sorted).
    pub(crate) attr_tags: Vec<Vec<TagId>>,
    pub(crate) tag_index: HashMap<String, TagId>,
}

impl DataLake {
    /// Embedding dimensionality of all topic vectors in this lake.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// All tables.
    #[inline]
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// All attributes.
    #[inline]
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// All tags.
    #[inline]
    pub fn tags(&self) -> &[Tag] {
        &self.tags
    }

    /// Number of tables.
    #[inline]
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of attributes.
    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Number of tags.
    #[inline]
    pub fn n_tags(&self) -> usize {
        self.tags.len()
    }

    /// A table by id.
    #[inline]
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// An attribute by id.
    #[inline]
    pub fn attr(&self, id: AttrId) -> &Attribute {
        &self.attrs[id.index()]
    }

    /// A tag by id.
    #[inline]
    pub fn tag(&self, id: TagId) -> &Tag {
        &self.tags[id.index()]
    }

    /// The tags inherited by an attribute (sorted).
    #[inline]
    pub fn attr_tags(&self, id: AttrId) -> &[TagId] {
        &self.attr_tags[id.index()]
    }

    /// Look up a tag id by its label.
    pub fn tag_by_label(&self, label: &str) -> Option<TagId> {
        self.tag_index.get(label).copied()
    }

    /// Iterate over attribute ids.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> {
        (0..self.attrs.len() as u32).map(AttrId)
    }

    /// Iterate over table ids.
    pub fn table_ids(&self) -> impl Iterator<Item = TableId> {
        (0..self.tables.len() as u32).map(TableId)
    }

    /// Iterate over tag ids.
    pub fn tag_ids(&self) -> impl Iterator<Item = TagId> {
        (0..self.tags.len() as u32).map(TagId)
    }

    /// Total number of attribute–tag associations (the paper reports 264,199
    /// for the Socrata crawl).
    pub fn n_attr_tag_assocs(&self) -> usize {
        self.attr_tags.iter().map(Vec::len).sum()
    }

    /// Project the lake onto a subset of tables, re-densifying all ids.
    /// Tags with no remaining attributes are dropped.
    pub fn project(&self, keep_tables: &[TableId]) -> DataLake {
        let mut b = crate::builder::LakeBuilder::new(self.dim);
        for &tid in keep_tables {
            let table = self.table(tid);
            let nt = b.begin_table(&table.name);
            for &aid in &table.attrs {
                let a = self.attr(aid);
                let na = b.add_attribute_raw(nt, &a.name, a.topic.clone(), a.n_values);
                // Re-attach tags at the attribute level, which exactly
                // preserves the attribute–tag association structure whether
                // the original tags were table- or attribute-scoped.
                for &tg in self.attr_tags(aid) {
                    b.add_attr_tag(na, &self.tag(tg).label);
                }
            }
        }
        b.build()
    }

    /// Lake-wide statistics.
    pub fn stats(&self) -> crate::stats::LakeStats {
        crate::stats::LakeStats::compute(self)
    }
}

/// Every field of `lake` as lines of text, floats as bit patterns: two
/// lakes are the same catalog exactly when their lines are equal, and a
/// failed `assert_eq!` on them names the first field that differs.
#[cfg(test)]
pub(crate) fn catalog_lines(lake: &DataLake) -> Vec<String> {
    let bits = |v: &[f32]| {
        v.iter()
            .map(|x| format!("{:08x}", x.to_bits()))
            .collect::<Vec<_>>()
    };
    let mut out = vec![format!("dim {}", lake.dim)];
    for (i, t) in lake.tables.iter().enumerate() {
        out.push(format!(
            "table {i} {:?} attrs {:?} tags {:?}",
            t.name, t.attrs, t.tags
        ));
    }
    for (i, a) in lake.attrs.iter().enumerate() {
        out.push(format!(
            "attr {i} {:?} table {:?} n_values {} count {} sum {:?} unit {:?} tags {:?}",
            a.name,
            a.table,
            a.n_values,
            a.topic.count(),
            bits(a.topic.sum()),
            bits(&a.unit_topic),
            lake.attr_tags[i],
        ));
    }
    for (i, t) in lake.tags.iter().enumerate() {
        out.push(format!(
            "tag {i} {:?} attrs {:?} tables {:?} count {} sum {:?} unit {:?} index {:?}",
            t.label,
            t.attrs,
            t.tables,
            t.topic.count(),
            bits(t.topic.sum()),
            bits(&t.unit_topic),
            lake.tag_index.get(&t.label),
        ));
    }
    out.push(format!("index size {}", lake.tag_index.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LakeBuilder;
    use dln_embed::{
        EmbeddingModel, SyntheticEmbedding, SyntheticEmbeddingConfig, VocabularyConfig,
    };

    fn tiny_model() -> SyntheticEmbedding {
        SyntheticEmbedding::new(&SyntheticEmbeddingConfig {
            vocab: VocabularyConfig {
                n_topics: 4,
                words_per_topic: 8,
                dim: 16,
                sigma: 0.3,
                seed: 3,
                n_supertopics: 0,
                supertopic_sigma: 0.7,
            },
            coverage: 1.0,
            coverage_seed: 0,
        })
    }

    fn tiny_lake() -> DataLake {
        let m = tiny_model();
        let words: Vec<String> = m.vocab().iter().map(|(_, w)| w.to_string()).collect();
        let mut b = LakeBuilder::new(m.dim());
        let t0 = b.begin_table("fisheries");
        b.add_tag(t0, "fish");
        b.add_tag(t0, "ocean");
        b.add_attribute(t0, "species", words[0..4].iter().map(String::as_str), &m);
        b.add_attribute(t0, "region", words[8..12].iter().map(String::as_str), &m);
        let t1 = b.begin_table("inspections");
        b.add_tag(t1, "fish");
        b.add_attribute(t1, "agency", words[16..20].iter().map(String::as_str), &m);
        b.build()
    }

    #[test]
    fn ids_are_dense_and_crosslinked() {
        let lake = tiny_lake();
        assert_eq!(lake.n_tables(), 2);
        assert_eq!(lake.n_attrs(), 3);
        assert_eq!(lake.n_tags(), 2);
        for aid in lake.attr_ids() {
            let a = lake.attr(aid);
            assert!(lake.table(a.table).attrs.contains(&aid));
        }
    }

    #[test]
    fn tags_collect_attrs_of_tagged_tables() {
        let lake = tiny_lake();
        let fish = lake.tag_by_label("fish").unwrap();
        let ocean = lake.tag_by_label("ocean").unwrap();
        // "fish" tags both tables → all 3 attributes.
        assert_eq!(lake.tag(fish).attrs.len(), 3);
        assert_eq!(lake.tag(fish).tables.len(), 2);
        // "ocean" tags only the first table → its 2 attributes.
        assert_eq!(lake.tag(ocean).attrs.len(), 2);
    }

    #[test]
    fn attrs_inherit_table_tags() {
        let lake = tiny_lake();
        let fish = lake.tag_by_label("fish").unwrap();
        let ocean = lake.tag_by_label("ocean").unwrap();
        let t0 = TableId(0);
        for &aid in &lake.table(t0).attrs {
            assert_eq!(lake.attr_tags(aid), &[fish, ocean]);
        }
        assert_eq!(lake.n_attr_tag_assocs(), 2 * 2 + 1);
    }

    #[test]
    fn tag_topic_is_union_of_attr_topics() {
        let lake = tiny_lake();
        let ocean = lake.tag_by_label("ocean").unwrap();
        let tag = lake.tag(ocean);
        let expected: u64 = tag.attrs.iter().map(|&a| lake.attr(a).topic.count()).sum();
        assert_eq!(tag.topic.count(), expected);
    }

    #[test]
    fn unit_topics_are_normalized() {
        let lake = tiny_lake();
        for a in lake.attrs() {
            let n = dln_embed::l2_norm(&a.unit_topic);
            assert!((n - 1.0).abs() < 1e-5);
        }
        for t in lake.tags() {
            let n = dln_embed::l2_norm(&t.unit_topic);
            assert!((n - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn project_keeps_subset_and_remaps() {
        let lake = tiny_lake();
        let sub = lake.project(&[TableId(1)]);
        assert_eq!(sub.n_tables(), 1);
        assert_eq!(sub.n_attrs(), 1);
        assert_eq!(sub.n_tags(), 1, "tag 'ocean' should be dropped");
        assert!(sub.tag_by_label("fish").is_some());
        assert!(sub.tag_by_label("ocean").is_none());
        assert_eq!(sub.attr(AttrId(0)).name, "agency");
        assert_eq!(sub.attr(AttrId(0)).table, TableId(0));
    }

    #[test]
    fn project_preserves_topic_vectors() {
        let lake = tiny_lake();
        let sub = lake.project(&[TableId(0)]);
        let orig = lake.attr(AttrId(0));
        let proj = sub.attr(AttrId(0));
        assert_eq!(orig.topic.count(), proj.topic.count());
        assert_eq!(orig.unit_topic, proj.unit_topic);
    }
}
