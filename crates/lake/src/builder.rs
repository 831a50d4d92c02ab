//! Construction of [`DataLake`]s.
//!
//! The builder enforces the lake invariants at `build()` time: dense ids,
//! tag–attribute association closure (attributes inherit their table's
//! tags, §3.2 of the paper), and topic-vector consistency (a tag's topic
//! accumulator is the merge of its attributes' accumulators, Definition 5).

use std::collections::HashMap;

use dln_embed::{for_each_token, EmbeddingModel, TopicAccumulator};
use dln_fault::{DlnError, DlnResult};

use crate::model::{AttrId, Attribute, DataLake, Table, TableId, Tag, TagId};

/// Incremental builder for a [`DataLake`]. It keeps no raw values: a
/// producer that keeps them pushes each attribute's values to a
/// [`ValueStore`](crate::ValueStore) in the order it adds the attributes.
pub struct LakeBuilder {
    dim: usize,
    tables: Vec<Table>,
    attrs: Vec<Attribute>,
    tag_labels: Vec<String>,
    tag_index: HashMap<String, TagId>,
    /// Table-level tags; every attribute of the table inherits them (§3.2).
    table_level_tags: Vec<Vec<TagId>>,
    /// Attribute-level tag associations (TagCloud-style metadata where each
    /// attribute carries its own tag, §4.1), in addition to the table-level
    /// tags that all of a table's attributes inherit (§3.2). May hold
    /// duplicates; `build` sorts and dedups every attribute's tags.
    attr_extra_tags: Vec<(AttrId, TagId)>,
}

impl LakeBuilder {
    /// A builder for a lake whose topic vectors have dimension `dim`.
    pub fn new(dim: usize) -> Self {
        LakeBuilder {
            dim,
            tables: Vec::new(),
            attrs: Vec::new(),
            tag_labels: Vec::new(),
            tag_index: HashMap::new(),
            table_level_tags: Vec::new(),
            attr_extra_tags: Vec::new(),
        }
    }

    /// Start a new table; returns its id.
    pub fn begin_table(&mut self, name: &str) -> TableId {
        let id = TableId(self.tables.len() as u32);
        self.tables.push(Table {
            name: name.to_string(),
            attrs: Vec::new(),
            tags: Vec::new(),
        });
        self.table_level_tags.push(Vec::new());
        id
    }

    fn intern_tag(&mut self, label: &str) -> TagId {
        if let Some(&id) = self.tag_index.get(label) {
            return id;
        }
        let id = TagId(self.tag_labels.len() as u32);
        self.tag_labels.push(label.to_string());
        self.tag_index.insert(label.to_string(), id);
        id
    }

    /// Attach a metadata tag to a table (idempotent per table). At build
    /// time every attribute of the table inherits it (§3.2).
    pub fn add_tag(&mut self, table: TableId, label: &str) -> TagId {
        let id = self.intern_tag(label);
        let tags = &mut self.table_level_tags[table.index()];
        if !tags.contains(&id) {
            tags.push(id);
        }
        id
    }

    /// Associate a tag directly with a single attribute (rather than with
    /// its whole table). The tag also appears in the owning table's tag
    /// list, but only this attribute joins the tag's `data(t)` population.
    /// This is the metadata shape of the TagCloud benchmark (§4.1), where
    /// each attribute carries exactly one ground-truth tag. Idempotent per
    /// attribute, in constant time.
    pub fn add_attr_tag(&mut self, attr: AttrId, label: &str) -> TagId {
        let id = self.intern_tag(label);
        self.attr_extra_tags.push((attr, id));
        id
    }

    /// Add a text attribute by embedding its raw values with `model`.
    /// Values are tokenized; each embeddable token contributes one vector to
    /// the topic accumulator (the paper's per-value word-embedding mean).
    /// The values themselves are counted, not kept.
    ///
    /// Panics on a model/lake dimension mismatch.
    pub fn add_attribute<'a, I, M>(
        &mut self,
        table: TableId,
        name: &str,
        values: I,
        model: &M,
    ) -> AttrId
    where
        I: IntoIterator<Item = &'a str>,
        M: EmbeddingModel,
    {
        match self.try_add_attribute(table, name, values, model) {
            Ok(id) => id,
            Err(_) => panic!("model dim must match lake dim"),
        }
    }

    /// Fallible form of [`add_attribute`](Self::add_attribute): a
    /// model/lake dimension mismatch is reported as
    /// [`DlnError::DimMismatch`].
    fn try_add_attribute<'a, I, M>(
        &mut self,
        table: TableId,
        name: &str,
        values: I,
        model: &M,
    ) -> DlnResult<AttrId>
    where
        I: IntoIterator<Item = &'a str>,
        M: EmbeddingModel,
    {
        if model.dim() != self.dim {
            return Err(DlnError::DimMismatch {
                context: format!("attribute `{name}`: embedding model vs lake"),
                expected: self.dim,
                got: model.dim(),
            });
        }
        let mut topic = TopicAccumulator::new(self.dim);
        let mut token = String::new();
        let mut n_values = 0u32;
        for v in values {
            n_values += 1;
            embed_value(model, v, &mut token, &mut topic);
        }
        self.try_add_attribute_raw(table, name, topic, n_values)
    }

    /// Add an attribute whose topic accumulator was computed elsewhere
    /// (generators precompute topic vectors; CSV ingestion uses
    /// [`add_attribute`](Self::add_attribute)).
    ///
    /// Panics on a topic/lake dimension mismatch; use
    /// [`try_add_attribute_raw`](Self::try_add_attribute_raw) for a
    /// recoverable error instead.
    pub fn add_attribute_raw(
        &mut self,
        table: TableId,
        name: &str,
        topic: TopicAccumulator,
        n_values: u32,
    ) -> AttrId {
        match self.try_add_attribute_raw(table, name, topic, n_values) {
            Ok(id) => id,
            Err(_) => panic!("topic dim must match lake dim"),
        }
    }

    /// Fallible form of [`add_attribute_raw`](Self::add_attribute_raw).
    pub fn try_add_attribute_raw(
        &mut self,
        table: TableId,
        name: &str,
        topic: TopicAccumulator,
        n_values: u32,
    ) -> DlnResult<AttrId> {
        if topic.dim() != self.dim {
            return Err(DlnError::DimMismatch {
                context: format!("attribute `{name}`: topic accumulator vs lake"),
                expected: self.dim,
                got: topic.dim(),
            });
        }
        let id = AttrId(self.attrs.len() as u32);
        let unit_topic = topic.unit_mean();
        self.attrs.push(Attribute {
            name: name.to_string(),
            table,
            topic,
            unit_topic,
            n_values,
        });
        self.tables[table.index()].attrs.push(id);
        Ok(id)
    }

    /// Number of tables added so far.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of attributes added so far.
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Finalize the lake: sorts tag lists, computes attribute–tag
    /// associations (table-level tags spread to every attribute of the
    /// table; attribute-level tags stay on their attribute), tag
    /// populations and tag topic vectors.
    pub fn build(mut self) -> DataLake {
        let n_tags = self.tag_labels.len();
        let mut attr_tags: Vec<Vec<TagId>> = vec![Vec::new(); self.attrs.len()];
        for (ti, table) in self.tables.iter().enumerate() {
            for &tg in &self.table_level_tags[ti] {
                for &a in &table.attrs {
                    attr_tags[a.index()].push(tg);
                }
            }
        }
        for &(a, tg) in &self.attr_extra_tags {
            attr_tags[a.index()].push(tg);
        }
        for v in &mut attr_tags {
            v.sort_unstable();
            v.dedup();
        }
        // A table's tags are its declared table-level tags plus every tag
        // carried by one of its attributes.
        for (ti, table) in self.tables.iter_mut().enumerate() {
            let mut tags = std::mem::take(&mut self.table_level_tags[ti]);
            for &a in &table.attrs {
                tags.extend_from_slice(&attr_tags[a.index()]);
            }
            tags.sort_unstable();
            tags.dedup();
            table.tags = tags;
        }
        let mut tag_attrs: Vec<Vec<AttrId>> = vec![Vec::new(); n_tags];
        let mut tag_tables: Vec<Vec<TableId>> = vec![Vec::new(); n_tags];
        for (ai, tags) in attr_tags.iter().enumerate() {
            for &tg in tags {
                tag_attrs[tg.index()].push(AttrId(ai as u32));
            }
        }
        for (ti, table) in self.tables.iter().enumerate() {
            for &tg in &table.tags {
                tag_tables[tg.index()].push(TableId(ti as u32));
            }
        }
        let tags: Vec<Tag> = self
            .tag_labels
            .iter()
            .enumerate()
            .map(|(i, label)| {
                let mut attrs = std::mem::take(&mut tag_attrs[i]);
                attrs.sort_unstable();
                attrs.dedup();
                let mut topic = TopicAccumulator::new(self.dim);
                for &a in &attrs {
                    topic.merge(&self.attrs[a.index()].topic);
                }
                let unit_topic = topic.unit_mean();
                Tag {
                    label: label.clone(),
                    attrs,
                    tables: std::mem::take(&mut tag_tables[i]),
                    topic,
                    unit_topic,
                }
            })
            .collect();
        DataLake {
            dim: self.dim,
            tables: self.tables,
            attrs: self.attrs,
            tags,
            attr_tags,
            tag_index: self.tag_index,
        }
    }
}

/// Add the embedding of every token of `value` to `topic`, tokenizing in
/// the reusable buffer `token`: the one place a raw value becomes topic
/// mass, shared by [`LakeBuilder::try_add_attribute`] and CSV ingest.
pub(crate) fn embed_value<M: EmbeddingModel>(
    model: &M,
    value: &str,
    token: &mut String,
    topic: &mut TopicAccumulator,
) {
    for_each_token(value, token, |tok| {
        if let Some(vec) = model.embed(tok) {
            topic.add(vec);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dln_embed::{SyntheticEmbedding, VocabularyConfig};

    fn model() -> SyntheticEmbedding {
        SyntheticEmbedding::with_vocab_config(VocabularyConfig {
            n_topics: 3,
            words_per_topic: 5,
            dim: 8,
            sigma: 0.3,
            seed: 1,
            n_supertopics: 0,
            supertopic_sigma: 0.7,
        })
    }

    #[test]
    fn empty_lake_builds() {
        let lake = LakeBuilder::new(8).build();
        assert_eq!(lake.n_tables(), 0);
        assert_eq!(lake.n_attrs(), 0);
        assert_eq!(lake.n_tags(), 0);
    }

    #[test]
    fn duplicate_tag_labels_share_an_id() {
        let mut b = LakeBuilder::new(8);
        let t0 = b.begin_table("a");
        let t1 = b.begin_table("b");
        let g0 = b.add_tag(t0, "health");
        let g1 = b.add_tag(t1, "health");
        assert_eq!(g0, g1);
        let lake = b.build();
        assert_eq!(lake.n_tags(), 1);
        assert_eq!(lake.tag(g0).tables.len(), 2);
    }

    #[test]
    fn repeated_tag_on_same_table_is_idempotent() {
        let mut b = LakeBuilder::new(8);
        let t0 = b.begin_table("a");
        b.add_tag(t0, "x");
        b.add_tag(t0, "x");
        let lake = b.build();
        assert_eq!(lake.table(t0).tags.len(), 1);
    }

    #[test]
    fn attribute_tokenizes_and_embeds_values() {
        let m = model();
        let word = m.vocab().word(dln_embed::TokenId(0)).to_string();
        let mut b = LakeBuilder::new(m.dim());
        let t = b.begin_table("t");
        let phrase = format!("{word} and 42 unknowns");
        b.add_attribute(t, "col", [phrase.as_str()], &m);
        let lake = b.build();
        let a = lake.attr(AttrId(0));
        assert_eq!(a.n_values, 1);
        // Only `word` embeds ("and"/"unknowns" are not vocabulary words,
        // "42" is numeric and dropped by tokenize).
        assert_eq!(a.topic.count(), 1);
        assert!(a.has_topic());
    }

    #[test]
    #[should_panic(expected = "model dim must match lake dim")]
    fn dim_mismatch_panics() {
        let m = model();
        let mut b = LakeBuilder::new(99);
        let t = b.begin_table("t");
        b.add_attribute(t, "col", ["x"], &m);
    }

    #[test]
    fn try_add_attribute_reports_dim_mismatch() {
        let m = model();
        let mut b = LakeBuilder::new(99);
        let t = b.begin_table("t");
        let err = b.try_add_attribute(t, "col", ["x"], &m).unwrap_err();
        match err {
            DlnError::DimMismatch { expected, got, .. } => {
                assert_eq!(expected, 99);
                assert_eq!(got, m.dim());
            }
            other => panic!("expected DimMismatch, got {other}"),
        }
        assert_eq!(b.n_attrs(), 0, "failed add leaves the builder unchanged");
    }

    #[test]
    fn tag_attrs_deduplicated_and_sorted() {
        let m = model();
        let words: Vec<String> = m.vocab().iter().map(|(_, w)| w.to_string()).collect();
        let mut b = LakeBuilder::new(m.dim());
        let t = b.begin_table("t");
        b.add_tag(t, "g");
        b.add_attribute(t, "a1", [words[0].as_str()], &m);
        b.add_attribute(t, "a0", [words[1].as_str()], &m);
        let lake = b.build();
        let g = lake.tag_by_label("g").unwrap();
        assert_eq!(lake.tag(g).attrs, vec![AttrId(0), AttrId(1)]);
    }

    #[test]
    fn repeated_attr_tags_build_the_same_lake_as_single_ones() {
        let m = model();
        let words: Vec<String> = m.vocab().iter().map(|(_, w)| w.to_string()).collect();
        // `repeats` calls per (attribute, tag) pair, interleaved, including
        // a pair that repeats a table-level tag.
        let build = |repeats: usize| {
            let mut b = LakeBuilder::new(m.dim());
            let t0 = b.begin_table("t0");
            b.add_tag(t0, "shared");
            let a0 = b.add_attribute(t0, "a0", [words[0].as_str(), words[5].as_str()], &m);
            let a1 = b.add_attribute(t0, "a1", [words[1].as_str()], &m);
            let t1 = b.begin_table("t1");
            let a2 = b.add_attribute(t1, "a2", [words[9].as_str()], &m);
            for _ in 0..repeats {
                b.add_attr_tag(a0, "x");
                b.add_attr_tag(a2, "y");
                b.add_attr_tag(a0, "y");
                b.add_attr_tag(a1, "shared");
                b.add_attr_tag(a2, "x");
            }
            b.build()
        };
        let once = build(1);
        assert_eq!(once.n_attr_tag_assocs(), 3 + 1 + 2);
        for repeats in [2, 3] {
            assert_eq!(
                crate::model::catalog_lines(&build(repeats)),
                crate::model::catalog_lines(&once),
                "{repeats} calls per pair"
            );
        }
    }
}
