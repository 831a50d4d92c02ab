//! Per-organization universes with dense local ids.
//!
//! A (multi-dimensional) organization is built over a *group* of tags
//! (§2.5): one group per dimension, or a single group holding every tag for
//! a 1-dimensional organization. The [`OrgContext`] snapshots everything an
//! organization needs from the lake — the group's tags, the attributes
//! associated with them, and the tables those attributes belong to — with
//! dense `u32` local ids so states can use bitsets.
//!
//! Only attributes with a non-empty topic vector participate (the paper's
//! Socrata lake counts "attributes containing words that have a word
//! embedding", §4.1); a value-less attribute can never be chosen by the
//! similarity-driven navigation model anyway.

use std::collections::HashMap;

use dln_embed::TopicAccumulator;
use dln_lake::{AttrId, DataLake, TableId, TagId};

/// A tag in an organization's local universe.
#[derive(Clone, Debug)]
pub struct LocalTag {
    /// The lake-global tag id.
    pub global: TagId,
    /// Tag label (copied from the lake for self-contained display).
    pub label: String,
    /// `data(t)`: the tag's attributes, as local attr ids.
    pub attrs: Vec<u32>,
    /// Unit-normalized topic vector of the tag.
    pub unit_topic: Vec<f32>,
}

/// An attribute in an organization's local universe.
#[derive(Clone, Debug)]
pub struct LocalAttr {
    /// The lake-global attribute id.
    pub global: AttrId,
    /// Local table index.
    pub table: u32,
    /// Local ids of the group tags this attribute is associated with.
    pub tags: Vec<u32>,
    /// Unit-normalized topic vector.
    pub unit_topic: Vec<f32>,
    /// Topic accumulator (sum + count), used to build state topic vectors.
    pub topic: TopicAccumulator,
}

/// A table in an organization's local universe.
#[derive(Clone, Debug)]
pub struct LocalTable {
    /// The lake-global table id.
    pub global: TableId,
    /// Local ids of the table's attributes that are in this context.
    pub attrs: Vec<u32>,
}

/// The snapshot universe an organization is built over.
#[derive(Clone, Debug)]
pub struct OrgContext {
    dim: usize,
    tags: Vec<LocalTag>,
    attrs: Vec<LocalAttr>,
    tables: Vec<LocalTable>,
    /// Row-major `n_attrs × dim` matrix of attribute unit topics — the
    /// contiguous mirror of `attrs[a].unit_topic`, so query-unit scans and
    /// final-hop softmaxes stream over adjacent memory.
    attr_units: Vec<f32>,
    tag_of_global: HashMap<TagId, u32>,
}

impl OrgContext {
    /// A context over *all* tags of the lake (1-dimensional organization).
    pub fn full(lake: &DataLake) -> OrgContext {
        let tags: Vec<TagId> = lake.tag_ids().collect();
        Self::for_tag_group(lake, &tags)
    }

    /// A context over a tag group (one dimension of a multi-dimensional
    /// organization, §2.5). Attributes are included iff they carry at least
    /// one group tag and have a non-empty topic vector.
    pub fn for_tag_group(lake: &DataLake, group: &[TagId]) -> OrgContext {
        let mut tag_of_global: HashMap<TagId, u32> = HashMap::with_capacity(group.len());
        for &tg in group {
            let next = tag_of_global.len() as u32;
            tag_of_global.entry(tg).or_insert(next);
        }
        // Collect attributes with ≥1 group tag and a usable topic vector.
        // The admission test (topic present + group-tag projection) is a
        // pure read per attribute, so it fans out over the worker pool; the
        // id-assigning assembly below then walks the results in lake order,
        // so local ids are identical at any thread count.
        let lake_attrs: Vec<AttrId> = lake.attr_ids().collect();
        let admitted: Vec<Option<Vec<u32>>> = rayon::par_map(lake_attrs.len(), |i| {
            let aid = lake_attrs[i];
            if !lake.attr(aid).has_topic() {
                return None;
            }
            let local_tags: Vec<u32> = lake
                .attr_tags(aid)
                .iter()
                .filter_map(|tg| tag_of_global.get(tg).copied())
                .collect();
            if local_tags.is_empty() {
                None
            } else {
                Some(local_tags)
            }
        });
        let mut attrs: Vec<LocalAttr> = Vec::new();
        let mut table_of_global: HashMap<TableId, u32> = HashMap::new();
        let mut tables: Vec<LocalTable> = Vec::new();
        for (&aid, local_tags) in lake_attrs.iter().zip(admitted) {
            let Some(local_tags) = local_tags else {
                continue;
            };
            let a = lake.attr(aid);
            let local_table = *table_of_global.entry(a.table).or_insert_with(|| {
                tables.push(LocalTable {
                    global: a.table,
                    attrs: Vec::new(),
                });
                (tables.len() - 1) as u32
            });
            let local = attrs.len() as u32;
            tables[local_table as usize].attrs.push(local);
            attrs.push(LocalAttr {
                global: aid,
                table: local_table,
                tags: local_tags,
                unit_topic: a.unit_topic.clone(),
                topic: a.topic.clone(),
            });
        }
        // Tag populations restricted to included attributes.
        let mut tag_attrs: Vec<Vec<u32>> = vec![Vec::new(); tag_of_global.len()];
        for (local, a) in attrs.iter().enumerate() {
            for &t in &a.tags {
                tag_attrs[t as usize].push(local as u32);
            }
        }
        let mut tags: Vec<Option<LocalTag>> = vec![None; tag_of_global.len()];
        for (&global, &local) in &tag_of_global {
            let lt = lake.tag(global);
            tags[local as usize] = Some(LocalTag {
                global,
                label: lt.label.clone(),
                attrs: std::mem::take(&mut tag_attrs[local as usize]),
                unit_topic: lt.unit_topic.clone(),
            });
        }
        let tags: Vec<LocalTag> = tags
            .into_iter()
            .map(|t| t.unwrap_or_else(|| unreachable!("every local tag slot is filled above")))
            .collect();
        let mut attr_units = Vec::with_capacity(attrs.len() * lake.dim());
        for a in &attrs {
            attr_units.extend_from_slice(&a.unit_topic);
        }
        OrgContext {
            dim: lake.dim(),
            tags,
            attrs,
            tables,
            attr_units,
            tag_of_global,
        }
    }

    /// Embedding dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The group's tags.
    #[inline]
    pub fn tags(&self) -> &[LocalTag] {
        &self.tags
    }

    /// The group's attributes.
    #[inline]
    pub fn attrs(&self) -> &[LocalAttr] {
        &self.attrs
    }

    /// Tables with at least one attribute in this context.
    #[inline]
    pub fn tables(&self) -> &[LocalTable] {
        &self.tables
    }

    /// Number of tags.
    #[inline]
    pub fn n_tags(&self) -> usize {
        self.tags.len()
    }

    /// Number of attributes.
    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Number of tables.
    #[inline]
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// A tag by local id.
    #[inline]
    pub fn tag(&self, local: u32) -> &LocalTag {
        &self.tags[local as usize]
    }

    /// An attribute by local id.
    #[inline]
    pub fn attr(&self, local: u32) -> &LocalAttr {
        &self.attrs[local as usize]
    }

    /// The unit topic of attribute `local` as a row of the contiguous
    /// attribute-unit matrix (identical values to
    /// `attr(local).unit_topic`, cache-friendly when scanning populations).
    #[inline]
    pub fn attr_unit(&self, local: u32) -> &[f32] {
        let i = local as usize * self.dim;
        &self.attr_units[i..i + self.dim]
    }

    /// Local id of a lake-global tag, if present in this context.
    pub fn local_tag(&self, global: TagId) -> Option<u32> {
        self.tag_of_global.get(&global).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dln_synth::TagCloudConfig;

    fn small_ctx() -> (dln_lake::DataLake, OrgContext) {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        (bench.lake, ctx)
    }

    #[test]
    fn full_context_covers_lake() {
        let (lake, ctx) = small_ctx();
        assert_eq!(ctx.n_tags(), lake.n_tags());
        assert_eq!(
            ctx.n_attrs(),
            lake.n_attrs(),
            "TagCloud attrs all have topics"
        );
        assert_eq!(ctx.n_tables(), lake.n_tables());
        assert_eq!(ctx.dim(), lake.dim());
    }

    #[test]
    fn local_ids_roundtrip() {
        let (lake, ctx) = small_ctx();
        // A full context admits every TagCloud attribute, in lake order.
        for (local, aid) in lake.attr_ids().enumerate() {
            assert_eq!(ctx.attr(local as u32).global, aid);
        }
        for tg in lake.tag_ids() {
            let local = ctx.local_tag(tg).expect("tag present");
            assert_eq!(ctx.tag(local).global, tg);
        }
    }

    #[test]
    fn attr_unit_matrix_mirrors_unit_topics() {
        let (_lake, ctx) = small_ctx();
        for a in 0..ctx.n_attrs() as u32 {
            assert_eq!(ctx.attr_unit(a), ctx.attr(a).unit_topic.as_slice());
        }
    }

    #[test]
    fn tag_populations_match_lake() {
        let (lake, ctx) = small_ctx();
        for t in 0..ctx.n_tags() as u32 {
            let lt = ctx.tag(t);
            assert_eq!(lt.attrs.len(), lake.tag(lt.global).attrs.len());
        }
    }

    #[test]
    fn attr_tags_are_restricted_to_group() {
        let bench = TagCloudConfig::small().generate();
        let lake = &bench.lake;
        // Take a group of the first 5 tags only.
        let group: Vec<_> = lake.tag_ids().take(5).collect();
        let ctx = OrgContext::for_tag_group(lake, &group);
        assert_eq!(ctx.n_tags(), 5);
        assert!(ctx.n_attrs() < lake.n_attrs());
        for a in ctx.attrs() {
            assert!(!a.tags.is_empty());
            for &t in &a.tags {
                assert!((t as usize) < 5);
            }
        }
    }

    #[test]
    fn tables_link_back_to_attrs() {
        let (_lake, ctx) = small_ctx();
        let mut seen = 0usize;
        for (ti, table) in ctx.tables().iter().enumerate() {
            for &a in &table.attrs {
                assert_eq!(ctx.attr(a).table as usize, ti);
                seen += 1;
            }
        }
        assert_eq!(seen, ctx.n_attrs());
    }

    #[test]
    fn duplicate_tags_in_group_are_deduplicated() {
        let bench = TagCloudConfig::small().generate();
        let lake = &bench.lake;
        let first = lake.tag_ids().next().unwrap();
        let ctx = OrgContext::for_tag_group(lake, &[first, first]);
        assert_eq!(ctx.n_tags(), 1);
    }

    #[test]
    fn empty_group_is_empty_context() {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::for_tag_group(&bench.lake, &[]);
        assert_eq!(ctx.n_tags(), 0);
        assert_eq!(ctx.n_attrs(), 0);
        assert_eq!(ctx.n_tables(), 0);
    }
}
