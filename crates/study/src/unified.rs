//! Unified discovery: keyword search and navigation as interchangeable
//! modalities — the paper's concluding future-work item ("to integrate
//! keyword search and navigation as two interchangeable modalities in a
//! unified framework").
//!
//! A [`UnifiedSession`] holds both interfaces over the same lake and lets
//! a user pivot between them:
//!
//! * `search(query)` — ranked tables from the BM25(+expansion) engine;
//! * `pivot_to_table(table)` — jump the navigator *into* the organization
//!   at the best tag state containing that table ("show me where this
//!   search result lives, so I can browse its neighbourhood");
//! * `pivot_to_query(query)` — jump to the deepest state whose topic best
//!   matches a free-text query ("navigate from here");
//! * `search_here(query)` — keyword search restricted to the tables under
//!   the navigator's current state ("search within this shelf").
//!
//! The §4.4 observation that the two modalities surface largely disjoint
//! tables is exactly why the pivots matter: each modality escapes the
//! other's blind spot.

use dln_embed::{dot, EmbeddingModel, TopicAccumulator};
use dln_lake::{DataLake, TableId};
use dln_org::builder::BuiltOrganization;
use dln_org::{Navigator, StateId};
use dln_search::{KeywordSearch, SearchHit};

/// A discovery session combining an organization and a search engine.
pub struct UnifiedSession<'a> {
    lake: &'a DataLake,
    engine: &'a KeywordSearch,
    dims: &'a [BuiltOrganization],
    /// Current navigator position: (dimension index, navigator).
    cursor: Option<(usize, Navigator<'a>)>,
}

impl<'a> UnifiedSession<'a> {
    /// Open a session over a lake, its search engine, and a
    /// (multi-dimensional) organization.
    pub fn new(
        lake: &'a DataLake,
        engine: &'a KeywordSearch,
        dims: &'a [BuiltOrganization],
    ) -> UnifiedSession<'a> {
        UnifiedSession {
            lake,
            engine,
            dims,
            cursor: None,
        }
    }

    /// Keyword search over the whole lake.
    pub fn search(&self, query: &str, top_k: usize) -> Vec<SearchHit> {
        self.engine.search(query, top_k)
    }

    /// The navigator's current position, if any pivot has happened.
    pub fn position(&self) -> Option<(usize, StateId)> {
        self.cursor.as_ref().map(|(d, nav)| (*d, nav.current()))
    }

    /// Label of the current navigation state.
    pub fn position_label(&self) -> Option<String> {
        self.cursor
            .as_ref()
            .map(|(_, nav)| nav.label(nav.current()))
    }

    /// Mutable access to the navigator for ordinary browsing after a
    /// pivot (descend / backtrack / transition probabilities).
    pub fn navigator(&mut self) -> Option<&mut Navigator<'a>> {
        self.cursor.as_mut().map(|(_, nav)| nav)
    }

    /// Pivot from a search result into the organization: position the
    /// navigator at the tag state of `table` whose tag population best
    /// covers the table (ties: the most specific tag). Returns the
    /// reached state, or `None` when no dimension contains the table.
    pub fn pivot_to_table(&mut self, table: TableId) -> Option<StateId> {
        let mut best: Option<(usize, u32, usize, usize)> = None; // (dim, tag, coverage, -pop)
        for (di, dim) in self.dims.iter().enumerate() {
            let ctx = &dim.ctx;
            // Local attrs of this table in this dimension.
            let Some(local_table) = ctx.tables().iter().position(|t| t.global == table) else {
                continue;
            };
            let attrs = &ctx.tables()[local_table].attrs;
            // Candidate tags: tags of those attrs; coverage = how many of
            // the table's attrs the tag holds.
            for &a in attrs {
                for &t in &ctx.attr(a).tags {
                    let coverage = ctx
                        .tag(t)
                        .attrs
                        .iter()
                        .filter(|x| attrs.contains(x))
                        .count();
                    let pop = ctx.tag(t).attrs.len();
                    let cand = (di, t, coverage, pop);
                    let better = match &best {
                        None => true,
                        Some((_, _, bc, bp)) => coverage > *bc || (coverage == *bc && pop < *bp),
                    };
                    if better {
                        best = Some(cand);
                    }
                }
            }
        }
        let (di, tag, _, _) = best?;
        let dim = &self.dims[di];
        let target = dim.organization.tag_state(tag);
        let mut nav = dim.navigator();
        Self::walk_to(&mut nav, &dim.organization, target)?;
        self.cursor = Some((di, nav));
        Some(target)
    }

    /// Pivot from free text into the organization: embed the query with
    /// `model`, then greedily descend the best-matching dimension until
    /// the similarity stops improving. Returns the reached state, or
    /// `None` when the query has no embeddable token or there are no
    /// dimensions.
    pub fn pivot_to_query<M: EmbeddingModel>(&mut self, query: &str, model: &M) -> Option<StateId> {
        let mut acc = TopicAccumulator::new(model.dim());
        for tok in dln_embed::tokenize(query) {
            if let Some(v) = model.embed(&tok) {
                acc.add(v);
            }
        }
        if acc.is_empty() {
            return None;
        }
        let unit = acc.unit_mean();
        // Best dimension by root similarity.
        let di = (0..self.dims.len()).max_by(|&a, &b| {
            let sa = dot(
                &self.dims[a]
                    .organization
                    .state(self.dims[a].organization.root())
                    .unit_topic,
                &unit,
            );
            let sb = dot(
                &self.dims[b]
                    .organization
                    .state(self.dims[b].organization.root())
                    .unit_topic,
                &unit,
            );
            sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
        })?;
        let dim = &self.dims[di];
        let mut nav = dim.navigator();
        loop {
            let here = dot(&dim.organization.state(nav.current()).unit_topic, &unit);
            let Some((best, _)) = nav
                .transition_probs(&unit)
                .into_iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            else {
                break;
            };
            let next_sim = dot(&dim.organization.state(best).unit_topic, &unit);
            if next_sim <= here && nav.depth() > 0 {
                break; // similarity peaked — stop at the most specific match
            }
            nav.descend(best).ok()?;
        }
        let at = nav.current();
        self.cursor = Some((di, nav));
        Some(at)
    }

    /// Keyword search restricted to the tables under the current
    /// navigation state (empty when no pivot happened yet).
    pub fn search_here(&self, query: &str, top_k: usize) -> Vec<SearchHit> {
        let Some((di, nav)) = self.cursor.as_ref().map(|(d, n)| (*d, n)) else {
            return Vec::new();
        };
        let allowed: std::collections::BTreeSet<TableId> = {
            let dim = &self.dims[di];
            let state = dim.organization.state(nav.current());
            dim.ctx
                .tables()
                .iter()
                .filter(|t| t.attrs.iter().any(|&a| state.attrs.contains(a)))
                .map(|t| t.global)
                .collect()
        };
        self.engine
            .search(query, top_k + allowed.len())
            .into_iter()
            .filter(|h| allowed.contains(&h.table))
            .take(top_k)
            .collect()
    }

    /// Tables under the current navigation state (most covered first).
    pub fn tables_here(&self) -> Vec<(TableId, usize)> {
        self.cursor
            .as_ref()
            .map(|(_, nav)| nav.tables_here())
            .unwrap_or_default()
    }

    /// The lake under discovery.
    pub fn lake(&self) -> &DataLake {
        self.lake
    }

    fn walk_to(
        nav: &mut Navigator<'a>,
        org: &dln_org::Organization,
        target: StateId,
    ) -> Option<()> {
        // BFS for a root→target path, then descend it.
        let mut prev: Vec<Option<StateId>> = vec![None; org.n_slots()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(org.root());
        let mut found = org.root() == target;
        while let Some(s) = queue.pop_front() {
            if s == target {
                found = true;
                break;
            }
            for &c in &org.state(s).children {
                if prev[c.index()].is_none() && c != org.root() {
                    prev[c.index()] = Some(s);
                    queue.push_back(c);
                }
            }
        }
        if !found {
            return None;
        }
        let mut path = vec![target];
        let mut cur = target;
        while let Some(p) = prev[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path[0], org.root());
        for step in &path[1..] {
            nav.descend(*step).ok()?;
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dln_org::{MultiDimConfig, MultiDimOrganization, SearchConfig};
    use dln_search::ExpansionConfig;
    use dln_synth::SocrataConfig;

    struct Fixture {
        lake: DataLake,
        values: dln_lake::ValueStore,
        model: dln_embed::SyntheticEmbedding,
        engine: KeywordSearch,
        md: MultiDimOrganization,
    }

    fn fixture() -> Fixture {
        let s = SocrataConfig::small().generate();
        let engine = KeywordSearch::build_with_expansion(
            &s.lake,
            &s.values,
            s.model.clone(),
            ExpansionConfig::default(),
        );
        let md = MultiDimOrganization::build(
            &s.lake,
            &MultiDimConfig {
                n_dims: 2,
                search: SearchConfig {
                    max_iters: 80,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        Fixture {
            lake: s.lake,
            values: s.values,
            model: s.model,
            engine,
            md,
        }
    }

    #[test]
    fn search_then_pivot_to_table() {
        let f = fixture();
        let mut session = UnifiedSession::new(&f.lake, &f.engine, &f.md.dims);
        assert!(session.position().is_none());
        // Find some table by one of its values.
        let word = f
            .values
            .iter()
            .find_map(|v| v.first())
            .expect("stored values");
        let hits = session.search(word, 5);
        assert!(!hits.is_empty());
        let table = hits[0].table;
        let state = session.pivot_to_table(table).expect("table is organized");
        assert_eq!(session.position().map(|(_, s)| s), Some(state));
        // The pivot landed at a tag state whose shelf contains the table.
        let shelf = session.tables_here();
        assert!(
            shelf.iter().any(|(t, _)| *t == table),
            "pivot target must expose the searched table"
        );
    }

    #[test]
    fn pivot_to_query_descends_toward_topic() {
        let f = fixture();
        let mut session = UnifiedSession::new(&f.lake, &f.engine, &f.md.dims);
        // Pick a stored value the model can embed: `pivot_to_query` is
        // documented to return `None` for queries with no embeddable token,
        // and whether the *first* stored value is a numeric (unembeddable)
        // string depends on the generator's RNG stream.
        let word = f
            .values
            .iter()
            .flat_map(|v| v.iter())
            .find(|v| {
                dln_embed::tokenize(v)
                    .iter()
                    .any(|t| f.model.embed(t).is_some())
            })
            .expect("some stored value embeds");
        let state = session
            .pivot_to_query(word, &f.model)
            .expect("embeddable query");
        let (di, _) = session.position().unwrap();
        assert!(di < f.md.dims.len());
        // Deepest-match semantics: the state is below the root.
        let dim = &f.md.dims[di];
        assert_ne!(state, dim.organization.root());
        // And browsing can continue from there.
        let nav = session.navigator().unwrap();
        assert!(nav.depth() > 0);
    }

    #[test]
    fn pivot_to_query_rejects_unembeddable_text() {
        let f = fixture();
        let mut session = UnifiedSession::new(&f.lake, &f.engine, &f.md.dims);
        assert!(session.pivot_to_query("zzz qqq 123", &f.model).is_none());
    }

    #[test]
    fn search_here_is_scoped_to_the_shelf() {
        let f = fixture();
        let mut session = UnifiedSession::new(&f.lake, &f.engine, &f.md.dims);
        // Without a pivot, scoped search returns nothing.
        assert!(session.search_here("anything", 5).is_empty());
        let word = f.values.iter().find_map(|v| v.first()).unwrap();
        let table = session.search(word, 1)[0].table;
        session.pivot_to_table(table).unwrap();
        let allowed: std::collections::BTreeSet<TableId> =
            session.tables_here().into_iter().map(|(t, _)| t).collect();
        let scoped = session.search_here(word, 10);
        for hit in &scoped {
            assert!(allowed.contains(&hit.table), "scoped hit escaped the shelf");
        }
    }

    #[test]
    fn pivot_roundtrip_search_navigate_search() {
        // The full future-work loop: search → pivot → browse → scoped search.
        let f = fixture();
        let mut session = UnifiedSession::new(&f.lake, &f.engine, &f.md.dims);
        let word = f.values.iter().find_map(|v| v.first()).unwrap();
        let table = session.search(word, 1)[0].table;
        session.pivot_to_table(table).unwrap();
        // Browse up one level to widen the shelf, then search within it.
        let nav = session.navigator().unwrap();
        nav.backtrack();
        let wide = session.tables_here();
        assert!(!wide.is_empty());
        let scoped = session.search_here(word, 10);
        assert!(scoped
            .iter()
            .all(|h| wide.iter().any(|(t, _)| *t == h.table)));
    }
}
