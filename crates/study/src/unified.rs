//! Unified discovery: keyword search and navigation as interchangeable
//! modalities — the paper's concluding future-work item ("to integrate
//! keyword search and navigation as two interchangeable modalities in a
//! unified framework").
//!
//! A [`UnifiedSession`] holds both interfaces over the same lake and lets
//! a user pivot between them:
//!
//! * `search(query)` — ranked tables from the BM25(+expansion) engine;
//! * `pivot_to_table(table)` — jump *into* the organization at the best
//!   tag state containing that table ("show me where this search result
//!   lives, so I can browse its neighbourhood");
//! * `pivot_to_query(query)` — jump to the deepest state whose topic best
//!   matches a free-text query ("navigate from here");
//! * `search_here(query)` — keyword search restricted to the tables under
//!   the current state ("search within this shelf").
//!
//! Navigation goes through the served dimensions ([`ServedDim`]): the
//! cursor is a session on one dimension's service, a pivot opens a fresh
//! session and walks to its target with `Descend` steps, and the shelf is
//! the table listing of a step response.
//!
//! The §4.4 observation that the two modalities surface largely disjoint
//! tables is exactly why the pivots matter: each modality escapes the
//! other's blind spot.

use std::collections::{BTreeSet, VecDeque};

use dln_embed::{dot, EmbeddingModel, TopicAccumulator};
use dln_lake::{DataLake, TableId};
use dln_org::StateId;
use dln_search::{KeywordSearch, SearchHit};
use dln_serve::{SessionId, StepAction, StepRequest, StepResponse};

use crate::ServedDim;

/// A discovery session combining a served organization and a search
/// engine.
pub struct UnifiedSession<'a> {
    lake: &'a DataLake,
    engine: &'a KeywordSearch,
    dims: &'a [ServedDim],
    /// Current position: (dimension index, session on its service).
    cursor: Option<(usize, SessionId)>,
}

impl<'a> UnifiedSession<'a> {
    /// Open a session over a lake, its search engine, and the served
    /// dimensions of a (multi-dimensional) organization.
    pub fn new(
        lake: &'a DataLake,
        engine: &'a KeywordSearch,
        dims: &'a [ServedDim],
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

    /// The current position, if any pivot has happened.
    pub fn position(&self) -> Option<(usize, StateId)> {
        let (di, id) = self.cursor?;
        let path = self.dims[di].svc.session_path(id).ok()?;
        path.last().map(|&s| (di, s))
    }

    /// Label of the current navigation state.
    pub fn position_label(&self) -> Option<String> {
        self.step(StepAction::Stay).map(|r| r.label)
    }

    /// Browse after a pivot: apply `action` at the cursor and return the
    /// view, tables listed. `None` before the first pivot or when the
    /// service refuses the step.
    pub fn step(&self, action: StepAction) -> Option<StepResponse> {
        let (di, id) = self.cursor?;
        let req = StepRequest {
            list_tables: true,
            ..StepRequest::action(action)
        };
        self.dims[di].svc.step(id, &req).ok()
    }

    /// Pivot from a search result into the organization: move to the tag
    /// state whose tag covers most of the table's attributes (ties: the
    /// least populated tag, then the first dimension and the lowest tag).
    /// Returns the reached state, or `None` when no dimension contains the
    /// table.
    pub fn pivot_to_table(&mut self, table: TableId) -> Option<StateId> {
        let mut best: Option<(usize, u32, usize, usize)> = None; // (dim, tag, coverage, pop)
        for (di, dim) in self.dims.iter().enumerate() {
            let snap = dim.svc.snapshot();
            let view = snap.view();
            let Some(ti) = (0..view.n_tables() as u32).find(|&ti| view.table_global(ti) == table)
            else {
                continue;
            };
            let attrs = view.table_attrs(ti);
            for t in 0..view.n_tags() as u32 {
                let members = view.tag_attrs(t);
                let coverage = members.iter().filter(|a| attrs.contains(a)).count();
                let pop = members.len();
                let better = coverage > 0
                    && best
                        .is_none_or(|(_, _, bc, bp)| coverage > bc || (coverage == bc && pop < bp));
                if better {
                    best = Some((di, t, coverage, pop));
                }
            }
        }
        let (di, tag, _, _) = best?;
        let snap = self.dims[di].svc.snapshot();
        let view = snap.view();
        let target = (0..view.n_slots() as u32)
            .map(StateId)
            .find(|&s| view.alive(s) && view.state_tag(s) == Some(tag))?;
        // BFS for a root→target path.
        let root = view.root();
        let mut prev: Vec<Option<StateId>> = vec![None; view.n_slots()];
        let mut queue = VecDeque::from([root]);
        while let Some(s) = queue.pop_front() {
            if s == target {
                break;
            }
            for &c in view.children(s) {
                if prev[c.index()].is_none() && c != root {
                    prev[c.index()] = Some(s);
                    queue.push_back(c);
                }
            }
        }
        let mut path = vec![target];
        while let Some(p) = prev[path[path.len() - 1].index()] {
            path.push(p);
        }
        if path[path.len() - 1] != root {
            return None;
        }
        path.reverse();
        self.enter(di, &path)
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
            let sa = dot(&self.dims[a].root_topic, &unit);
            let sb = dot(&self.dims[b].root_topic, &unit);
            sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
        })?;
        let dim = &self.dims[di];
        let snap = dim.svc.snapshot();
        let mut path = vec![snap.root()];
        let mut here = dot(&dim.root_topic, &unit);
        loop {
            let at = path[path.len() - 1];
            // The most probable child under Eq 1; its topic is its row of
            // the state's child-topic matrix.
            let Some((i, &(best, _))) =
                snap.transition_probs(at, &unit)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| {
                        a.1 .1
                            .partial_cmp(&b.1 .1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
            else {
                break;
            };
            let row = &snap.view().child_mat(at)[i * unit.len()..(i + 1) * unit.len()];
            let next = dot(row, &unit);
            if next <= here && path.len() > 1 {
                break; // similarity peaked — stop at the most specific match
            }
            path.push(best);
            here = next;
        }
        self.enter(di, &path)
    }

    /// Keyword search restricted to the tables under the current
    /// navigation state (empty when no pivot happened yet).
    pub fn search_here(&self, query: &str, top_k: usize) -> Vec<SearchHit> {
        let shelf: BTreeSet<TableId> = self.tables_here().into_iter().map(|(t, _)| t).collect();
        if shelf.is_empty() {
            return Vec::new();
        }
        // Every hit, not a prefix: a shelf table may rank anywhere in
        // the lake-wide list.
        self.engine
            .search(query, self.lake.n_tables())
            .into_iter()
            .filter(|h| shelf.contains(&h.table))
            .take(top_k)
            .collect()
    }

    /// Tables under the current navigation state (most covered first).
    pub fn tables_here(&self) -> Vec<(TableId, usize)> {
        self.step(StepAction::Stay)
            .map(|r| r.tables)
            .unwrap_or_default()
    }

    /// The lake under discovery.
    pub fn lake(&self) -> &DataLake {
        self.lake
    }

    /// Move the cursor to a fresh session on dimension `di` that descends
    /// `path` (root first) step by step.
    fn enter(&mut self, di: usize, path: &[StateId]) -> Option<StateId> {
        self.leave();
        let svc = &self.dims[di].svc;
        let id = svc.open_session().ok()?;
        for &s in &path[1..] {
            if svc
                .step(id, &StepRequest::action(StepAction::Descend(s)))
                .is_err()
            {
                let _ = svc.close_session(id);
                return None;
            }
        }
        self.cursor = Some((di, id));
        path.last().copied()
    }

    fn leave(&mut self) {
        if let Some((di, id)) = self.cursor.take() {
            let _ = self.dims[di].svc.close_session(id);
        }
    }
}

impl Drop for UnifiedSession<'_> {
    fn drop(&mut self) {
        self.leave();
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
        dims: Vec<ServedDim>,
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
            dims: md.dims.into_iter().map(ServedDim::serve).collect(),
        }
    }

    #[test]
    fn search_then_pivot_to_table() {
        let f = fixture();
        let mut session = UnifiedSession::new(&f.lake, &f.engine, &f.dims);
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
        let view = session.step(StepAction::Stay).expect("cursor");
        assert!(view.at_tag_state.is_some(), "pivot lands on a tag state");
        let shelf = session.tables_here();
        assert!(
            shelf.iter().any(|(t, _)| *t == table),
            "pivot target must expose the searched table"
        );
        // Pivoting again moves the cursor: the first session is closed.
        session.pivot_to_table(table).expect("table is organized");
        let live: usize = f.dims.iter().map(|d| d.svc.live_sessions()).sum();
        assert_eq!(live, 1, "one cursor, one live session");
        drop(session);
        let live: usize = f.dims.iter().map(|d| d.svc.live_sessions()).sum();
        assert_eq!(live, 0, "dropping the session closes its cursor");
    }

    #[test]
    fn pivot_to_query_descends_toward_topic() {
        let f = fixture();
        let mut session = UnifiedSession::new(&f.lake, &f.engine, &f.dims);
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
        assert!(di < f.dims.len());
        // Deepest-match semantics: the state is below the root.
        assert_ne!(state, f.dims[di].svc.snapshot().root());
        // And browsing can continue from there.
        let view = session.step(StepAction::Stay).unwrap();
        assert_eq!(view.state, state);
        assert!(view.depth > 0);
    }

    #[test]
    fn pivot_to_query_rejects_unembeddable_text() {
        let f = fixture();
        let mut session = UnifiedSession::new(&f.lake, &f.engine, &f.dims);
        assert!(session.pivot_to_query("zzz qqq 123", &f.model).is_none());
    }

    #[test]
    fn search_here_is_scoped_to_the_shelf() {
        let f = fixture();
        let mut session = UnifiedSession::new(&f.lake, &f.engine, &f.dims);
        // Without a pivot, scoped search returns nothing.
        assert!(session.search_here("anything", 5).is_empty());
        let word = f.values.iter().find_map(|v| v.first()).unwrap();
        let table = session.search(word, 1)[0].table;
        session.pivot_to_table(table).unwrap();
        let allowed: BTreeSet<TableId> =
            session.tables_here().into_iter().map(|(t, _)| t).collect();
        let scoped = session.search_here(word, 10);
        for hit in &scoped {
            assert!(allowed.contains(&hit.table), "scoped hit escaped the shelf");
        }
    }

    #[test]
    fn search_here_keeps_shelf_tables_ranked_low_in_the_lake() {
        // Pivot to the lowest-ranked hit of a query with many hits: its
        // shelf tables rank far below `top_k + |shelf|` lake-wide, and the
        // scoped search must still return them, in lake-wide rank order.
        let f = fixture();
        let mut session = UnifiedSession::new(&f.lake, &f.engine, &f.dims);
        let top_k = 3;
        let (word, all) = f
            .values
            .iter()
            .flat_map(|v| v.iter())
            .map(|w| (w, session.search(w, f.lake.n_tables())))
            .max_by_key(|(_, hits)| hits.len())
            .expect("stored values");
        let low = all.last().expect("hits").table;
        session.pivot_to_table(low).expect("table is organized");
        let shelf: BTreeSet<TableId> = session.tables_here().into_iter().map(|(t, _)| t).collect();
        let rank = all.iter().position(|h| h.table == low).unwrap();
        assert!(
            rank >= top_k + shelf.len(),
            "the pivot table must rank below the old cut-off ({rank} of {})",
            all.len()
        );
        let expected: Vec<TableId> = all
            .iter()
            .filter(|h| shelf.contains(&h.table))
            .map(|h| h.table)
            .take(top_k)
            .collect();
        let got: Vec<TableId> = session
            .search_here(word, top_k)
            .iter()
            .map(|h| h.table)
            .collect();
        assert!(!got.is_empty(), "the pivot table itself is a shelf hit");
        assert_eq!(got, expected);
    }

    #[test]
    fn pivot_roundtrip_search_navigate_search() {
        // The full future-work loop: search → pivot → browse → scoped search.
        let f = fixture();
        let mut session = UnifiedSession::new(&f.lake, &f.engine, &f.dims);
        let word = f.values.iter().find_map(|v| v.first()).unwrap();
        let table = session.search(word, 1)[0].table;
        session.pivot_to_table(table).unwrap();
        // Browse up one level to widen the shelf, then search within it.
        session.step(StepAction::Backtrack).unwrap();
        let wide = session.tables_here();
        assert!(!wide.is_empty());
        let scoped = session.search_here(word, 10);
        assert!(scoped
            .iter()
            .all(|h| wide.iter().any(|(t, _)| *t == h.table)));
    }
}
