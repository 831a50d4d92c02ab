//! The navigation model and organization-effectiveness evaluation.
//!
//! Implements §2.2–§2.4 of the paper:
//!
//! * **Transition probability** (Eq 1): from state `s`, a user searching
//!   for topic `X` moves to child `c` with probability
//!   `softmax_c( (γ/|ch(s)|) · κ(c, X) )`, where `κ` is the cosine
//!   similarity of topic vectors and the `1/|ch(s)|` factor penalizes
//!   large branching factors.
//! * **Reach probability** (Eqs 2–4): propagated from the root through the
//!   DAG in topological order, summing over all discovery sequences.
//! * **Attribute discovery** (Def. 1, instantiated as §4.3.4): the
//!   probability of reaching one of the attribute's tag states times the
//!   probability of selecting the attribute among that tag's attributes.
//! * **Table discovery & effectiveness** (Def. 2, Eqs 5–6).
//!
//! The evaluator holds per-query reach rows so that a local-search
//! operation only re-evaluates its *affected subgraph* (§3.4): the
//! descendants of the states whose outgoing transition distribution
//! changed. Every delta application returns an undo token so a rejected
//! Metropolis proposal rolls the evaluator back exactly.
//!
//! Performance (see `DESIGN.md`, "Performance architecture"): the reach
//! matrix is one contiguous `n_queries × n_slots` allocation driven by
//! `rayon::par_chunks_mut` — queries are independent, so both the full
//! recompute and the incremental delta fan out across threads while
//! keeping every per-query reduction in fixed topological order
//! (bit-identical results for any thread count). The full recompute
//! gathers each state's child topic vectors into one contiguous `f32`
//! matrix so Eq 1 is a streaming mat-vec; the affected subgraph and the
//! active parent list are computed once per delta instead of once per
//! query; and reachability (Eq 10) is served from incrementally maintained
//! column sums.
//!
//! Eq 1 weights are cached across deltas: each interior state keeps one
//! `f64` row of `n_queries × |ch(s)|` transition weights (query-major). An
//! operation changes the children or child topics only of its
//! `dirty_parents`, so those rows are marked stale; a delta recomputes
//! only the rows of stale active parents — in one parallel pass over those
//! states — and every other active parent's weights are read back instead
//! of re-running the softmax per query. The cache is filled lazily by
//! [`Evaluator::apply_delta`] (never by [`Evaluator::recompute_full`], so
//! an evaluator that only scores an organization pays nothing for it) and
//! costs at most `Q × E × 8` bytes for `Q` queries and `E` parent→child
//! edges: `E / n_slots` times the `Q × n_slots × 8`-byte reach matrix the
//! evaluator already holds, so about as much again on a tree.

use dln_embed::{batch_dot_wide, dot, gram_into};
use rayon::prelude::*;

use crate::approx::Representatives;
use crate::bitset::BitSet;
use crate::ctx::OrgContext;
use crate::graph::{Organization, StateId};

/// Query attributes whose final hops one [`tag_hops`] gram block holds: the
/// block is `HOP_BLOCK × population` `f32`s, so a tag carried by thousands
/// of queries (exact evaluation) never materializes `population²` scores.
const HOP_BLOCK: usize = 64;

/// Query rows one `apply_delta` task propagates together. A task reads each
/// active parent's weights for all of its queries as one contiguous run of
/// the parent's query-major row.
const QUERY_BLOCK: usize = 8;

/// Navigation-model hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct NavConfig {
    /// The γ of Equation 1 (must be strictly positive). Larger values make
    /// users more decisive; the `1/|ch(s)|` branching penalty divides it.
    pub gamma: f32,
}

impl Default for NavConfig {
    fn default() -> Self {
        NavConfig { gamma: 20.0 }
    }
}

/// One evaluation query: a representative attribute standing for a
/// partition of attributes (§3.4). With exact evaluation every attribute is
/// its own representative.
#[derive(Clone, Debug)]
struct Query {
    /// Local id of the representative attribute.
    attr: u32,
    /// Final-hop terms: `(local tag, P(attr | tag state))` for each tag of
    /// the representative. The hop probabilities never change during search
    /// (tag populations are fixed), so they are precomputed, for all
    /// queries at once ([`final_hop_table`]).
    hops: Vec<(u32, f64)>,
}

/// Rollback token for [`Evaluator::apply_delta`].
///
/// Reach values are stored struct-of-arrays: one shared list of affected
/// slots plus a dense query-major value matrix, instead of one
/// `(query, slot, value)` triple per entry — a third of the memory traffic
/// and a single allocation per field.
#[derive(Debug, Default)]
pub struct EvalUndo {
    /// Affected slots (shared column index set for every query's row).
    slots: Vec<u32>,
    /// Saved reach values, query-major: `reach_values[q * slots.len() + k]`
    /// is the pre-delta value of query `q` at slot `slots[k]`.
    reach_values: Vec<f64>,
    /// Saved reachability column sums, parallel to `slots`.
    sum_values: Vec<f64>,
    /// Seed-format `(query, slot, value)` log, used only by the
    /// [`apply_delta_uncached`](Evaluator::apply_delta_uncached) baseline.
    reach_aos: Vec<(u32, u32, f64)>,
    /// Changed discovery probabilities (query index / previous value).
    disc_q: Vec<u32>,
    disc_v: Vec<f64>,
    /// Changed table probabilities (table index / previous value).
    tables_t: Vec<u32>,
    tables_v: Vec<f64>,
    /// States whose cached weight row must be re-marked stale on rollback:
    /// the operation's own undo will rewrite their children or child
    /// topics after the evaluator rolls back.
    dirty_states: Vec<u32>,
    old_sum: f64,
}

/// Re-evaluation cost counters for one delta (feeds Figure 3).
#[derive(Clone, Copy, Debug, Default)]
pub struct DeltaStats {
    /// States whose reach probabilities were recomputed.
    pub states_visited: usize,
    /// Discovery-probability evaluations performed (representatives).
    pub queries_evaluated: usize,
    /// Attributes covered by the re-evaluated representatives (exact mode:
    /// equals `queries_evaluated`).
    pub attrs_covered: usize,
}

/// Incremental evaluator of organization effectiveness (Eq 6).
pub struct Evaluator {
    nav: NavConfig,
    queries: Vec<Query>,
    /// Representative (query index) of each local attribute.
    rep_of_attr: Vec<u32>,
    /// Partition size of each query.
    query_weight: Vec<u32>,
    /// Embedding dimensionality.
    dim: usize,
    /// Slot count every flattened array is sized for.
    n_slots: usize,
    /// Row-major `n_queries × n_slots` reach matrix: `reach[q * n_slots +
    /// slot]` is the probability of reaching `slot` while searching for
    /// query `q`'s topic.
    reach: Vec<f64>,
    /// Per-slot column sums of `reach`, maintained incrementally so
    /// reachability (Eq 10) is O(n_slots) per proposal instead of
    /// O(n_queries × n_slots).
    reach_sum: Vec<f64>,
    /// `disc[q]`: discovery probability of query `q`'s own attribute.
    disc: Vec<f64>,
    /// Row-major `n_queries × dim` matrix of query unit topics.
    query_units: Vec<f32>,
    /// Tables (local ids) containing attributes represented by each query.
    tables_of_query: Vec<Vec<u32>>,
    /// Queries whose representative carries a given local tag.
    queries_of_tag: Vec<Vec<u32>>,
    /// `P(T | O)` per local table (Eq 5 with representative approximation).
    table_prob: Vec<f64>,
    sum_table_prob: f64,
    /// Per-state Eq 1 weights, query-major `n_queries × n_children`:
    /// `weights[s][q * n + i]` is the probability that query `q` moves from
    /// `s` to its `i`-th child. Filled by `apply_delta` for active parents.
    weights: Vec<Vec<f64>>,
    /// Slots whose weight row does not describe the organization and must
    /// be recomputed before a delta reads it.
    stale: Vec<bool>,
    // --- scratch, reused across apply_delta calls ---
    /// Per-slot "is affected" marker (doubles as the DFS `seen` set).
    affected_mark: Vec<bool>,
    /// Dedup set for seed collection (capacity `n_slots`).
    seed_set: BitSet,
    /// Dedup set for dirty queries (capacity `n_queries`).
    dirty_query_set: BitSet,
    /// Dedup set for dirty tables (capacity `n_tables`).
    dirty_table_set: BitSet,
    seeds_scratch: Vec<StateId>,
    stack_scratch: Vec<StateId>,
    affected_scratch: Vec<StateId>,
    active_scratch: Vec<StateId>,
    /// Stale active parents with their weight rows taken out of `weights`
    /// for the parallel refill.
    refill_scratch: Vec<(StateId, Vec<f64>)>,
    sum_scratch: Vec<f64>,
    dirty_query_scratch: Vec<u32>,
    dirty_table_scratch: Vec<u32>,
}

impl Evaluator {
    /// Build an evaluator and run a full evaluation.
    pub fn new(
        ctx: &OrgContext,
        org: &Organization,
        nav: NavConfig,
        reps: &Representatives,
    ) -> Evaluator {
        assert!(nav.gamma > 0.0, "gamma must be strictly positive (Eq 1)");
        let gamma = nav.gamma;
        let dim = ctx.dim();
        let queries: Vec<Query> = reps
            .reps
            .iter()
            .zip(final_hop_table(ctx, gamma, &reps.reps))
            .map(|(&attr, hops)| Query { attr, hops })
            .collect();
        let mut query_units = Vec::with_capacity(reps.reps.len() * dim);
        for &attr in &reps.reps {
            query_units.extend_from_slice(ctx.attr_unit(attr));
        }
        let mut query_weight = vec![0u32; queries.len()];
        for &q in &reps.rep_of_attr {
            query_weight[q as usize] += 1;
        }
        // Static maps.
        let mut tables_of_query: Vec<Vec<u32>> = vec![Vec::new(); queries.len()];
        for (a, &q) in reps.rep_of_attr.iter().enumerate() {
            let t = ctx.attr(a as u32).table;
            if !tables_of_query[q as usize].contains(&t) {
                tables_of_query[q as usize].push(t);
            }
        }
        let mut queries_of_tag: Vec<Vec<u32>> = vec![Vec::new(); ctx.n_tags()];
        for (qi, q) in queries.iter().enumerate() {
            for &(t, _) in &q.hops {
                queries_of_tag[t as usize].push(qi as u32);
            }
        }
        let n_queries = queries.len();
        let mut ev = Evaluator {
            nav,
            queries,
            rep_of_attr: reps.rep_of_attr.clone(),
            query_weight,
            dim,
            n_slots: 0,
            reach: Vec::new(),
            reach_sum: Vec::new(),
            disc: Vec::new(),
            query_units,
            tables_of_query,
            queries_of_tag,
            table_prob: vec![0.0; ctx.n_tables()],
            sum_table_prob: 0.0,
            weights: Vec::new(),
            stale: Vec::new(),
            affected_mark: Vec::new(),
            seed_set: BitSet::new(0),
            dirty_query_set: BitSet::new(n_queries),
            dirty_table_set: BitSet::new(ctx.n_tables()),
            seeds_scratch: Vec::new(),
            stack_scratch: Vec::new(),
            affected_scratch: Vec::new(),
            active_scratch: Vec::new(),
            refill_scratch: Vec::new(),
            sum_scratch: Vec::new(),
            dirty_query_scratch: Vec::new(),
            dirty_table_scratch: Vec::new(),
        };
        ev.recompute_full(ctx, org);
        ev
    }

    /// Organization effectiveness `P(T | O)` (Eq 6): the mean table
    /// discovery probability over the context's tables.
    pub fn effectiveness(&self) -> f64 {
        if self.table_prob.is_empty() {
            return 0.0;
        }
        self.sum_table_prob / self.table_prob.len() as f64
    }

    /// Discovery probability of a local attribute (via its representative).
    pub fn attr_discovery(&self, attr: u32) -> f64 {
        self.disc[self.rep_of_attr[attr as usize] as usize]
    }

    /// Discovery probability of a local table (Eq 5).
    pub fn table_discovery(&self, table: u32) -> f64 {
        self.table_prob[table as usize]
    }

    /// Mean reach probability of every state slot over all queries —
    /// the reachability of Equation 10, used to pick operation targets.
    pub fn reachability(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.reachability_into(&mut out);
        out
    }

    /// Allocation-free form of [`reachability`](Self::reachability) for hot
    /// callers: served from the maintained column sums in O(n_slots).
    pub fn reachability_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.reach_sum);
        if !self.queries.is_empty() {
            let inv = 1.0 / self.queries.len() as f64;
            out.iter_mut().for_each(|v| *v *= inv);
        }
    }

    /// Number of evaluation queries (representatives).
    pub fn n_queries(&self) -> usize {
        self.queries.len()
    }

    /// One query's reach row (probability of reaching each state slot while
    /// searching for that query's topic). Exposed for tests / diagnostics.
    pub fn reach_row(&self, q: usize) -> &[f64] {
        &self.reach[q * self.n_slots..(q + 1) * self.n_slots]
    }

    /// Full (from scratch) evaluation of the current organization.
    /// Queries are independent, so their reach rows are recomputed in
    /// parallel; each row's DP runs in fixed topological order, so results
    /// are bit-identical for every thread count.
    pub fn recompute_full(&mut self, ctx: &OrgContext, org: &Organization) {
        let n_slots = org.n_slots();
        let nq = self.queries.len();
        self.n_slots = n_slots;
        self.affected_mark.clear();
        self.affected_mark.resize(n_slots, false);
        if self.seed_set.capacity() != n_slots {
            self.seed_set = BitSet::new(n_slots);
        }
        // Weight rows are filled by deltas only: every state starts stale.
        self.weights.resize_with(n_slots, Vec::new);
        self.stale.clear();
        self.stale.resize(n_slots, true);
        // Child-topic matrices for this pass: every query walks every
        // interior state, so each state's topics are gathered once.
        let child_mats: Vec<Vec<f32>> = (0..n_slots)
            .map(|i| child_mat(org, StateId(i as u32)))
            .collect();
        self.reach.clear();
        self.reach.resize(nq * n_slots, 0.0);
        self.disc.clear();
        self.disc.resize(nq, 0.0);
        let order = org.topo_order();
        let root = org.root();
        let gamma = self.nav.gamma;
        let dim = self.dim;
        {
            let Evaluator {
                reach,
                disc,
                queries,
                query_units,
                ..
            } = self;
            let queries: &[Query] = queries;
            let query_units: &[f32] = query_units;
            reach
                .par_chunks_mut(n_slots.max(1))
                .zip(disc.par_chunks_mut(1))
                .enumerate()
                .for_each_init(Vec::new, |weights, (qi, (row, d))| {
                    let unit = &query_units[qi * dim..(qi + 1) * dim];
                    row[root.index()] = 1.0;
                    for &s in order {
                        let st = org.state(s);
                        if st.children.is_empty() || row[s.index()] == 0.0 {
                            continue;
                        }
                        weights_from_mat(
                            &child_mats[s.index()],
                            st.children.len(),
                            gamma,
                            unit,
                            weights,
                        );
                        let r = row[s.index()];
                        for (&c, &w) in st.children.iter().zip(weights.iter()) {
                            row[c.index()] += r * w;
                        }
                    }
                    d[0] = queries[qi]
                        .hops
                        .iter()
                        .map(|&(t, hop)| row[org.tag_state(t).index()] * hop)
                        .sum();
                });
        }
        // Reachability column sums, accumulated in fixed query order — the
        // same order the incremental path recomputes them in, so cached
        // sums never drift from a fresh evaluation.
        self.reach_sum.clear();
        self.reach_sum.resize(n_slots, 0.0);
        {
            let Evaluator {
                reach, reach_sum, ..
            } = self;
            for qi in 0..nq {
                let row = &reach[qi * n_slots..(qi + 1) * n_slots];
                for (sum, &v) in reach_sum.iter_mut().zip(row) {
                    *sum += v;
                }
            }
        }
        // Table probabilities.
        self.sum_table_prob = 0.0;
        for (ti, table) in ctx.tables().iter().enumerate() {
            let p = self.compute_table_prob(table);
            self.table_prob[ti] = p;
            self.sum_table_prob += p;
        }
    }

    fn compute_table_prob(&self, table: &crate::ctx::LocalTable) -> f64 {
        let mut miss = 1.0f64;
        for &a in &table.attrs {
            miss *= 1.0 - self.disc[self.rep_of_attr[a as usize] as usize];
        }
        1.0 - miss
    }

    /// Incrementally re-evaluate after an operation. `dirty_parents` are
    /// the states whose outgoing transition distribution changed (from
    /// [`crate::ops::OpOutcome`]). Returns an undo token and cost counters.
    ///
    /// The affected subgraph and the list of *active parents* (states with
    /// an affected child, in topological order) are computed once — they
    /// are query-independent — and the per-query re-propagation then runs
    /// in parallel over the reach rows.
    pub fn apply_delta(
        &mut self,
        ctx: &OrgContext,
        org: &Organization,
        dirty_parents: &[StateId],
    ) -> (EvalUndo, DeltaStats) {
        let n_slots = self.n_slots;
        let nq = self.queries.len();
        debug_assert_eq!(org.n_slots(), n_slots, "slot count changed; rebuild");
        let mut undo = EvalUndo {
            old_sum: self.sum_table_prob,
            ..Default::default()
        };
        // Affected set: descendants of the dirty parents' children.
        let mut seeds = std::mem::take(&mut self.seeds_scratch);
        seeds.clear();
        for &p in dirty_parents {
            if !org.state(p).alive {
                continue;
            }
            for &c in &org.state(p).children {
                if org.state(c).alive && self.seed_set.insert(c.0) {
                    seeds.push(c);
                }
            }
        }
        for &c in &seeds {
            self.seed_set.remove(c.0);
        }
        let mut affected = std::mem::take(&mut self.affected_scratch);
        affected.clear();
        let mut stack = std::mem::take(&mut self.stack_scratch);
        org.descendants_of_into(&seeds, &mut self.affected_mark, &mut stack, &mut affected);
        self.stack_scratch = stack;
        self.seeds_scratch = seeds;
        if affected.is_empty() {
            self.affected_scratch = affected;
            return (undo, DeltaStats::default());
        }
        // The op changed the dirty parents' children or child topics: their
        // weight rows are stale now, and stale again if the op is rolled
        // back after the refill below.
        for &p in dirty_parents {
            if org.state(p).alive {
                self.stale[p.index()] = true;
                undo.dirty_states.push(p.0);
            }
        }
        // Active parents: alive states with an affected child, in
        // topological order — computed once (the per-query loop used to
        // rescan the entire order for every query). The stale parents'
        // weight rows are taken out for the refill.
        let order = org.topo_order();
        let mut active = std::mem::take(&mut self.active_scratch);
        active.clear();
        let mut refill = std::mem::take(&mut self.refill_scratch);
        for &p in order {
            let st = org.state(p);
            if st.children.is_empty() {
                continue;
            }
            if st.children.iter().any(|c| self.affected_mark[c.index()]) {
                if self.stale[p.index()] {
                    refill.push((p, std::mem::take(&mut self.weights[p.index()])));
                    self.stale[p.index()] = false;
                }
                active.push(p);
            }
        }
        // Refill the stale rows: one parallel pass over the stale parents
        // (each task computes one state's row for every query, so its
        // children's topics stay in cache).
        let root = org.root();
        let gamma = self.nav.gamma;
        let dim = self.dim;
        {
            let query_units: &[f32] = &self.query_units;
            refill
                .par_chunks_mut(1)
                .for_each_init(Vec::new, |scratch, item| {
                    let (p, row) = &mut item[0];
                    row.clear();
                    row.reserve(nq * org.state(*p).children.len());
                    for unit in query_units.chunks_exact(dim) {
                        transition_weights(org, gamma, *p, unit, scratch);
                        row.extend_from_slice(scratch);
                    }
                });
        }
        for (p, row) in refill.drain(..) {
            self.weights[p.index()] = row;
        }
        self.refill_scratch = refill;
        // Save-and-recompute, one parallel task per block of query rows:
        // the block walks the active parents once, so each parent's weights
        // for the block's queries are read as one contiguous run.
        let n_aff = affected.len();
        undo.slots.extend(affected.iter().map(|s| s.0));
        undo.sum_values
            .extend(affected.iter().map(|&s| self.reach_sum[s.index()]));
        undo.reach_values.resize(nq * n_aff, 0.0);
        {
            let Evaluator {
                reach,
                affected_mark,
                weights,
                ..
            } = self;
            let mark: &[bool] = affected_mark;
            let weights: &[Vec<f64>] = weights;
            let affected: &[StateId] = &affected;
            let active: &[StateId] = &active;
            reach
                .par_chunks_mut(n_slots * QUERY_BLOCK)
                .zip(undo.reach_values.par_chunks_mut(n_aff * QUERY_BLOCK))
                .enumerate()
                .for_each(|(block, (rows, saved))| {
                    let rows_saved = rows
                        .chunks_exact_mut(n_slots)
                        .zip(saved.chunks_exact_mut(n_aff));
                    for (row, saved) in rows_saved {
                        for (k, &s) in affected.iter().enumerate() {
                            saved[k] = row[s.index()];
                            row[s.index()] = if s == root { 1.0 } else { 0.0 };
                        }
                    }
                    for &p in active {
                        let children = &org.state(p).children;
                        let n = children.len();
                        let block_weights = &weights[p.index()][block * QUERY_BLOCK * n..];
                        for (row, w) in rows
                            .chunks_exact_mut(n_slots)
                            .zip(block_weights.chunks_exact(n))
                        {
                            let r = row[p.index()];
                            if r == 0.0 {
                                continue;
                            }
                            for (&c, &w) in children.iter().zip(w) {
                                if mark[c.index()] {
                                    row[c.index()] += r * w;
                                }
                            }
                        }
                    }
                });
        }
        // Recompute the affected columns' sums from scratch in query order
        // (serial, fixed order ⇒ bit-equal to a full evaluation's sums).
        {
            let mut sums = std::mem::take(&mut self.sum_scratch);
            sums.clear();
            sums.resize(n_aff, 0.0);
            for qi in 0..nq {
                let row = &self.reach[qi * n_slots..(qi + 1) * n_slots];
                for (k, &s) in affected.iter().enumerate() {
                    sums[k] += row[s.index()];
                }
            }
            for (k, &s) in affected.iter().enumerate() {
                self.reach_sum[s.index()] = sums[k];
            }
            self.sum_scratch = sums;
        }
        // Discovery updates: queries whose representative has a tag whose
        // tag state is affected (bitset-deduplicated).
        let mut dirty_queries = std::mem::take(&mut self.dirty_query_scratch);
        dirty_queries.clear();
        for &s in &affected {
            if let Some(t) = org.state(s).tag {
                for &qi in &self.queries_of_tag[t as usize] {
                    if self.dirty_query_set.insert(qi) {
                        dirty_queries.push(qi);
                    }
                }
            }
        }
        for &qi in &dirty_queries {
            self.dirty_query_set.remove(qi);
        }
        let mut attrs_covered = 0usize;
        let mut dirty_tables = std::mem::take(&mut self.dirty_table_scratch);
        dirty_tables.clear();
        for &qi in &dirty_queries {
            let q = &self.queries[qi as usize];
            let row = &self.reach[qi as usize * n_slots..(qi as usize + 1) * n_slots];
            let new_disc: f64 = q
                .hops
                .iter()
                .map(|&(t, hop)| row[org.tag_state(t).index()] * hop)
                .sum();
            if new_disc != self.disc[qi as usize] {
                undo.disc_q.push(qi);
                undo.disc_v.push(self.disc[qi as usize]);
                self.disc[qi as usize] = new_disc;
                for &t in &self.tables_of_query[qi as usize] {
                    if self.dirty_table_set.insert(t) {
                        dirty_tables.push(t);
                    }
                }
            }
            attrs_covered += self.query_weight[qi as usize] as usize;
        }
        for &t in &dirty_tables {
            self.dirty_table_set.remove(t);
        }
        for &t in &dirty_tables {
            let p = self.compute_table_prob(&ctx.tables()[t as usize]);
            undo.tables_t.push(t);
            undo.tables_v.push(self.table_prob[t as usize]);
            self.sum_table_prob += p - self.table_prob[t as usize];
            self.table_prob[t as usize] = p;
        }
        // Clear markers, hand the scratch buffers back.
        for &s in &affected {
            self.affected_mark[s.index()] = false;
        }
        let stats = DeltaStats {
            states_visited: affected.len(),
            queries_evaluated: dirty_queries.len(),
            attrs_covered,
        };
        self.affected_scratch = affected;
        self.active_scratch = active;
        self.dirty_query_scratch = dirty_queries;
        self.dirty_table_scratch = dirty_tables;
        (undo, stats)
    }

    /// The seed revision's incremental evaluation, kept verbatim as an
    /// honest in-tree baseline for `dln-bench`: uncached Kahn topological
    /// sort, a full-order rescan per query, a scattered per-child dot
    /// product per transition, `Vec::contains` deduplication, and the
    /// triple-per-entry undo log. Semantics (and result bits) are
    /// identical to [`apply_delta`]; only the constant factors differ.
    ///
    /// [`apply_delta`]: Evaluator::apply_delta
    pub fn apply_delta_uncached(
        &mut self,
        ctx: &OrgContext,
        org: &Organization,
        dirty_parents: &[StateId],
    ) -> (EvalUndo, DeltaStats) {
        let n_slots = self.n_slots;
        let nq = self.queries.len();
        let mut undo = EvalUndo {
            old_sum: self.sum_table_prob,
            ..Default::default()
        };
        let mut seeds: Vec<StateId> = Vec::new();
        for &p in dirty_parents {
            if !org.state(p).alive {
                continue;
            }
            for &c in &org.state(p).children {
                if org.state(c).alive && !seeds.contains(&c) {
                    seeds.push(c);
                }
            }
        }
        let affected = org.descendants_of(&seeds);
        if affected.is_empty() {
            return (undo, DeltaStats::default());
        }
        for &s in &affected {
            self.affected_mark[s.index()] = true;
        }
        undo.slots.extend(affected.iter().map(|s| s.0));
        undo.sum_values
            .extend(affected.iter().map(|&s| self.reach_sum[s.index()]));
        let order = org.compute_topo_order();
        let root = org.root();
        let mut weights: Vec<f64> = Vec::new();
        for qi in 0..nq {
            let attr = self.queries[qi].attr;
            let unit = &ctx.attr(attr).unit_topic;
            let row = &mut self.reach[qi * n_slots..(qi + 1) * n_slots];
            for &s in &affected {
                undo.reach_aos.push((qi as u32, s.0, row[s.index()]));
                row[s.index()] = if s == root { 1.0 } else { 0.0 };
            }
            for &p in &order {
                let st = org.state(p);
                if st.children.is_empty() || row[p.index()] == 0.0 {
                    continue;
                }
                if !st.children.iter().any(|c| self.affected_mark[c.index()]) {
                    continue;
                }
                transition_weights(org, self.nav.gamma, p, unit, &mut weights);
                let r = row[p.index()];
                for (&c, &w) in st.children.iter().zip(weights.iter()) {
                    if self.affected_mark[c.index()] {
                        row[c.index()] += r * w;
                    }
                }
            }
        }
        // Column sums for the affected slots (query order, as everywhere).
        {
            let mut sums = vec![0.0f64; affected.len()];
            for qi in 0..nq {
                let row = &self.reach[qi * n_slots..(qi + 1) * n_slots];
                for (k, &s) in affected.iter().enumerate() {
                    sums[k] += row[s.index()];
                }
            }
            for (k, &s) in affected.iter().enumerate() {
                self.reach_sum[s.index()] = sums[k];
            }
        }
        let mut dirty_queries: Vec<u32> = Vec::new();
        for &s in &affected {
            if let Some(t) = org.state(s).tag {
                for &qi in &self.queries_of_tag[t as usize] {
                    if !dirty_queries.contains(&qi) {
                        dirty_queries.push(qi);
                    }
                }
            }
        }
        let mut attrs_covered = 0usize;
        let mut dirty_tables: Vec<u32> = Vec::new();
        for &qi in &dirty_queries {
            let new_disc: f64 = self.queries[qi as usize]
                .hops
                .iter()
                .map(|&(t, hop)| self.reach[qi as usize * n_slots + org.tag_state(t).index()] * hop)
                .sum();
            if new_disc != self.disc[qi as usize] {
                undo.disc_q.push(qi);
                undo.disc_v.push(self.disc[qi as usize]);
                self.disc[qi as usize] = new_disc;
                for &t in &self.tables_of_query[qi as usize] {
                    if !dirty_tables.contains(&t) {
                        dirty_tables.push(t);
                    }
                }
            }
            attrs_covered += self.query_weight[qi as usize] as usize;
        }
        for &t in &dirty_tables {
            let p = self.compute_table_prob(&ctx.tables()[t as usize]);
            undo.tables_t.push(t);
            undo.tables_v.push(self.table_prob[t as usize]);
            self.sum_table_prob += p - self.table_prob[t as usize];
            self.table_prob[t as usize] = p;
        }
        for &s in &affected {
            self.affected_mark[s.index()] = false;
        }
        let stats = DeltaStats {
            states_visited: affected.len(),
            queries_evaluated: dirty_queries.len(),
            attrs_covered,
        };
        (undo, stats)
    }

    /// Roll back a delta exactly (inverse of [`apply_delta`]).
    ///
    /// [`apply_delta`]: Evaluator::apply_delta
    pub fn rollback(&mut self, undo: EvalUndo) {
        let n_slots = self.n_slots;
        let n_aff = undo.slots.len();
        if !undo.reach_aos.is_empty() {
            // Baseline (AoS) path.
            for &(q, slot, v) in undo.reach_aos.iter().rev() {
                self.reach[q as usize * n_slots + slot as usize] = v;
            }
        } else if n_aff > 0 {
            for (qi, saved) in undo.reach_values.chunks_exact(n_aff).enumerate() {
                let row = &mut self.reach[qi * n_slots..(qi + 1) * n_slots];
                for (k, &s) in undo.slots.iter().enumerate() {
                    row[s as usize] = saved[k];
                }
            }
        }
        for (k, &s) in undo.slots.iter().enumerate() {
            self.reach_sum[s as usize] = undo.sum_values[k];
        }
        for (&q, &v) in undo.disc_q.iter().zip(&undo.disc_v) {
            self.disc[q as usize] = v;
        }
        for (&t, &v) in undo.tables_t.iter().zip(&undo.tables_v) {
            self.table_prob[t as usize] = v;
        }
        self.sum_table_prob = undo.old_sum;
        // The operation this undo belongs to is itself rolled back: the
        // weight rows refilled during the delta go stale again.
        for &p in &undo.dirty_states {
            self.stale[p as usize] = true;
        }
    }
}

/// One state's child-topic matrix (row-major `n_children × dim`, rows
/// bit-copied from the child unit topics); empty for a dead state.
fn child_mat(org: &Organization, s: StateId) -> Vec<f32> {
    let st = org.state(s);
    if !st.alive {
        return Vec::new();
    }
    st.children
        .iter()
        .flat_map(|&c| org.state(c).unit_topic.iter().copied())
        .collect()
}

/// Transition probabilities (Eq 1) from a cached child-topic matrix: one
/// streaming mat-vec over contiguous rows instead of a pointer-chase per
/// child. Arithmetic is element-for-element identical to
/// [`transition_weights`], so cached and uncached paths agree bit-for-bit.
fn weights_from_mat(
    mat: &[f32],
    n_children: usize,
    gamma: f32,
    query_unit: &[f32],
    out: &mut Vec<f64>,
) {
    batch_dot_wide(mat, query_unit, n_children, out);
    let scale = gamma as f64 / n_children as f64;
    let mut max_score = f64::NEG_INFINITY;
    for v in out.iter_mut() {
        *v *= scale;
        max_score = max_score.max(*v);
    }
    let mut sum = 0.0f64;
    for v in out.iter_mut() {
        *v = (*v - max_score).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in out.iter_mut() {
            *v /= sum;
        }
    }
}

/// Transition probabilities from `s` to each of its children for a query
/// unit vector (Eq 1), written into `out` (parallel to `children`),
/// reading child topics directly from the organization.
fn transition_weights(
    org: &Organization,
    gamma: f32,
    s: StateId,
    query_unit: &[f32],
    out: &mut Vec<f64>,
) {
    let st = org.state(s);
    let n = st.children.len();
    out.clear();
    out.reserve(n);
    let scale = gamma as f64 / n as f64;
    let mut max_score = f64::NEG_INFINITY;
    for &c in &st.children {
        let kappa = dot(&org.state(c).unit_topic, query_unit) as f64;
        let score = scale * kappa;
        max_score = max_score.max(score);
        out.push(score);
    }
    let mut sum = 0.0f64;
    for v in out.iter_mut() {
        *v = (*v - max_score).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in out.iter_mut() {
            *v /= sum;
        }
    }
}

/// Final-hop probabilities `P(a | tag state)` (§4.3.4) of the query
/// attributes `attrs`: entry `i` pairs each tag of `attrs[i]`, in the
/// attribute's tag order, with the probability of picking `attrs[i]` among
/// that tag's attribute population — a softmax of the same form as Eq 1
/// (branching factor = the population size) at query topic = the attribute
/// itself.
///
/// Each tag's hops are computed once for every query attribute carrying
/// it ([`tag_hops`]), tag after tag. The table is built serially: for the
/// 720 representatives of a perfbench `build` lake it takes 6–12 ms, and
/// fanned out over tags on two workers it took 10–22 ms.
fn final_hop_table(ctx: &OrgContext, gamma: f32, attrs: &[u32]) -> Vec<Vec<(u32, f64)>> {
    // The queries carrying each tag, once per occurrence, in query order.
    let mut carriers: Vec<Vec<u32>> = vec![Vec::new(); ctx.n_tags()];
    for (qi, &a) in attrs.iter().enumerate() {
        for &t in &ctx.attr(a).tags {
            carriers[t as usize].push(qi as u32);
        }
    }
    let mut scratch = (Vec::new(), Vec::new());
    let per_tag: Vec<Vec<f64>> = carriers
        .iter()
        .enumerate()
        .map(|(t, qs)| tag_hops(ctx, gamma, t as u32, qs, attrs, &mut scratch))
        .collect();
    // Queries take their hops in the order `carriers` listed them.
    let mut next = vec![0usize; ctx.n_tags()];
    attrs
        .iter()
        .map(|&a| {
            ctx.attr(a)
                .tags
                .iter()
                .map(|&t| {
                    let i = &mut next[t as usize];
                    *i += 1;
                    (t, per_tag[t as usize][*i - 1])
                })
                .collect()
        })
        .collect()
}

/// `P(a | tag)` for the query attributes `attrs[q]`, `q` in `carriers`
/// (each of which carries `tag`), in `carriers` order. The scores come
/// from one [`gram_into`] block of at most [`HOP_BLOCK`] carriers × the
/// tag's population (each element bit-identical to `dot`), and each
/// carrier's softmax runs over its row in population order — the
/// arithmetic of the per-pair definition, bit for bit. `scratch` holds the
/// gram block and the scores between calls.
fn tag_hops(
    ctx: &OrgContext,
    gamma: f32,
    tag: u32,
    carriers: &[u32],
    attrs: &[u32],
    scratch: &mut (Vec<f32>, Vec<f64>),
) -> Vec<f64> {
    if carriers.is_empty() {
        return Vec::new();
    }
    let pop = &ctx.tag(tag).attrs;
    let np = pop.len();
    let scale = gamma as f64 / np as f64;
    let (gram, scores) = scratch;
    gram.resize(HOP_BLOCK.min(carriers.len()) * np, 0.0);
    let mut out = Vec::with_capacity(carriers.len());
    for block in carriers.chunks(HOP_BLOCK) {
        let gram = &mut gram[..block.len() * np];
        gram_into(
            block.len(),
            np,
            |r| ctx.attr_unit(attrs[block[r] as usize]),
            |c| ctx.attr_unit(pop[c]),
            gram,
        );
        for (&qi, row) in block.iter().zip(gram.chunks_exact(np)) {
            let attr = attrs[qi as usize];
            debug_assert!(pop.contains(&attr));
            let mut max_score = f64::NEG_INFINITY;
            let mut own = 0usize;
            scores.clear();
            for (i, (&b, &kappa)) in pop.iter().zip(row).enumerate() {
                if b == attr {
                    own = i;
                }
                let s = scale * kappa as f64;
                max_score = max_score.max(s);
                scores.push(s);
            }
            let mut sum = 0.0;
            for s in scores.iter_mut() {
                *s = (*s - max_score).exp();
                sum += *s;
            }
            out.push(if sum > 0.0 { scores[own] / sum } else { 0.0 });
        }
    }
    out
}

/// Exact discovery probabilities of *every* context attribute under its own
/// query topic (`X = A`, Def. 1) — the quantity reported by the paper's
/// success-probability experiments. Runs the reach DP once per attribute,
/// one parallel item per attribute with per-worker scratch. Each item
/// computes its attribute's final hops tag by tag with `tag_hops`; a hop
/// is per attribute, so the bits match [`Evaluator::new`]'s batched table.
pub fn discovery_probs(ctx: &OrgContext, org: &Organization, nav: NavConfig) -> Vec<f64> {
    let order = org.topo_order();
    let mut out = vec![0.0f64; ctx.n_attrs()];
    out.par_chunks_mut(1).enumerate().for_each_init(
        || (vec![0.0f64; org.n_slots()], Vec::new(), Default::default()),
        |(reach, weights, hop_scratch), (a, o)| {
            let attr = a as u32;
            let unit = ctx.attr_unit(attr);
            reach.iter_mut().for_each(|r| *r = 0.0);
            reach[org.root().index()] = 1.0;
            for &s in order {
                let st = org.state(s);
                if st.children.is_empty() || reach[s.index()] == 0.0 {
                    continue;
                }
                transition_weights(org, nav.gamma, s, unit, weights);
                let r = reach[s.index()];
                for (&c, &w) in st.children.iter().zip(weights.iter()) {
                    reach[c.index()] += r * w;
                }
            }
            o[0] = ctx
                .attr(attr)
                .tags
                .iter()
                .map(|&t| {
                    let hop = tag_hops(ctx, nav.gamma, t, &[0], &[attr], hop_scratch)[0];
                    reach[org.tag_state(t).index()] * hop
                })
                .sum();
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::Representatives;
    use crate::init::{clustering_org, flat_org};
    use crate::ops;
    use dln_synth::TagCloudConfig;

    /// Per-pair definition of the final hop, the oracle of
    /// [`final_hop_table`]: one `dot` per population member.
    fn final_hop(ctx: &OrgContext, gamma: f32, tag: u32, attr: u32) -> f64 {
        let pop = &ctx.tag(tag).attrs;
        debug_assert!(pop.contains(&attr));
        let unit = ctx.attr_unit(attr);
        let scale = gamma as f64 / pop.len() as f64;
        let mut max_score = f64::NEG_INFINITY;
        let mut scores = Vec::with_capacity(pop.len());
        let mut own = 0usize;
        for (i, &b) in pop.iter().enumerate() {
            if b == attr {
                own = i;
            }
            let s = scale * dot(ctx.attr_unit(b), unit) as f64;
            max_score = max_score.max(s);
            scores.push(s);
        }
        let mut sum = 0.0;
        for s in &mut scores {
            *s = (*s - max_score).exp();
            sum += *s;
        }
        if sum > 0.0 {
            scores[own] / sum
        } else {
            0.0
        }
    }

    fn setup() -> (OrgContext, Organization) {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let org = clustering_org(&ctx);
        (ctx, org)
    }

    fn evaluator(ctx: &OrgContext, org: &Organization) -> Evaluator {
        let reps = Representatives::exact(ctx);
        Evaluator::new(ctx, org, NavConfig::default(), &reps)
    }

    /// Every observable float of the evaluator, as bits.
    fn fingerprint_bits(ev: &Evaluator, ctx: &OrgContext) -> Vec<u64> {
        let mut bits = vec![ev.effectiveness().to_bits()];
        bits.extend((0..ctx.n_attrs() as u32).map(|a| ev.attr_discovery(a).to_bits()));
        bits.extend((0..ctx.n_tables() as u32).map(|t| ev.table_discovery(t).to_bits()));
        for q in 0..ev.n_queries() {
            bits.extend(ev.reach_row(q).iter().map(|v| v.to_bits()));
        }
        bits.extend(ev.reachability().iter().map(|v| v.to_bits()));
        bits
    }

    #[test]
    fn reach_probabilities_are_a_distribution_over_levels() {
        let (ctx, org) = setup();
        let ev = evaluator(&ctx, &org);
        // For each query, the reach of the root is 1 and the total reach
        // of the tag states is ≤ 1 (paths can only lose mass at splits...
        // actually in a tree it is exactly 1).
        for qi in 0..ev.n_queries() {
            let reach = ev.reach_row(qi);
            assert!((reach[org.root().index()] - 1.0).abs() < 1e-12);
            let leaf_sum: f64 = org.tag_states().iter().map(|ts| reach[ts.index()]).sum();
            assert!(
                (leaf_sum - 1.0).abs() < 1e-6,
                "tree mass conservation: {leaf_sum}"
            );
        }
    }

    #[test]
    fn discovery_probs_are_probabilities() {
        let (ctx, org) = setup();
        let ev = evaluator(&ctx, &org);
        for a in 0..ctx.n_attrs() as u32 {
            let d = ev.attr_discovery(a);
            assert!((0.0..=1.0).contains(&d), "disc {d} out of range");
        }
        for t in 0..ctx.n_tables() as u32 {
            let p = ev.table_discovery(t);
            assert!((0.0..=1.0).contains(&p));
        }
        let eff = ev.effectiveness();
        assert!(eff > 0.0 && eff < 1.0, "effectiveness {eff}");
    }

    #[test]
    fn effectiveness_is_mean_of_table_probs() {
        let (ctx, org) = setup();
        let ev = evaluator(&ctx, &org);
        let mean: f64 = (0..ctx.n_tables() as u32)
            .map(|t| ev.table_discovery(t))
            .sum::<f64>()
            / ctx.n_tables() as f64;
        assert!((ev.effectiveness() - mean).abs() < 1e-12);
    }

    #[test]
    fn reachability_matches_row_means() {
        let (ctx, org) = setup();
        let ev = evaluator(&ctx, &org);
        let fast = ev.reachability();
        let nq = ev.n_queries();
        for (slot, &cached) in fast.iter().enumerate().take(org.n_slots()) {
            let mean: f64 = (0..nq).map(|q| ev.reach_row(q)[slot]).sum::<f64>() / nq as f64;
            assert!(
                (cached - mean).abs() < 1e-12,
                "slot {slot}: cached {cached} vs direct {mean}"
            );
        }
        let mut buf = vec![99.0f64; 3];
        ev.reachability_into(&mut buf);
        assert_eq!(buf, fast);
    }

    #[test]
    fn clustering_beats_flat_baseline() {
        // The core claim of Figure 2(a)'s first comparison.
        let (ctx, _) = setup();
        let flat = flat_org(&ctx);
        let clus = clustering_org(&ctx);
        let ev_flat = evaluator(&ctx, &flat);
        let ev_clus = evaluator(&ctx, &clus);
        assert!(
            ev_clus.effectiveness() > ev_flat.effectiveness(),
            "clustering {} must beat flat {}",
            ev_clus.effectiveness(),
            ev_flat.effectiveness()
        );
    }

    #[test]
    fn own_attribute_has_high_final_hop() {
        let (ctx, _) = setup();
        // For a TagCloud attribute, the final hop compares it against its
        // tag siblings; it must be at least the uniform share.
        for a in (0..ctx.n_attrs() as u32).step_by(17) {
            let t = ctx.attr(a).tags[0];
            let pop = ctx.tag(t).attrs.len();
            let hop = final_hop(&ctx, 20.0, t, a);
            assert!(
                hop >= 1.0 / (pop as f64) - 1e-9,
                "hop {hop} below uniform 1/{pop}"
            );
        }
    }

    #[test]
    fn final_hop_table_matches_per_pair_oracle_bitwise() {
        // The batched table (gram blocks per tag, softmax per carrier)
        // must reproduce the per-pair definition bit for bit, for exact
        // queries (every tag carried by its whole population, so a block
        // boundary falls inside large tags) and for an approximate subset.
        // Three tags over ~200 attributes make
        // populations of about 67.
        let bench = TagCloudConfig {
            n_tags: 3,
            ..TagCloudConfig::small()
        }
        .generate();
        let ctx = OrgContext::full(&bench.lake);
        let exact = Representatives::exact(&ctx).reps;
        let approx = Representatives::kmedoids(&ctx, 0.1, 7).reps;
        assert!(
            (0..ctx.n_tags() as u32).any(|t| ctx.tag(t).attrs.len() > HOP_BLOCK),
            "some tag must span more than one gram block"
        );
        for attrs in [&exact, &approx] {
            let table = final_hop_table(&ctx, 20.0, attrs);
            assert_eq!(table.len(), attrs.len());
            for (&a, hops) in attrs.iter().zip(&table) {
                let tags: Vec<u32> = hops.iter().map(|&(t, _)| t).collect();
                assert_eq!(tags, ctx.attr(a).tags, "attr {a}");
                for &(t, hop) in hops {
                    assert_eq!(
                        hop.to_bits(),
                        final_hop(&ctx, 20.0, t, a).to_bits(),
                        "attr {a} tag {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_delta_matches_full_recompute() {
        let (ctx, mut org) = setup();
        let mut ev = evaluator(&ctx, &org);
        let reach = ev.reachability();
        // Apply an ADD_PARENT and compare incremental vs full evaluation.
        let s = org.tag_state(3);
        let out = ops::try_add_parent(&mut org, &ctx, s, &reach).expect("applicable");
        let (_undo, stats) = ev.apply_delta(&ctx, &org, &out.dirty_parents);
        assert!(stats.states_visited > 0);
        let eff_incremental = ev.effectiveness();
        let ev_full = evaluator(&ctx, &org);
        assert!(
            (eff_incremental - ev_full.effectiveness()).abs() < 1e-9,
            "incremental {} vs full {}",
            eff_incremental,
            ev_full.effectiveness()
        );
        // Per-attribute agreement.
        for a in 0..ctx.n_attrs() as u32 {
            assert!((ev.attr_discovery(a) - ev_full.attr_discovery(a)).abs() < 1e-9);
        }
        // Maintained reachability sums agree with the fresh evaluator's.
        let (inc, full) = (ev.reachability(), ev_full.reachability());
        for (a, b) in inc.iter().zip(&full) {
            assert!((a - b).abs() < 1e-9, "reachability drift: {a} vs {b}");
        }
    }

    #[test]
    fn delta_rollback_restores_evaluator_bit_for_bit() {
        let (ctx, mut org) = setup();
        let mut ev = evaluator(&ctx, &org);
        let before = fingerprint_bits(&ev, &ctx);
        let reach = ev.reachability();
        let s = org.tag_state(5);
        let out = ops::try_add_parent(&mut org, &ctx, s, &reach).expect("applicable");
        let (undo, _) = ev.apply_delta(&ctx, &org, &out.dirty_parents);
        ev.rollback(undo);
        ops::undo(&mut org, &ctx, out);
        assert_eq!(
            fingerprint_bits(&ev, &ctx),
            before,
            "rollback must restore every observable bit"
        );
        // And the evaluator still agrees with a fresh one.
        let fresh = evaluator(&ctx, &org);
        assert!((ev.effectiveness() - fresh.effectiveness()).abs() < 1e-9);
        // The weight cache was re-marked stale correctly: the next
        // delta must still match a full recompute.
        let reach2 = ev.reachability();
        let s2 = org.tag_state(1);
        let out2 = ops::try_add_parent(&mut org, &ctx, s2, &reach2).expect("applicable");
        let (_u, _) = ev.apply_delta(&ctx, &org, &out2.dirty_parents);
        let fresh2 = evaluator(&ctx, &org);
        assert!((ev.effectiveness() - fresh2.effectiveness()).abs() < 1e-9);
    }

    #[test]
    fn incremental_matches_after_delete_parent() {
        let (ctx, mut org) = setup();
        let mut ev = evaluator(&ctx, &org);
        let reach = ev.reachability();
        let s = (0..ctx.n_tags() as u32)
            .map(|t| org.tag_state(t))
            .find(|&ts| {
                org.state(ts)
                    .parents
                    .iter()
                    .any(|&p| p != org.root() && org.state(p).tag.is_none())
            })
            .expect("deep tag state");
        let out = ops::try_delete_parent(&mut org, &ctx, s, &reach).expect("applicable");
        let (_undo, stats) = ev.apply_delta(&ctx, &org, &out.dirty_parents);
        assert!(stats.states_visited > 0);
        let ev_full = evaluator(&ctx, &org);
        assert!(
            (ev.effectiveness() - ev_full.effectiveness()).abs() < 1e-9,
            "incremental {} vs full {}",
            ev.effectiveness(),
            ev_full.effectiveness()
        );
    }

    #[test]
    fn uncached_baseline_matches_cached_delta_bitwise() {
        let (ctx, mut org) = setup();
        let mut ev_fast = evaluator(&ctx, &org);
        let mut ev_base = evaluator(&ctx, &org);
        let before = fingerprint_bits(&ev_fast, &ctx);
        let reach = ev_fast.reachability();
        let s = org.tag_state(3);
        let out = ops::try_add_parent(&mut org, &ctx, s, &reach).expect("applicable");
        let (u1, st1) = ev_fast.apply_delta(&ctx, &org, &out.dirty_parents);
        let (u2, st2) = ev_base.apply_delta_uncached(&ctx, &org, &out.dirty_parents);
        assert_eq!(st1.states_visited, st2.states_visited);
        assert_eq!(st1.queries_evaluated, st2.queries_evaluated);
        assert_eq!(
            fingerprint_bits(&ev_fast, &ctx),
            fingerprint_bits(&ev_base, &ctx),
            "cached and baseline deltas must agree bit-for-bit"
        );
        // Both rollback paths restore the identical pre-delta state.
        ev_fast.rollback(u1);
        ev_base.rollback(u2);
        assert_eq!(fingerprint_bits(&ev_fast, &ctx), before);
        assert_eq!(fingerprint_bits(&ev_base, &ctx), before);
    }

    #[test]
    fn cached_weights_match_uncached_baseline_over_mixed_walk() {
        // Weight rows survive across deltas, so a stale row left behind by
        // one rollback would only show on a later step. Drive a long mixed
        // walk (add- and delete-parent ops, some kept, some rolled back)
        // and compare against the baseline that recomputes Eq 1 for every
        // transition, after every delta and every rollback.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let (ctx, mut org) = setup();
        let mut ev = evaluator(&ctx, &org);
        let mut base = evaluator(&ctx, &org);
        let mut rng = StdRng::seed_from_u64(0x18);
        let (mut kept, mut rolled_back, mut deletes) = (0, 0, 0);
        while kept + rolled_back < 48 {
            let reach = ev.reachability();
            let targets: Vec<StateId> = org.alive_ids().filter(|&s| s != org.root()).collect();
            let s = targets[rng.random_range(0..targets.len())];
            let delete = rng.random::<f64>() < 0.5;
            let out = if delete {
                ops::try_delete_parent(&mut org, &ctx, s, &reach)
            } else {
                ops::try_add_parent(&mut org, &ctx, s, &reach)
            };
            let Some(out) = out else { continue };
            let step = kept + rolled_back;
            let (u1, st1) = ev.apply_delta(&ctx, &org, &out.dirty_parents);
            let (u2, st2) = base.apply_delta_uncached(&ctx, &org, &out.dirty_parents);
            assert_eq!(st1.states_visited, st2.states_visited, "step {step}");
            assert_eq!(st1.queries_evaluated, st2.queries_evaluated, "step {step}");
            assert_eq!(
                fingerprint_bits(&ev, &ctx),
                fingerprint_bits(&base, &ctx),
                "delta of step {step} diverged"
            );
            deletes += delete as usize;
            if rng.random::<f64>() < 0.5 {
                ev.rollback(u1);
                base.rollback(u2);
                ops::undo(&mut org, &ctx, out);
                assert_eq!(
                    fingerprint_bits(&ev, &ctx),
                    fingerprint_bits(&base, &ctx),
                    "rollback of step {step} diverged"
                );
                rolled_back += 1;
            } else {
                kept += 1;
            }
        }
        assert!(
            kept >= 10 && rolled_back >= 10 && (10..=38).contains(&deletes),
            "the walk must mix ops and outcomes: {kept} kept, {rolled_back} rolled back, \
             {deletes} deletes"
        );
        let fresh = evaluator(&ctx, &org);
        assert!((ev.effectiveness() - fresh.effectiveness()).abs() < 1e-9);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (ctx, mut org) = setup();
        let run = |threads: usize, org: &mut Organization| {
            rayon::with_num_threads(threads, || {
                let mut ev = evaluator(&ctx, org);
                let reach = ev.reachability();
                let out =
                    ops::try_add_parent(org, &ctx, org.tag_state(2), &reach).expect("applicable");
                let (_u, _) = ev.apply_delta(&ctx, org, &out.dirty_parents);
                let bits = fingerprint_bits(&ev, &ctx);
                ops::undo(org, &ctx, out);
                bits
            })
        };
        let serial = run(1, &mut org);
        for t in [4, 8] {
            assert_eq!(
                run(t, &mut org),
                serial,
                "results must be bit-identical with {t} threads"
            );
        }
    }

    #[test]
    fn affected_subgraph_is_a_strict_subset() {
        // Pruning claim of Figure 3: a local change re-evaluates fewer than
        // all states.
        let (ctx, mut org) = setup();
        let mut ev = evaluator(&ctx, &org);
        let reach = ev.reachability();
        let s = org.tag_state(1);
        let out = ops::try_add_parent(&mut org, &ctx, s, &reach).expect("applicable");
        let (_undo, stats) = ev.apply_delta(&ctx, &org, &out.dirty_parents);
        assert!(
            stats.states_visited < org.n_alive(),
            "visited {} of {} states",
            stats.states_visited,
            org.n_alive()
        );
    }

    #[test]
    fn exact_discovery_probs_match_evaluator_with_exact_reps() {
        let (ctx, org) = setup();
        let ev = evaluator(&ctx, &org);
        let exact = discovery_probs(&ctx, &org, NavConfig::default());
        for a in 0..ctx.n_attrs() as u32 {
            assert!(
                (exact[a as usize] - ev.attr_discovery(a)).abs() < 1e-9,
                "attr {a}: {} vs {}",
                exact[a as usize],
                ev.attr_discovery(a)
            );
        }
    }

    #[test]
    fn representative_approximation_is_close() {
        let (ctx, org) = setup();
        let exact_ev = evaluator(&ctx, &org);
        let approx_reps = Representatives::kmedoids(&ctx, 0.2, 7);
        let approx_ev = Evaluator::new(&ctx, &org, NavConfig::default(), &approx_reps);
        let (e, a) = (exact_ev.effectiveness(), approx_ev.effectiveness());
        assert!(
            (e - a).abs() / e < 0.5,
            "approx effectiveness {a} far from exact {e}"
        );
    }

    #[test]
    #[should_panic(expected = "gamma must be strictly positive")]
    fn non_positive_gamma_panics() {
        let (ctx, org) = setup();
        let reps = Representatives::exact(&ctx);
        Evaluator::new(&ctx, &org, NavConfig { gamma: 0.0 }, &reps);
    }
}
