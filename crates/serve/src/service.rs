//! The navigation service: snapshots + sessions + deadlines + admission
//! control, composed into one request/response surface.
//!
//! [`NavService::step`] is the only hot path. Its lifecycle:
//!
//! 1. **Admission** — acquire a permit from the [`AdmissionGate`]; shed
//!    with a typed `Overloaded` if the bounded queue is full.
//! 2. **Session lookup** — TTL-checked; expired sessions are evicted on
//!    sight and reported as typed `SessionExpired`.
//! 3. **Chaos** — the `serve.drop_session` failpoint may tear the session
//!    down (simulating a crashed worker); `serve.swap_race` yields the
//!    thread mid-request to widen the hot-swap race window. Both draw
//!    *keyed* on the session's fault key, so chaos schedules are identical
//!    under any thread interleaving.
//! 4. **Epoch reconciliation** — if a publish happened since the session's
//!    snapshot, the configured [`SwapPolicy`] pins, migrates (path replay
//!    by tag-set identity), or rejects with typed `Stale`.
//! 5. **Action + deadline** — apply the navigation action, then decide
//!    whether the remaining budget allows ranking children (Eq 1 softmax
//!    over topic similarity). Past the deadline the response *degrades*:
//!    cached child labels, no probabilities, `degraded: true` — a slow
//!    answer beats an error for a navigating human.
//!
//! Time is read through the injected [`Clock`], and the `serve.slow`
//! failpoint charges *virtual* milliseconds instead of sleeping, so
//! deadline behaviour in tests is deterministic and instant.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dln_fault::{should_fail_keyed, DlnError, DlnResult};
use dln_lake::TableId;
use dln_org::eval::NavConfig;
use dln_org::{Advance, Maintainer, OrgContext, Organization, StateId};

use crate::clock::{Clock, WallClock};
use crate::error::{ServeError, ServeResult};
use crate::gate::AdmissionGate;
use crate::registry::{lock, Session, SessionId, SessionRegistry};
use crate::snapshot::{replay_path, OrgSnapshot, SnapshotStore};

/// What a request does to a session's snapshot when a newer epoch has been
/// published since the session last ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapPolicy {
    /// Keep serving the session's pinned (old) snapshot; it stays alive
    /// via the session's `Arc` no matter how many publishes happen.
    Pin,
    /// Replay the session's path onto the new snapshot by tag-set identity
    /// and continue there (the default).
    Migrate,
    /// Refuse with a typed [`ServeError::Stale`]; the client re-opens.
    Reject,
}

/// How a request's epoch reconciliation went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapOutcome {
    /// Session snapshot and published snapshot agree.
    Current,
    /// A newer epoch exists but the session stayed pinned to its own.
    Pinned {
        /// The (old) epoch the session keeps navigating.
        epoch: u64,
    },
    /// The session was migrated onto the newly published snapshot.
    Migrated {
        /// Epoch the session came from.
        from_epoch: u64,
        /// Epoch it now navigates.
        to_epoch: u64,
        /// Path states that could not be replayed (0 = seamless).
        lost_depth: usize,
    },
}

/// A navigation action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepAction {
    /// Descend into a child of the current state.
    Descend(StateId),
    /// Pop one path element (no-op at the root).
    Backtrack,
    /// Jump back to the root.
    Reset,
    /// Stay put (refresh the view / re-rank for a new query).
    Stay,
}

/// One navigation request.
#[derive(Debug, Clone)]
pub struct StepRequest {
    /// The action to apply before rendering the view.
    pub action: StepAction,
    /// Unit topic vector the user "has in mind" (Eq 1); `None` skips
    /// child ranking.
    pub query: Option<Vec<f32>>,
    /// Per-request deadline override, in clock ms; `None` uses the
    /// service default.
    pub deadline_ms: Option<u64>,
    /// Also list the tables under the current state (skipped when
    /// degraded — it is the most expensive part of the view).
    pub list_tables: bool,
}

impl StepRequest {
    /// A bare action with no query, default deadline, no table listing.
    pub fn action(action: StepAction) -> StepRequest {
        StepRequest {
            action,
            query: None,
            deadline_ms: None,
            list_tables: false,
        }
    }
}

/// One child of the current state, as shown to the user.
#[derive(Debug, Clone)]
pub struct ChildView {
    /// The child state.
    pub state: StateId,
    /// Its display label (cached on the snapshot).
    pub label: String,
    /// Model transition probability; `None` on degraded or query-less
    /// responses.
    pub prob: Option<f64>,
}

/// A well-formed response — degraded or not, every field is meaningful.
#[derive(Debug, Clone)]
pub struct StepResponse {
    /// The session this answers for.
    pub session: SessionId,
    /// Epoch of the snapshot the response was computed on.
    pub epoch: u64,
    /// Current state after the action.
    pub state: StateId,
    /// Depth of the current state (root = 0).
    pub depth: usize,
    /// Display label of the current state.
    pub label: String,
    /// The local tag when the current state is a tag state.
    pub at_tag_state: Option<u32>,
    /// Children of the current state, ranked when probabilities are
    /// available.
    pub children: Vec<ChildView>,
    /// Tables under the current state (when requested and not degraded):
    /// `(table, matching attribute count)`, most-covered first.
    pub tables: Vec<(TableId, usize)>,
    /// True when the deadline forced label-only degradation.
    pub degraded: bool,
    /// How epoch reconciliation went for this request.
    pub swap: SwapOutcome,
}

/// Serving configuration. `from_env` reads the `DLN_SERVE_*` variables
/// documented in the README.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Session registry capacity (`DLN_SERVE_SESSIONS`, default 1024).
    pub max_sessions: usize,
    /// Idle-session TTL in clock ms (default 600 000 = 10 min).
    pub session_ttl_ms: u64,
    /// Default per-request deadline in clock ms; `None` = no deadline
    /// (`DLN_SERVE_DEADLINE_MS`, 0 or unset = none).
    pub deadline_ms: Option<u64>,
    /// Concurrent-request limit (`DLN_SERVE_CONCURRENCY`, default =
    /// `rayon::current_num_threads()`).
    pub max_concurrency: usize,
    /// Bounded wait-queue depth behind the concurrency limit (default =
    /// 2 × `max_concurrency`).
    pub queue_depth: usize,
    /// Base of the retry-after hint on shed requests, ms.
    pub retry_base_ms: u64,
    /// What to do with sessions from an older epoch.
    pub swap_policy: SwapPolicy,
    /// Virtual ms charged against the deadline when `serve.slow` fires.
    pub slow_penalty_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let conc = rayon::current_num_threads().max(1);
        ServeConfig {
            max_sessions: 1024,
            session_ttl_ms: 600_000,
            deadline_ms: None,
            max_concurrency: conc,
            queue_depth: 2 * conc,
            retry_base_ms: 10,
            swap_policy: SwapPolicy::Migrate,
            slow_penalty_ms: 1000,
        }
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

impl ServeConfig {
    /// Defaults overridden by `DLN_SERVE_SESSIONS`, `DLN_SERVE_DEADLINE_MS`
    /// (0 = none) and `DLN_SERVE_CONCURRENCY`.
    pub fn from_env() -> ServeConfig {
        let mut cfg = ServeConfig::default();
        cfg.max_sessions = env_u64("DLN_SERVE_SESSIONS", cfg.max_sessions as u64).max(1) as usize;
        cfg.deadline_ms = match env_u64("DLN_SERVE_DEADLINE_MS", 0) {
            0 => None,
            ms => Some(ms),
        };
        let conc = env_u64("DLN_SERVE_CONCURRENCY", cfg.max_concurrency as u64).max(1) as usize;
        cfg.max_concurrency = conc;
        cfg.queue_depth = 2 * conc;
        cfg
    }
}

/// Monotone service counters. All deterministic quantities (everything
/// except `overloaded`, which depends on real arrival timing when the gate
/// queue is contended) agree between serial and concurrent runs of the
/// same workload.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests that passed admission.
    pub requests: AtomicU64,
    /// Responses degraded by a deadline.
    pub degraded: AtomicU64,
    /// Requests shed by admission control.
    pub overloaded: AtomicU64,
    /// Sessions opened.
    pub opened: AtomicU64,
    /// Sessions closed by the client.
    pub closed: AtomicU64,
    /// Sessions evicted by TTL.
    pub evicted_ttl: AtomicU64,
    /// Sessions torn down by the `serve.drop_session` failpoint.
    pub dropped_fault: AtomicU64,
    /// Requests that migrated their session to a new epoch by path replay.
    pub migrated: AtomicU64,
    /// Requests that rode a shard-level republish *in place*: the session's
    /// path avoided every changed slot, so the snapshot `Arc` was swapped
    /// without replay and with `lost_depth == 0`.
    pub migrated_in_place: AtomicU64,
    /// Requests that kept navigating a pinned old epoch.
    pub pinned: AtomicU64,
    /// Requests refused as stale under [`SwapPolicy::Reject`].
    pub stale: AtomicU64,
    /// Snapshots published (excluding the initial one).
    pub published: AtomicU64,
}

macro_rules! bump {
    ($stats:expr, $field:ident) => {
        $stats.$field.fetch_add(1, Ordering::Relaxed)
    };
}

/// What one service-driven maintenance cycle did
/// ([`NavService::run_maintenance_cycle`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintReport {
    /// TTL-expired sessions swept at cycle start.
    pub swept: usize,
    /// Epoch of the shard-scoped republish, when one was published.
    pub epoch: Option<u64>,
    /// Change events folded into the published organization.
    pub applied_events: u64,
    /// Slots in the republish scope (tombstones + appended states).
    pub n_changed: usize,
    /// Shards rebuilt by a checkpointed search (rebalance donors handled
    /// by edge surgery don't count).
    pub searched_shards: usize,
}

/// The concurrent navigation service.
pub struct NavService {
    store: SnapshotStore,
    registry: Mutex<SessionRegistry>,
    gate: AdmissionGate,
    cfg: ServeConfig,
    clock: Arc<dyn Clock>,
    stats: ServeStats,
}

impl NavService {
    /// A service over one organization, with a wall clock.
    ///
    /// # Panics
    /// As [`SnapshotStore::new`]: when the encoded organization fails the
    /// store's open-time checks.
    pub fn new(ctx: OrgContext, org: Organization, nav: NavConfig, cfg: ServeConfig) -> NavService {
        NavService::with_clock(ctx, org, nav, cfg, Arc::new(WallClock::new()))
    }

    /// A service with an injected clock (tests use [`ManualClock`]).
    ///
    /// # Panics
    /// As [`NavService::new`].
    ///
    /// [`ManualClock`]: crate::clock::ManualClock
    pub fn with_clock(
        ctx: OrgContext,
        org: Organization,
        nav: NavConfig,
        cfg: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> NavService {
        NavService::from_store(SnapshotStore::new(ctx, org, nav), cfg, clock)
    }

    /// Cold-start a service from a persistent store file (DESIGN.md §5g):
    /// the snapshot is opened zero-copy (with `.prev` generation
    /// fallback) and served by reference — no CSV parsing, no embedding,
    /// no clustering. Wall clock; see [`NavService::open_path_with_clock`]
    /// for tests.
    pub fn open_path(path: &Path, cfg: ServeConfig) -> DlnResult<NavService> {
        NavService::open_path_with_clock(path, cfg, Arc::new(WallClock::new()))
    }

    /// [`NavService::open_path`] with an injected clock.
    pub fn open_path_with_clock(
        path: &Path,
        cfg: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> DlnResult<NavService> {
        Ok(NavService::from_store(
            SnapshotStore::open_path(path)?,
            cfg,
            clock,
        ))
    }

    fn from_store(store: SnapshotStore, cfg: ServeConfig, clock: Arc<dyn Clock>) -> NavService {
        NavService {
            store,
            registry: Mutex::new(SessionRegistry::new(cfg.max_sessions, cfg.session_ttl_ms)),
            gate: AdmissionGate::new(cfg.max_concurrency, cfg.queue_depth, cfg.retry_base_ms),
            cfg,
            clock,
            stats: ServeStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Service counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The admission gate (diagnostics: active/waiting).
    pub fn gate(&self) -> &AdmissionGate {
        &self.gate
    }

    /// Current published epoch.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// Number of live sessions.
    pub fn live_sessions(&self) -> usize {
        lock(&self.registry).len()
    }

    /// Whether the registry still holds session `id` (closed and evicted
    /// sessions are gone). Neither refreshes the session's TTL nor checks
    /// its expiry.
    pub fn holds_session(&self, id: SessionId) -> bool {
        lock(&self.registry).peek(id).is_some()
    }

    /// Hot-swap in a new organization; in-flight and pinned sessions keep
    /// their current snapshot until they migrate per policy. Returns the
    /// new epoch; when the encoded organization fails the store's
    /// open-time checks, returns the error and keeps the live epoch.
    pub fn publish(&self, ctx: OrgContext, org: Organization, nav: NavConfig) -> DlnResult<u64> {
        let e = self.store.publish(ctx, org, nav)?;
        bump!(self.stats, published);
        Ok(e)
    }

    /// Hot-swap in a store file: open it zero-copy (with `.prev`
    /// fallback) and publish it as a new epoch. Pinned and migrating
    /// sessions behave exactly as under [`NavService::publish`].
    pub fn publish_path(&self, path: &Path) -> DlnResult<u64> {
        let e = self.store.publish_path(path)?;
        bump!(self.stats, published);
        Ok(e)
    }

    /// Hot-swap in a shard-level republish: `org` differs from the current
    /// snapshot only in the `changed` slots. Sessions whose paths avoid
    /// those slots migrate *in place* (no replay, `lost_depth == 0`);
    /// sessions inside the republished shard replay as usual. Errors as
    /// [`NavService::publish`].
    pub fn publish_shard(
        &self,
        ctx: Arc<OrgContext>,
        org: Organization,
        nav: NavConfig,
        changed: Vec<u32>,
    ) -> DlnResult<u64> {
        let e = self.store.publish_scoped(ctx, org, nav, changed)?;
        bump!(self.stats, published);
        Ok(e)
    }

    /// Run one incremental maintenance cycle against this service:
    ///
    /// 1. sweep TTL-expired sessions (live sessions keep serving either
    ///    way);
    /// 2. advance the maintainer's cycle state machine (durable plan →
    ///    rebase → localized re-search / rebalance surgery → validate);
    /// 3. publish the staged organization as a shard-scoped republish —
    ///    the staged snapshot carries its *own* post-churn context, so
    ///    sessions on untouched shards ride in place across the lake
    ///    change — and commit the cycle.
    ///
    /// Errors are maintainer crashes: the service keeps serving its
    /// current snapshot, and a fresh [`Maintainer`] over the same
    /// directory resumes the cycle bit-identically.
    pub fn run_maintenance_cycle(&self, maint: &mut Maintainer<'_>) -> DlnResult<MaintReport> {
        let swept = self.sweep_expired();
        let snap = self.snapshot();
        let Some((ctx, org)) = snap.owned_parts() else {
            return Err(DlnError::InvalidConfig(
                "maintenance requires an owned snapshot; republish the mapped store \
                 as an in-memory organization first"
                    .to_string(),
            ));
        };
        let Advance::Staged(stage) = maint.advance(&ctx, &org)? else {
            return Ok(MaintReport {
                swept,
                ..MaintReport::default()
            });
        };
        let report = MaintReport {
            swept,
            epoch: None,
            applied_events: stage.applied_events,
            n_changed: stage.changed.len(),
            searched_shards: stage.search_stats.len(),
        };
        let epoch =
            self.publish_shard(Arc::new(stage.ctx), stage.org, snap.nav(), stage.changed)?;
        maint.mark_published(&stage.shard_roots, stage.lake)?;
        Ok(MaintReport {
            epoch: Some(epoch),
            ..report
        })
    }

    /// The currently published snapshot (cheap `Arc` clone).
    pub fn snapshot(&self) -> Arc<OrgSnapshot> {
        self.store.current()
    }

    /// Persist the currently published snapshot as a store file at
    /// `path` (atomic write + `.prev` rotation) — the save half of the
    /// millisecond cold-start loop.
    pub fn save_current(&self, path: &Path) -> DlnResult<()> {
        self.store.current().save(path)
    }

    /// Open a session on the current snapshot with fault key 0.
    pub fn open_session(&self) -> ServeResult<SessionId> {
        self.open_session_keyed(0)
    }

    /// Open a session with a caller-supplied fault key (e.g. the agent's
    /// seed). Keyed chaos draws make per-session fault schedules
    /// independent of the order sessions happen to be opened in.
    pub fn open_session_keyed(&self, fault_key: u64) -> ServeResult<SessionId> {
        let now = self.clock.now();
        let snap = self.store.current();
        let (id, evicted) = lock(&self.registry).open(snap, now, fault_key)?;
        self.stats
            .evicted_ttl
            .fetch_add(evicted as u64, Ordering::Relaxed);
        bump!(self.stats, opened);
        Ok(id)
    }

    /// Close a session.
    pub fn close_session(&self, id: SessionId) -> ServeResult<()> {
        lock(&self.registry).close(id)?;
        bump!(self.stats, closed);
        Ok(())
    }

    /// The session's current root-anchored path.
    pub fn session_path(&self, id: SessionId) -> ServeResult<Vec<StateId>> {
        let slot = self.touch(id, self.clock.now())?;
        let path = lock(&slot).path.clone();
        Ok(path)
    }

    /// Check every live session's path against its own snapshot. Returns
    /// `(checked, invalid)`; `invalid > 0` means a hot-swap tore a
    /// session's state — the property the chaos test asserts never holds.
    pub fn validate_live_paths(&self) -> (usize, usize) {
        // Hold the registry lock across the whole audit, so it checks one
        // consistent set of live sessions: a session closed or evicted
        // concurrently is either counted before it goes or not at all.
        // Lock order registry → session matches every other path.
        let reg = lock(&self.registry);
        let mut checked = 0;
        let mut invalid = 0;
        for id in reg.ids() {
            let Some(slot) = reg.peek(id) else { continue };
            let s = lock(&slot);
            checked += 1;
            if !s.snapshot.path_is_valid(&s.path) {
                invalid += 1;
            }
        }
        (checked, invalid)
    }

    /// Evict idle sessions now (also happens lazily on open/step).
    pub fn sweep_expired(&self) -> usize {
        let now = self.clock.now();
        let evicted = lock(&self.registry).evict_expired(now);
        self.stats
            .evicted_ttl
            .fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// One navigation step. See the module docs for the lifecycle.
    pub fn step(&self, id: SessionId, req: &StepRequest) -> ServeResult<StepResponse> {
        let _permit = match self.gate.admit() {
            Ok(p) => p,
            Err(e) => {
                bump!(self.stats, overloaded);
                return Err(e);
            }
        };
        let t0 = self.clock.now();
        bump!(self.stats, requests);

        // Session lookup (TTL-checked, evictions counted).
        let slot = self.touch(id, t0)?;
        let mut s = lock(&slot);
        s.steps += 1;
        // One key per (session, request); decorrelated from neighbouring
        // keys so adjacent agent seeds do not share fault schedules.
        let fault_key = s.fault_key ^ s.steps.wrapping_mul(0x9E37_79B9_7F4A_7C15);

        // Chaos: a "crashed worker" loses the session mid-request.
        if should_fail_keyed("serve.drop_session", fault_key) {
            drop(s);
            let _ = lock(&self.registry).close(id);
            bump!(self.stats, dropped_fault);
            return Err(ServeError::SessionExpired {
                session: id,
                injected: true,
            });
        }

        // Epoch reconciliation under the configured swap policy.
        let mut current = self.store.current();
        if should_fail_keyed("serve.swap_race", fault_key) {
            // Widen the race window: yield so a concurrent publish can land
            // between the first read and the re-read, then reconcile
            // against whatever is newest.
            std::thread::yield_now();
            current = self.store.current();
        }
        let swap = if s.snapshot.epoch() == current.epoch() {
            SwapOutcome::Current
        } else {
            match self.cfg.swap_policy {
                SwapPolicy::Pin => {
                    bump!(self.stats, pinned);
                    SwapOutcome::Pinned {
                        epoch: s.snapshot.epoch(),
                    }
                }
                SwapPolicy::Reject => {
                    bump!(self.stats, stale);
                    return Err(ServeError::Stale {
                        session_epoch: s.snapshot.epoch(),
                        current_epoch: current.epoch(),
                    });
                }
                SwapPolicy::Migrate => {
                    let from_epoch = s.snapshot.epoch();
                    // Shard-level republish fast path: when the new epoch
                    // carries a scope anchored at this session's epoch and
                    // the path avoids every changed slot, the identical
                    // slots are still alive in the new snapshot — swap the
                    // `Arc` in place, no replay, nothing lost. Sessions
                    // inside the republished shard (or more than one epoch
                    // behind) take the ordinary tag-set replay.
                    let in_place = current.scope().is_some_and(|sc| {
                        sc.from_epoch() == from_epoch && !sc.affects_path(&s.path)
                    }) && current.path_is_valid(&s.path);
                    let lost_depth = if in_place {
                        bump!(self.stats, migrated_in_place);
                        0
                    } else {
                        let (path, lost) = replay_path(&s.snapshot, &current, &s.path);
                        s.path = path;
                        bump!(self.stats, migrated);
                        lost
                    };
                    s.snapshot = Arc::clone(&current);
                    SwapOutcome::Migrated {
                        from_epoch,
                        to_epoch: current.epoch(),
                        lost_depth,
                    }
                }
            }
        };

        // Apply the action on the (possibly migrated) snapshot.
        let snap = Arc::clone(&s.snapshot);
        match req.action {
            StepAction::Descend(child) => {
                let here = s.current();
                if !snap.children(here).contains(&child) {
                    return Err(ServeError::Nav(dln_fault::DlnError::invalid_navigation(
                        format!("state {} is not a child of state {}", child.0, here.0),
                    )));
                }
                s.path.push(child);
            }
            StepAction::Backtrack => {
                if s.path.len() > 1 {
                    s.path.pop();
                }
            }
            StepAction::Reset => {
                s.path.clear();
                s.path.push(snap.root());
            }
            StepAction::Stay => {}
        }

        // Deadline accounting: real elapsed time plus virtual charges from
        // the `serve.slow` failpoint (a simulated stall that costs budget
        // without costing test wall-time).
        let mut charged = 0u64;
        if should_fail_keyed("serve.slow", fault_key) {
            charged += self.cfg.slow_penalty_ms;
        }
        let deadline = req.deadline_ms.or(self.cfg.deadline_ms);
        let spent = self.clock.now().saturating_sub(t0) + charged;
        let degraded = deadline.is_some_and(|d| spent > d);
        if degraded {
            bump!(self.stats, degraded);
        }

        // Render the view.
        let here = s.current();
        let probs: Option<Vec<(StateId, f64)>> = match (&req.query, degraded) {
            // Eq 1 ranking off the snapshot's child-topic matrix:
            // bit-identical to `transition_probs_from`, with the gather
            // paid once at encode instead of once per request.
            (Some(q), false) => Some(snap.transition_probs(here, q)),
            _ => None,
        };
        let children = snap
            .children(here)
            .iter()
            .map(|&c| ChildView {
                state: c,
                label: snap.label(c).to_string(),
                prob: probs
                    .as_ref()
                    .and_then(|ps| ps.iter().find(|(sid, _)| *sid == c).map(|(_, p)| *p)),
            })
            .collect();
        let tables = if req.list_tables && !degraded {
            tables_at(&snap, here)
        } else {
            Vec::new()
        };
        Ok(StepResponse {
            session: id,
            epoch: snap.epoch(),
            state: here,
            depth: s.path.len() - 1,
            label: snap.label(here).to_string(),
            at_tag_state: snap.state_tag(here),
            children,
            tables,
            degraded,
            swap,
        })
    }

    /// TTL-checked registry lookup; a session expired on sight counts as
    /// a TTL eviction.
    fn touch(&self, id: SessionId, now: u64) -> ServeResult<Arc<Mutex<Session>>> {
        let out = lock(&self.registry).touch(id, now);
        if matches!(
            out,
            Err(ServeError::SessionExpired {
                injected: false,
                ..
            })
        ) {
            bump!(self.stats, evicted_ttl);
        }
        out
    }
}

/// Tables represented under `sid` (at least one attribute in the state's
/// extent), most-covered first — the shelf a step lists, read from the
/// snapshot's store bytes by [`dln_org::MappedSnapshot::tables_under`].
pub fn tables_at(snap: &OrgSnapshot, sid: StateId) -> Vec<(TableId, usize)> {
    snap.view().tables_under(sid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use dln_org::{clustering_org, flat_org};
    use dln_synth::TagCloudConfig;

    fn fixture() -> (OrgContext, Organization, Organization) {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let clus = clustering_org(&ctx);
        let flat = flat_org(&ctx);
        (ctx, clus, flat)
    }

    fn service(cfg: ServeConfig) -> (NavService, Arc<ManualClock>, OrgContext, Organization) {
        let (ctx, clus, flat) = fixture();
        let clock = Arc::new(ManualClock::new(0));
        let svc = NavService::with_clock(
            ctx.clone(),
            clus,
            NavConfig::default(),
            cfg,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        (svc, clock, ctx, flat)
    }

    fn query_of(ctx: &OrgContext) -> Vec<f32> {
        ctx.attr(0).unit_topic.clone()
    }

    #[test]
    fn open_step_close_round_trip() {
        let (svc, _clock, ctx, _) = service(ServeConfig::default());
        let sid = svc.open_session_keyed(7).unwrap();
        let mut req = StepRequest::action(StepAction::Stay);
        req.query = Some(query_of(&ctx));
        req.list_tables = true;
        let resp = svc.step(sid, &req).unwrap();
        assert!(!resp.degraded);
        assert_eq!(resp.swap, SwapOutcome::Current);
        assert_eq!(resp.depth, 0);
        assert!(!resp.label.is_empty());
        assert!(!resp.children.is_empty());
        let sum: f64 = resp.children.iter().filter_map(|c| c.prob).sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "ranked children form a distribution"
        );
        assert!(!resp.tables.is_empty(), "root covers some tables");

        // Descend into the best child; depth grows, path stays valid.
        let best = resp
            .children
            .iter()
            .max_by(|a, b| {
                let pa = a.prob.unwrap_or(0.0);
                let pb = b.prob.unwrap_or(0.0);
                pa.partial_cmp(&pb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|c| c.state)
            .unwrap();
        let down = svc
            .step(sid, &StepRequest::action(StepAction::Descend(best)))
            .unwrap();
        assert_eq!(down.depth, 1);
        assert_eq!(down.state, best);
        assert_eq!(svc.session_path(sid).unwrap().len(), 2);
        assert_eq!(svc.validate_live_paths(), (1, 0));

        // Backtrack returns to the root and is a no-op there; reset jumps
        // back to the root from any depth.
        let up = svc
            .step(sid, &StepRequest::action(StepAction::Backtrack))
            .unwrap();
        assert_eq!((up.depth, up.state), (0, resp.state));
        let stuck = svc
            .step(sid, &StepRequest::action(StepAction::Backtrack))
            .unwrap();
        assert_eq!((stuck.depth, stuck.state), (0, resp.state));
        svc.step(sid, &StepRequest::action(StepAction::Descend(best)))
            .unwrap();
        let reset = svc
            .step(sid, &StepRequest::action(StepAction::Reset))
            .unwrap();
        assert_eq!((reset.depth, reset.state), (0, resp.state));
        assert_eq!(svc.session_path(sid).unwrap(), vec![resp.state]);

        svc.close_session(sid).unwrap();
        assert_eq!(svc.live_sessions(), 0);
        assert_eq!(svc.stats().closed.load(Ordering::Relaxed), 1);
        assert!(matches!(
            svc.step(sid, &StepRequest::action(StepAction::Stay)),
            Err(ServeError::SessionNotFound { .. })
        ));
    }

    #[test]
    fn invalid_descend_is_typed_and_harmless() {
        let (svc, _clock, _ctx, _) = service(ServeConfig::default());
        let sid = svc.open_session().unwrap();
        // An id past every slot, and a real state that is not a child of
        // the root (a grandchild that is not also a child).
        let snap = svc.snapshot();
        let grandchild = snap
            .children(snap.root())
            .iter()
            .flat_map(|&c| snap.children(c))
            .copied()
            .find(|g| !snap.children(snap.root()).contains(g))
            .expect("the clustering organization is deeper than one level");
        for bogus in [StateId(u32::MAX - 1), grandchild] {
            let err = svc
                .step(sid, &StepRequest::action(StepAction::Descend(bogus)))
                .unwrap_err();
            match err {
                ServeError::Nav(dln_fault::DlnError::InvalidNavigation { context }) => {
                    assert!(context.contains(&format!("state {}", bogus.0)), "{context}");
                }
                other => panic!("expected InvalidNavigation, got {other:?}"),
            }
            assert_eq!(
                svc.session_path(sid).unwrap().len(),
                1,
                "cursor did not move"
            );
        }
    }

    #[test]
    fn hot_swap_migrates_sessions_with_valid_paths() {
        let (svc, _clock, ctx, flat) = service(ServeConfig::default());
        let sid = svc.open_session_keyed(3).unwrap();
        // Walk one level down so there is a path to migrate.
        let view = svc
            .step(sid, &StepRequest::action(StepAction::Stay))
            .unwrap();
        let child = view.children[0].state;
        svc.step(sid, &StepRequest::action(StepAction::Descend(child)))
            .unwrap();

        let e1 = svc
            .publish(ctx.clone(), flat, NavConfig::default())
            .unwrap();
        assert_eq!(e1, 1);
        let resp = svc
            .step(sid, &StepRequest::action(StepAction::Stay))
            .unwrap();
        match resp.swap {
            SwapOutcome::Migrated {
                from_epoch,
                to_epoch,
                lost_depth,
            } => {
                assert_eq!((from_epoch, to_epoch), (0, 1));
                assert_eq!(resp.depth + lost_depth, 1, "replayed + lost = old depth");
            }
            other => panic!("expected migration, got {other:?}"),
        }
        assert_eq!(resp.epoch, 1);
        assert_eq!(svc.validate_live_paths(), (1, 0));
        assert_eq!(svc.stats().migrated.load(Ordering::Relaxed), 1);
        // Next step is Current again: migration is one-shot.
        let again = svc
            .step(sid, &StepRequest::action(StepAction::Stay))
            .unwrap();
        assert_eq!(again.swap, SwapOutcome::Current);
    }

    #[test]
    fn migrate_replays_across_unsharded_to_sharded_republish() {
        // A live session on an unsharded snapshot survives a republication
        // that installs a *sharded* (router-stitched) organization: the
        // path replays by tag-set identity, the view renders ranked
        // children over the router hop, and descending into a shard root
        // works like any other edge.
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let svc = NavService::new(
            ctx.clone(),
            clustering_org(&ctx),
            NavConfig::default(),
            ServeConfig::default(),
        );
        let sid = svc.open_session().unwrap();
        let q = query_of(&ctx);
        // Walk two levels down the unsharded org.
        for _ in 0..2 {
            let mut req = StepRequest::action(StepAction::Stay);
            req.query = Some(q.clone());
            let view = svc.step(sid, &req).unwrap();
            let Some(best) = view
                .children
                .iter()
                .max_by(|a, b| {
                    a.prob
                        .partial_cmp(&b.prob)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|c| c.state)
            else {
                break;
            };
            svc.step(sid, &StepRequest::action(StepAction::Descend(best)))
                .unwrap();
        }
        let old_depth = svc.session_path(sid).unwrap().len() - 1;
        assert!(old_depth >= 1);

        let sharded = dln_org::build_sharded(
            &bench.lake,
            &dln_org::SearchConfig {
                shards: dln_org::ShardPolicy::Fixed(4),
                max_iters: 80,
                deadline: None,
                checkpoint: None,
                ..Default::default()
            },
        );
        assert!(sharded.n_shards() > 1);
        let e1 = svc
            .publish(
                sharded.built.ctx,
                sharded.built.organization,
                sharded.built.nav,
            )
            .unwrap();
        assert_eq!(e1, 1);

        let mut req = StepRequest::action(StepAction::Stay);
        req.query = Some(q.clone());
        let resp = svc.step(sid, &req).unwrap();
        match resp.swap {
            SwapOutcome::Migrated {
                from_epoch,
                to_epoch,
                lost_depth,
            } => {
                assert_eq!((from_epoch, to_epoch), (0, 1));
                assert_eq!(resp.depth + lost_depth, old_depth);
            }
            other => panic!("expected migration, got {other:?}"),
        }
        assert_eq!(svc.validate_live_paths(), (1, 0));
        // If the session landed back at the router, its ranked children
        // are the top of the binary routing tier (not the shard roots —
        // the stitch keeps the router's fan-out at two).
        if resp.depth == 0 {
            assert!(resp.children.len() <= 2 && !resp.children.is_empty());
        }
        let sum: f64 = resp.children.iter().filter_map(|c| c.prob).sum();
        assert!((sum - 1.0).abs() < 1e-9, "router ranking is a distribution");
        let best = resp
            .children
            .iter()
            .max_by(|a, b| {
                a.prob
                    .partial_cmp(&b.prob)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|c| c.state)
            .unwrap();
        let down = svc
            .step(sid, &StepRequest::action(StepAction::Descend(best)))
            .unwrap();
        assert_eq!(down.swap, SwapOutcome::Current);
        assert_eq!(down.depth, resp.depth + 1);
    }

    #[test]
    fn pin_and_reject_swap_policies() {
        for policy in [SwapPolicy::Pin, SwapPolicy::Reject] {
            let cfg = ServeConfig {
                swap_policy: policy,
                ..ServeConfig::default()
            };
            let (svc, _clock, ctx, flat) = service(cfg);
            let sid = svc.open_session().unwrap();
            svc.publish(ctx.clone(), flat, NavConfig::default())
                .unwrap();
            let out = svc.step(sid, &StepRequest::action(StepAction::Stay));
            match policy {
                SwapPolicy::Pin => {
                    let resp = out.unwrap();
                    assert_eq!(resp.swap, SwapOutcome::Pinned { epoch: 0 });
                    assert_eq!(resp.epoch, 0, "answers keep coming from the old epoch");
                }
                SwapPolicy::Reject => {
                    assert!(matches!(
                        out.unwrap_err(),
                        ServeError::Stale {
                            session_epoch: 0,
                            current_epoch: 1,
                        }
                    ));
                }
                SwapPolicy::Migrate => unreachable!(),
            }
        }
    }

    #[test]
    fn shed_requests_get_typed_overloaded() {
        let cfg = ServeConfig {
            max_concurrency: 1,
            queue_depth: 0,
            retry_base_ms: 10,
            ..ServeConfig::default()
        };
        let (svc, _clock, _ctx, _) = service(cfg);
        let sid = svc.open_session().unwrap();
        let _held = svc.gate().admit().unwrap();
        let err = svc
            .step(sid, &StepRequest::action(StepAction::Stay))
            .unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { .. }));
        assert_eq!(svc.stats().overloaded.load(Ordering::Relaxed), 1);
        drop(_held);
        svc.step(sid, &StepRequest::action(StepAction::Stay))
            .unwrap();
    }

    #[test]
    fn ttl_eviction_counts_and_config_reads_env() {
        let cfg = ServeConfig {
            session_ttl_ms: 100,
            ..ServeConfig::default()
        };
        let (svc, clock, _ctx, _) = service(cfg);
        let sid = svc.open_session().unwrap();
        svc.step(sid, &StepRequest::action(StepAction::Stay))
            .unwrap();
        clock.advance(500);
        assert_eq!(svc.sweep_expired(), 1);
        assert_eq!(svc.stats().evicted_ttl.load(Ordering::Relaxed), 1);
        assert!(matches!(
            svc.step(sid, &StepRequest::action(StepAction::Stay)),
            Err(ServeError::SessionNotFound { .. })
        ));

        // from_env: 0 deadline means none.
        let dflt = ServeConfig::from_env();
        assert!(dflt.max_sessions >= 1);
        assert!(dflt.max_concurrency >= 1);
        assert_eq!(dflt.queue_depth, 2 * dflt.max_concurrency);
    }
}
