//! Bounded session registry with TTL eviction.
//!
//! A session is the unit of navigation state the service keeps on behalf
//! of one agent: which snapshot it is navigating (pinned by `Arc`, so a
//! hot-swap cannot pull the organization out from under it), the path from
//! the root, and the per-session [`NavigationLog`] that is merged into the
//! service-wide log at close or eviction (walks observed only while a
//! session is live must not be lost when it times out — they are the
//! behaviour logs the §2.4 transition update reads).
//!
//! The registry is *bounded*: at most `capacity` live sessions. Open
//! first evicts everything past its TTL (so an idle-session pileup cannot
//! wedge new traffic), then refuses with a typed
//! [`SessionLimit`](crate::ServeError::SessionLimit) if still full.
//! Eviction order is ascending session id — a deterministic function of
//! (registry contents, clock reading), never of thread arrival order.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dln_org::{NavigationLog, StateId};

use crate::error::{ServeError, ServeResult};
use crate::snapshot::OrgSnapshot;

/// Opaque session handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One agent's live navigation state.
pub struct Session {
    /// The session's handle.
    pub id: SessionId,
    /// The snapshot this session is navigating; holding the `Arc` pins the
    /// epoch until the session migrates or closes.
    pub snapshot: Arc<OrgSnapshot>,
    /// Root-anchored path of the session's current position.
    pub path: Vec<StateId>,
    /// Walks recorded by this session, merged into the service log on
    /// close/eviction.
    pub log: NavigationLog,
    /// Clock reading of the last request touching this session.
    pub last_active: u64,
    /// Number of navigation steps served.
    pub steps: u64,
    /// Deterministic key for per-session failpoint draws. Supplied by the
    /// caller (e.g. an agent seed) so fault schedules do not depend on the
    /// racy order in which sessions happen to be opened.
    pub fault_key: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("epoch", &self.snapshot.epoch())
            .field("depth", &(self.path.len().saturating_sub(1)))
            .field("last_active", &self.last_active)
            .field("steps", &self.steps)
            .finish()
    }
}

impl Session {
    /// Current position (deepest path state).
    pub fn current(&self) -> StateId {
        self.path
            .last()
            .copied()
            .unwrap_or_else(|| self.snapshot.root())
    }
}

/// A session that was removed from the registry, with why.
pub struct EvictedSession {
    /// The evicted handle.
    pub id: SessionId,
    /// The session's accumulated walk log (for merging upstream).
    pub log: NavigationLog,
}

/// Bounded map of live sessions.
pub struct SessionRegistry {
    sessions: BTreeMap<u64, Arc<Mutex<Session>>>,
    capacity: usize,
    ttl: u64,
    next_id: u64,
}

impl SessionRegistry {
    /// A registry holding at most `capacity` sessions, each expiring after
    /// `ttl` clock units of inactivity.
    pub fn new(capacity: usize, ttl: u64) -> SessionRegistry {
        SessionRegistry {
            sessions: BTreeMap::new(),
            capacity: capacity.max(1),
            ttl,
            next_id: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Open a session rooted at `snapshot`'s root. Evicts expired sessions
    /// first; refuses with [`ServeError::SessionLimit`] when still at
    /// capacity. `fault_key` seeds the session's deterministic failpoint
    /// draws; `evicted` receives any sessions TTL-evicted to make room.
    pub fn open(
        &mut self,
        snapshot: Arc<OrgSnapshot>,
        now: u64,
        fault_key: u64,
        evicted: &mut Vec<EvictedSession>,
    ) -> ServeResult<SessionId> {
        if self.sessions.len() >= self.capacity {
            evicted.extend(self.evict_expired(now));
        }
        if self.sessions.len() >= self.capacity {
            return Err(ServeError::SessionLimit {
                capacity: self.capacity,
            });
        }
        let id = SessionId(self.next_id);
        self.next_id += 1;
        let root = snapshot.root();
        let session = Session {
            id,
            snapshot,
            path: vec![root],
            log: NavigationLog::new(),
            last_active: now,
            steps: 0,
            fault_key,
        };
        self.sessions.insert(id.0, Arc::new(Mutex::new(session)));
        Ok(id)
    }

    /// Look up a live session. `now` is used to *check* expiry (an expired
    /// session is evicted on sight and reported as such), and to refresh
    /// `last_active` on hit.
    pub fn touch(
        &mut self,
        id: SessionId,
        now: u64,
        evicted: &mut Vec<EvictedSession>,
    ) -> ServeResult<Arc<Mutex<Session>>> {
        let Some(slot) = self.sessions.get(&id.0) else {
            return Err(ServeError::SessionNotFound { session: id });
        };
        let expired = {
            let s = lock(slot);
            now.saturating_sub(s.last_active) > self.ttl
        };
        if expired {
            if let Some(slot) = self.sessions.remove(&id.0) {
                evicted.push(finalize(id, &slot));
            }
            return Err(ServeError::SessionExpired {
                session: id,
                injected: false,
            });
        }
        let slot = Arc::clone(slot);
        lock(&slot).last_active = now;
        Ok(slot)
    }

    /// Close a session, returning its accumulated log (with the final walk
    /// recorded into it).
    pub fn close(&mut self, id: SessionId) -> ServeResult<NavigationLog> {
        let Some(slot) = self.sessions.remove(&id.0) else {
            return Err(ServeError::SessionNotFound { session: id });
        };
        Ok(finalize(id, &slot).log)
    }

    /// Drop a session without ceremony (the `serve.drop_session` chaos
    /// failpoint: simulates a crashed worker losing its in-memory session).
    /// The log is *discarded*, as a crash would discard it.
    pub fn drop_abrupt(&mut self, id: SessionId) -> bool {
        self.sessions.remove(&id.0).is_some()
    }

    /// Evict every session idle longer than the TTL. Iterates in ascending
    /// id order, so the eviction set is a pure function of (contents, now).
    pub fn evict_expired(&mut self, now: u64) -> Vec<EvictedSession> {
        let ttl = self.ttl;
        let dead: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, slot)| now.saturating_sub(lock(slot).last_active) > ttl)
            .map(|(id, _)| *id)
            .collect();
        let mut out = Vec::with_capacity(dead.len());
        for id in dead {
            if let Some(slot) = self.sessions.remove(&id) {
                out.push(finalize(SessionId(id), &slot));
            }
        }
        out
    }

    /// Snapshot of the live session ids, ascending.
    pub fn ids(&self) -> Vec<SessionId> {
        self.sessions.keys().map(|k| SessionId(*k)).collect()
    }

    /// Look up a session without refreshing `last_active` and without the
    /// expiry check (diagnostics — e.g. validating live paths after a
    /// hot-swap).
    pub fn peek(&self, id: SessionId) -> Option<Arc<Mutex<Session>>> {
        self.sessions.get(&id.0).map(Arc::clone)
    }
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Drain a removed session into an [`EvictedSession`], recording its final
/// walk (the path it ended on) so the merged log keeps the session's
/// navigation evidence.
fn finalize(id: SessionId, slot: &Mutex<Session>) -> EvictedSession {
    let mut s = lock(slot);
    let path = std::mem::take(&mut s.path);
    let mut log = std::mem::take(&mut s.log);
    log.record_walk(&path);
    EvictedSession { id, log }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dln_org::eval::NavConfig;
    use dln_org::{clustering_org, OrgContext};
    use dln_synth::TagCloudConfig;

    fn snap() -> Arc<OrgSnapshot> {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let org = clustering_org(&ctx);
        Arc::new(OrgSnapshot::new(
            0,
            Arc::new(ctx),
            Arc::new(org),
            NavConfig::default(),
        ))
    }

    #[test]
    fn open_respects_capacity_and_reports_typed_limit() {
        let snap = snap();
        let mut reg = SessionRegistry::new(2, 100);
        let mut ev = Vec::new();
        reg.open(Arc::clone(&snap), 0, 1, &mut ev).unwrap();
        reg.open(Arc::clone(&snap), 0, 2, &mut ev).unwrap();
        let err = reg.open(Arc::clone(&snap), 10, 3, &mut ev).unwrap_err();
        assert!(matches!(err, ServeError::SessionLimit { capacity: 2 }));
        assert!(ev.is_empty(), "nothing was expired at t=10");
    }

    #[test]
    fn ttl_eviction_is_deterministic_and_frees_capacity() {
        let snap = snap();
        let mut reg = SessionRegistry::new(2, 100);
        let mut ev = Vec::new();
        let a = reg.open(Arc::clone(&snap), 0, 1, &mut ev).unwrap();
        let b = reg.open(Arc::clone(&snap), 50, 2, &mut ev).unwrap();
        // t=120: a (idle 120) is past TTL, b (idle 70) is not.
        let c = reg.open(Arc::clone(&snap), 120, 3, &mut ev).unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].id, a);
        assert_ne!(c, a);
        assert_eq!(reg.ids(), vec![b, c]);
    }

    #[test]
    fn touch_refreshes_and_expires() {
        let snap = snap();
        let mut reg = SessionRegistry::new(4, 100);
        let mut ev = Vec::new();
        let a = reg.open(Arc::clone(&snap), 0, 1, &mut ev).unwrap();
        // Touch at 90 refreshes; 190 is within TTL of 90.
        reg.touch(a, 90, &mut ev).unwrap();
        reg.touch(a, 190, &mut ev).unwrap();
        // 291 is 101 past 190: expired.
        let err = reg.touch(a, 291, &mut ev).unwrap_err();
        assert!(matches!(
            err,
            ServeError::SessionExpired {
                injected: false,
                ..
            }
        ));
        assert_eq!(ev.len(), 1, "expired-on-sight session yields its log");
        let err2 = reg.touch(a, 291, &mut ev).unwrap_err();
        assert!(matches!(err2, ServeError::SessionNotFound { .. }));
    }

    #[test]
    fn close_returns_log_and_drop_discards_it() {
        let snap = snap();
        let mut reg = SessionRegistry::new(4, 100);
        let mut ev = Vec::new();
        let a = reg.open(Arc::clone(&snap), 0, 1, &mut ev).unwrap();
        let root = snap.root();
        {
            let slot = reg.touch(a, 1, &mut ev).unwrap();
            let mut s = lock(&slot);
            s.log.record_walk(&[root]);
        }
        let log = reg.close(a).unwrap();
        // One walk recorded explicitly above + the final walk on close.
        assert_eq!(log.n_sessions(), 2);
        assert!(log.visits(root) >= 2);
        assert!(matches!(
            reg.close(a),
            Err(ServeError::SessionNotFound { .. })
        ));
        let b = reg.open(Arc::clone(&snap), 0, 2, &mut ev).unwrap();
        assert!(reg.drop_abrupt(b));
        assert!(!reg.drop_abrupt(b));
    }
}
