//! Bounded session registry with TTL eviction.
//!
//! A session is the unit of navigation state the service keeps on behalf
//! of one agent: which snapshot it is navigating (pinned by `Arc`, so a
//! hot-swap cannot pull the organization out from under it) and the path
//! from the root.
//!
//! The registry is *bounded*: at most `capacity` live sessions. Open
//! first evicts everything past its TTL (so an idle-session pileup cannot
//! wedge new traffic), then refuses with a typed
//! [`SessionLimit`](crate::ServeError::SessionLimit) if still full.
//! The eviction set is a deterministic function of (registry contents,
//! clock reading), never of thread arrival order.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dln_org::StateId;

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
    /// draws. Returns the new id and the number of sessions TTL-evicted to
    /// make room (a refusal evicted none: any eviction frees a slot).
    pub fn open(
        &mut self,
        snapshot: Arc<OrgSnapshot>,
        now: u64,
        fault_key: u64,
    ) -> ServeResult<(SessionId, usize)> {
        let evicted = if self.sessions.len() >= self.capacity {
            self.evict_expired(now)
        } else {
            0
        };
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
            last_active: now,
            steps: 0,
            fault_key,
        };
        self.sessions.insert(id.0, Arc::new(Mutex::new(session)));
        Ok((id, evicted))
    }

    /// Look up a live session. `now` is used to *check* expiry (an expired
    /// session is evicted on sight and reported as
    /// [`ServeError::SessionExpired`] — the only way this returns it), and
    /// to refresh `last_active` on hit.
    pub fn touch(&mut self, id: SessionId, now: u64) -> ServeResult<Arc<Mutex<Session>>> {
        let Some(slot) = self.sessions.get(&id.0) else {
            return Err(ServeError::SessionNotFound { session: id });
        };
        let expired = {
            let s = lock(slot);
            now.saturating_sub(s.last_active) > self.ttl
        };
        if expired {
            self.sessions.remove(&id.0);
            return Err(ServeError::SessionExpired {
                session: id,
                injected: false,
            });
        }
        let slot = Arc::clone(slot);
        lock(&slot).last_active = now;
        Ok(slot)
    }

    /// Remove a session: a client close, or the `serve.drop_session` chaos
    /// failpoint simulating a crashed worker losing it.
    pub fn close(&mut self, id: SessionId) -> ServeResult<()> {
        match self.sessions.remove(&id.0) {
            Some(_) => Ok(()),
            None => Err(ServeError::SessionNotFound { session: id }),
        }
    }

    /// Evict every session idle longer than the TTL and return how many
    /// went. The eviction set is a pure function of (contents, now).
    pub fn evict_expired(&mut self, now: u64) -> usize {
        let ttl = self.ttl;
        let before = self.sessions.len();
        self.sessions
            .retain(|_, slot| now.saturating_sub(lock(slot).last_active) <= ttl);
        before - self.sessions.len()
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
        reg.open(Arc::clone(&snap), 0, 1).unwrap();
        reg.open(Arc::clone(&snap), 0, 2).unwrap();
        let err = reg.open(Arc::clone(&snap), 10, 3).unwrap_err();
        assert!(matches!(err, ServeError::SessionLimit { capacity: 2 }));
        assert_eq!(reg.len(), 2, "nothing was expired at t=10");
    }

    #[test]
    fn ttl_eviction_is_deterministic_and_frees_capacity() {
        let snap = snap();
        let mut reg = SessionRegistry::new(2, 100);
        let (a, _) = reg.open(Arc::clone(&snap), 0, 1).unwrap();
        let (b, _) = reg.open(Arc::clone(&snap), 50, 2).unwrap();
        // t=120: a (idle 120) is past TTL, b (idle 70) is not.
        let (c, evicted) = reg.open(Arc::clone(&snap), 120, 3).unwrap();
        assert_eq!(evicted, 1);
        assert_ne!(c, a);
        assert_eq!(reg.ids(), vec![b, c]);
    }

    #[test]
    fn touch_refreshes_and_expires() {
        let snap = snap();
        let mut reg = SessionRegistry::new(4, 100);
        let (a, _) = reg.open(Arc::clone(&snap), 0, 1).unwrap();
        // Touch at 90 refreshes; 190 is within TTL of 90.
        reg.touch(a, 90).unwrap();
        reg.touch(a, 190).unwrap();
        // 291 is 101 past 190: expired.
        let err = reg.touch(a, 291).unwrap_err();
        assert!(matches!(
            err,
            ServeError::SessionExpired {
                injected: false,
                ..
            }
        ));
        assert!(reg.is_empty(), "expired-on-sight session is evicted");
        let err2 = reg.touch(a, 291).unwrap_err();
        assert!(matches!(err2, ServeError::SessionNotFound { .. }));
    }

    #[test]
    fn close_removes_once_then_reports_not_found() {
        let snap = snap();
        let mut reg = SessionRegistry::new(4, 100);
        let (a, _) = reg.open(Arc::clone(&snap), 0, 1).unwrap();
        let (b, _) = reg.open(Arc::clone(&snap), 0, 2).unwrap();
        reg.close(a).unwrap();
        assert_eq!(reg.ids(), vec![b], "the closed id is gone");
        assert!(reg.peek(a).is_none());
        assert!(matches!(
            reg.close(a),
            Err(ServeError::SessionNotFound { .. })
        ));
        assert!(matches!(
            reg.touch(a, 1),
            Err(ServeError::SessionNotFound { .. })
        ));
    }
}
