//! Admission control: a counting semaphore with a bounded wait queue.
//!
//! Load shedding is the difference between a service that degrades and one
//! that collapses: past the concurrency limit, requests briefly queue; past
//! the queue bound they are *refused immediately* with a typed
//! [`Overloaded`](crate::ServeError::Overloaded) carrying a retry-after
//! hint, instead of piling up latency for everyone already admitted.
//!
//! Implemented as a hand-rolled `Mutex` + `Condvar` semaphore (the
//! workspace is dependency-free by policy; `std` has no semaphore). The
//! permit is RAII: dropping it releases the slot and wakes one waiter.

use std::sync::{Condvar, Mutex};

use crate::error::{ServeError, ServeResult};

struct GateState {
    active: usize,
    waiting: usize,
}

/// Bounded-concurrency admission gate.
pub struct AdmissionGate {
    state: Mutex<GateState>,
    cv: Condvar,
    max_active: usize,
    max_waiting: usize,
    retry_base_ms: u64,
}

/// RAII admission permit; releases its slot on drop.
pub struct Permit<'g> {
    gate: &'g AdmissionGate,
}

impl std::fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Permit")
    }
}

impl AdmissionGate {
    /// A gate admitting `max_active` concurrent requests with up to
    /// `max_waiting` queued behind them. `retry_base_ms` scales the
    /// retry-after hint on shed requests.
    pub fn new(max_active: usize, max_waiting: usize, retry_base_ms: u64) -> AdmissionGate {
        AdmissionGate {
            state: Mutex::new(GateState {
                active: 0,
                waiting: 0,
            }),
            cv: Condvar::new(),
            max_active: max_active.max(1),
            max_waiting,
            retry_base_ms: retry_base_ms.max(1),
        }
    }

    /// Acquire a permit, blocking in the bounded queue if the service is at
    /// its concurrency limit. Returns [`ServeError::Overloaded`] without
    /// blocking when the queue is also full.
    pub fn admit(&self) -> ServeResult<Permit<'_>> {
        let mut st = lock_state(&self.state);
        if st.active < self.max_active {
            st.active += 1;
            return Ok(Permit { gate: self });
        }
        if st.waiting >= self.max_waiting {
            // Hint scales with how far behind the service is: a full queue
            // of W requests at base B suggests waiting roughly one queue
            // drain.
            let retry_after_ms = self.retry_base_ms * (self.max_waiting as u64 + 1);
            return Err(ServeError::Overloaded { retry_after_ms });
        }
        st.waiting += 1;
        while st.active >= self.max_active {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        st.waiting -= 1;
        st.active += 1;
        Ok(Permit { gate: self })
    }

    /// Currently admitted request count (diagnostic).
    pub fn active(&self) -> usize {
        lock_state(&self.state).active
    }

    /// Currently queued request count (diagnostic).
    pub fn waiting(&self) -> usize {
        lock_state(&self.state).waiting
    }

    fn release(&self) {
        let mut st = lock_state(&self.state);
        st.active = st.active.saturating_sub(1);
        drop(st);
        self.cv.notify_one();
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

fn lock_state(m: &Mutex<GateState>) -> std::sync::MutexGuard<'_, GateState> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn admits_up_to_limit_then_sheds_past_queue() {
        let gate = AdmissionGate::new(2, 0, 10);
        let p1 = gate.admit().unwrap();
        let p2 = gate.admit().unwrap();
        let err = gate.admit().unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { retry_after_ms: 10 }));
        drop(p1);
        let _p3 = gate.admit().unwrap();
        drop(p2);
    }

    #[test]
    fn queued_requests_run_after_release() {
        let gate = Arc::new(AdmissionGate::new(1, 8, 5));
        let ran = Arc::new(AtomicUsize::new(0));
        let p = gate.admit().unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = Arc::clone(&gate);
            let r = Arc::clone(&ran);
            handles.push(std::thread::spawn(move || {
                let _p = g.admit().unwrap();
                r.fetch_add(1, Ordering::SeqCst);
            }));
        }
        // Give the workers time to hit the queue, then open the gate.
        while gate.waiting() < 4 {
            std::thread::yield_now();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0, "all queued behind permit");
        drop(p);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 4);
        assert_eq!(gate.active(), 0);
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn shed_hint_scales_with_queue_depth() {
        let gate = AdmissionGate::new(1, 3, 7);
        let _p = gate.admit().unwrap();
        // Fill the queue from threads, then overflow from here.
        let gate = &gate;
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(move || {
                    let _q = gate.admit().unwrap();
                });
            }
            while gate.waiting() < 3 {
                std::thread::yield_now();
            }
            match gate.admit() {
                Err(ServeError::Overloaded { retry_after_ms }) => {
                    assert_eq!(retry_after_ms, 7 * 4)
                }
                other => panic!("expected shed, got {:?}", other.map(|_| ())),
            }
            drop(_p);
        });
    }
}
