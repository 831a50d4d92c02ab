//! Deterministic, env-gated failpoints.
//!
//! A *failpoint* is a named site in production code that can be made to
//! fail artificially. Sites are armed through the `DLN_FAILPOINTS`
//! environment variable:
//!
//! ```text
//! DLN_FAILPOINTS=ingest.read:0.2:7,checkpoint.torn:1.0:0
//! ```
//!
//! Each entry is `name:probability:seed`. On the `n`-th hit of a site, a
//! uniform draw is taken from a SplitMix64 stream indexed by `(seed, n)`
//! and the site fails when the draw is below `probability` — so a given
//! configuration produces the *same* fault schedule in every run, which is
//! what lets the bit-exactness property tests assert that a faulted
//! pipeline still matches the fault-free result.
//!
//! With nothing configured, [`should_fail`] is a single relaxed atomic
//! load — cheap enough to leave in release hot paths.
//!
//! Tests arm failpoints programmatically with [`scoped`], which serializes
//! concurrent scoped users on a global lock and restores the previous
//! configuration (usually the environment's) on drop.
//!
//! Failpoint catalog (see DESIGN.md §5c):
//!
//! | site                 | effect when it fires                                  |
//! |----------------------|-------------------------------------------------------|
//! | `ingest.read`        | a CSV file read is treated as an IO error → quarantine |
//! |                      | (keyed by the file's index in sorted order)            |
//! | `checkpoint.torn`    | a checkpoint write is truncated mid-buffer (torn write)|
//! | `search.kill`        | the search stops at a round boundary (simulated crash) |
//! | `serve.slow`         | a navigation request is charged a deadline-blowing     |
//! |                      | virtual delay → the response degrades to cached labels |
//! | `serve.drop_session` | the serving layer loses a session mid-step (typed      |
//! |                      | `SessionExpired { injected: true }` to the client)     |
//! | `serve.swap_race`    | a step yields mid-request to widen the snapshot        |
//! |                      | hot-swap race window, then re-resolves its epoch       |
//! | `store.torn`         | an organization-store write is truncated mid-buffer    |
//! | `store.mmap`         | the store's mmap open fails → heap-buffer fallback     |
//! | `churn.log_torn`     | a CDC change-log append is truncated mid-frame and     |
//! |                      | reported as an error (the ingest is not acknowledged)  |
//! | `churn.crash_mid_plan` | the maintainer aborts right after durably committing |
//! |                      | a maintenance plan, before any mutation                |
//! | `churn.crash_mid_apply` | the maintainer aborts after the rebase and donor    |
//! |                      | sheds, before any shard re-search                      |
//! | `churn.search_kill`  | the maintainer aborts between per-shard search slices  |
//! |                      | (the per-shard checkpoint on disk is the restart point)|
//! | `churn.crash_mid_publish` | the maintainer aborts after validating the next   |
//! |                      | organization, before staging the shard-scoped publish  |
//! | `net.accept_fail`    | a freshly accepted connection is dropped before it is  |
//! |                      | registered (the client reconnects)                     |
//! | `net.read_torn`      | a readiness worth of input is discarded and the        |
//! |                      | connection torn down mid-request (client resends)      |
//! | `net.write_partial`  | responses flush one byte per readiness edge, forcing   |
//! |                      | the partial-write resumption path                      |
//! | `net.conn_drop`      | the connection dies after a step is dispatched and     |
//! |                      | cached but before the response writes (exactly-once    |
//! |                      | replay on the client's resend)                         |
//!
//! The consolidated catalog — every site, the phase it guards, and the
//! test binary exercising it — lives in the README's fault-tolerance
//! section.
//!
//! The `serve.*` sites, `net.conn_drop` and `ingest.read` use
//! [`should_fail_keyed`]: the fire decision is a pure function of
//! `(armed seed, caller key)`, independent of the global hit counter, so
//! concurrent sessions see the same fault schedule no matter how the
//! scheduler interleaves them (`net.conn_drop` keys on the request
//! identity `session ⊕ seq`, which is also what guarantees a client's
//! retried request — a dedup-cache hit that skips the failpoint —
//! terminates the fault loop; `ingest.read` keys on the file's index in
//! sorted order, so file-parallel ingest faults the same files at every
//! thread count).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};

use crate::error::DlnError;

#[derive(Clone, Debug)]
struct Site {
    name: String,
    prob: f64,
    seed: u64,
    hits: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static INIT: Once = Once::new();

fn state() -> &'static Mutex<Vec<Site>> {
    static STATE: OnceLock<Mutex<Vec<Site>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(Vec::new()))
}

fn scope_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking failpoint test must not poison the harness for everyone
    // else; the guarded data is always left consistent.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn init_from_env() {
    INIT.call_once(|| {
        let spec = std::env::var("DLN_FAILPOINTS").unwrap_or_default();
        match parse_spec(&spec) {
            Ok(sites) => {
                install(sites);
            }
            Err(e) => eprintln!("warning: ignoring DLN_FAILPOINTS: {e}"),
        }
    });
}

fn install(sites: Vec<Site>) -> Vec<Site> {
    let mut st = lock(state());
    ACTIVE.store(!sites.is_empty(), Ordering::Relaxed);
    std::mem::replace(&mut *st, sites)
}

fn parse_spec(spec: &str) -> Result<Vec<Site>, DlnError> {
    let mut sites = Vec::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let mut parts = entry.split(':');
        let (Some(name), Some(prob), Some(seed), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(DlnError::InvalidConfig(format!(
                "failpoint entry `{entry}` is not name:prob:seed"
            )));
        };
        let prob: f64 = prob.parse().map_err(|_| {
            DlnError::InvalidConfig(format!("failpoint `{name}`: bad probability `{prob}`"))
        })?;
        if !(0.0..=1.0).contains(&prob) {
            return Err(DlnError::InvalidConfig(format!(
                "failpoint `{name}`: probability {prob} outside [0, 1]"
            )));
        }
        let seed: u64 = seed.parse().map_err(|_| {
            DlnError::InvalidConfig(format!("failpoint `{name}`: bad seed `{seed}`"))
        })?;
        sites.push(Site {
            name: name.to_string(),
            prob,
            seed,
            hits: 0,
        });
    }
    Ok(sites)
}

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Should the failpoint `site` fire on this hit?
///
/// Unarmed sites (the normal case) cost one relaxed atomic load. Armed
/// sites draw from their deterministic `(seed, hit-counter)` stream.
pub fn should_fail(site: &str) -> bool {
    init_from_env();
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    let mut st = lock(state());
    let Some(s) = st.iter_mut().find(|s| s.name == site) else {
        return false;
    };
    s.hits += 1;
    if s.prob >= 1.0 {
        return true;
    }
    let draw = splitmix64(s.seed ^ s.hits.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    ((draw >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < s.prob
}

/// Keyed variant of [`should_fail`]: the decision for `(site, key)` is a
/// pure function of the armed `(probability, seed)` and the caller's `key`
/// — the global hit counter is neither read nor advanced.
///
/// This is the right form for concurrent callers: with [`should_fail`],
/// which hit of a site fires depends on the order threads reach it, so a
/// fault schedule observed under one interleaving is not reproducible
/// under another. A keyed site fires for exactly the same keys in every
/// run and under every interleaving, which is what lets the serving
/// layer's chaos tests demand bit-equal per-session counters from serial
/// and concurrent executions. Callers key by something session-local,
/// e.g. `session_seed ⊕ step_index`.
pub fn should_fail_keyed(site: &str, key: u64) -> bool {
    init_from_env();
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    let st = lock(state());
    let Some(s) = st.iter().find(|s| s.name == site) else {
        return false;
    };
    if s.prob >= 1.0 {
        return true;
    }
    let draw = splitmix64(s.seed ^ key.wrapping_mul(0xD134_2543_DE82_EF95));
    ((draw >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < s.prob
}

/// Is the failpoint `site` armed at all (at any probability)?
///
/// Lets code skip fault-only bookkeeping entirely in the unarmed case.
pub fn is_armed(site: &str) -> bool {
    init_from_env();
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    lock(state()).iter().any(|s| s.name == site)
}

/// A scoped failpoint configuration: holds the global scope lock (so
/// concurrent scoped users — e.g. parallel tests — serialize) and restores
/// the previous configuration when dropped.
pub struct ScopedFailpoints {
    _scope: MutexGuard<'static, ()>,
    prev: Option<Vec<Site>>,
}

/// Arm the failpoints in `spec` (same grammar as `DLN_FAILPOINTS`; the
/// empty string disarms everything) for the lifetime of the returned
/// guard. Hit counters start at zero, so scoped schedules are reproducible
/// regardless of what ran before.
pub fn scoped(spec: &str) -> Result<ScopedFailpoints, DlnError> {
    init_from_env();
    let sites = parse_spec(spec)?;
    let guard = lock(scope_lock());
    let prev = install(sites);
    Ok(ScopedFailpoints {
        _scope: guard,
        prev: Some(prev),
    })
}

impl Drop for ScopedFailpoints {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            install(prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_never_fail() {
        let _guard = scoped("").expect("empty spec parses");
        for _ in 0..100 {
            assert!(!should_fail("nonexistent.site"));
        }
        assert!(!is_armed("nonexistent.site"));
    }

    #[test]
    fn probability_one_always_fires() {
        let _guard = scoped("a.site:1.0:3").unwrap();
        assert!(is_armed("a.site"));
        for _ in 0..20 {
            assert!(should_fail("a.site"));
        }
        assert!(!should_fail("other.site"));
    }

    #[test]
    fn probability_zero_never_fires() {
        let _guard = scoped("a.site:0.0:3").unwrap();
        assert!(is_armed("a.site"));
        for _ in 0..20 {
            assert!(!should_fail("a.site"));
        }
    }

    #[test]
    fn schedules_are_deterministic_and_seed_dependent() {
        let schedule = |seed: u64| -> Vec<bool> {
            let _guard = scoped(&format!("s.x:0.5:{seed}")).unwrap();
            (0..64).map(|_| should_fail("s.x")).collect()
        };
        let a = schedule(7);
        let b = schedule(7);
        assert_eq!(a, b, "same seed, same schedule");
        let c = schedule(8);
        assert_ne!(a, c, "different seed, different schedule");
        let fires = a.iter().filter(|f| **f).count();
        assert!((10..=54).contains(&fires), "p=0.5 fires ~half: {fires}");
    }

    #[test]
    fn scoped_restores_previous_configuration() {
        {
            let _outer = scoped("outer.site:1.0:1").unwrap();
            assert!(should_fail("outer.site"));
        }
        // After the guard drops, the site is gone.
        assert!(!is_armed("outer.site"));
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(scoped("noprob").is_err());
        assert!(scoped("a:1.5:0").is_err());
        assert!(scoped("a:x:0").is_err());
        assert!(scoped("a:0.5:notanumber").is_err());
        assert!(scoped("a:0.5:1:extra").is_err());
    }

    #[test]
    fn keyed_draws_ignore_hit_order_and_differ_by_key() {
        let _guard = scoped("k.site:0.5:9").unwrap();
        // Same key, same answer, regardless of how many unkeyed hits (or
        // other keys) happened in between.
        let first: Vec<bool> = (0..64).map(|k| should_fail_keyed("k.site", k)).collect();
        for _ in 0..10 {
            should_fail("k.site"); // churn the hit counter
        }
        let second: Vec<bool> = (0..64).map(|k| should_fail_keyed("k.site", k)).collect();
        let reversed: Vec<bool> = (0..64)
            .rev()
            .map(|k| should_fail_keyed("k.site", k))
            .collect();
        assert_eq!(first, second, "keyed draws are hit-counter independent");
        let mut rev = reversed;
        rev.reverse();
        assert_eq!(first, rev, "keyed draws are call-order independent");
        let fires = first.iter().filter(|f| **f).count();
        assert!((10..=54).contains(&fires), "p=0.5 fires ~half: {fires}");
    }

    #[test]
    fn keyed_respects_arming_and_extremes() {
        {
            let _guard = scoped("").unwrap();
            assert!(!should_fail_keyed("k.site", 3));
        }
        let _guard = scoped("a.site:1.0:0,b.site:0.0:0").unwrap();
        assert!(should_fail_keyed("a.site", 7));
        assert!(!should_fail_keyed("b.site", 7));
        assert!(!should_fail_keyed("unarmed.site", 7));
    }
}
