//! A vendored, dependency-free subset of the `rayon` API.
//!
//! The build environment has no access to a crate registry, so this
//! workspace ships the slice of `rayon` its hot loops actually use:
//! [`par_map`] and [`ParallelSliceMut::par_chunks_mut`] plus `zip` /
//! `enumerate` / `for_each` / `for_each_init` on the resulting indexed
//! iterators. It is the one fan-out path of the construction and
//! evaluation crates (`dln-org`, `dln-cluster`, `dln-lake`, `dln-embed`,
//! `dln-search`, `dln-synth`): none of them starts a thread of its own.
//!
//! Implementation: each combinator is a concrete splittable cursor; a
//! terminal `for_each` splits the item range into one contiguous span per
//! worker and drains the spans on `std::thread::scope` threads. There is
//! no work stealing — the evaluator's per-query items are uniform enough
//! that static partitioning loses nothing, and contiguous spans keep each
//! worker streaming over adjacent memory.
//!
//! **Determinism:** every item is processed exactly once, with exclusive
//! access to its chunk, by per-item code identical to the sequential path,
//! so results are bit-for-bit equal for *any* thread count (including the
//! inline single-threaded fallback).
//!
//! Thread count resolution order: the calling thread's
//! [`with_num_threads`] override, then the `RAYON_NUM_THREADS` /
//! `DLN_THREADS` environment variables, then
//! `std::thread::available_parallelism` (read once per process: on Linux
//! it reads the cgroup CPU quota, which is too slow to ask per parallel
//! call). A chunk loop with fewer than [`MIN_ITEMS_PER_THREAD`] items
//! per worker runs inline ([`par_map`] takes no such floor: its items are
//! units the caller chose), and so does every parallel call made on one
//! of the facade's own workers: nested calls never start a second layer
//! of threads.

#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::OnceLock;

/// Below this many items per would-be worker, a chunk loop's `for_each`
/// runs inline — spawn overhead (~tens of µs) would exceed the work.
/// [`par_map`] does not apply it.
pub const MIN_ITEMS_PER_THREAD: usize = 2;

/// The host's parallelism, asked of the OS on first use.
static HARDWARE_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// This thread's [`with_num_threads`] override (0: none).
    static NUM_THREADS_OVERRIDE: Cell<usize> = const { Cell::new(0) };

    /// Set on the facade's own worker threads: parallel calls made there
    /// run inline (`std::thread::scope` has no shared pool to absorb
    /// oversubscription).
    static FORCE_INLINE: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with parallel calls made on this thread using `n` workers (0:
/// the environment / hardware default). The override belongs to the
/// calling thread alone, so concurrent callers (tests of one binary, say)
/// never see each other's count, and the previous value comes back when
/// `f` returns or panics. Used by benchmarks and the thread-count
/// equivalence tests.
pub fn with_num_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            NUM_THREADS_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(NUM_THREADS_OVERRIDE.with(|c| c.replace(n)));
    f()
}

/// The number of workers parallel calls on this thread will use: 1 on a
/// facade worker, else the [`with_num_threads`] override, else
/// `RAYON_NUM_THREADS`, else `DLN_THREADS`, else the hardware parallelism
/// (cached for the process; the environment is read on every call).
pub fn current_num_threads() -> usize {
    if FORCE_INLINE.with(Cell::get) {
        return 1;
    }
    let o = NUM_THREADS_OVERRIDE.with(Cell::get);
    if o > 0 {
        return o;
    }
    for var in ["RAYON_NUM_THREADS", "DLN_THREADS"] {
        if let Some(n) = std::env::var(var)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            if n > 0 {
                return n;
            }
        }
    }
    *HARDWARE_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Indexed parallel map: computes `f(0), f(1), …, f(n − 1)` across the
/// worker pool and returns the results **in index order** — the facade's
/// equivalent of `(0..n).into_par_iter().map(f).collect()`.
///
/// Work is split into one contiguous index span per worker; each result is
/// written into its own pre-sized slot, so output order (and therefore any
/// fold the caller runs over it) is independent of the thread count. `f`
/// must not care which thread it runs on.
///
/// Each index is a unit of work the caller chose (a shard, a dimension, a
/// file, a strip), so the map spreads over `min(n, threads)` workers with
/// no [`MIN_ITEMS_PER_THREAD`] floor: two shards at two threads get a
/// worker each.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(n, || None);
    drain_spans(
        out.par_chunks_mut(1).enumerate(),
        current_num_threads().min(n),
        || (),
        |(), (i, slot)| slot[0] = Some(f(i)),
    );
    out.into_iter()
        .map(|v| v.expect("par_map covered every index"))
        .collect()
}

/// The traits hot loops import with `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::{IndexedParallelIterator, ParallelSliceMut};
}

/// Slices that can be iterated as parallel mutable chunks.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks of
    /// `chunk_size` elements (the last chunk may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// A splittable cursor over a fixed number of items: the engine behind
/// every combinator here. `split_at` partitions the remaining items;
/// `next` drains them sequentially within one worker's span.
pub trait IndexedParallelIterator: Sized + Send {
    /// The item type handed to `for_each`.
    type Item: Send;

    /// Remaining item count.
    fn len(&self) -> usize;

    /// True when no items remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Split into the first `index` items and the rest.
    fn split_at(self, index: usize) -> (Self, Self);

    /// Produce the next item (sequential drain within a span).
    fn next_item(&mut self) -> Option<Self::Item>;

    /// Pair this iterator with another, yielding item tuples. Lengths must
    /// agree for the pairing to cover both sides (mismatches stop at the
    /// shorter, as with sequential `zip`).
    fn zip<B: IndexedParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    /// Attach the item index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            inner: self,
            offset: 0,
        }
    }

    /// Consume every item, in parallel when the work warrants it.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        self.for_each_init(|| (), |(), item| f(item));
    }

    /// Like [`for_each`], with per-worker state built by `init` — the
    /// rayon idiom for reusable scratch buffers.
    ///
    /// [`for_each`]: IndexedParallelIterator::for_each
    fn for_each_init<S, I, F>(self, init: I, f: F)
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, Self::Item) + Sync,
    {
        let workers = current_num_threads().min(self.len().div_ceil(MIN_ITEMS_PER_THREAD));
        drain_spans(self, workers, init, f);
    }
}

/// Drain `iter` on `workers` threads (inline when fewer than two), one
/// contiguous span per worker, each with its own `init` state.
fn drain_spans<P, S, I, F>(iter: P, workers: usize, init: I, f: F)
where
    P: IndexedParallelIterator,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, P::Item) + Sync,
{
    let n = iter.len();
    if n == 0 {
        return;
    }
    if workers <= 1 {
        let mut cursor = iter;
        let mut state = init();
        while let Some(item) = cursor.next_item() {
            f(&mut state, item);
        }
        return;
    }
    // Contiguous spans, sized within one item of each other.
    let mut spans = Vec::with_capacity(workers);
    let mut rest = iter;
    let mut remaining = n;
    for w in 0..workers {
        let take = remaining.div_ceil(workers - w);
        let (head, tail) = rest.split_at(take);
        spans.push(head);
        rest = tail;
        remaining -= take;
    }
    let f = &f;
    let init = &init;
    std::thread::scope(|scope| {
        for mut span in spans {
            scope.spawn(move || {
                FORCE_INLINE.with(|c| c.set(true));
                let mut state = init();
                while let Some(item) = span.next_item() {
                    f(&mut state, item);
                }
            });
        }
    });
}

/// Parallel iterator over mutable chunks of a slice.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> IndexedParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk_size)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.chunk_size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(mid);
        (
            ParChunksMut {
                slice: a,
                chunk_size: self.chunk_size,
            },
            ParChunksMut {
                slice: b,
                chunk_size: self.chunk_size,
            },
        )
    }

    fn next_item(&mut self) -> Option<Self::Item> {
        if self.slice.is_empty() {
            return None;
        }
        let at = self.chunk_size.min(self.slice.len());
        let (head, tail) = std::mem::take(&mut self.slice).split_at_mut(at);
        self.slice = tail;
        Some(head)
    }
}

/// Pairing of two indexed parallel iterators.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: IndexedParallelIterator, B: IndexedParallelIterator> IndexedParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a1, a2) = self.a.split_at(index);
        let (b1, b2) = self.b.split_at(index);
        (Zip { a: a1, b: b1 }, Zip { a: a2, b: b2 })
    }

    fn next_item(&mut self) -> Option<Self::Item> {
        match (self.a.next_item(), self.b.next_item()) {
            (Some(a), Some(b)) => Some((a, b)),
            _ => None,
        }
    }
}

/// Index-attaching adaptor.
pub struct Enumerate<I> {
    inner: I,
    offset: usize,
}

impl<I: IndexedParallelIterator> IndexedParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.inner.split_at(index);
        (
            Enumerate {
                inner: a,
                offset: self.offset,
            },
            Enumerate {
                inner: b,
                offset: self.offset + index,
            },
        )
    }

    fn next_item(&mut self) -> Option<Self::Item> {
        let item = self.inner.next_item()?;
        let i = self.offset;
        self.offset += 1;
        Some((i, item))
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn chunks_cover_slice_once() {
        let mut v: Vec<u64> = vec![0; 1000];
        v.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
            for x in chunk.iter_mut() {
                *x += 1 + i as u64;
            }
        });
        // Every element written exactly once, with its chunk index.
        for (j, &x) in v.iter().enumerate() {
            assert_eq!(x, 1 + (j / 7) as u64);
        }
    }

    #[test]
    fn zip_pairs_aligned_chunks() {
        let mut a = vec![0u32; 60];
        let mut b = [0u32; 20];
        a.par_chunks_mut(3)
            .zip(b.par_chunks_mut(1))
            .enumerate()
            .for_each(|(i, (ca, cb))| {
                for x in ca.iter_mut() {
                    *x = i as u32;
                }
                cb[0] = i as u32 * 10;
            });
        assert!(a.iter().enumerate().all(|(j, &x)| x == (j / 3) as u32));
        assert!(b.iter().enumerate().all(|(j, &x)| x == j as u32 * 10));
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let run = |threads: usize| {
            with_num_threads(threads, || {
                let mut v: Vec<f64> = vec![0.0; 997];
                v.par_chunks_mut(5).enumerate().for_each(|(i, chunk)| {
                    for (k, x) in chunk.iter_mut().enumerate() {
                        *x = ((i * 31 + k) as f64).sin();
                    }
                });
                v
            })
        };
        let serial = run(1);
        for t in [2, 4, 8] {
            let par = run(t);
            assert!(serial
                .iter()
                .zip(&par)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn for_each_init_reuses_state_within_span() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let mut v = [0u8; 64];
        with_num_threads(4, || {
            v.par_chunks_mut(1).for_each_init(
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<u8>::new()
                },
                |scratch, chunk| {
                    scratch.push(0);
                    chunk[0] = 1;
                },
            )
        });
        assert!(inits.load(Ordering::Relaxed) <= 4, "one init per worker");
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn empty_input_is_a_noop() {
        let mut v: Vec<u32> = Vec::new();
        v.par_chunks_mut(4).for_each(|_| panic!("no items"));
    }

    #[test]
    fn par_map_preserves_index_order() {
        for t in [1usize, 3, 8] {
            let v = with_num_threads(t, || par_map(257, |i| i * i));
            assert_eq!(v.len(), 257);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i * i));
        }
        assert!(par_map(0, |i| i).is_empty());
    }

    #[test]
    fn par_map_gives_each_item_a_worker() {
        // Two items at two threads: one worker each, no per-worker floor.
        let ids = with_num_threads(2, || par_map(2, |_| std::thread::current().id()));
        assert_ne!(ids[0], ids[1]);
        assert!(ids.iter().all(|&id| id != std::thread::current().id()));
        // A chunk loop keeps its floor: two one-element chunks run inline.
        let mut v = [0u8; 2];
        let caller = std::thread::current().id();
        with_num_threads(2, || {
            v.par_chunks_mut(1).for_each(|c| {
                assert_eq!(std::thread::current().id(), caller);
                c[0] = 1;
            })
        });
        assert_eq!(v, [1, 1]);
    }

    #[test]
    fn nested_calls_run_on_the_worker_thread() {
        // Each outer item runs on a facade worker; the inner loop must stay
        // on that worker's thread instead of spawning a second layer.
        let outer = std::thread::current().id();
        let per_item = with_num_threads(4, || {
            par_map(8, |_| {
                let worker = std::thread::current().id();
                let ids = std::sync::Mutex::new(Vec::new());
                let mut v = [0u8; 64];
                v.par_chunks_mut(1).for_each(|chunk| {
                    chunk[0] = 1;
                    ids.lock().unwrap().push(std::thread::current().id());
                });
                assert!(v.iter().all(|&x| x == 1));
                assert_eq!(current_num_threads(), 1, "a worker reports one thread");
                (worker, ids.into_inner().unwrap())
            })
        });
        for (worker, ids) in per_item {
            assert_ne!(worker, outer, "the outer call fans out at 4 threads");
            assert!(ids.iter().all(|&id| id == worker), "nested call spawned");
        }
        // The caller's own thread is not pinned by its workers.
        assert_eq!(with_num_threads(4, current_num_threads), 4);
    }

    #[test]
    fn overrides_are_scoped_to_the_calling_thread() {
        // In each round both threads hold their own override at once (the
        // first barrier) while they read the count, and each must read its
        // own.
        let both_set = std::sync::Barrier::new(2);
        let both_read = std::sync::Barrier::new(2);
        let misreads = |n: usize| {
            (0..1000)
                .filter(|_| {
                    with_num_threads(n, || {
                        both_set.wait();
                        let seen = current_num_threads();
                        both_read.wait();
                        seen != n
                    })
                })
                .count()
        };
        let (at_four, at_one) = std::thread::scope(|s| {
            let other = s.spawn(|| misreads(1));
            (misreads(4), other.join().unwrap())
        });
        assert_eq!(
            (at_four, at_one),
            (0, 0),
            "an override leaked across threads"
        );
    }

    #[test]
    fn override_is_restored_on_return_and_on_panic() {
        with_num_threads(3, || {
            assert_eq!(with_num_threads(5, current_num_threads), 5);
            assert_eq!(current_num_threads(), 3);
            let caught = std::panic::catch_unwind(|| with_num_threads(7, || panic!("inside")));
            assert!(caught.is_err());
            assert_eq!(current_num_threads(), 3, "restored after a panic");
        });
    }

    #[test]
    fn hardware_count_is_cached_and_overrides_stay_live() {
        const VARS: [&str; 2] = ["RAYON_NUM_THREADS", "DLN_THREADS"];
        let saved: Vec<_> = VARS.iter().map(std::env::var_os).collect();
        VARS.iter().for_each(|v| std::env::remove_var(v));
        let hardware = current_num_threads();
        assert_eq!(
            HARDWARE_THREADS.get(),
            Some(&hardware),
            "cached on first use"
        );
        std::env::set_var("DLN_THREADS", "5");
        assert_eq!(current_num_threads(), 5);
        std::env::set_var("RAYON_NUM_THREADS", "7");
        assert_eq!(current_num_threads(), 7, "RAYON_NUM_THREADS wins");
        assert_eq!(
            with_num_threads(2, current_num_threads),
            2,
            "the override wins"
        );
        assert_eq!(current_num_threads(), 7);
        VARS.iter().for_each(|v| std::env::remove_var(v));
        assert_eq!(current_num_threads(), hardware);
        for (var, value) in VARS.iter().zip(saved) {
            if let Some(v) = value {
                std::env::set_var(var, v);
            }
        }
    }
}
