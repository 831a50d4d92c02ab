//! Small measurement helpers: quantiles, process memory, spans.

use std::time::Instant;

/// The `p`-quantile (0..=1) of `v` by nearest rank; `v` need not be sorted.
/// Returns 0 for an empty slice.
pub fn quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * p).round() as usize]
}

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// CPU time the process has used so far (all threads, user + system), s.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, in clock ticks (100 per second).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0.0))
        .collect();
    f.get(11)
        .zip(f.get(12))
        .map_or(0.0, |(u, s)| (u + s) / 100.0)
}

/// Current resident memory, MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Peak resident memory of the process since it started or since the last
/// [`reset_peak`], MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Return the heap's free pages to the system and restart the peak
/// resident memory from the current size, so that the next
/// [`peak_rss_mb`] is one set-up's own and not the memory the allocator
/// kept from an earlier one.
pub fn reset_peak() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap memory;
        // it takes no pointer and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    // "5" resets the process's peak resident size (Linux 4.0 and later).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One timed span: a call into a layer, made from the benchmark's code.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `lake.ingest`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, seconds since the trace began.
    pub start: f64,
    /// End, seconds since the trace began.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Spans kept in memory for one run.
pub struct Trace {
    t0: Instant,
    /// Every span recorded, in start order of their closing.
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Open a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.t0.elapsed().as_secs_f64();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (s) of every span named `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// One line per span name: count and median duration.
    pub fn summary(&self) -> String {
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
            .iter()
            .map(|n| {
                let d = self.secs(n);
                format!("  {n}: {} spans, median {:.6} s\n", d.len(), median(&d))
            })
            .collect()
    }
}
