//! Shared infrastructure for the experiment binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! `DESIGN.md` §3 for the index). All binaries accept:
//!
//! * `--scale <f>`  — size multiplier relative to the binary's default;
//! * `--full`       — run at the paper's full scale (can be slow —
//!   the paper's own full Socrata construction took 12 hours);
//! * `--seed <n>`   — RNG seed;
//! * `--gamma <g>`  — the γ of the transition model (Eq 1);
//! * `--out <dir>`  — CSV output directory (default `target/experiments`).
//!
//! Results are printed as plain-text tables and also written as CSV so the
//! curves can be plotted.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::Write;
use std::path::{Path, PathBuf};

pub mod timing;

/// Parsed common experiment arguments.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Scale multiplier (interpreted per binary).
    pub scale: f64,
    /// Run at the paper's full scale.
    pub full: bool,
    /// RNG seed.
    pub seed: u64,
    /// Transition-model γ.
    pub gamma: f32,
    /// Output directory for CSV files.
    pub out: PathBuf,
}

impl ExpArgs {
    /// Parse from `std::env::args`, with a per-binary default scale.
    pub fn parse(default_scale: f64) -> ExpArgs {
        let mut args = ExpArgs {
            scale: default_scale,
            full: false,
            seed: 42,
            gamma: 20.0,
            out: PathBuf::from("target/experiments"),
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--scale" => {
                    args.scale = argv
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--scale needs a number"));
                    i += 2;
                }
                "--seed" => {
                    args.seed = argv
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--seed needs an integer"));
                    i += 2;
                }
                "--gamma" => {
                    args.gamma = argv
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--gamma needs a number"));
                    i += 2;
                }
                "--out" => {
                    args.out = argv
                        .get(i + 1)
                        .map(PathBuf::from)
                        .unwrap_or_else(|| die("--out needs a path"));
                    i += 2;
                }
                "--full" => {
                    args.full = true;
                    i += 1;
                }
                "--help" | "-h" => {
                    eprintln!("flags: --scale <f> --full --seed <n> --gamma <g> --out <dir>");
                    std::process::exit(0);
                }
                other => die(&format!("unknown flag {other}")),
            }
        }
        args
    }

    /// The effective scale: 1.0 when `--full`, else `scale`.
    pub fn effective_scale(&self) -> f64 {
        if self.full {
            1.0
        } else {
            self.scale
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// The host's available parallelism (1 when it cannot be read) —
/// stamped into every bench JSON beside the commit, since parallel
/// figures mean little without the core count they ran on.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The current git commit (short hash, `+dirty` when the tree has local
/// modifications), or `"unknown"` outside a repository — stamped into
/// every bench JSON so numbers stay traceable to the code that produced
/// them.
pub fn git_commit() -> String {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output();
    let hash = match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => String::new(),
    };
    if hash.is_empty() {
        return "unknown".to_string();
    }
    let dirty = std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .map(|o| o.status.success() && !o.stdout.is_empty())
        .unwrap_or(false);
    if dirty {
        format!("{hash}+dirty")
    } else {
        hash
    }
}

/// The worker counts a bench sweeps over: the canonical `{1, 2, 4, 8}`
/// ladder capped by `DLN_THREADS` when set (else the host parallelism),
/// with the cap itself always included — so the configured operating
/// point is measured even when it is not a power of two, and every bench
/// binary honors the knob the same way.
pub fn thread_sweep() -> Vec<usize> {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cap = std::env::var("DLN_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(host);
    let mut sweep: Vec<usize> = [1, 2, 4, 8].into_iter().filter(|&t| t <= cap).collect();
    if !sweep.contains(&cap) {
        sweep.push(cap);
    }
    if sweep.is_empty() {
        sweep.push(1);
    }
    sweep.sort_unstable();
    sweep
}

/// Write a CSV file of named columns (columns may have different lengths;
/// missing cells are left empty).
pub fn write_csv(dir: &Path, name: &str, columns: &[(&str, &[f64])]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let header: Vec<&str> = columns.iter().map(|(n, _)| *n).collect();
    writeln!(f, "{}", header.join(","))?;
    let rows = columns.iter().map(|(_, c)| c.len()).max().unwrap_or(0);
    for r in 0..rows {
        let row: Vec<String> = columns
            .iter()
            .map(|(_, c)| c.get(r).map(|v| format!("{v}")).unwrap_or_default())
            .collect();
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(path)
}

/// Render a fixed-width text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Summarize a success curve for the textual report: mean plus a few
/// quantiles of the sorted per-table values.
pub fn curve_summary(values: &[f64]) -> String {
    if values.is_empty() {
        return "empty".to_string();
    }
    let q = |p: f64| values[((values.len() - 1) as f64 * p) as usize];
    format!(
        "mean={:.3} p10={:.3} p50={:.3} p90={:.3}",
        values.iter().sum::<f64>() / values.len() as f64,
        q(0.1),
        q(0.5),
        q(0.9)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dln_bench_test_{}", std::process::id()));
        let a = [1.0, 2.0];
        let b = [3.0];
        let path = write_csv(&dir, "t.csv", &[("a", &a), ("b", &b)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text, "a,b\n1,3\n2,\n");
    }

    #[test]
    fn thread_sweep_is_sorted_dedup_nonempty() {
        let sweep = thread_sweep();
        assert!(!sweep.is_empty());
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sweep[0], 1);
    }

    #[test]
    fn git_commit_is_nonempty() {
        assert!(!git_commit().is_empty());
    }

    #[test]
    fn curve_summary_formats() {
        let s = curve_summary(&[0.0, 0.5, 1.0]);
        assert!(s.contains("mean=0.500"));
        assert_eq!(curve_summary(&[]), "empty");
    }
}
