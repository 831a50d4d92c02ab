//! Serving-layer latency benchmark: emits `BENCH_serve.json`.
//!
//! Measures per-step latency of [`NavService::step`] — the request path a
//! navigating user actually waits on — under increasing concurrency, in
//! three regimes:
//!
//! 1. **Quiet** — N agent threads stepping, nothing else happening: the
//!    baseline cost of admission + session lock + Eq 1 child ranking.
//! 2. **Hot-swap** — the same fleet while a publisher thread publishes
//!    [`HOT_SWAP_EPOCHS`] alternating organizations at fixed points of
//!    every walk: measures what epoch migration (path replay +
//!    label-cache cold starts) does to the tail. The epochs are fixed in
//!    number and place, so runs compare step cost, not publish rate.
//! 3. **Deadline** — the quiet fleet with a tight per-request deadline and
//!    the `serve.slow` failpoint charging virtual stalls: measures the
//!    degraded path (label-only rendering) and reports the degraded
//!    fraction.
//!
//! Reports p50/p95/p99 step latency, throughput, and the service counters
//! for each cell. Flags: `--attrs <n>` (default 600), `--steps <n>` per
//! agent (default 400), `--seed <n>`, `--out <path>` (default
//! `BENCH_serve.json`).
//!
//! [`NavService::step`]: dln_serve::NavService::step

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use dln_bench::{git_commit, host_threads, thread_sweep};
use dln_org::eval::NavConfig;
use dln_org::{clustering_org, flat_org, OrgContext};
use dln_serve::{
    NavService, ServeConfig, ServeError, SessionId, StepAction, StepRequest, StepResponse,
};
use dln_synth::TagCloudConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct Args {
    attrs: usize,
    steps: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        attrs: 600,
        steps: 400,
        seed: 42,
        out: "BENCH_serve.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |j: usize| -> &str {
            argv.get(j).map(|s| s.as_str()).unwrap_or_else(|| {
                eprintln!("error: {} needs a value", argv[j - 1]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--attrs" => {
                args.attrs = need(i + 1).parse().expect("--attrs: integer");
                i += 2;
            }
            "--steps" => {
                args.steps = need(i + 1).parse().expect("--steps: integer");
                i += 2;
            }
            "--seed" => {
                args.seed = need(i + 1).parse().expect("--seed: integer");
                i += 2;
            }
            "--out" => {
                args.out = need(i + 1).to_string();
                i += 2;
            }
            "--help" | "-h" => {
                eprintln!("flags: --attrs <n> --steps <n> --seed <n> --out <path>");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Epochs the publisher lands during each hot-swap cell.
const HOT_SWAP_EPOCHS: u64 = 8;

/// Lands [`HOT_SWAP_EPOCHS`] publishes at the same points of every walk:
/// epoch `k` is published once every agent has made `k · steps / (E + 1)`
/// steps, and no agent takes a step past that point before it lands. The
/// waits are outside the timed section.
struct EpochGate {
    /// Steps made so far by each agent (`usize::MAX` once it stopped).
    progress: Vec<AtomicUsize>,
    /// Epochs published so far. Stored with `Release` after the publish
    /// returns and loaded with `Acquire` by the agents, so an agent that
    /// sees epoch `k` steps on it.
    published: AtomicU64,
    steps: usize,
}

impl EpochGate {
    fn new(agents: usize, steps: usize) -> EpochGate {
        EpochGate {
            progress: (0..agents).map(|_| AtomicUsize::new(0)).collect(),
            published: AtomicU64::new(0),
            steps,
        }
    }

    /// The step before which epoch `k` lands.
    fn due(&self, k: u64) -> usize {
        self.steps * k as usize / (HOT_SWAP_EPOCHS as usize + 1)
    }

    /// Agent `agent` is about to take step `step`: wait for every epoch
    /// due by then.
    fn before_step(&self, agent: usize, step: usize) {
        self.progress[agent].store(step, Ordering::Release);
        loop {
            let next = self.published.load(Ordering::Acquire) + 1;
            if next > HOT_SWAP_EPOCHS || self.due(next) > step {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Agent `agent` takes no more steps.
    fn stopped(&self, agent: usize) {
        self.progress[agent].store(usize::MAX, Ordering::Release);
    }

    /// Publish each epoch once every agent has reached its point.
    fn run_publisher(&self, mut publish: impl FnMut(u64)) {
        for k in 1..=HOT_SWAP_EPOCHS {
            while self
                .progress
                .iter()
                .any(|p| p.load(Ordering::Acquire) < self.due(k))
            {
                std::thread::yield_now();
            }
            publish(k);
            self.published.store(k, Ordering::Release);
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One agent thread: random walk (query-ranked descents, occasional
/// backtracks) for `steps` requests, recording each request's latency.
/// With a `gate`, the walk is agent `a` of a hot-swap fleet.
fn agent_walk(
    svc: &NavService,
    sid: SessionId,
    query: &[f32],
    steps: usize,
    seed: u64,
    gate: Option<(&EpochGate, usize)>,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lat = Vec::with_capacity(steps);
    let mut view: Option<StepResponse> = None;
    for step in 0..steps {
        if let Some((gate, a)) = gate {
            gate.before_step(a, step);
        }
        let action = match &view {
            Some(v) if !v.children.is_empty() && rng.random::<f64>() > 0.25 => {
                let i = rng.random_range(0..v.children.len());
                StepAction::Descend(v.children[i].state)
            }
            Some(_) => StepAction::Backtrack,
            None => StepAction::Stay,
        };
        let req = StepRequest {
            action,
            query: Some(query.to_vec()),
            deadline_ms: None,
            list_tables: false,
        };
        let start = Instant::now();
        let out = svc.step(sid, &req);
        lat.push(start.elapsed().as_secs_f64());
        view = match out {
            Ok(v) => Some(v),
            // A migration can invalidate the chosen child mid-walk, and an
            // overloaded gate can shed: refresh the view and keep walking.
            Err(ServeError::Nav(_) | ServeError::Overloaded { .. }) => None,
            Err(e) => {
                eprintln!("agent error (session {sid:?}): {e}");
                break;
            }
        };
    }
    if let Some((gate, a)) = gate {
        gate.stopped(a);
    }
    lat
}

struct CellResult {
    label: String,
    agents: usize,
    p50: f64,
    p95: f64,
    p99: f64,
    throughput: f64,
    requests: u64,
    degraded: u64,
    migrated: u64,
    overloaded: u64,
}

/// Run one benchmark cell: `agents` walker threads, optionally a publisher
/// republishing organizations, optional deadline + armed `serve.slow`.
fn run_cell(
    label: &str,
    ctx: &OrgContext,
    agents: usize,
    steps: usize,
    seed: u64,
    publish: bool,
    deadline_ms: Option<u64>,
) -> CellResult {
    let cfg = ServeConfig {
        max_sessions: agents.max(1) * 2,
        max_concurrency: agents.max(1),
        queue_depth: 2 * agents.max(1),
        deadline_ms,
        ..ServeConfig::default()
    };
    let svc = NavService::new(ctx.clone(), clustering_org(ctx), NavConfig::default(), cfg);
    // Prebuild the alternate organizations before spawning anything: each
    // publish is then an encode plus an Arc swap. Epoch k publishes
    // `orgs[k % 2]`, so epoch 1 swaps the clustering organization the
    // service starts on for the flat one.
    let alt_orgs = publish.then(|| [clustering_org(ctx), flat_org(ctx)]);
    let gate = EpochGate::new(agents, steps);
    let wall = Instant::now();
    let mut all: Vec<f64> = Vec::with_capacity(agents * steps);
    std::thread::scope(|scope| {
        let svc = &svc;
        let gate = &gate;
        let mut handles = Vec::new();
        for a in 0..agents {
            let q: Vec<f32> = ctx.attr((a % ctx.n_attrs()) as u32).unit_topic.clone();
            let sid = svc
                .open_session_keyed(seed ^ (a as u64))
                .expect("registry sized for the fleet");
            let gate = publish.then_some((gate, a));
            handles
                .push(scope.spawn(move || agent_walk(svc, sid, &q, steps, seed + a as u64, gate)));
        }
        let publisher = alt_orgs.map(|orgs| {
            scope.spawn(move || {
                gate.run_publisher(|k| {
                    svc.publish(
                        ctx.clone(),
                        orgs[k as usize % 2].clone(),
                        NavConfig::default(),
                    )
                    .expect("publishing an alternate organization");
                })
            })
        });
        for h in handles {
            all.extend(h.join().expect("agent thread panicked"));
        }
        if let Some(p) = publisher {
            p.join().expect("publisher thread panicked");
        }
    });
    let wall_secs = wall.elapsed().as_secs_f64();
    all.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let st = svc.stats();
    CellResult {
        label: label.to_string(),
        agents,
        p50: percentile(&all, 0.50),
        p95: percentile(&all, 0.95),
        p99: percentile(&all, 0.99),
        throughput: all.len() as f64 / wall_secs.max(1e-9),
        requests: st.requests.load(Ordering::Relaxed),
        degraded: st.degraded.load(Ordering::Relaxed),
        migrated: st.migrated.load(Ordering::Relaxed),
        overloaded: st.overloaded.load(Ordering::Relaxed),
    }
}

fn main() {
    let args = parse_args();
    let host_threads = host_threads();
    eprintln!(
        "generating TagCloud lake (~{} attrs), host parallelism {host_threads} ...",
        args.attrs
    );
    let bench = TagCloudConfig {
        n_tags: (args.attrs / 12).max(16),
        n_attrs_target: args.attrs,
        store_values: false,
        seed: args.seed,
        ..TagCloudConfig::small()
    }
    .generate();
    let ctx = OrgContext::full(&bench.lake);
    eprintln!(
        "context: {} attrs, {} tags, {} tables",
        ctx.n_attrs(),
        ctx.n_tags(),
        ctx.n_tables()
    );

    // Fleet sizes mirror the worker sweep (honors DLN_THREADS as the cap).
    let fleet_sweep = thread_sweep();

    let mut cells: Vec<CellResult> = Vec::new();
    for &agents in &fleet_sweep {
        cells.push(run_cell(
            "quiet", &ctx, agents, args.steps, args.seed, false, None,
        ));
    }
    for &agents in &fleet_sweep {
        cells.push(run_cell(
            "hot_swap", &ctx, agents, args.steps, args.seed, true, None,
        ));
    }
    // Deadline regime: virtual stalls via serve.slow against a 5 ms budget.
    {
        let _fp = dln_fault::scoped("serve.slow:0.3:9").expect("valid failpoint spec");
        let agents = *fleet_sweep.last().unwrap_or(&1);
        let mut cell = run_cell(
            "deadline",
            &ctx,
            agents,
            args.steps,
            args.seed,
            false,
            Some(5),
        );
        cell.label = "deadline".to_string();
        cells.push(cell);
    }

    for c in &cells {
        eprintln!(
            "{:<9} agents={}: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, {:.0} req/s, degraded {}, migrated {}, shed {}",
            c.label,
            c.agents,
            c.p50 * 1e3,
            c.p95 * 1e3,
            c.p99 * 1e3,
            c.throughput,
            c.degraded,
            c.migrated,
            c.overloaded
        );
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"serve\",");
    let _ = writeln!(json, "  \"git_commit\": \"{}\",", git_commit());
    let _ = writeln!(
        json,
        "  \"lake\": {{ \"generator\": \"tagcloud\", \"n_attrs\": {}, \"n_tags\": {}, \"n_tables\": {}, \"seed\": {} }},",
        ctx.n_attrs(),
        ctx.n_tags(),
        ctx.n_tables(),
        args.seed
    );
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"steps_per_agent\": {},", args.steps);
    let _ = writeln!(json, "  \"hot_swap_epochs\": {HOT_SWAP_EPOCHS},");
    let _ = writeln!(json, "  \"cells\": [");
    let lines: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{ \"regime\": \"{}\", \"agents\": {}, \"p50_seconds\": {:.9}, \"p95_seconds\": {:.9}, \"p99_seconds\": {:.9}, \"requests_per_second\": {:.1}, \"requests\": {}, \"degraded\": {}, \"migrated\": {}, \"overloaded\": {} }}",
                c.label,
                c.agents,
                c.p50,
                c.p95,
                c.p99,
                c.throughput,
                c.requests,
                c.degraded,
                c.migrated,
                c.overloaded
            )
        })
        .collect();
    let _ = writeln!(json, "{}", lines.join(",\n"));
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&args.out, &json).expect("write BENCH_serve.json");
    println!("{json}");
    eprintln!("wrote {}", args.out);
}
