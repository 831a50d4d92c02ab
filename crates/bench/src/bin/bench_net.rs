//! Network front-end benchmark: emits `BENCH_net.json`.
//!
//! The question the reactor exists to answer: what does it cost to keep
//! *thousands of mostly-idle* navigation sessions live on one server
//! thread? A thread-per-connection design pays a stack per idle
//! user; `dln-net` pays one registered descriptor. This benchmark
//! measures that claim end to end, across two processes — the server in
//! the parent, the client fleet in a child re-exec of this binary — so
//! each side pays one descriptor per connection (a single process would
//! pay two and halve the fleet the fd limit allows), and the
//! resident-memory number is the *server's alone*:
//!
//! 1. Raise `RLIMIT_NOFILE` as far as permitted, start a [`NetServer`]
//!    (**one server thread**: the reactor runs every dispatch), and spawn
//!    the fleet child, which connects `--conns` blocking clients, each
//!    opening a wire session.
//! 2. Record the server-process resident-memory delta per idle session.
//! 3. Drive "mostly idle" traffic: each round the child steps an
//!    `--active-frac` sample of the fleet while everyone else sits idle,
//!    recording per-step wire latency (frame → dispatch → frame → parse).
//! 4. Mid-benchmark, `publish_shard` a republish under the live fleet,
//!    then step **every** session across the epoch and audit
//!    `validate_live_paths` — the acceptance bar is zero torn sessions.
//!
//! Reports p50/p95/p99 wire step latency for the quiet and post-publish
//! regimes (comparable to `BENCH_serve.json`'s cells), bytes of resident
//! server memory per idle session, and the publish audit. Flags:
//! `--attrs <n>` (default 600), `--conns <n>` (default 10000),
//! `--rounds <n>` (default 20), `--active-frac <f>` (default 0.01),
//! `--seed <n>`, `--out <path>`.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as IoWrite};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use dln_bench::{git_commit, host_threads};
use dln_net::{Client, NetConfig, NetServer};
use dln_org::eval::NavConfig;
use dln_org::{clustering_org, OrgContext};
use dln_serve::{
    NavService, ServeConfig, SessionId, StepAction, StepRequest, StepResponse, WallClock,
};
use dln_synth::TagCloudConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct Args {
    attrs: usize,
    conns: usize,
    rounds: usize,
    active_frac: f64,
    seed: u64,
    out: String,
    /// Internal: run as the client-fleet child against this address.
    fleet_child: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        attrs: 600,
        conns: 10_000,
        rounds: 20,
        active_frac: 0.01,
        seed: 42,
        out: "BENCH_net.json".to_string(),
        fleet_child: None,
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
            "--conns" => {
                args.conns = need(i + 1).parse().expect("--conns: integer");
                i += 2;
            }
            "--rounds" => {
                args.rounds = need(i + 1).parse().expect("--rounds: integer");
                i += 2;
            }
            "--active-frac" => {
                args.active_frac = need(i + 1).parse().expect("--active-frac: float");
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
            "--fleet-child" => {
                args.fleet_child = Some(need(i + 1).to_string());
                i += 2;
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --attrs <n> --conns <n> --rounds <n> --active-frac <f> \
                     --seed <n> --out <path>"
                );
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

// -- file-descriptor budget -------------------------------------------------

mod rlimit_ffi {
    #[repr(C)]
    pub struct Rlimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }
    extern "C" {
        pub fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        pub fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    #[cfg(target_os = "linux")]
    pub const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    pub const RLIMIT_NOFILE: i32 = 8;
}

/// Make room for `wanted` descriptors, raising the hard limit when the
/// process may (root). Returns the usable soft limit afterwards.
fn ensure_fd_budget(wanted: u64) -> u64 {
    let mut cur = rlimit_ffi::Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `cur` is a valid out-parameter for the duration of the call.
    if unsafe { rlimit_ffi::getrlimit(rlimit_ffi::RLIMIT_NOFILE, &mut cur) } != 0 {
        return 1024;
    }
    if cur.rlim_cur >= wanted {
        return cur.rlim_cur;
    }
    let attempt = rlimit_ffi::Rlimit {
        rlim_cur: wanted,
        rlim_max: wanted.max(cur.rlim_max),
    };
    // SAFETY: a plain struct-by-pointer syscall; failure is handled below.
    if unsafe { rlimit_ffi::setrlimit(rlimit_ffi::RLIMIT_NOFILE, &attempt) } == 0 {
        return wanted;
    }
    // Could not raise the hard limit (no CAP_SYS_RESOURCE): take the
    // ceiling we have.
    let attempt = rlimit_ffi::Rlimit {
        rlim_cur: cur.rlim_max,
        rlim_max: cur.rlim_max,
    };
    // SAFETY: as above.
    if unsafe { rlimit_ffi::setrlimit(rlimit_ffi::RLIMIT_NOFILE, &attempt) } == 0 {
        return cur.rlim_max;
    }
    cur.rlim_cur
}

/// Resident set size in bytes, from `/proc/self/status` (Linux). Returns
/// 0 where unavailable; the JSON then reports 0 rather than lying.
fn resident_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One wire step with a deterministic walk policy: descend into a random
/// child, backtrack from leaves.
fn wire_step(
    client: &mut Client,
    sid: SessionId,
    view: &mut Option<StepResponse>,
    query: &[f32],
    rng: &mut StdRng,
) -> f64 {
    let action = match view {
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
    let out = client.step(sid, &req);
    let lat = start.elapsed().as_secs_f64();
    // A migration can invalidate the chosen child: refresh and go on.
    *view = out.ok();
    lat
}

// -- the client-fleet child -------------------------------------------------
//
// Text protocol over the child's stdio, one line each way per phase:
//   parent → child:  QUIET | SWEEP | CLOSE
//   child  → parent: READY <conns> <query-dim>   (after the fleet is up)
//                    DONE <wall_secs> <lat lat …> (after QUIET / SWEEP)
// Latencies travel as `f64::to_bits` hex so the parent recovers them
// exactly.

/// Run the fleet against `addr`, then exit. Never returns.
fn run_fleet_child(addr: &str, args: &Args) -> ! {
    let fd_budget = ensure_fd_budget(args.conns as u64 + 512);
    let conns = args.conns.min((fd_budget.saturating_sub(512)) as usize);
    let mut fleet: Vec<(Client, SessionId, Option<StepResponse>)> = Vec::with_capacity(conns);
    for i in 0..conns {
        let mut c = Client::connect(addr)
            .unwrap_or_else(|e| panic!("fleet client {i} failed to connect: {e}"));
        let sid = c
            .open_keyed(args.seed ^ i as u64)
            .unwrap_or_else(|e| panic!("fleet client {i} failed to open: {e}"));
        fleet.push((c, sid, None));
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "READY {conns}").expect("child stdout");
    out.flush().expect("child stdout flush");

    // The walk query lives in the parent's lake (it must match the
    // embedding dimension); the parent sends it as the first line.
    let stdin = std::io::stdin();
    let mut stdin = stdin.lock();
    let mut qline = String::new();
    stdin.read_line(&mut qline).expect("child stdin QUERY");
    let query: Vec<f32> = qline
        .trim()
        .strip_prefix("QUERY ")
        .unwrap_or_else(|| panic!("fleet child expected QUERY, got {qline:?}"))
        .split_whitespace()
        .map(|h| f32::from_bits(u32::from_str_radix(h, 16).expect("hex query")))
        .collect();

    let mut rng = StdRng::seed_from_u64(args.seed);
    let per_round = ((conns as f64 * args.active_frac).ceil() as usize).clamp(1, conns);
    for line in stdin.lines() {
        let line = line.expect("child stdin");
        let mut lat: Vec<f64> = Vec::new();
        let wall = Instant::now();
        match line.trim() {
            "QUIET" => {
                for _ in 0..args.rounds {
                    for _ in 0..per_round {
                        let i = rng.random_range(0..fleet.len());
                        let (client, sid, view) = &mut fleet[i];
                        lat.push(wire_step(client, *sid, view, &query, &mut rng));
                    }
                }
            }
            "SWEEP" => {
                for (client, sid, view) in fleet.iter_mut() {
                    lat.push(wire_step(client, *sid, view, &query, &mut rng));
                }
            }
            "CLOSE" => {
                for (client, sid, _) in fleet.iter_mut() {
                    let _ = client.close(*sid);
                }
                break;
            }
            other => panic!("fleet child: unknown command {other:?}"),
        }
        let wall_secs = wall.elapsed().as_secs_f64();
        let mut msg = format!("DONE {wall_secs:.9}");
        for l in &lat {
            let _ = write!(msg, " {:016x}", l.to_bits());
        }
        writeln!(out, "{msg}").expect("child stdout");
        out.flush().expect("child stdout flush");
    }
    std::process::exit(0);
}

/// Parse a child `DONE` line back into (wall_secs, latencies).
fn parse_done(line: &str) -> (f64, Vec<f64>) {
    let mut parts = line.split_whitespace();
    assert_eq!(parts.next(), Some("DONE"), "fleet child said: {line:?}");
    let wall: f64 = parts
        .next()
        .expect("DONE wall_secs")
        .parse()
        .expect("DONE wall_secs parses");
    let lat = parts
        .map(|h| f64::from_bits(u64::from_str_radix(h, 16).expect("hex latency")))
        .collect();
    (wall, lat)
}

struct Cell {
    regime: &'static str,
    steps: usize,
    p50: f64,
    p95: f64,
    p99: f64,
    throughput: f64,
}

fn cell(regime: &'static str, mut lat: Vec<f64>, wall_secs: f64) -> Cell {
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Cell {
        regime,
        steps: lat.len(),
        p50: percentile(&lat, 0.50),
        p95: percentile(&lat, 0.95),
        p99: percentile(&lat, 0.99),
        throughput: lat.len() as f64 / wall_secs.max(1e-9),
    }
}

fn main() {
    let args = parse_args();
    if let Some(addr) = &args.fleet_child {
        run_fleet_child(addr, &args);
    }
    let host_threads = host_threads();

    // One server-side fd per connection, plus listener/poller/pipes slack.
    let fd_budget = ensure_fd_budget(args.conns as u64 + 512);
    let conns = args.conns.min((fd_budget.saturating_sub(512)) as usize);
    if conns < args.conns {
        eprintln!(
            "fd limit {fd_budget}: scaling --conns {} down to {conns}",
            args.conns
        );
    }

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

    let serve_cfg = ServeConfig {
        max_sessions: conns * 2,
        max_concurrency: 64,
        queue_depth: 128,
        deadline_ms: None,
        ..ServeConfig::default()
    };
    let svc = Arc::new(NavService::new(
        ctx.clone(),
        clustering_org(&ctx),
        NavConfig::default(),
        serve_cfg,
    ));
    let net_cfg = NetConfig {
        max_conns: conns + 64,
        ..NetConfig::default()
    };
    // The reactor is the server's only thread.
    let server_threads = 1;
    let server = NetServer::start(Arc::clone(&svc), net_cfg, Arc::new(WallClock::new()))
        .expect("server starts");
    let addr = server.local_addr();

    // -- spawn the fleet child; one wire session per connection ------------
    let rss_before = resident_bytes();
    eprintln!("spawning fleet child: {conns} clients against {addr} ...");
    let t_connect = Instant::now();
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = std::process::Command::new(exe)
        .arg("--fleet-child")
        .arg(addr.to_string())
        .args(["--conns", &conns.to_string()])
        .args(["--rounds", &args.rounds.to_string()])
        .args(["--active-frac", &args.active_frac.to_string()])
        .args(["--seed", &args.seed.to_string()])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .expect("spawn fleet child");
    let mut child_in = child.stdin.take().expect("child stdin");
    let mut child_out = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    child_out.read_line(&mut line).expect("child READY");
    let fleet_conns: usize = line
        .trim()
        .strip_prefix("READY ")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("fleet child said: {line:?}"));
    let connect_secs = t_connect.elapsed().as_secs_f64();
    let rss_idle = resident_bytes();
    let idle_bytes_per_session = rss_idle.saturating_sub(rss_before) / fleet_conns.max(1) as u64;
    eprintln!(
        "fleet of {fleet_conns} up in {connect_secs:.2}s; \
         idle server RSS delta {idle_bytes_per_session} bytes/session"
    );

    // Hand the child a walk query from the lake's embedding space.
    let query: Vec<f32> = ctx.attr(0).unit_topic.clone();
    let mut qmsg = String::from("QUERY");
    for x in &query {
        let _ = write!(qmsg, " {:08x}", x.to_bits());
    }
    writeln!(child_in, "{qmsg}").expect("command child");

    // -- quiet regime: mostly-idle traffic --------------------------------
    writeln!(child_in, "QUIET").expect("command child");
    child_in.flush().expect("flush command");
    line.clear();
    child_out.read_line(&mut line).expect("child QUIET done");
    let (quiet_secs, quiet_lat) = parse_done(&line);
    let quiet = cell("wire_quiet", quiet_lat, quiet_secs);

    // -- mid-benchmark shard republish under the live fleet ---------------
    // The regenerated clustering org is structurally identical, published
    // as a shard-scoped swap over the first slots: sessions walking those
    // slots replay, everyone else migrates in place — either way the
    // audit below must find zero torn paths.
    let changed: Vec<u32> = (0..8u32.min(ctx.n_attrs() as u32)).collect();
    let epoch = svc
        .publish_shard(
            Arc::new(ctx.clone()),
            clustering_org(&ctx),
            NavConfig::default(),
            changed,
        )
        .expect("publishing the shard epoch");
    eprintln!("published shard epoch {epoch} under {fleet_conns} live wire sessions");

    // Step EVERY session across the epoch, then audit.
    writeln!(child_in, "SWEEP").expect("command child");
    child_in.flush().expect("flush command");
    line.clear();
    child_out.read_line(&mut line).expect("child SWEEP done");
    let (post_secs, post_lat) = parse_done(&line);
    let post = cell("wire_post_publish", post_lat, post_secs);
    let (checked, invalid) = svc.validate_live_paths();
    eprintln!("post-publish audit: {checked} live paths checked, {invalid} invalid");
    assert_eq!(
        invalid, 0,
        "a republish tore {invalid}/{checked} wire sessions"
    );

    // Close the fleet's sessions, then the server.
    writeln!(child_in, "CLOSE").expect("command child");
    child_in.flush().expect("flush command");
    let status = child.wait().expect("fleet child exit");
    assert!(status.success(), "fleet child failed: {status}");

    let stats = server.stats();
    let (accepted, requests, dedup_hits, shed) = (
        stats.accepted.load(Ordering::Relaxed),
        stats.requests.load(Ordering::Relaxed),
        stats.dedup_hits.load(Ordering::Relaxed),
        stats.shed_accepts.load(Ordering::Relaxed),
    );
    server.shutdown();

    for c in [&quiet, &post] {
        eprintln!(
            "{:<18} steps={}: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, {:.0} steps/s",
            c.regime,
            c.steps,
            c.p50 * 1e3,
            c.p95 * 1e3,
            c.p99 * 1e3,
            c.throughput
        );
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"net\",");
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
    let _ = writeln!(json, "  \"server_threads\": {server_threads},");
    let _ = writeln!(json, "  \"concurrent_conns\": {fleet_conns},");
    let _ = writeln!(json, "  \"active_frac\": {},", args.active_frac);
    let _ = writeln!(json, "  \"fleet_connect_seconds\": {connect_secs:.3},");
    let _ = writeln!(
        json,
        "  \"idle_rss_bytes_per_session\": {idle_bytes_per_session},"
    );
    let _ = writeln!(
        json,
        "  \"idle_rss_note\": \"server-process VmRSS delta after the fleet opened, divided by sessions; the client fleet lives in a child process\","
    );
    let _ = writeln!(json, "  \"cells\": [");
    let lines: Vec<String> = [&quiet, &post]
        .iter()
        .map(|c| {
            format!(
                "    {{ \"regime\": \"{}\", \"steps\": {}, \"p50_seconds\": {:.9}, \"p95_seconds\": {:.9}, \"p99_seconds\": {:.9}, \"steps_per_second\": {:.1} }}",
                c.regime, c.steps, c.p50, c.p95, c.p99, c.throughput
            )
        })
        .collect();
    let _ = writeln!(json, "{}", lines.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"publish\": {{ \"epoch\": {epoch}, \"live_paths_checked\": {checked}, \"invalid_paths\": {invalid} }},"
    );
    let _ = writeln!(
        json,
        "  \"server\": {{ \"accepted\": {accepted}, \"requests\": {requests}, \"dedup_hits\": {dedup_hits}, \"shed_accepts\": {shed} }}"
    );
    let _ = writeln!(json, "}}");

    std::fs::write(&args.out, &json).expect("write BENCH_net.json");
    println!("{json}");
}
