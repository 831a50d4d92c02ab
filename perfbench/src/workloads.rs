//! The three workloads. Each returns its metrics by name; `main` picks
//! the end-to-end or the per-layer set and prints them.
//!
//! Every set-up of a run builds from its own lake (seeded by the run's
//! seed and the set-up's number) and is then navigated, so every figure
//! is taken over several lakes rather than one.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dln_lake::DataLake;
use dln_net::{NetServer, NetStats};
use dln_org::{build_sharded, MaintConfig, Maintainer, ShardedBuild};
use dln_serve::{NavService, ServeStats, WallClock};

use crate::churn::ChurnOut;
use crate::lakegen::{write_lake, Corpus, LakeSpec};
use crate::nav::{self, Conn, Fails, Layers, Timings};
use crate::pipeline::{self, build_and_serve, search_config, serve_config, Built};
use crate::stats::{cpu_s, median, peak_rss_mb, quantile, reset_peak, Trace};

/// The lake each set-up generates: 1,200 tables of 6 text columns (7,200
/// attributes) and about 270 tags.
const LAKE: LakeSpec = LakeSpec {
    tables: 1200,
    cols: 6,
    rows: 120,
    dim: 32,
    topics: 48,
    tags: 272,
};

/// Search proposals in the unsharded pipeline.
const PROPOSALS: usize = 15;
/// Set-ups (and lakes) per run on `build` and `navigate`.
const SETUPS: usize = 4;
/// Set-ups (and lakes) per run on `churn`.
const CHURN_SETUPS: usize = 3;
/// Navigating sessions and connections on `navigate` (and `build`). One
/// connection keeps one request in flight, so the client, the reactor and
/// the worker serving it hand the request on rather than compete for CPUs.
const NAV_SESSIONS: usize = 2000;
const NAV_CONNS: usize = 1;
/// Sessions and duration (s) of the navigation phase on `build`.
const BUILD_NAV_SESSIONS: usize = 500;
const BUILD_NAV_S: f64 = 12.0;
/// Shards, proposals per shard, sessions and events per batch on `churn`.
const CHURN_SHARDS: usize = 4;
const CHURN_PROPOSALS: usize = 40;
const CHURN_SESSIONS: usize = 200;
const CHURN_EVENTS: usize = 20;
/// Seconds of `--seconds` per turn of a maintenance cycle and a
/// navigation window: `churn` runs `--seconds / CHURN_TURN_S` turns, spread
/// over its set-ups, whatever they take.
const CHURN_TURN_S: f64 = 1.6;
/// Measurement window, s.
const WINDOW_S: f64 = 1.0;

/// The seed of set-up `k`'s lake in the run with seed `seed`.
fn lake_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A workload's outcome.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Failures by kind.
    pub fails: Fails,
    /// Free-form facts for the diagnostics line.
    pub info: Vec<(&'static str, String)>,
    /// Digest of each lake the run wrote.
    pub digests: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }
}

/// Counters of one serving stack, read before and after a phase.
#[derive(Clone, Copy, Default)]
struct Counters([u64; 8]);

fn load(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}

impl Counters {
    fn read(s: &ServeStats, n: &NetStats) -> Counters {
        Counters([
            load(&s.requests),
            load(&s.overloaded),
            load(&s.degraded),
            load(&s.migrated),
            load(&s.migrated_in_place),
            load(&n.requests),
            load(&n.dedup_hits),
            load(&n.shed_accepts),
        ])
    }

    /// What the counters grew by since `before`.
    fn since(&self, before: &Counters) -> Counters {
        let mut d = *self;
        for (a, b) in d.0.iter_mut().zip(before.0) {
            *a = a.saturating_sub(b);
        }
        d
    }

    fn add(&mut self, o: &Counters) {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a += b;
        }
    }

    fn record(&self, out: &mut Outcome) {
        let names = [
            "serve.requests",
            "serve.overloaded",
            "serve.degraded",
            "serve.migrated",
            "serve.migrated_in_place",
            "net.requests",
            "net.dedup_hits",
            "net.shed_accepts",
        ];
        for (name, a) in names.iter().zip(self.0) {
            out.set(name, a as f64);
        }
    }
}

/// A measured phase: each window's length, and the process CPU time spent.
struct Phase {
    windows: Vec<f64>,
    cpu_s: f64,
}

/// Run the connections' closed loops from now for `secs` seconds, one
/// thread each, in windows of about [`WINDOW_S`] with fresh client threads
/// per window.
fn measure(conns: &mut [Conn], secs: f64, trace: bool) -> Phase {
    let n = (secs / WINDOW_S).round().max(1.0) as usize;
    let cpu0 = cpu_s();
    let t0 = Instant::now();
    let windows = (0..n)
        .map(|k| {
            let start = Instant::now();
            let until = t0 + Duration::from_secs_f64(secs * (k + 1) as f64 / n as f64);
            std::thread::scope(|s| {
                for c in conns.iter_mut() {
                    s.spawn(move || c.run(t0, until, trace));
                }
            });
            start.elapsed().as_secs_f64()
        })
        .collect();
    Phase {
        windows,
        cpu_s: cpu_s() - cpu0,
    }
}

/// Step figures of one or more measured phases, window by window.
#[derive(Default)]
struct NavTally {
    p50: Vec<f64>,
    p99: Vec<f64>,
    steps: usize,
    secs: f64,
    cpu_s: f64,
    /// Traced wire-step spans, µs.
    spans: Vec<f64>,
}

impl NavTally {
    /// Add the windows of `phase`, run by `conns`, and their requests and
    /// failures.
    fn add(&mut self, conns: &[Conn], phase: &Phase, out: &mut Outcome) {
        let mut rate = Vec::new();
        for (k, secs) in phase.windows.iter().enumerate() {
            let lat: Vec<f64> = conns
                .iter()
                .flat_map(|c| c.window(k).iter().copied())
                .collect();
            self.p50.push(quantile(&lat, 0.5));
            self.p99.push(quantile(&lat, 0.99));
            rate.push(lat.len() as f64 / secs);
            self.steps += lat.len();
        }
        eprintln!(
            "windows: p50 {:.1?} us\n  p99 {:.1?} us\n  steps/s {rate:.0?}",
            &self.p50[self.p50.len() - rate.len()..],
            &self.p99[self.p99.len() - rate.len()..]
        );
        self.secs += phase.windows.iter().sum::<f64>();
        self.cpu_s += phase.cpu_s;
        for c in conns {
            self.spans
                .extend(c.spans.iter().map(|(a, b)| (b - a) * 1e6));
            out.attempted += c.attempted;
            out.failed += c.fails.total();
            out.fails.merge(&c.fails);
        }
    }

    /// Step latency, cost and throughput.
    ///
    /// Other tenants of the host take CPU in bursts, which moves a whole
    /// window's figures, and stall single steps for milliseconds. The
    /// latency figures are therefore medians over windows. Throughput
    /// follows the mean step latency, stalls included, and the CPU time per
    /// step follows the host's load over minutes; both are per-layer
    /// figures.
    fn record(&self, trace: bool, out: &mut Outcome) {
        out.set("nav_p50_us", median(&self.p50));
        out.set(
            "nav.cpu_us_per_step",
            self.cpu_s * 1e6 / self.steps.max(1) as f64,
        );
        out.set("nav.steps_per_s", self.steps as f64 / self.secs);
        out.set("nav.p99_us", median(&self.p99));
        out.set("nav.samples", self.steps as f64);
        if trace {
            out.set("nav.wire_p50_us", median(&self.spans));
        }
    }
}

fn record_fails(out: &mut Outcome) {
    let f = out.fails;
    out.set("fail.transport", f.transport as f64);
    out.set("fail.overloaded", f.overloaded as f64);
    out.set("fail.session", f.session as f64);
    out.set("fail.other", f.other as f64);
    out.set("nav.stale_refusals", f.stale as f64);
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
}

/// Open `n` sessions spread over `k` connections to `server`.
fn connect(
    server: &NetServer,
    corpus: &Corpus,
    seed: u64,
    n: usize,
    k: usize,
) -> Result<Vec<Conn>, String> {
    let addr = server.local_addr().to_string();
    let mut all = nav::sessions(seed, n, &corpus.centers).into_iter();
    let per = n / k;
    (0..k)
        .map(|i| Conn::open(&addr, i * per, all.by_ref().take(per).collect(), seed))
        .collect()
}

/// Per-stage medians over every set-up's spans, and the search figures
/// and memory of the last set-up.
fn record_build(trace: &Trace, built: &Built, csv_bytes: u64, out: &mut Outcome) {
    let stage = |n: &str| median(&trace.secs(n));
    out.set("embed.load_s", stage("embed.load"));
    out.set("lake.ingest_s", stage("lake.ingest"));
    out.set(
        "lake.csv_mb_per_s",
        csv_bytes as f64 / 1e6 / stage("lake.ingest").max(1e-9),
    );
    out.set("org.ctx_s", stage("org.ctx"));
    out.set("cluster.s", stage("cluster"));
    out.set("search.s", stage("search"));
    let st = &built.search;
    out.set("search.proposals", st.iterations as f64);
    out.set(
        "search.accept_ratio",
        st.accepted as f64 / st.iterations.max(1) as f64,
    );
    out.set(
        "search.ms_per_proposal",
        stage("search") * 1e3 / st.iterations.max(1) as f64,
    );
    out.set("search.eval_fraction", st.mean_state_fraction());
    out.set("store.save_s", stage("store.save"));
    out.set("store.bytes", built.store_bytes as f64);
    out.set("store.open_s", stage("store.open"));
    out.set("net.start_s", stage("net.start"));
    out.set("net.first_step_us", stage("net.first_step") * 1e6);
    for &(name, mb) in &built.rss {
        out.set(name, mb);
    }
    for (name, n) in ["attrs", "tags", "states"].into_iter().zip(built.shape) {
        out.info.push((name, n.to_string()));
    }
}

/// Write set-up `k`'s lake under `work/lake-k`.
fn corpus(work: &Path, seed: u64, k: usize, out: &mut Outcome) -> Result<Corpus, String> {
    let dir = work.join(format!("lake-{k}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let corpus = write_lake(&dir, &LAKE, lake_seed(seed, k))
        .map_err(|e| format!("writing the lake: {e}"))?;
    out.digests.push(format!("{:016x}", corpus.digest));
    out.attempted += corpus.files as u64;
    Ok(corpus)
}

/// Replay the connections' requests against a second service opened from
/// `store`, checking the kept answers and timing the layers into `times`.
fn replay_check(
    store: &Path,
    conns: &[Conn],
    corpus: &Corpus,
    seed: u64,
    n: usize,
    times: &mut Timings,
) -> Result<(), String> {
    let svc = NavService::open_path(store, serve_config(n))
        .map_err(|e| format!("opening the replay service: {e}"))?;
    let all = nav::sessions(seed, n, &corpus.centers);
    nav::replay(&svc, conns, &all, times)
}

/// The wire-step breakdown: the replayed parts and, when tracing, the
/// residual to the traced wire step.
fn record_layers(l: &Layers, trace: bool, out: &mut Outcome) {
    out.set("nav.compared", l.compared as f64);
    out.set("net.client_encode_us", l.client_encode_us);
    out.set("net.server_decode_us", l.server_decode_us);
    out.set("serve.dispatch_us", l.dispatch_us);
    out.set("net.server_encode_us", l.server_encode_us);
    out.set("net.client_decode_us", l.client_decode_us);
    out.set("serve.rank_us", l.rank_us);
    out.set("serve.tables_us", l.tables_us);
    if trace {
        let parts = l.client_encode_us
            + l.server_decode_us
            + l.dispatch_us
            + l.server_encode_us
            + l.client_decode_us;
        let wire = out.metrics.get("nav.wire_p50_us").copied().unwrap_or(0.0);
        out.set("net.transport_us", wire - parts);
    }
}

/// [`SETUPS`] set-ups of the unsharded pipeline, each on its own lake and
/// each followed by `nav_s` seconds of navigation of its organization by
/// `sessions` sessions, whose answers are then checked by replay. Opening
/// the sessions counts in `setup_s` when `open_in_setup`.
///
/// Every set-up navigates, rather than the last alone, so that the step
/// figures are taken over four organizations and four server start-ups:
/// where the scheduler happens to place a server's reactor and workers
/// moves a step by 10–15% for as long as that server runs.
fn serve_and_navigate(
    work: &Path,
    seed: u64,
    sessions: usize,
    nav_s: f64,
    open_in_setup: bool,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut tr = Trace::default();
    let (mut setups, mut effs, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut tally = NavTally::default();
    let mut counters = Counters::default();
    let mut times = Timings::default();
    for k in 0..SETUPS {
        reset_peak();
        let corpus = corpus(work, seed, k, out)?;
        let store = work.join(format!("org-{k}.dln"));
        let built = build_and_serve(
            &corpus,
            &store,
            PROPOSALS,
            sessions,
            &corpus.centers[0],
            &mut tr,
        )?;
        let nav_seed = lake_seed(seed, k);
        let t = Instant::now();
        let mut conns = connect(&built.server, &corpus, nav_seed, sessions, NAV_CONNS)?;
        let open_s = t.elapsed().as_secs_f64();
        setups.push(built.setup_s + if open_in_setup { open_s } else { 0.0 });
        effs.push(built.effectiveness);
        out.failed += built.quarantined as u64;
        out.set("lake.quarantined", built.quarantined as f64);

        let before = Counters::read(built.mapped.stats(), built.server.stats());
        let phase = measure(&mut conns, nav_s, trace);
        peaks.push(peak_rss_mb().max(built.peak_before_eval_mb));
        counters.add(&Counters::read(built.mapped.stats(), built.server.stats()).since(&before));
        tally.add(&conns, &phase, out);
        replay_check(&store, &conns, &corpus, nav_seed, sessions, &mut times)?;
        if k + 1 == SETUPS {
            record_build(&tr, &built, corpus.csv_bytes, out);
        }
        drop(conns);
        built.server.shutdown();
        let _ = std::fs::remove_dir_all(work.join(format!("lake-{k}")));
    }
    eprint!("spans:\n{}", tr.summary());
    eprintln!("set-ups: {setups:.3?} s, effectiveness {effs:.6?}");
    out.set("setup_s", median(&setups));
    out.set(
        "effectiveness",
        effs.iter().sum::<f64>() / effs.len() as f64,
    );
    out.set("peak_rss_mb", median(&peaks));
    counters.record(out);
    tally.record(trace, out);
    record_layers(&times.layers(), trace, out);
    record_fails(out);
    Ok(())
}

/// `build`: the unsharded pipeline from files on disk to the first wire
/// step, once per lake (`setup_s` is the median), each organization then
/// navigated by 500 sessions, [`BUILD_NAV_S`] seconds in all. Its length is
/// fixed by the set-ups, so `_secs` is not used.
pub fn build(work: &Path, seed: u64, _secs: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let nav_s = BUILD_NAV_S / SETUPS as f64;
    serve_and_navigate(
        work,
        seed,
        BUILD_NAV_SESSIONS,
        nav_s,
        false,
        trace,
        &mut out,
    )?;
    Ok(out)
}

/// `navigate`: each organization served from its mapped store over
/// loopback; one connection multiplexes 2,000 sessions in a closed loop,
/// `secs` seconds in all.
pub fn navigate(work: &Path, seed: u64, secs: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let nav_s = secs / SETUPS as f64;
    serve_and_navigate(work, seed, NAV_SESSIONS, nav_s, true, trace, &mut out)?;
    Ok(out)
}

fn maint_config(dir: &Path) -> MaintConfig {
    MaintConfig {
        dir: dir.to_path_buf(),
        search: search_config(CHURN_PROPOSALS, CHURN_SHARDS),
        slice: None,
        ckpt_every: 8,
        rebalance_drift: 0.05,
        every: CHURN_EVENTS as u64,
        cdc_path: Some(dir.join("cdc")),
    }
}

/// `churn`: a 4-shard organization served from memory, on each of
/// [`CHURN_SETUPS`] lakes. A writer appends localised CDC batches to one hot
/// shard and publishes a maintenance cycle after each; after every publish,
/// one connection navigates for a window on the new epoch.
pub fn churn(work: &Path, seed: u64, secs: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Trace::default();
    let (mut setups, mut peaks, mut csv_bytes) = (Vec::new(), Vec::new(), 0);
    let mut tally = Tally::default();
    let turns = (secs / CHURN_TURN_S / CHURN_SETUPS as f64).round().max(1.0) as usize;
    for k in 0..CHURN_SETUPS {
        reset_peak();
        let corpus = corpus(work, seed, k, &mut out)?;
        csv_bytes += corpus.csv_bytes;
        let t = Instant::now();
        let (lake, quarantined) = pipeline::ingest(&corpus, &mut tr, None)?;
        let build = tr.span("shard.build", None, || {
            build_sharded(&lake, &search_config(CHURN_PROPOSALS, CHURN_SHARDS))
        });
        let svc = Arc::new(NavService::new(
            build.built.ctx.clone(),
            build.built.organization.clone(),
            build.built.nav,
            serve_config(CHURN_SESSIONS * 2),
        ));
        let server = NetServer::start(
            Arc::clone(&svc),
            pipeline::net_config(),
            Arc::new(WallClock::new()),
        )
        .map_err(|e| format!("starting server: {e}"))?;
        let maint = Maintainer::for_build(
            &lake,
            &build,
            maint_config(&work.join(format!("maint-{k}"))),
        )
        .map_err(|e| format!("opening maintainer: {e}"))?;
        let conns = connect(&server, &corpus, lake_seed(seed, k), CHURN_SESSIONS, 1)?;
        setups.push(t.elapsed().as_secs_f64());
        out.failed += quarantined as u64;
        out.set("lake.quarantined", quarantined as f64);
        let live = Live {
            lake: &lake,
            build: &build,
            svc,
            server,
            maint,
            conns,
        };
        let peak = churn_turns(live, lake_seed(seed, k), turns, trace, &mut tally, &mut out)?;
        peaks.push(peak);
        let _ = std::fs::remove_dir_all(work.join(format!("lake-{k}")));
    }
    eprint!("spans:\n{}", tr.summary());
    out.set("setup_s", median(&setups));
    out.set("embed.load_s", median(&tr.secs("embed.load")));
    out.set("lake.ingest_s", median(&tr.secs("lake.ingest")));
    let ingest_s: f64 = tr.secs("lake.ingest").iter().sum();
    out.set("lake.csv_mb_per_s", csv_bytes as f64 / 1e6 / ingest_s);
    out.set("shard.build_s", median(&tr.secs("shard.build")));
    out.set("peak_rss_mb", median(&peaks));
    tally.record(trace, &mut out);
    Ok(out)
}

/// A set-up of `churn`, serving and with its maintainer open.
struct Live<'a> {
    lake: &'a DataLake,
    build: &'a ShardedBuild,
    svc: Arc<NavService>,
    server: NetServer,
    maint: Maintainer<'a>,
    conns: Vec<Conn>,
}

/// What `churn` gathers over its set-ups.
#[derive(Default)]
struct Tally {
    nav: NavTally,
    counters: Counters,
    driven: ChurnOut,
    /// Eq 6 effectiveness of each set-up's organization after maintenance,
    /// and as a share of its effectiveness as built.
    maintained: Vec<f64>,
    ratio: Vec<f64>,
    checked: usize,
}

impl Tally {
    fn record(&self, trace: bool, out: &mut Outcome) {
        self.counters.record(out);
        self.nav.record(trace, out);
        let d = &self.driven;
        out.attempted += d.acked.len() as u64 + d.cycle_s.len() as u64;
        record_fails(out);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        out.set("effectiveness", mean(&self.maintained));
        out.set("maint.effectiveness_ratio", mean(&self.ratio));
        out.set("cdc.append_p50_us", quantile(&d.append_us, 0.5));
        out.set("cdc.append_p99_us", quantile(&d.append_us, 0.99));
        out.set("maint.cycle_s", median(&d.cycle_s));
        out.set("maint.cycles", d.cycle_s.len() as f64);
        let mean_n = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
        out.set("maint.searched_shards", mean_n(&d.searched));
        out.set("maint.changed_slots", mean_n(&d.changed));
        let moved = out.metrics["serve.migrated"] + out.metrics["serve.migrated_in_place"];
        out.set(
            "serve.in_place_ratio",
            out.metrics["serve.migrated_in_place"] / moved.max(1.0),
        );
        out.info
            .push(("live_paths_checked", self.checked.to_string()));
    }
}

/// `turns` maintenance cycles on `live`, taking turns with navigation
/// windows, then the checks; the figures go to `tally`. Returns the peak
/// resident memory of the set-up and its turns, MB, without the
/// benchmark's effectiveness evaluations.
fn churn_turns(
    live: Live<'_>,
    seed: u64,
    turns: usize,
    trace: bool,
    tally: &mut Tally,
    out: &mut Outcome,
) -> Result<f64, String> {
    let Live {
        lake,
        build,
        svc,
        server,
        mut maint,
        mut conns,
    } = live;
    // The hot region: every label of the first shard.
    let hot: Vec<String> = build.shard_tags[0]
        .iter()
        .map(|&t| lake.tag(t).label.clone())
        .collect();
    let peak_before_eval = peak_rss_mb();
    let built = pipeline::effectiveness(&build.built.ctx, &build.built.organization);
    reset_peak();
    let before = Counters::read(svc.stats(), server.stats());
    // Navigation and maintenance take turns: after each publish, the
    // sessions navigate for one window (migrating to the new epoch on their
    // first step, on cold caches) while the writer waits; then the writer
    // appends the next batch and runs the next cycle.
    let (go, go_rx) = mpsc::channel::<()>();
    let (done, done_rx) = mpsc::channel::<()>();
    let (phase, driven) = std::thread::scope(|s| {
        let conns = &mut conns;
        let nav = s.spawn(move || {
            let mut all = Phase {
                windows: Vec::new(),
                cpu_s: 0.0,
            };
            while go_rx.recv().is_ok() {
                // The clients know a new epoch is out, so no session
                // descends to a child its pre-publish answer named.
                for c in conns.iter_mut() {
                    c.forget_views();
                }
                let one = measure(conns, WINDOW_S, trace);
                all.windows.extend(one.windows);
                all.cpu_s += one.cpu_s;
                if done.send(()).is_err() {
                    break;
                }
            }
            all
        });
        let window = || {
            if go.send(()).is_ok() {
                let _ = done_rx.recv();
            }
        };
        let driven =
            crate::churn::drive(&svc, &mut maint, &hot, seed, CHURN_EVENTS, turns, &window);
        drop(go);
        (nav.join().expect("navigation thread"), driven)
    });
    let driven = driven?;
    let peak = peak_rss_mb().max(peak_before_eval);
    tally
        .counters
        .add(&Counters::read(svc.stats(), server.stats()).since(&before));
    tally.nav.add(&conns, &phase, out);

    // Checks: no torn session, contiguous acks, a valid final organization.
    let (checked, invalid) = svc.validate_live_paths();
    if invalid > 0 {
        return Err(format!(
            "{invalid} of {checked} live session paths are invalid"
        ));
    }
    if driven.acked.windows(2).any(|w| w[1] != w[0] + 1) {
        return Err("acknowledged CDC sequence numbers are not contiguous".into());
    }
    if driven.acked.last().copied() != Some(maint.applied_seq()) {
        return Err("the last maintenance cycle did not fold every acknowledged event".into());
    }
    let snap = svc.snapshot();
    let (ctx, org) = snap
        .owned_parts()
        .ok_or("the maintained organization is not owned")?;
    org.validate(&ctx)
        .map_err(|e| format!("the maintained organization fails validation: {e}"))?;
    let maintained = pipeline::effectiveness(&ctx, &org);
    tally.maintained.push(maintained);
    tally.ratio.push(maintained / built);
    tally.checked += checked;
    tally.driven.merge(driven);
    drop(conns);
    server.shutdown();
    Ok(peak)
}
