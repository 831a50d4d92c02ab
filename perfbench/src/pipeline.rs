//! The construction pipeline, from files on disk to a served wire step,
//! with every configuration pinned here rather than read from the
//! environment.

use std::path::Path;
use std::sync::Arc;

use dln_embed::VecFileModel;
use dln_lake::csv::{ingest_dir, CsvOptions};
use dln_lake::DataLake;
use dln_net::{wire, Client, NetConfig, NetServer};
use dln_org::search::optimize;
use dln_org::{
    clustering_org, Evaluator, NavConfig, OrgContext, Organization, Representatives, SearchConfig,
    SearchStats, ShardPolicy,
};
use dln_serve::{
    NavService, ServeConfig, StepAction, StepRequest, StepResponse, SwapPolicy, WallClock,
};

use crate::lakegen::Corpus;
use crate::stats::{peak_rss_mb, reset_peak, rss_mb, Trace};

/// Navigation model (the γ of Eq 1), as `NavConfig::default`.
pub const NAV: NavConfig = NavConfig { gamma: 20.0 };

/// Search configuration: a fixed proposal budget with the plateau stop
/// disabled, the paper's approximate evaluation (`rep_fraction` 0.1),
/// serial proposals, no deadline, no checkpoints. Every field is set, so
/// `DLN_BATCH`, `DLN_DEADLINE_MS`, `DLN_CKPT_*` and `DLN_SHARDS` have no
/// effect.
pub fn search_config(proposals: usize, shards: usize) -> SearchConfig {
    SearchConfig {
        nav: NAV,
        plateau_iters: usize::MAX,
        min_improvement: 1e-6,
        max_iters: proposals,
        rep_fraction: 0.1,
        acceptance_power: 400.0,
        batch_size: 1,
        seed: 0x0DD5_EA4C,
        deadline: None,
        checkpoint: None,
        shards: ShardPolicy::Fixed(shards),
        table_weights: None,
    }
}

/// Serving configuration with an explicit session capacity and
/// admission limits sized for the benchmark's two client threads, so
/// `DLN_THREADS` does not change them.
pub fn serve_config(max_sessions: usize) -> ServeConfig {
    ServeConfig {
        max_sessions,
        session_ttl_ms: 3_600_000,
        deadline_ms: None,
        max_concurrency: 4,
        queue_depth: 8,
        retry_base_ms: 10,
        swap_policy: SwapPolicy::Migrate,
        slow_penalty_ms: 1000,
    }
}

/// Network front-end configuration: ephemeral loopback port and the
/// front-end's default of two dispatch workers.
pub fn net_config() -> NetConfig {
    NetConfig {
        addr: "127.0.0.1:0".to_string(),
        max_conns: 256,
        workers: 2,
        idle_ttl_ms: 0,
        max_frame_len: wire::MAX_FRAME_LEN,
        shed_retry_after_ms: 50,
    }
}

/// Load the `.vec` model and ingest every CSV of `corpus`.
/// Returns the lake and the number of quarantined files.
pub fn ingest(
    corpus: &Corpus,
    trace: &mut Trace,
    parent: Option<usize>,
) -> Result<(DataLake, usize), String> {
    let model = trace
        .span("embed.load", parent, || {
            VecFileModel::from_path(&corpus.vec_path)
        })
        .map_err(|e| format!("loading .vec model: {e}"))?;
    let ingest = trace
        .span("lake.ingest", parent, || {
            ingest_dir(&corpus.lake_dir, &model, &CsvOptions::default())
        })
        .map_err(|e| format!("ingesting lake: {e}"))?;
    Ok((ingest.lake, ingest.report.total_quarantined()))
}

/// Plain Eq 6 effectiveness with exact representatives.
pub fn effectiveness(ctx: &OrgContext, org: &Organization) -> f64 {
    let reps = Representatives::exact(ctx);
    Evaluator::new(ctx, org, NAV, &reps).effectiveness()
}

/// One run of the default unsharded pipeline, up to the first wire step.
pub struct Built {
    /// Eq 6 effectiveness of the optimized organization.
    pub effectiveness: f64,
    /// Attributes, tags and alive states of the organization.
    pub shape: [usize; 3],
    /// Peak resident memory before the effectiveness evaluation, MB. The
    /// evaluation is the benchmark's, so the peak restarts after it.
    pub peak_before_eval_mb: f64,
    /// What the search did.
    pub search: SearchStats,
    /// The service opened from the store file.
    pub mapped: Arc<NavService>,
    /// The wire front-end over `mapped`.
    pub server: NetServer,
    /// Store file size.
    pub store_bytes: u64,
    /// Files the ingest quarantined.
    pub quarantined: usize,
    /// Seconds from the lake on disk to the first wire step answered
    /// (the sum of the stage spans; the benchmark's own checks excluded).
    pub setup_s: f64,
    /// Resident memory after each stage, MB, by metric name.
    pub rss: Vec<(&'static str, f64)>,
}

/// Files on disk → model load → ingest → `OrgContext::full` →
/// `clustering_org` → `optimize` → `save_current` → `open_path` →
/// `NetServer::start` → first wire step. Checks that the organization
/// validates and that the mapped store ranks sampled states bit-identically
/// to the owned one. The checks and the effectiveness run between the
/// timed stages, the memory of the effectiveness evaluation is returned
/// and left out of the peak, and nothing but the mapped service is kept
/// once serving starts, so the process's memory is the served
/// organization's.
pub fn build_and_serve(
    corpus: &Corpus,
    store: &Path,
    proposals: usize,
    max_sessions: usize,
    query: &[f32],
    trace: &mut Trace,
) -> Result<Built, String> {
    let root = trace.open("build", None);
    let p = Some(root);
    let first_span = trace.spans.len();
    let mut rss = Vec::new();
    let (lake, quarantined) = ingest(corpus, trace, p)?;
    rss.push(("rss.ingest_mb", rss_mb()));
    let ctx = trace.span("org.ctx", p, || OrgContext::full(&lake));
    drop(lake);
    rss.push(("rss.ctx_mb", rss_mb()));
    let mut org = trace.span("cluster", p, || clustering_org(&ctx));
    rss.push(("rss.cluster_mb", rss_mb()));
    let cfg = search_config(proposals, 1);
    let search = trace.span("search", p, || optimize(&ctx, &mut org, &cfg));
    rss.push(("rss.search_mb", rss_mb()));
    org.validate(&ctx)
        .map_err(|e| format!("organization fails validation: {e}"))?;
    let peak_before_eval_mb = peak_rss_mb();
    let eff = effectiveness(&ctx, &org);
    reset_peak();
    let shape = [ctx.n_attrs(), ctx.n_tags(), org.n_alive()];
    let serve_cfg = serve_config(max_sessions);
    let owned = trace.span("store.save", p, || {
        let owned = NavService::new(ctx, org, NAV, serve_cfg);
        owned.save_current(store).map(|()| owned)
    });
    let owned = owned.map_err(|e| format!("saving store: {e}"))?;
    let mapped = trace
        .span("store.open", p, || NavService::open_path(store, serve_cfg))
        .map_err(|e| format!("opening store: {e}"))?;
    check_bit_identical(&owned, &mapped, &corpus.centers)?;
    drop(owned);
    let mapped = Arc::new(mapped);
    rss.push(("rss.store_mb", rss_mb()));
    let server = trace
        .span("net.start", p, || {
            NetServer::start(
                Arc::clone(&mapped),
                net_config(),
                Arc::new(WallClock::new()),
            )
        })
        .map_err(|e| format!("starting server: {e}"))?;
    let addr = server.local_addr().to_string();
    let first = trace.span("net.first_step", p, || -> Result<StepResponse, String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let sid = client.open().map_err(|e| format!("open: {e}"))?;
        let req = StepRequest {
            action: StepAction::Stay,
            query: Some(query.to_vec()),
            deadline_ms: None,
            list_tables: true,
        };
        let first = client
            .step(sid, &req)
            .map_err(|e| format!("first step: {e}"))?;
        client.close(sid).map_err(|e| format!("close: {e}"))?;
        Ok(first)
    })?;
    rss.push(("rss.serve_mb", rss_mb()));
    trace.close(root);
    let setup_s = trace.spans[first_span..]
        .iter()
        .filter(|s| s.parent == p)
        .map(|s| s.secs())
        .sum();

    if first.children.is_empty() {
        return Err("the first wire step shows the root without children".into());
    }
    let store_bytes = std::fs::metadata(store).map(|m| m.len()).unwrap_or(0);
    Ok(Built {
        effectiveness: eff,
        shape,
        peak_before_eval_mb,
        search,
        mapped,
        server,
        store_bytes,
        quarantined,
        setup_s,
        rss,
    })
}

/// Compare the owned and the mapped service on up to 256 states: labels,
/// children, and the Eq 1 ranking for three topic queries, probabilities
/// compared with `f64::to_bits`.
fn check_bit_identical(
    owned: &NavService,
    mapped: &NavService,
    centers: &[Vec<f32>],
) -> Result<(), String> {
    let (a, b) = (owned.snapshot(), mapped.snapshot());
    let order = a.view().topo_order().to_vec();
    if order != b.view().topo_order() {
        return Err("topological order differs between owned and mapped store".into());
    }
    let stride = (order.len() / 256).max(1);
    for &sid in order.iter().step_by(stride) {
        if a.label(sid) != b.label(sid) || a.children(sid) != b.children(sid) {
            return Err(format!(
                "state {sid:?} differs between owned and mapped store"
            ));
        }
        for q in centers.iter().take(3) {
            let (pa, pb) = (a.transition_probs(sid, q), b.transition_probs(sid, q));
            let same = pa.len() == pb.len()
                && pa
                    .iter()
                    .zip(&pb)
                    .all(|((sa, va), (sb, vb))| sa == sb && va.to_bits() == vb.to_bits());
            if !same {
                return Err(format!(
                    "ranking at {sid:?} differs between owned and mapped store"
                ));
            }
        }
    }
    Ok(())
}
