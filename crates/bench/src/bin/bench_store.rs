//! Cold-start benchmark for the persistent organization store: emits
//! `BENCH_store.json`.
//!
//! The question the store exists to answer: how long until a freshly
//! started process serves its *first* navigation step? Two paths race:
//!
//! 1. **CSV rebuild** — the full pipeline a process without a store file
//!    must run: load the `.vec` embedding model, ingest every CSV (+
//!    `.tags` sidecars), build the [`OrgContext`], run agglomerative
//!    clustering, stand up a [`NavService`], serve one step.
//! 2. **Mapped open** — [`NavService::open_path`] on the store file the
//!    first process saved: validate checksums, mmap, serve one step.
//!
//! The benchmark materializes a synthetic-but-real *on-disk* lake (CSV
//! files with header rows, `.tags` sidecars, a fastText-style `.vec`
//! model) in a temp directory, so path 1 pays every cost a real cold
//! start pays, including file IO and embedding lookups. It then checks —
//! state by state, bit by bit — that the mapped service ranks children
//! identically to the in-memory one, and reports the speedup.
//!
//! Flags: `--tables <n>` (default 300), `--cols <n>` per table (default
//! 6), `--rows <n>` per table (default 200), `--dim <n>` (default 32),
//! `--seed <n>`, `--out <path>` (default `BENCH_store.json`).

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dln_bench::{git_commit, host_threads};
use dln_embed::VecFileModel;
use dln_lake::csv::{ingest_dir, CsvOptions};
use dln_org::eval::NavConfig;
use dln_org::{clustering_org, OrgContext};
use dln_serve::{NavService, ServeConfig, StepAction, StepRequest, StepResponse};

struct Args {
    tables: usize,
    cols: usize,
    rows: usize,
    dim: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        tables: 300,
        cols: 6,
        rows: 200,
        dim: 32,
        seed: 42,
        out: "BENCH_store.json".to_string(),
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
            "--tables" => {
                args.tables = need(i + 1).parse().expect("--tables: integer");
                i += 2;
            }
            "--cols" => {
                args.cols = need(i + 1).parse().expect("--cols: integer");
                i += 2;
            }
            "--rows" => {
                args.rows = need(i + 1).parse().expect("--rows: integer");
                i += 2;
            }
            "--dim" => {
                args.dim = need(i + 1).parse().expect("--dim: integer");
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
                eprintln!(
                    "flags: --tables <n> --cols <n> --rows <n> --dim <n> --seed <n> --out <path>"
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

/// Splitmix-style deterministic generator (no `rand` dependency needed
/// for corpus synthesis; the corpus must be a pure function of the seed).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut z = self.0;
        z ^= z >> 33;
        z = z.wrapping_mul(0xff51afd7ed558ccd);
        z ^= z >> 33;
        z
    }

    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const WORDS_PER_TOPIC: usize = 30;

/// Write a fastText-style on-disk lake: one `.vec` model, one CSV + one
/// `.tags` sidecar per table. Word vectors cluster around per-topic
/// centers so the embedded attributes have real topical structure for the
/// clustering to find. Returns (corpus dir, vec path, topic count).
fn write_corpus(root: &Path, args: &Args) -> (PathBuf, PathBuf, usize) {
    let dir = root.join("lake");
    std::fs::create_dir_all(&dir).expect("creating corpus dir");
    let topics = (args.tables * args.cols / 12).clamp(8, 256);
    let mut rng = Lcg(args.seed ^ 0x9e3779b97f4a7c15);

    // Topic centers, then per-word jittered vectors around them.
    let mut centers = vec![0f32; topics * args.dim];
    for c in centers.iter_mut() {
        *c = rng.unit();
    }
    let vec_path = root.join("model.vec");
    let mut vec_text = String::new();
    for t in 0..topics {
        for w in 0..WORDS_PER_TOPIC {
            let _ = write!(vec_text, "t{t}w{w}");
            for d in 0..args.dim {
                let v = centers[t * args.dim + d] + 0.25 * rng.unit();
                let _ = write!(vec_text, " {v}");
            }
            vec_text.push('\n');
        }
    }
    std::fs::write(&vec_path, vec_text).expect("writing .vec model");

    // Tables: each column samples one topic's vocabulary; tags come from
    // small shared pools so tables overlap in tag space (that overlap is
    // what gives the organization non-trivial structure).
    for ti in 0..args.tables {
        let mut csv = String::new();
        let col_topics: Vec<usize> = (0..args.cols)
            .map(|c| (ti * 7 + c * 3 + (ti / 11)) % topics)
            .collect();
        let header: Vec<String> = (0..args.cols).map(|c| format!("field_{c}")).collect();
        csv.push_str(&header.join(","));
        csv.push('\n');
        for _ in 0..args.rows {
            let row: Vec<String> = col_topics
                .iter()
                .map(|&t| format!("t{t}w{}", rng.below(WORDS_PER_TOPIC)))
                .collect();
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        std::fs::write(dir.join(format!("table_{ti:04}.csv")), csv).expect("writing csv");
        let tags = format!(
            "domain{}\ntheme{}\nseries{}\n",
            ti % 12,
            (ti / 7) % 18,
            ti % 25
        );
        std::fs::write(dir.join(format!("table_{ti:04}.tags")), tags).expect("writing tags");
    }
    (dir, vec_path, topics)
}

/// Serve one query-ranked step on a fresh session (the "first useful
/// response" a cold process produces).
fn first_step(svc: &NavService, query: &[f32]) -> StepResponse {
    let sid = svc.open_session().expect("opening session");
    svc.step(
        sid,
        &StepRequest {
            action: StepAction::Stay,
            query: Some(query.to_vec()),
            deadline_ms: None,
            list_tables: true,
        },
    )
    .expect("first step")
}

/// Compare two services state-by-state: labels and Eq 1 transition
/// probabilities (bit-for-bit, via `f64::to_bits`) under several queries.
/// Returns the number of states compared; panics on any divergence.
fn assert_bit_identical(owned: &NavService, mapped: &NavService, queries: &[Vec<f32>]) -> usize {
    let a = owned.snapshot();
    let b = mapped.snapshot();
    let order: Vec<_> = a.view().topo_order().to_vec();
    assert_eq!(
        order,
        b.view().topo_order(),
        "topo order differs between owned and mapped"
    );
    for &sid in &order {
        assert_eq!(a.label(sid), b.label(sid), "label differs at {sid:?}");
        assert_eq!(
            a.children(sid),
            b.children(sid),
            "children differ at {sid:?}"
        );
        for q in queries {
            let pa = a.transition_probs(sid, q);
            let pb = b.transition_probs(sid, q);
            assert_eq!(pa.len(), pb.len(), "fanout differs at {sid:?}");
            for ((sa, va), (sb, vb)) in pa.iter().zip(pb.iter()) {
                assert_eq!(sa, sb, "ranking order differs at {sid:?}");
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "probability bits differ at {sid:?}"
                );
            }
        }
    }
    order.len()
}

fn main() {
    let args = parse_args();
    let scratch = std::env::temp_dir().join(format!(
        "dln_bench_store_{}_{}",
        std::process::id(),
        args.seed
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("creating scratch dir");
    eprintln!(
        "materializing corpus: {} tables x {} cols x {} rows, dim {} ...",
        args.tables, args.cols, args.rows, args.dim
    );
    let (lake_dir, vec_path, topics) = write_corpus(&scratch, &args);
    let store_path = scratch.join("org.dln");
    let cfg = ServeConfig::default();

    // --- Path 1: cold CSV rebuild, phase by phase. -----------------------
    let t_total = Instant::now();
    let t = Instant::now();
    let model = VecFileModel::from_path(&vec_path).expect("loading .vec model");
    let model_load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let lake = ingest_dir(&lake_dir, &model, &CsvOptions::default())
        .expect("ingesting CSV lake")
        .lake;
    let ingest_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let ctx = OrgContext::full(&lake);
    let context_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let org = clustering_org(&ctx);
    let cluster_s = t.elapsed().as_secs_f64();
    let queries: Vec<Vec<f32>> = (0..3)
        .map(|i| {
            ctx.attr((i * 17 % ctx.n_attrs().max(1)) as u32)
                .unit_topic
                .clone()
        })
        .collect();
    let (n_attrs, n_tags, n_tables) = (ctx.n_attrs(), ctx.n_tags(), ctx.n_tables());
    let t = Instant::now();
    let owned = NavService::new(ctx, org, NavConfig::default(), cfg);
    let first_owned = first_step(&owned, &queries[0]);
    let serve_s = t.elapsed().as_secs_f64();
    let rebuild_s = t_total.elapsed().as_secs_f64();
    eprintln!(
        "rebuild: {n_attrs} attrs / {n_tags} tags / {n_tables} tables in {rebuild_s:.3}s \
         (model {model_load_s:.3}s, ingest {ingest_s:.3}s, context {context_s:.3}s, \
         cluster {cluster_s:.3}s, serve {serve_s:.3}s)"
    );

    // --- Save the store file. --------------------------------------------
    let t = Instant::now();
    owned.save_current(&store_path).expect("saving store");
    let save_s = t.elapsed().as_secs_f64();
    let file_bytes = std::fs::metadata(&store_path)
        .expect("stat store file")
        .len();

    // --- Path 2: mapped cold start. --------------------------------------
    let t_total = Instant::now();
    let t = Instant::now();
    let mapped = NavService::open_path(&store_path, cfg).expect("opening store");
    let open_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let first_mapped = first_step(&mapped, &queries[0]);
    let mapped_first_step_s = t.elapsed().as_secs_f64();
    let mapped_total_s = t_total.elapsed().as_secs_f64();
    let is_mmap = mapped.snapshot().view().is_mmap();
    eprintln!(
        "mapped: open {open_s:.6}s + first step {mapped_first_step_s:.6}s \
         ({file_bytes} bytes, mmap: {is_mmap})"
    );

    // --- Bit-identity: served views and every state's ranking. -----------
    assert_eq!(first_owned.state, first_mapped.state);
    assert_eq!(first_owned.label, first_mapped.label);
    assert_eq!(first_owned.children.len(), first_mapped.children.len());
    for (a, b) in first_owned
        .children
        .iter()
        .zip(first_mapped.children.iter())
    {
        assert_eq!(a.state, b.state);
        assert_eq!(a.label, b.label);
        assert_eq!(
            a.prob.map(f64::to_bits),
            b.prob.map(f64::to_bits),
            "first-step child probability bits differ"
        );
    }
    let states_checked = assert_bit_identical(&owned, &mapped, &queries);
    eprintln!(
        "bit-identity: {states_checked} states x {} queries OK",
        queries.len()
    );

    let speedup = rebuild_s / mapped_total_s.max(1e-12);
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"store_cold_start\",");
    let _ = writeln!(json, "  \"git_commit\": \"{}\",", git_commit());
    let _ = writeln!(json, "  \"host_threads\": {},", host_threads());
    let _ = writeln!(
        json,
        "  \"config\": {{ \"tables\": {}, \"cols\": {}, \"rows\": {}, \"dim\": {}, \"seed\": {}, \"topics\": {} }},",
        args.tables, args.cols, args.rows, args.dim, args.seed, topics
    );
    let _ = writeln!(
        json,
        "  \"lake\": {{ \"n_attrs\": {n_attrs}, \"n_tags\": {n_tags}, \"n_tables\": {n_tables} }},"
    );
    let _ = writeln!(
        json,
        "  \"rebuild\": {{ \"model_load_s\": {model_load_s:.6}, \"ingest_s\": {ingest_s:.6}, \"context_s\": {context_s:.6}, \"cluster_s\": {cluster_s:.6}, \"serve_first_step_s\": {serve_s:.6}, \"total_s\": {rebuild_s:.6} }},"
    );
    let _ = writeln!(
        json,
        "  \"store\": {{ \"save_s\": {save_s:.6}, \"file_bytes\": {file_bytes}, \"mmap\": {is_mmap} }},"
    );
    let _ = writeln!(
        json,
        "  \"mapped\": {{ \"open_s\": {open_s:.6}, \"first_step_s\": {mapped_first_step_s:.6}, \"total_s\": {mapped_total_s:.6} }},"
    );
    let _ = writeln!(json, "  \"cold_start_speedup\": {speedup:.1},");
    let _ = writeln!(
        json,
        "  \"bit_identical\": true, \"states_checked\": {states_checked}"
    );
    let _ = writeln!(json, "}}");

    let mut f = std::fs::File::create(&args.out).expect("creating output file");
    f.write_all(json.as_bytes()).expect("writing output file");
    println!(
        "cold start: rebuild {rebuild_s:.3}s vs mapped {mapped_total_s:.6}s — {speedup:.0}x; \
         wrote {}",
        args.out
    );
    let _ = std::fs::remove_dir_all(&scratch);
}
