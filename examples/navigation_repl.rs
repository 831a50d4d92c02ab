//! An interactive navigation REPL over a generated lake — a terminal
//! version of the paper's user-study prototype (§4.4), served through the
//! fault-tolerant navigation service (`dln-serve`) rather than a bare
//! [`Navigator`]: every command is a [`StepRequest`], and the degraded /
//! overloaded / migrated outcomes a production client would see are
//! surfaced in the prompt.
//!
//! Run with:
//! ```sh
//! cargo run --release --example navigation_repl
//! ```
//!
//! Commands:
//! * `1`, `2`, … — descend into the numbered child
//! * `b`         — backtrack one level
//! * `t`         — list tables under the current state
//! * `r`         — republish a reorganized DAG (hot-swap: the session
//!   migrates by path replay and reports the epoch change)
//! * `w [path]`  — write the current organization to a store file
//!   (atomic, checksummed; default path from `DLN_STORE_PATH`)
//! * `o [path]`  — open a store file and publish it as a new epoch (the
//!   session migrates onto the memory-mapped snapshot on its next step)
//! * `q`         — quit
//! * anything else — treat as a topic query: children are re-ranked by the
//!   Eq 1 transition probability for that text
//!
//! When `DLN_STORE_PATH` names an existing store file, the REPL skips the
//! expensive organization build entirely and serves straight off the
//! memory map — the store's "open a lake in milliseconds" cold-start path.
//! A first run can create that file with `w`.
//!
//! The service honors `DLN_SERVE_SESSIONS`, `DLN_SERVE_DEADLINE_MS` and
//! `DLN_SERVE_CONCURRENCY`. Try `DLN_SERVE_DEADLINE_MS=1` with the
//! `serve.slow` failpoint armed (`DLN_FAILPOINTS=serve.slow:0.5:7`) to see
//! degraded label-only views, exactly as a deadline-hit user would.
//!
//! Reads EOF gracefully, so it can be driven by a pipe:
//! `printf '1\nt\nr\nq\n' | cargo run --example navigation_repl`
//!
//! ## Over the wire
//!
//! The same REPL splits into a server and a remote client:
//! ```sh
//! cargo run --release --example navigation_repl -- --listen 127.0.0.1:7070
//! cargo run --release --example navigation_repl -- --connect 127.0.0.1:7070
//! ```
//! `--listen` builds the organization and serves it through the
//! `dln-net` epoll front-end (honoring `DLN_NET_MAX_CONNS` and
//! `DLN_NET_IDLE_TTL_MS`; reads stdin until EOF/`q`,
//! then shuts down gracefully, closing every remote session).
//! `--connect` drives the walk through the blocking
//! `net::Client` — same commands, same views, every step a wire frame;
//! the lake is regenerated locally (the generator is deterministic) so
//! table names and query embeddings resolve client-side.

use std::io::BufRead;

use datalake_nav::embed::{tokenize, EmbeddingModel, TopicAccumulator};
use datalake_nav::org::OrgContext;
use datalake_nav::prelude::*;
use datalake_nav::serve::SwapOutcome;

/// Step once through the service, retrying shed requests with the default
/// backoff policy (a real client's loop, in miniature).
fn step(svc: &NavService, sid: SessionId, req: &StepRequest) -> Result<StepResponse, ServeError> {
    let policy = RetryPolicy::default();
    policy.run(
        |ms| std::thread::sleep(std::time::Duration::from_millis(ms)),
        || svc.step(sid, req),
    )
}

fn render_view(view: &StepResponse, lake: &datalake_nav::lake::DataLake) {
    match view.swap {
        SwapOutcome::Migrated {
            from_epoch,
            to_epoch,
            lost_depth,
        } => {
            println!(
                "(hot-swap: migrated epoch {from_epoch} -> {to_epoch}, \
                 {lost_depth} path level(s) lost)"
            );
        }
        SwapOutcome::Pinned { epoch } => {
            println!("(pinned to epoch {epoch}; a newer organization exists)");
        }
        SwapOutcome::Current => {}
    }
    let degraded = if view.degraded {
        "  [degraded: deadline hit, labels only]"
    } else {
        ""
    };
    println!(
        "\n== {} (depth {}, epoch {}){degraded} ==",
        view.label, view.depth, view.epoch
    );
    if view.children.is_empty() {
        println!("(leaf state — type `t` to list its tables, `b` to go back)");
    }
    for (i, c) in view.children.iter().enumerate().take(12) {
        match c.prob {
            Some(p) => println!("  [{}] {} (p = {p:.2})", i + 1, c.label),
            None => println!("  [{}] {}", i + 1, c.label),
        }
    }
    if view.children.len() > 12 {
        println!("  ... and {} more", view.children.len() - 12);
    }
    for (tid, n) in view.tables.iter().take(15) {
        println!("  {} ({n} matching attrs)", lake.table(*tid).name);
    }
}

fn render(view: &StepResponse, lake: &datalake_nav::lake::DataLake, svc: &NavService) {
    render_view(view, lake);
    let stats = svc.stats();
    use std::sync::atomic::Ordering::Relaxed;
    let (deg, mig, shed) = (
        stats.degraded.load(Relaxed),
        stats.migrated.load(Relaxed),
        stats.overloaded.load(Relaxed),
    );
    if deg + mig + shed > 0 {
        println!("(service: {deg} degraded, {mig} migrated, {shed} shed so far)");
    }
}

/// Build (or cold-start from `DLN_STORE_PATH`) the service plus the
/// context/config the `r` (republish) command needs.
fn build_service(
    lake: &datalake_nav::lake::DataLake,
    store_env: Option<&str>,
) -> (NavService, OrgContext, NavConfig) {
    let persisted = store_env.map(std::path::Path::new).filter(|p| p.exists());
    if let Some(path) = persisted {
        let t = std::time::Instant::now();
        let svc = NavService::open_path(path, ServeConfig::from_env())
            .expect("opening the DLN_STORE_PATH store file");
        println!(
            "(cold start: opened {} in {:.2} ms, mmap: {})",
            path.display(),
            t.elapsed().as_secs_f64() * 1e3,
            svc.snapshot().is_mapped()
        );
        let ctx = OrgContext::full(lake);
        let nav = svc.snapshot().nav();
        (svc, ctx, nav)
    } else {
        let built = OrganizerBuilder::new(lake).max_iters(300).build_optimized();
        let ctx = built.ctx.clone();
        let nav = built.nav;
        let svc = NavService::new(
            built.ctx,
            built.organization,
            built.nav,
            ServeConfig::from_env(),
        );
        (svc, ctx, nav)
    }
}

/// `--listen ADDR`: build the organization once and serve it over the
/// wire until stdin closes (or a `q` line), then shut down gracefully.
fn serve_remote(addr: &str) {
    let socrata = SocrataConfig::small().generate();
    println!("{}\n", socrata.lake.stats());
    let store_env = std::env::var("DLN_STORE_PATH").ok();
    let (svc, _ctx, _nav) = build_service(&socrata.lake, store_env.as_deref());
    let svc = std::sync::Arc::new(svc);
    let config = NetConfig {
        addr: addr.to_string(),
        ..NetConfig::from_env()
    };
    let server = NetServer::start(
        std::sync::Arc::clone(&svc),
        config,
        std::sync::Arc::new(datalake_nav::serve::WallClock::new()),
    )
    .expect("binding the listen address");
    println!("(listening on {}; EOF or `q` stops)", server.local_addr());
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim() == "q" {
            break;
        }
    }
    server.shutdown();
    println!(
        "(server stopped; {} sessions closed)",
        svc.stats()
            .closed
            .load(std::sync::atomic::Ordering::Relaxed)
    );
}

/// `--connect ADDR`: the same REPL loop, but every step is a wire frame
/// through the blocking client. The lake is regenerated locally (the
/// generator is deterministic) for table names and query embeddings.
fn remote_repl(addr: &str) {
    let socrata = SocrataConfig::small().generate();
    let lake = &socrata.lake;
    let mut client = Client::connect(addr).expect("connecting to the server");
    let sid = client.open().expect("opening a remote session");
    println!("(connected to {addr}; session {})", sid.0);
    let mut topic: Option<Vec<f32>> = None;
    let mut view = client
        .step(sid, &StepRequest::action(StepAction::Stay))
        .expect("first remote view");
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    loop {
        render_view(&view, lake);
        print!("> ");
        use std::io::Write;
        std::io::stdout().flush().ok();
        let Some(Ok(line)) = lines.next() else {
            println!("(eof)");
            break;
        };
        let cmd = line.trim();
        let action = match cmd {
            "q" | "quit" | "exit" => break,
            "b" | "back" => Some(StepAction::Backtrack),
            "t" | "tables" => None,
            "r" | "republish" | "w" | "o" => {
                println!("(store and republish commands live on the server side)");
                Some(StepAction::Stay)
            }
            "" => Some(StepAction::Stay),
            n if n.parse::<usize>().is_ok() => {
                let idx = n.parse::<usize>().expect("checked") - 1;
                match view.children.get(idx) {
                    Some(c) => Some(StepAction::Descend(c.state)),
                    None => {
                        println!("(no child #{})", idx + 1);
                        Some(StepAction::Stay)
                    }
                }
            }
            query => {
                let mut acc = TopicAccumulator::new(socrata.model.dim());
                for tok in tokenize(query) {
                    if let Some(v) = socrata.model.embed(&tok) {
                        acc.add(v);
                    }
                }
                if acc.is_empty() {
                    println!("(no embeddable words in {query:?}; try table values)");
                } else {
                    println!("(re-ranking children for topic {query:?})");
                    topic = Some(acc.unit_mean());
                }
                Some(StepAction::Stay)
            }
        };
        let req = StepRequest {
            action: action.unwrap_or(StepAction::Stay),
            query: topic.clone(),
            deadline_ms: None,
            list_tables: action.is_none(),
        };
        // The client already reconnects and resends on transport faults;
        // RetryPolicy on top handles Overloaded sheds exactly as the
        // local loop does.
        let policy = RetryPolicy::default();
        match policy.run(
            |ms| std::thread::sleep(std::time::Duration::from_millis(ms)),
            || client.step(sid, &req),
        ) {
            Ok(v) => view = v,
            Err(ServeError::Overloaded { retry_after_ms }) => {
                println!("(service overloaded even after retries; retry in {retry_after_ms} ms)");
            }
            Err(e) => println!("(request failed: {e})"),
        }
    }
    client.close(sid).ok();
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let mut listen: Option<String> = None;
    let mut connect: Option<String> = None;
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--listen" => listen = argv.next(),
            "--connect" => connect = argv.next(),
            other => {
                eprintln!("(ignoring unknown argument {other:?})");
            }
        }
    }
    if let Some(addr) = listen {
        return serve_remote(&addr);
    }
    if let Some(addr) = connect {
        return remote_repl(&addr);
    }

    let socrata = SocrataConfig::small().generate();
    let lake = &socrata.lake;
    println!("{}\n", lake.stats());
    let store_env = std::env::var("DLN_STORE_PATH").ok();
    let (svc, ctx, nav) = build_service(lake, store_env.as_deref());
    let sid = svc.open_session().expect("fresh service has capacity");
    // Current topic bias (unit vector), if the user typed a query.
    let mut topic: Option<Vec<f32>> = None;
    // Alternate hot-swap publishes between the two baseline organizations.
    let mut publishes = 0u32;

    let mut view = step(&svc, sid, &StepRequest::action(StepAction::Stay)).expect("first view");
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    loop {
        render(&view, lake, &svc);
        print!("> ");
        use std::io::Write;
        std::io::stdout().flush().ok();
        let Some(Ok(line)) = lines.next() else {
            println!("(eof)");
            break;
        };
        let cmd = line.trim();
        let action = match cmd {
            "q" | "quit" | "exit" => break,
            "b" | "back" => {
                if view.depth == 0 {
                    println!("(already at the root)");
                }
                Some(StepAction::Backtrack)
            }
            "t" | "tables" => None, // re-render current state with tables
            "r" | "republish" => {
                let org = if publishes.is_multiple_of(2) {
                    flat_org(&ctx)
                } else {
                    clustering_org(&ctx)
                };
                publishes += 1;
                let epoch = svc.publish(ctx.clone(), org, nav);
                println!("(published epoch {epoch}; next step migrates this session)");
                Some(StepAction::Stay)
            }
            cmd if cmd == "w" || cmd.starts_with("w ") => {
                let arg = cmd[1..].trim();
                let path = if arg.is_empty() {
                    store_env.as_deref().unwrap_or("org.dln")
                } else {
                    arg
                };
                match svc.save_current(std::path::Path::new(path)) {
                    Ok(()) => println!("(wrote current organization to {path})"),
                    Err(e) => println!("(write failed: {e})"),
                }
                Some(StepAction::Stay)
            }
            cmd if cmd == "o" || cmd.starts_with("o ") => {
                let arg = cmd[1..].trim();
                let path = if arg.is_empty() {
                    store_env.as_deref().unwrap_or("org.dln")
                } else {
                    arg
                };
                match svc.publish_path(std::path::Path::new(path)) {
                    Ok(epoch) => println!(
                        "(opened {path} as epoch {epoch}; next step migrates this session \
                         onto the memory-mapped snapshot)"
                    ),
                    Err(e) => println!("(open failed: {e})"),
                }
                Some(StepAction::Stay)
            }
            "" => Some(StepAction::Stay),
            n if n.parse::<usize>().is_ok() => {
                let idx = n.parse::<usize>().expect("checked") - 1;
                match view.children.get(idx) {
                    Some(c) => Some(StepAction::Descend(c.state)),
                    None => {
                        println!("(no child #{})", idx + 1);
                        Some(StepAction::Stay)
                    }
                }
            }
            query => {
                let mut acc = TopicAccumulator::new(socrata.model.dim());
                for tok in tokenize(query) {
                    if let Some(v) = socrata.model.embed(&tok) {
                        acc.add(v);
                    }
                }
                if acc.is_empty() {
                    println!("(no embeddable words in {query:?}; try table values)");
                } else {
                    println!("(re-ranking children for topic {query:?})");
                    topic = Some(acc.unit_mean());
                }
                Some(StepAction::Stay)
            }
        };
        let req = StepRequest {
            action: action.unwrap_or(StepAction::Stay),
            query: topic.clone(),
            deadline_ms: None,
            list_tables: action.is_none(),
        };
        match step(&svc, sid, &req) {
            Ok(v) => view = v,
            Err(ServeError::Overloaded { retry_after_ms }) => {
                // RetryPolicy already backed off; the service is saturated.
                println!("(service overloaded even after retries; retry in {retry_after_ms} ms)");
            }
            Err(e) => {
                println!("(request failed: {e})");
            }
        }
    }
    svc.close_session(sid).ok();
}
