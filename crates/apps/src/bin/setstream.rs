//! `setstream` — command-line front end for the library.
//!
//! ```text
//! setstream estimate "<expr>" --trace <file> [--copies N] [--second-level S] [--seed N]
//! setstream exact    "<expr>" --trace <file>
//! setstream generate --streams N --union U --expr "<expr>" --ratio R [--seed N]   # trace to stdout
//! setstream plan     --epsilon E --delta D [--ratio R]
//! setstream simplify "<expr>"
//! setstream cells    "<expr>" --streams N
//! setstream subscribe "SUBSCRIBE <expr> TOLERANCE <tol>" ... --trace <file> [--epochs N] [--copies N] [--second-level S] [--seed N]
//! setstream stats    [--rounds N] [--sites N] [--events N] [--seed N] [--sample R]
//! setstream serve    [--port P] [--listen HOST:PORT] [--fault-dup P] [--fault-drop P] [--rounds N] [--interval-ms M] [--sites N] [--events N] [--seed N] [--sample R]
//! setstream site     --connect HOST:PORT [--id N] [--rounds N] [--events N] [--seed N] [--copies N] [--second-level S]
//! setstream scrape   --addr HOST:PORT [--path /metrics]
//! setstream top      --addr HOST:PORT [--interval SECS] [--iterations N]
//! setstream lineage  --addr HOST:PORT [--stream N] [--epoch N]
//! ```
//!
//! Traces use the `setstream_stream::trace` line format (`A +1 17`).
//! `stats`, `serve`, and `top` all run the shared
//! [`setstream_apps::demo::DemoStack`], so the one-shot dump, the
//! `/metrics` endpoint, and the live dashboard render the same samples.

use setstream_apps::demo;
use setstream_core::{estimate, EstimatorOptions, Plan, SketchFamily, SketchVector};
use setstream_expr::SetExpr;
use setstream_obs::export::MetricLine;
use setstream_stream::{trace, StreamId, StreamSet, Update};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

/// Runs one command. An unknown or missing command prints the usage and
/// exits 2; any other failure prints its one `error:` line and exits 1.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage_error("missing command");
    };
    let rest: Vec<&String> = rest.iter().collect();
    let result = match command.as_str() {
        "estimate" => cmd_estimate(&rest),
        "exact" => cmd_exact(&rest),
        "generate" => cmd_generate(&rest),
        "plan" => cmd_plan(&rest),
        "simplify" => cmd_simplify(&rest),
        "cells" => cmd_cells(&rest),
        "subscribe" => cmd_subscribe(&rest),
        "stats" => cmd_stats(&rest),
        "serve" => cmd_serve(&rest),
        "site" => cmd_site(&rest),
        "scrape" => cmd_scrape(&rest),
        "top" => cmd_top(&rest),
        "lineage" => cmd_lineage(&rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => return usage_error(&format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

const USAGE: &str = "usage:
  setstream estimate \"<expr>\" --trace <file> [--copies N] [--second-level S] [--seed N]
  setstream exact    \"<expr>\" --trace <file>
  setstream generate --streams N --union U --expr \"<expr>\" --ratio R [--seed N]
  setstream plan     --epsilon E --delta D [--ratio R]
  setstream simplify \"<expr>\"
  setstream cells    \"<expr>\" --streams N
  setstream subscribe \"SUBSCRIBE <expr> TOLERANCE <tol>\" ... --trace <file> [--epochs N] [--copies N] [--second-level S] [--seed N]
  setstream stats    [--rounds N] [--sites N] [--events N] [--seed N] [--sample R]
  setstream serve    [--port P] [--listen HOST:PORT] [--fault-dup P] [--fault-drop P] [--rounds N] [--interval-ms M] [--sites N] [--events N] [--seed N] [--sample R]
  setstream site     --connect HOST:PORT [--id N] [--rounds N] [--events N] [--seed N] [--copies N] [--second-level S]
  setstream scrape   --addr HOST:PORT [--path /metrics]
  setstream top      --addr HOST:PORT [--interval SECS] [--iterations N]
  setstream lineage  --addr HOST:PORT [--stream N] [--epoch N]";

/// Split positional arguments from `--flag value` pairs.
fn parse_flags<'a>(rest: &[&'a String]) -> Result<(Vec<&'a str>, BTreeMap<&'a str, &'a str>), String> {
    let mut positional = Vec::new();
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < rest.len() {
        let token = rest[i].as_str();
        if let Some(name) = token.strip_prefix("--") {
            let value = rest
                .get(i + 1)
                .ok_or_else(|| format!("--{name} expects a value"))?;
            flags.insert(name, value.as_str());
            i += 2;
        } else {
            positional.push(token);
            i += 1;
        }
    }
    Ok((positional, flags))
}

fn flag_num<T: std::str::FromStr>(
    flags: &BTreeMap<&str, &str>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
    }
}

fn load_trace(flags: &BTreeMap<&str, &str>) -> Result<Vec<Update>, String> {
    let path = flags.get("trace").ok_or("--trace <file> is required")?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    trace::read_trace(BufReader::new(file)).map_err(|e| e.to_string())
}

fn parse_expr(text: &str) -> Result<SetExpr, String> {
    text.parse::<SetExpr>().map_err(|e| e.to_string())
}

fn cmd_estimate(rest: &[&String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(rest)?;
    let [expr_text] = positional.as_slice() else {
        return Err("estimate takes exactly one expression".into());
    };
    let expr = parse_expr(expr_text)?;
    let updates = load_trace(&flags)?;
    let copies = flag_num(&flags, "copies", 512usize)?;
    let second = flag_num(&flags, "second-level", 16u32)?;
    let seed = flag_num(&flags, "seed", 42u64)?;

    let family = SketchFamily::builder()
        .copies(copies)
        .second_level(second)
        .seed(seed)
        .build();
    let mut synopses: BTreeMap<StreamId, SketchVector> = BTreeMap::new();
    for u in &updates {
        synopses
            .entry(u.stream)
            .or_insert_with(|| family.new_vector())
            .process(u);
    }
    // Missing streams are legitimately empty.
    for id in expr.streams() {
        synopses.entry(id).or_insert_with(|| family.new_vector());
    }
    let pairs: Vec<(StreamId, &SketchVector)> =
        synopses.iter().map(|(&id, v)| (id, v)).collect();
    let est = estimate::expression(&expr, &pairs, &EstimatorOptions::default())
        .map_err(|e| e.to_string())?;
    println!("expression : {expr}");
    println!("updates    : {}", updates.len());
    println!("|E| ≈ {:.1}", est.value);
    if let Some((lo, hi)) = est.confidence_interval(1.96) {
        println!("95% CI     : [{lo:.1}, {hi:.1}]");
    }
    println!(
        "witnesses  : {} / {} union singletons (û = {:.1}, r = {})",
        est.witness_hits, est.valid_observations, est.union_estimate, est.copies
    );
    Ok(())
}

fn cmd_exact(rest: &[&String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(rest)?;
    let [expr_text] = positional.as_slice() else {
        return Err("exact takes exactly one expression".into());
    };
    let expr = parse_expr(expr_text)?;
    let updates = load_trace(&flags)?;
    let mut truth = StreamSet::new();
    for u in &updates {
        truth.apply(u).map_err(|e| e.to_string())?;
    }
    println!(
        "{}",
        setstream_expr::eval::exact_cardinality(&expr, &truth)
    );
    Ok(())
}

fn cmd_generate(rest: &[&String]) -> Result<(), String> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let (positional, flags) = parse_flags(rest)?;
    if !positional.is_empty() {
        return Err("generate takes only flags".into());
    }
    let n: usize = flag_num(&flags, "streams", 2usize)?;
    let u: usize = flag_num(&flags, "union", 1usize << 14)?;
    let ratio: f64 = flag_num(&flags, "ratio", 0.25f64)?;
    let seed: u64 = flag_num(&flags, "seed", 1u64)?;
    let expr = parse_expr(flags.get("expr").ok_or("--expr is required")?)?;

    let spec = setstream_expr::venn_spec_for(&expr, n, ratio);
    let mut rng = StdRng::seed_from_u64(seed);
    let data = spec.generate(u, &mut rng);
    let mut out = std::io::stdout().lock();
    use std::io::Write;
    writeln!(out, "# generated: u={} expr={} ratio={}", data.union_size(), expr, ratio)
        .map_err(|e| e.to_string())?;
    let mut written = 0usize;
    for i in 0..n {
        for e in data.stream_elements(i) {
            writeln!(
                out,
                "{}",
                trace::format_update(&Update::insert(StreamId(i as u32), e, 1))
            )
            .map_err(|e| e.to_string())?;
            written += 1;
        }
    }
    eprintln!(
        "wrote {written} updates; exact |{expr}| = {}",
        data.exact_count(|m| expr.eval_mask(m))
    );
    Ok(())
}

fn cmd_plan(rest: &[&String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(rest)?;
    if !positional.is_empty() {
        return Err("plan takes only flags".into());
    }
    let epsilon: f64 = flag_num(&flags, "epsilon", 0.1f64)?;
    let delta: f64 = flag_num(&flags, "delta", 0.05f64)?;
    let plan = match flags.get("ratio") {
        Some(r) => {
            let ratio: f64 = r.parse().map_err(|_| "--ratio: bad value")?;
            Plan::for_witness(epsilon, delta, ratio)
        }
        None => Plan::for_union(epsilon, delta),
    };
    println!("epsilon        : {}", plan.epsilon);
    println!("delta          : {}", plan.delta);
    println!("sketch copies r: {}", plan.copies);
    println!("second level s : {}", plan.second_level);
    println!("independence t : {}", plan.independence);
    println!(
        "per-stream     : {:.1} KiB",
        plan.bytes_per_stream() as f64 / 1024.0
    );
    Ok(())
}

fn cmd_simplify(rest: &[&String]) -> Result<(), String> {
    let (positional, _) = parse_flags(rest)?;
    let [expr_text] = positional.as_slice() else {
        return Err("simplify takes exactly one expression".into());
    };
    let expr = parse_expr(expr_text)?;
    let simple = setstream_expr::simplify(&expr);
    println!("{simple}");
    if simple != expr {
        eprintln!(
            "({} operator(s) → {})",
            expr.n_operators(),
            simple.n_operators()
        );
    }
    Ok(())
}

/// Build the shared demo stack from the common `stats`/`serve` flags.
fn demo_config_from(flags: &BTreeMap<&str, &str>) -> Result<demo::DemoConfig, String> {
    let defaults = demo::DemoConfig::default();
    Ok(demo::DemoConfig {
        sites: flag_num(flags, "sites", defaults.sites)?,
        events_per_round: flag_num(flags, "events", defaults.events_per_round)?,
        seed: flag_num(flags, "seed", defaults.seed)?,
        sampling_rate: flag_num(flags, "sample", defaults.sampling_rate)?,
        ..defaults
    })
}

fn print_round(summary: &demo::RoundSummary) {
    println!(
        "round {}: |A ∪ B| ≈ {:.0}, |A ∩ B| ≈ {:.0} ({})",
        summary.round,
        summary.union_estimate,
        summary.intersection_estimate,
        summary.intersection_method,
    );
}

/// End-to-end observability demo: runs the shared instrumented stack
/// (engine + quality monitor + fault-injected distributed collection)
/// for a few rounds, then dumps every metric through the **same** render
/// path `setstream serve` exposes at `/metrics`.
fn cmd_stats(rest: &[&String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(rest)?;
    if !positional.is_empty() {
        return Err("stats takes only flags".into());
    }
    let rounds: usize = flag_num(&flags, "rounds", 5usize)?;
    let config = demo_config_from(&flags)?;
    let n_sites = config.sites;
    let mut stack = demo::DemoStack::new(config)?;
    for _ in 0..rounds {
        print_round(&stack.step()?);
    }
    let merged = stack
        .coordinator()
        .query(&parse_expr("A | B")?)
        .map_err(|e| e.to_string())?;
    println!(
        "coordinator : |A ∪ B| ≈ {:.0} from {n_sites} sites, all epochs ≥ {}",
        merged.estimate.value,
        merged
            .staleness
            .iter()
            .map(|s| s.newest_epoch)
            .min()
            .unwrap_or(0),
    );

    println!("\n{}", stack.render_metrics());
    Ok(())
}

/// Serve the demo stack's quality plane over HTTP: `/metrics`
/// (Prometheus text), `/health` (JSON), `/trace` (Chrome trace JSON).
///
/// A driver thread keeps stepping rounds (forever with `--rounds 0`,
/// the default, else exactly N); the accept loop runs on the main
/// thread until the process is killed.
fn cmd_serve(rest: &[&String]) -> Result<(), String> {
    use setstream_obs::HttpServer;
    use std::io::Write;
    use std::sync::{Arc, Mutex, PoisonError};

    let (positional, flags) = parse_flags(rest)?;
    if !positional.is_empty() {
        return Err("serve takes only flags".into());
    }
    let port: u16 = flag_num(&flags, "port", 0u16)?;
    let rounds: usize = flag_num(&flags, "rounds", 0usize)?;
    let interval_ms: u64 = flag_num(&flags, "interval-ms", 250u64)?;
    let config = demo_config_from(&flags)?;

    let stack = Arc::new(Mutex::new(demo::DemoStack::new(config)?));
    let metrics_stack = Arc::clone(&stack);
    let health_stack = Arc::clone(&stack);
    let trace_stack = Arc::clone(&stack);
    let lineage_stack = Arc::clone(&stack);
    let server = HttpServer::bind(&format!("127.0.0.1:{port}"))
        .map_err(|e| e.to_string())?
        .route("/metrics", "text/plain; version=0.0.4", move || {
            metrics_stack
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .render_metrics()
        })
        .route("/health", "application/json", move || {
            health_stack
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .render_health()
        })
        .route("/trace", "application/json", move || {
            trace_stack
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .render_trace()
        })
        .route_query("/lineage", "application/json", move |query| {
            lineage_stack
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .render_lineage(query)
        });
    stack
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .registry()
        .register(server.metrics());

    // With --listen, also accept real TCP sites: the collector feeds the
    // same coordinator the demo's in-process sites use, so remote epochs
    // move the demo's answers and subscriptions (the quality shadow only
    // samples the locally generated traffic), and its traffic counters
    // land in the same /metrics exposition. With --fault-dup /
    // --fault-drop, a fault-injecting proxy fronts the collector so the
    // remote sites' recovery (and its lineage record) can be exercised
    // deterministically from the command line.
    let fault_dup: f64 = flag_num(&flags, "fault-dup", 0.0f64)?;
    let fault_drop: f64 = flag_num(&flags, "fault-drop", 0.0f64)?;
    let _collector = match flags.get("listen") {
        None => {
            if fault_dup > 0.0 || fault_drop > 0.0 {
                return Err("--fault-dup/--fault-drop require --listen".into());
            }
            None
        }
        Some(listen) => {
            use setstream_apps::distributed::network::FaultSpec;
            use setstream_apps::distributed::transport::{
                CoordinatorServer, FaultyListener, ServerRole, TransportOptions,
            };
            let (coordinator, transport) = {
                let guard = stack.lock().unwrap_or_else(PoisonError::into_inner);
                (Arc::clone(guard.coordinator()), Arc::clone(guard.transport_metrics()))
            };
            let opts = TransportOptions::builder().build().map_err(|e| e.to_string())?;
            let handle = CoordinatorServer::spawn(listen, coordinator, ServerRole::Coordinator, opts, transport)
                .map_err(|e| e.to_string())?;
            let proxy = if fault_dup > 0.0 || fault_drop > 0.0 {
                let spec = FaultSpec {
                    duplicate: fault_dup,
                    drop: fault_drop,
                    ..FaultSpec::reliable()
                };
                let seed: u64 = flag_num(&flags, "seed", 42u64)?;
                let proxy = FaultyListener::spawn(handle.addr(), spec, seed)
                    .map_err(|e| e.to_string())?;
                println!("collecting sites on {}", proxy.addr());
                Some(proxy)
            } else {
                println!("collecting sites on {}", handle.addr());
                None
            };
            Some((handle, proxy))
        }
    };
    println!("serving on http://{}", server.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    let driver_stack = Arc::clone(&stack);
    std::thread::spawn(move || {
        let mut done = 0usize;
        loop {
            let result = driver_stack
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .step();
            if let Err(e) = result {
                eprintln!("round failed: {e}");
                return;
            }
            done += 1;
            if rounds > 0 && done >= rounds {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
    });

    server.serve().map_err(|e| e.to_string())
}

/// A real remote site: build the same sketch family the demo stack
/// serves (same copies/second-level/seed, or the coordinator refuses the
/// coins), observe a synthetic workload, and ship one epoch per round to
/// a `setstream serve --listen` collector over TCP.
fn cmd_site(rest: &[&String]) -> Result<(), String> {
    use setstream_apps::distributed::transport::{TcpCollector, TransportOptions};
    use setstream_apps::distributed::{Site, TransportMetrics};
    use std::net::ToSocketAddrs;
    use std::sync::Arc;

    let (positional, flags) = parse_flags(rest)?;
    if !positional.is_empty() {
        return Err("site takes only flags".into());
    }
    let connect = flags.get("connect").ok_or("--connect HOST:PORT is required")?;
    let addr = connect
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {connect}: {e}"))?
        .next()
        .ok_or_else(|| format!("{connect} resolved to no address"))?;
    // Ids below 100 are reserved for the demo stack's in-process sites.
    let id: u32 = flag_num(&flags, "id", 100u32)?;
    let rounds: usize = flag_num(&flags, "rounds", 5usize)?;
    let events: usize = flag_num(&flags, "events", 1000usize)?;
    let seed: u64 = flag_num(&flags, "seed", 42u64)?;
    let copies: usize = flag_num(&flags, "copies", 64usize)?;
    let second: u32 = flag_num(&flags, "second-level", 8u32)?;

    let family = SketchFamily::builder()
        .copies(copies)
        .second_level(second)
        .seed(seed)
        .build();
    let mut site = Site::new(id, family);
    let metrics = Arc::new(TransportMetrics::new());
    let opts = TransportOptions::builder().build().map_err(|e| e.to_string())?;
    let mut collector = TcpCollector::new(addr, opts, Arc::clone(&metrics));

    for round in 0..rounds {
        for i in 0..events {
            let x = (id as u64)
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add((round * events + i) as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let stream = StreamId((x % 2) as u32);
            let element = x >> 16 & 0xFFFF;
            if i % 10 == 9 {
                site.observe(&Update::delete(stream, element, 1));
            } else {
                site.observe(&Update::insert(stream, element, 1));
            }
        }
        let report = collector
            .collect(&mut site)
            .map_err(|e| format!("round {round}: {e}"))?;
        println!(
            "round {round}: epoch {} shipped ({} resyncs so far, {} retransmits)",
            report.epoch,
            report.resyncs,
            metrics.retransmits.get()
        );
    }
    println!(
        "site {id}: {rounds} epochs over {} connection(s), {} bytes out, {} acks in",
        metrics.connects.get(),
        metrics.bytes_out.get(),
        metrics.frames_in.get()
    );
    Ok(())
}

fn resolve_addr(flags: &BTreeMap<&str, &str>) -> Result<std::net::SocketAddr, String> {
    use std::net::ToSocketAddrs;
    let addr = flags.get("addr").ok_or("--addr HOST:PORT is required")?;
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolved to no address"))
}

/// Fetch one endpoint from a running `setstream serve`. `/metrics`
/// bodies are validated with the exposition parser before printing;
/// a summary goes to stderr so stdout stays pipeable.
fn cmd_scrape(rest: &[&String]) -> Result<(), String> {
    use setstream_obs::serve::http_get;

    let (positional, flags) = parse_flags(rest)?;
    if !positional.is_empty() {
        return Err("scrape takes only flags".into());
    }
    let addr = resolve_addr(&flags)?;
    let path = flags.get("path").copied().unwrap_or("/metrics");
    let (status, body) =
        http_get(addr, path).map_err(|e| format!("GET {addr}{path}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {addr}{path}: HTTP {status}"));
    }
    if path == "/metrics" {
        let summary = setstream_obs::export::parse_exposition(&body)
            .map_err(|e| format!("invalid exposition from {addr}: {e}"))?;
        eprintln!(
            "scrape OK: {} families ({} with help), {} samples, {} bytes",
            summary.families.len(),
            summary.helped,
            summary.samples.len(),
            body.len()
        );
    }
    print!("{body}");
    Ok(())
}

fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "∞".into()
    } else if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn fmt_ppm(ppm: f64) -> String {
    format!("{:.2}%", ppm / 10_000.0)
}

/// Render one dashboard frame from a scraped exposition.
fn render_top_frame(addr: std::net::SocketAddr, lines: &[MetricLine], prev_updates: Option<f64>, interval: f64) -> f64 {
    use demo::{histogram_quantile, labeled_value, sum_values};

    // The engine only takes committed changes, so the generated traffic
    // is counted where the shadow path sees every update.
    let updates = sum_values(lines, "setstream_quality_updates_seen_total");
    let rate = prev_updates
        .map(|p| (updates - p).max(0.0) / interval.max(1e-9))
        .unwrap_or(0.0);
    println!("setstream top — http://{addr}");
    println!("ingest   : {updates:.0} updates ({rate:.0}/s)");
    let sampled = sum_values(lines, "setstream_quality_updates_sampled_total");
    println!(
        "shadow   : {sampled:.0} / {updates:.0} sampled ({}), {} eval rounds",
        fmt_ppm(sum_values(lines, "setstream_quality_sampling_rate_ppm")),
        sum_values(lines, "setstream_quality_eval_rounds_total"),
    );
    let latency = |q| {
        histogram_quantile(lines, "setstream_engine_estimate_latency_ns", q)
            .map(fmt_ns)
            .unwrap_or_else(|| "—".into())
    };
    println!(
        "latency  : p50 {} · p90 {} · p99 {}",
        latency(0.5),
        latency(0.9),
        latency(0.99)
    );

    let budget_ppm = sum_values(lines, "setstream_quality_error_budget_ppm");
    let mut exprs: Vec<&str> = lines
        .iter()
        .filter(|l| l.name == "setstream_quality_expr_witnesses")
        .filter_map(|l| l.label("expr"))
        .collect();
    exprs.sort_unstable();
    exprs.dedup();
    if !exprs.is_empty() {
        println!(
            "{:<14} {:>10} {:>10} {:>8} {:>12}",
            "expression", "error", "budget", "atomic", "witnesses"
        );
        for expr in exprs {
            let err = labeled_value(lines, "setstream_quality_expr_error_ppm", "expr", expr);
            let af = labeled_value(
                lines,
                "setstream_quality_expr_atomic_fraction_ppm",
                "expr",
                expr,
            );
            let hits = lines
                .iter()
                .find(|l| {
                    l.name == "setstream_quality_expr_witnesses"
                        && l.label("expr") == Some(expr)
                        && l.label("class") == Some("hits")
                })
                .map_or(0.0, |l| l.value);
            let valid = lines
                .iter()
                .find(|l| {
                    l.name == "setstream_quality_expr_witnesses"
                        && l.label("expr") == Some(expr)
                        && l.label("class") == Some("valid")
                })
                .map_or(0.0, |l| l.value);
            let over = err.is_some_and(|e| e > budget_ppm);
            println!(
                "{:<14} {:>10} {:>10} {:>8} {:>9.0}/{:.0}{}",
                expr,
                err.map(fmt_ppm).unwrap_or_else(|| "—".into()),
                fmt_ppm(budget_ppm),
                af.map(fmt_ppm).unwrap_or_else(|| "—".into()),
                hits,
                valid,
                if over { "  ← over budget" } else { "" },
            );
        }
    }

    let sites = sum_values(lines, "setstream_distributed_sites");
    let stale: f64 = [
        "setstream_distributed_sites_quarantined",
        "setstream_distributed_sites_lagging",
        "setstream_distributed_sites_resync_pending",
    ]
    .iter()
    .map(|n| sum_values(lines, n))
    .sum();
    let max_lag = lines
        .iter()
        .filter(|l| l.name == "setstream_distributed_site_epoch_lag")
        .map(|l| l.value)
        .fold(0.0f64, f64::max);
    println!("sites    : {sites:.0} announced, {stale:.0} stale, max epoch lag {max_lag:.0}");

    let active: Vec<&str> = lines
        .iter()
        .filter(|l| l.name == "setstream_alarm_active" && l.value > 0.0)
        .filter_map(|l| l.label("kind"))
        .collect();
    if active.is_empty() {
        println!("alarms   : none");
    } else {
        println!("alarms   : {}", active.join(", "));
    }
    updates
}

/// Fetch committed-epoch provenance from a running `setstream serve`:
/// which sites fed each `(stream, epoch)`, how many retransmits and
/// resyncs the collection took, and the cut→commit latency. Raw JSON
/// goes to stdout (pipeable); a one-line summary goes to stderr.
fn cmd_lineage(rest: &[&String]) -> Result<(), String> {
    use setstream_obs::serve::http_get;

    let (positional, flags) = parse_flags(rest)?;
    if !positional.is_empty() {
        return Err("lineage takes only flags".into());
    }
    let addr = resolve_addr(&flags)?;
    let mut path = String::from("/lineage");
    let mut sep = '?';
    for key in ["stream", "epoch"] {
        if let Some(v) = flags.get(key) {
            v.parse::<u64>()
                .map_err(|_| format!("--{key}: bad value {v:?}"))?;
            path.push(sep);
            path.push_str(key);
            path.push('=');
            path.push_str(v);
            sep = '&';
        }
    }
    let (status, body) =
        http_get(addr, &path).map_err(|e| format!("GET {addr}{path}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {addr}{path}: HTTP {status}"));
    }
    let entries = body.matches("\"epoch\":").count();
    let committed = body.matches("\"committed\":true").count();
    eprintln!("lineage: {entries} epoch entries ({committed} committed) from {addr}{path}");
    println!("{body}");
    Ok(())
}

/// Self-refreshing terminal dashboard over a running `setstream serve`.
fn cmd_top(rest: &[&String]) -> Result<(), String> {
    use setstream_obs::serve::http_get;
    use std::io::IsTerminal;

    let (positional, flags) = parse_flags(rest)?;
    if !positional.is_empty() {
        return Err("top takes only flags".into());
    }
    let addr = resolve_addr(&flags)?;
    let interval: f64 = flag_num(&flags, "interval", 2.0f64)?;
    let iterations: usize = flag_num(&flags, "iterations", 0usize)?;
    if !(interval.is_finite() && interval > 0.0) {
        return Err("--interval must be positive".into());
    }
    let clear = std::io::stdout().is_terminal() && iterations != 1;

    let mut prev_updates = None;
    let mut frame = 0usize;
    loop {
        let (status, body) = http_get(addr, "/metrics")
            .map_err(|e| format!("GET {addr}/metrics: {e}"))?;
        if status != 200 {
            return Err(format!("GET {addr}/metrics: HTTP {status}"));
        }
        let lines = setstream_obs::export::parse_exposition(&body)
            .map_err(|e| format!("invalid exposition from {addr}: {e}"))?
            .samples;
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        prev_updates = Some(render_top_frame(addr, &lines, prev_updates, interval));
        frame += 1;
        if iterations > 0 && frame >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

/// Standing queries over a recorded trace: register each `SUBSCRIBE …
/// TOLERANCE …` statement, replay the trace in `--epochs` slices, and
/// print the notification log one epoch at a time — the CLI face of
/// [`setstream_engine::StreamEngine::subscribe_sql`] /
/// [`setstream_engine::StreamEngine::publish_epoch`].
fn cmd_subscribe(rest: &[&String]) -> Result<(), String> {
    use setstream_engine::StreamEngine;

    let (positional, flags) = parse_flags(rest)?;
    if positional.is_empty() {
        return Err("subscribe takes at least one \"SUBSCRIBE <expr> TOLERANCE <tol>\" statement".into());
    }
    let updates = load_trace(&flags)?;
    let epochs: usize = flag_num(&flags, "epochs", 10usize)?;
    if epochs == 0 {
        return Err("--epochs must be positive".into());
    }
    let copies = flag_num(&flags, "copies", 512usize)?;
    let second = flag_num(&flags, "second-level", 16u32)?;
    let seed = flag_num(&flags, "seed", 42u64)?;

    let family = SketchFamily::builder()
        .copies(copies)
        .second_level(second)
        .seed(seed)
        .build();
    let mut engine = StreamEngine::new(family);
    for stmt in &positional {
        let id = engine.subscribe_sql(stmt).map_err(|e| e.to_string())?;
        let sub = engine
            .subscription(id)
            .ok_or("freshly registered subscription must exist")?;
        println!("sub {id}: {} (tolerance {:?})", sub.expr(), sub.options().tolerance());
    }
    println!(
        "{} subscription(s) share {} expression class(es)",
        positional.len(),
        engine.subscription_classes()
    );

    let chunk = updates.len().div_ceil(epochs).max(1);
    let mut notifications = 0usize;
    for (epoch, slice) in updates.chunks(chunk).enumerate() {
        engine.process_batch(slice);
        for event in engine.publish_epoch() {
            notifications += 1;
            let old = event
                .old
                .map_or_else(|| "—".into(), |v| format!("{v:.1}"));
            println!(
                "epoch {epoch}: sub {} {} → {:.1} ({})",
                event.sub_id, old, event.new, event.cause
            );
        }
    }
    let metrics = engine.subscription_metrics();
    println!(
        "{notifications} notification(s) over {} epoch(s); {} node evaluations, {} served from cache",
        engine.subscription_epoch(),
        metrics.nodes_evaluated.get(),
        metrics.nodes_cached.get()
    );
    Ok(())
}

fn cmd_cells(rest: &[&String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(rest)?;
    let [expr_text] = positional.as_slice() else {
        return Err("cells takes exactly one expression".into());
    };
    let expr = parse_expr(expr_text)?;
    let n: usize = flag_num(&flags, "streams", setstream_expr::cells::stream_span(&expr).max(1))?;
    let cells = setstream_expr::expression_cells(&expr, n);
    println!("expression {expr} over {n} streams covers {} / {} Venn cells:", cells.len(), (1usize << n) - 1);
    for mask in cells {
        let members: Vec<String> = (0..n as u32)
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| StreamId(i).to_string())
            .collect();
        println!("  {mask:0width$b}  {{{}}}", members.join(", "), width = n);
    }
    Ok(())
}
