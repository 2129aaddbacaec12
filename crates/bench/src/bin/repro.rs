//! `repro` — regenerates every table and figure of the FBMPK paper.
//!
//! ```text
//! repro [EXPERIMENT ...] [--scale S] [--threads T] [--reps N] [--out DIR]
//!
//! EXPERIMENT: all (default) | table1 | table2 | fig7 | fig8 | fig9 |
//!             fig10 | table3 | table4 | fig11 | fig12 | model |
//!             ablation_blocks | tune | sync | profile | blocking |
//!             partition | attribution | serve
//! ```
//!
//! `serve` (opt-in, not part of `all`) starts the in-process serving
//! layer, measures its sustainable capacity closed-loop, then offers an
//! open-loop baseline and a 2x-capacity overload phase (`--rate`
//! overrides the overload rate, `--duration-s` the phase length),
//! recording p50/p99 latency, goodput, and shed/retry/fault counts to
//! `serve.csv` and the perf database. With the `fault-inject` feature
//! it installs `FBMPK_FAULT` into the kernels first, so fault scenarios
//! run under load. Exits nonzero on any untyped failure (a dropped
//! connection) or zero goodput.
//!
//! `--only NAME[,NAME]` restricts suite-driven experiments to the named
//! Table II matrices (cases the runners append themselves, like
//! `attribution`'s `rmat`, are unaffected).
//!
//! Results are printed as aligned tables and written as CSV under `--out`
//! (default `EXPERIMENTS_RESULTS/`). `profile` additionally writes
//! `BENCH_profile.json` (effective bandwidth, traffic-vs-model, wait
//! fractions, hardware counters) and `profile_trace.json`, a
//! chrome://tracing / Perfetto-loadable per-thread timeline.
//!
//! Timing experiments (`fig7`, `sync`, `tune`, `profile`, `blocking`,
//! `partition`) additionally
//! append one JSONL record per measured configuration to the perf
//! database (`--db`, default `perf/runs.jsonl` or `FBMPK_PERFDB`), each
//! carrying the platform fingerprint, git revision, raw samples, robust
//! statistics and the measured-bandwidth roofline anchor. Reading it
//! back:
//!
//! ```text
//! repro history                          # trend per matrix x kernel
//! repro compare <revA> <revB>            # speedup table with CIs
//! repro gate --baseline <rev> [--current <rev>] [--threshold 0.10]
//!            [--warn-only]               # exit 1 on regression
//! repro report [--out-html FILE]         # self-contained HTML report
//! ```

use fbmpk_bench::perfdb::{self, PerfDb, RecordCtx, RunRecord, RunSpec};
use fbmpk_bench::perfreport;
use fbmpk_bench::report::{format_table, write_csv, write_json, Json};
use fbmpk_bench::runner::{self, MatrixCase};
use fbmpk_bench::{platform, roofline, BenchConfig};
use fbmpk_obs::{SampleValue, Snapshot};
use std::path::PathBuf;

struct Args {
    experiments: Vec<String>,
    cfg: BenchConfig,
    only: Vec<String>,
    out: PathBuf,
    db: PathBuf,
    no_perfdb: bool,
    baseline: Option<String>,
    current: Option<String>,
    threshold: f64,
    warn_only: bool,
    out_html: Option<PathBuf>,
    top: fbmpk_bench::top::TopConfig,
    /// Overload arrival rate for `serve` (None = 2x measured capacity).
    rate: Option<f64>,
    /// Length of each `serve` load phase in seconds.
    duration_s: f64,
}

/// Database subcommands — read the perf store instead of running
/// experiments.
const DB_COMMANDS: [&str; 4] = ["history", "compare", "gate", "report"];

/// Parses the next argument as a number, exiting with a clean error
/// message (not a panic) on malformed or missing values.
fn numeric_arg<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    match it.next().map(|v| (v.parse::<T>(), v)) {
        Some((Ok(n), _)) => n,
        Some((Err(_), v)) => {
            eprintln!("error: {flag} needs a number, got '{v}'");
            std::process::exit(2);
        }
        None => {
            eprintln!("error: {flag} needs a value");
            std::process::exit(2);
        }
    }
}

fn string_arg(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next().unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    })
}

fn parse_args() -> Args {
    let mut cfg = BenchConfig::default();
    let mut out = PathBuf::from("EXPERIMENTS_RESULTS");
    let mut db = perfdb::default_db_path();
    let mut no_perfdb = false;
    let mut baseline = None;
    let mut current = None;
    let mut threshold = 0.10;
    let mut warn_only = false;
    let mut out_html = None;
    let mut top = fbmpk_bench::top::TopConfig::default();
    let mut only = Vec::new();
    let mut rate = None;
    let mut duration_s = 3.0;
    let mut experiments = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                let v = string_arg(&mut it, "--addr");
                top.addr = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --addr needs HOST:PORT, got '{v}'");
                    std::process::exit(2);
                }));
            }
            "--interval-ms" => top.interval_ms = numeric_arg(&mut it, "--interval-ms"),
            "--frames" => top.frames = Some(numeric_arg(&mut it, "--frames")),
            "--scale" => cfg.scale = numeric_arg(&mut it, "--scale"),
            "--threads" => cfg.threads = numeric_arg(&mut it, "--threads"),
            "--reps" => cfg.reps = numeric_arg(&mut it, "--reps"),
            "--seed" => cfg.seed = numeric_arg(&mut it, "--seed"),
            "--only" => only.extend(
                string_arg(&mut it, "--only")
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string),
            ),
            "--rate" => rate = Some(numeric_arg(&mut it, "--rate")),
            "--duration-s" => duration_s = numeric_arg(&mut it, "--duration-s"),
            "--out" => out = PathBuf::from(string_arg(&mut it, "--out")),
            "--db" => db = PathBuf::from(string_arg(&mut it, "--db")),
            "--no-perfdb" => no_perfdb = true,
            "--baseline" => baseline = Some(string_arg(&mut it, "--baseline")),
            "--current" => current = Some(string_arg(&mut it, "--current")),
            "--threshold" => threshold = numeric_arg(&mut it, "--threshold"),
            "--warn-only" => warn_only = true,
            "--out-html" => out_html = Some(PathBuf::from(string_arg(&mut it, "--out-html"))),
            "--help" | "-h" => {
                println!(
                    "usage: repro [all|table1|table2|fig7|fig8|fig9|fig10|table3|table4|fig11|fig12|model ...]\n\
                     \x20      [ablation_blocks|tune|sync|profile|blocking|partition|attribution|serve] [--scale S] [--threads T] [--reps N] [--seed X] [--out DIR]\n\
                     \x20      [--only NAME[,NAME]] [--db FILE] [--no-perfdb]\n\
                     \x20 repro serve [--rate RPS] [--duration-s SECS]   # serving-layer load run (opt-in)\n\
                     \x20 repro history [--db FILE]\n\
                     \x20 repro compare REV_A REV_B [--db FILE]\n\
                     \x20 repro gate --baseline REV [--current REV] [--threshold 0.10] [--warn-only] [--db FILE]\n\
                     \x20 repro report [--out-html FILE] [--db FILE]\n\
                     \x20 repro top [--addr HOST:PORT] [--interval-ms N] [--frames N]"
                );
                std::process::exit(0);
            }
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    const KNOWN: [&str; 20] = [
        "all",
        "table1",
        "table2",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "table3",
        "table4",
        "fig11",
        "fig12",
        "model",
        "ablation_blocks",
        "tune",
        "sync",
        "profile",
        "blocking",
        "partition",
        "attribution",
        "serve",
    ];
    // Database subcommands own the remaining positional arguments (e.g.
    // the two revisions of `compare`), so the experiment-name check does
    // not apply to them; `top` has no positional arguments at all.
    if !DB_COMMANDS.contains(&experiments[0].as_str()) && experiments[0] != "top" {
        for e in &experiments {
            if !KNOWN.contains(&e.as_str()) {
                eprintln!(
                    "error: unknown experiment '{e}' (known: {}, {})",
                    KNOWN.join(", "),
                    DB_COMMANDS.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    Args {
        experiments,
        cfg,
        only,
        out,
        db,
        no_perfdb,
        baseline,
        current,
        threshold,
        warn_only,
        out_html,
        top,
        rate,
        duration_s,
    }
}

fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// `BENCH_profile.json`'s `metrics` object: one key per family of the
/// profile registry's snapshot (each family there has one unlabeled
/// sample).
fn metrics_json(snap: &Snapshot) -> Json {
    let value = |v: &SampleValue| match v {
        SampleValue::Counter(v) => Json::from(*v as usize),
        SampleValue::Gauge(v) => Json::from(*v),
        SampleValue::Histogram(h) => Json::obj([
            ("count", Json::from(h.count() as usize)),
            ("sum", Json::from(h.sum() as usize)),
            ("min", Json::from(h.min() as usize)),
            ("max", Json::from(h.max() as usize)),
            ("mean", Json::from(h.mean())),
            (
                "buckets",
                Json::Arr(
                    h.nonzero_buckets()
                        .into_iter()
                        .map(|(upper, n)| {
                            Json::Arr(vec![Json::from(upper as usize), Json::from(n as usize)])
                        })
                        .collect(),
                ),
            ),
        ]),
    };
    Json::Obj(
        snap.families
            .iter()
            .flat_map(|f| f.samples.iter().map(|s| (f.name.clone(), value(&s.value))))
            .collect(),
    )
}

/// Loads the run database, warning (never failing) on skipped lines.
fn load_db(args: &Args) -> Vec<RunRecord> {
    let db = PerfDb::new(&args.db);
    let load = db.load().unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", args.db.display());
        std::process::exit(2);
    });
    if load.skipped_lines > 0 {
        eprintln!(
            "perfdb: skipped {} unparseable line(s) in {}",
            load.skipped_lines,
            args.db.display()
        );
    }
    load.records
}

/// Runs one of the database subcommands ([`DB_COMMANDS`]); never returns.
fn run_db_command(args: &Args) -> ! {
    let records = load_db(args);
    match args.experiments[0].as_str() {
        "history" => print!("{}", perfreport::history_table(&records)),
        "compare" => {
            let [rev_a, rev_b] = match &args.experiments[1..] {
                [a, b] => [a.clone(), b.clone()],
                _ => {
                    eprintln!(
                        "error: compare needs exactly two revisions: repro compare REV_A REV_B"
                    );
                    std::process::exit(2);
                }
            };
            let cmp = perfreport::compare(&records, &rev_a, &rev_b);
            print!("{}", perfreport::compare_table(&cmp, &rev_a, &rev_b));
        }
        "gate" => {
            let baseline = args.baseline.clone().unwrap_or_else(|| {
                eprintln!("error: gate needs --baseline REV");
                std::process::exit(2);
            });
            let current = args.current.clone().unwrap_or_else(perfdb::git_rev);
            let cfg = perfreport::GateConfig { rel_threshold: args.threshold };
            let report = perfreport::gate(&records, &baseline, &current, cfg);
            print!("{}", perfreport::gate_table(&report, &baseline, &current));
            if !report.passed() {
                // Shared CI runners pass --warn-only so noisy-neighbour
                // regressions don't block merges; FBMPK_GATE_HARD=1
                // re-arms the hard gate (e.g. on dedicated hardware).
                let hard =
                    !args.warn_only || std::env::var("FBMPK_GATE_HARD").as_deref() == Ok("1");
                if hard {
                    std::process::exit(1);
                }
                eprintln!("gate: regression(s) found, continuing (--warn-only)");
            }
        }
        "report" => {
            let html = perfreport::html_report(&records);
            let path = args.out_html.clone().unwrap_or_else(|| args.out.join("perf_report.html"));
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).expect("create report dir");
                }
            }
            std::fs::write(&path, html).expect("write HTML report");
            println!("perf report: {} record(s) -> {}", records.len(), path.display());
        }
        other => unreachable!("not a db command: {other}"),
    }
    std::process::exit(0);
}

/// Appends a record for one measured configuration, skipping silently
/// when the sample vector is empty (nothing honest to persist).
#[allow(clippy::too_many_arguments)]
fn push_record(
    pending: &mut Vec<RunRecord>,
    ctx: &RecordCtx,
    experiment: &str,
    matrix: &str,
    kernel: &str,
    sync: Option<&str>,
    threads: usize,
    k: Option<usize>,
    options_fp: u64,
    wait_frac: Option<f64>,
    ipc: Option<f64>,
    modeled_matrix_bytes: Option<u64>,
    fallbacks: Option<u64>,
    watchdog_fires: Option<u64>,
    cut_edges: Option<u64>,
    traffic_vs_model: Option<f64>,
    blocking: Option<&str>,
    samples: &[f64],
) {
    let spec = RunSpec {
        experiment: experiment.to_string(),
        matrix: matrix.to_string(),
        kernel: kernel.to_string(),
        sync: sync.map(str::to_string),
        threads,
        k,
        options_fp,
        wait_frac,
        ipc,
        modeled_matrix_bytes,
        fallbacks,
        watchdog_fires,
        cut_edges,
        // Every in-process kernel runs at the one detected level, so the
        // axis is recorded unconditionally.
        simd: Some(fbmpk_sparse::simd::detect().tag().to_string()),
        blocking: blocking.map(str::to_string),
        traffic_vs_model,
        // Serving-load outcomes; the serve experiment builds its records
        // directly rather than through this kernel-timing helper.
        latency_p50_ms: None,
        latency_p99_ms: None,
        shed_count: None,
    };
    if let Some(rec) = RunRecord::new(ctx, spec, samples) {
        pending.push(rec);
    }
}

/// Appends the pending records to the perf database and prints the
/// results location — called on both the suite and the suite-free exit
/// paths so `repro serve` alone still persists its records.
fn flush_records(args: &Args, pending: &[RunRecord]) {
    if !pending.is_empty() {
        let db = PerfDb::new(&args.db);
        match db.append_all(pending) {
            Ok(()) => println!(
                "perfdb: appended {} record(s) (rev {}) to {}",
                pending.len(),
                pending[0].git_rev,
                db.path().display()
            ),
            // A read-only checkout must not fail the benchmark run.
            Err(e) => {
                eprintln!("perfdb: WARNING: could not append to {}: {e}", db.path().display())
            }
        }
    }
    println!("CSV results written to {}", args.out.display());
}

fn main() {
    let args = parse_args();
    if DB_COMMANDS.contains(&args.experiments[0].as_str()) {
        run_db_command(&args);
    }
    if args.experiments[0] == "top" {
        // Fall back to the endpoint variable so `repro top` with no
        // flags attaches to a job started with FBMPK_METRICS_ADDR (only
        // useful with an explicit port; a job bound to port 0 prints its
        // actual address on stderr — pass that via --addr).
        let mut cfg = args.top.clone();
        if cfg.addr.is_none() {
            cfg.addr = std::env::var("FBMPK_METRICS_ADDR")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|a: &std::net::SocketAddr| a.port() != 0);
        }
        match fbmpk_bench::top::run(&cfg) {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("repro top: {e}");
                std::process::exit(1);
            }
        }
    }
    if !args.only.is_empty() {
        // Validate up front against the static suite vocabulary so a
        // typo'd name fails immediately with the actual choices — even
        // when no suite-driven experiment was requested (where a bad
        // name would otherwise be silently ignored).
        let known: Vec<&'static str> = fbmpk_gen::paper_suite().iter().map(|e| e.name).collect();
        let unknown: Vec<&String> =
            args.only.iter().filter(|n| !known.contains(&n.as_str())).collect();
        if !unknown.is_empty() {
            for n in &unknown {
                eprintln!("error: --only: unknown suite matrix '{n}'");
            }
            eprintln!("known Table II inputs: {}", known.join(", "));
            std::process::exit(2);
        }
    }
    let want = |name: &str| args.experiments.iter().any(|e| e == name || e == "all");
    println!(
        "FBMPK reproduction harness  (scale {}, {} threads, {} reps)\n",
        args.cfg.scale, args.cfg.threads, args.cfg.reps
    );
    // Bring the metrics endpoint up before any measurement so a scraper
    // (curl, `repro top`, the monitor-smoke CI job) can attach from the
    // first second of the run rather than after the first plan builds.
    if let Some(addr) = fbmpk::telemetry::resolved_metrics_addr(None) {
        fbmpk::telemetry::ensure_endpoint(addr);
    }

    // Timing experiments persist perfdb records; probe the host identity
    // and its bandwidth ceilings once for the whole invocation.
    // `serve` is opt-in: it exercises the serving layer rather than a
    // paper artifact, so `all` does not imply it.
    let want_serve = args.experiments.iter().any(|e| e == "serve");
    let records_wanted = !args.no_perfdb
        && (want_serve
            || ["fig7", "sync", "tune", "profile", "blocking", "partition", "attribution"]
                .iter()
                .any(|e| want(e)));
    let perf_ctx = records_wanted.then(|| {
        let host = platform::probe();
        eprintln!("measuring host bandwidth ceilings (triad + random gather) ...");
        let bw = roofline::measure(host.llc_bytes());
        eprintln!(
            "  triad {:.1} GB/s, gather {:.1} GB/s ({} MiB working set)",
            bw.triad_gbs,
            bw.gather_gbs,
            bw.working_set_bytes >> 20
        );
        RecordCtx::current(host, Some(bw), args.cfg.scale, args.cfg.reps)
    });
    let mut pending: Vec<RunRecord> = Vec::new();

    if want("table1") {
        println!("{}", platform::platform_table());
    }
    if want("model") {
        let rows = runner::model_table(9);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.k.to_string(),
                    r.standard_reads.to_string(),
                    r.fb_lower_reads.to_string(),
                    r.fb_upper_reads.to_string(),
                    f3(r.fb_effective_reads),
                    f3(r.ideal_ratio),
                ]
            })
            .collect();
        println!("Access-count model (paper SIII-B)");
        println!(
            "{}",
            format_table(
                &["k", "standard A-reads", "FB L-reads", "FB U-reads", "FB A-reads", "ideal ratio"],
                &table
            )
        );
        write_csv(
            &args.out.join("model.csv"),
            &["k", "standard_reads", "fb_l", "fb_u", "fb_eff", "ideal"],
            &table,
        )
        .expect("write model.csv");
    }

    // Serving-layer load run. Self-checking: exits nonzero (after the
    // perfdb flush) on any untyped failure or zero goodput.
    let mut serve_failed = false;
    if want_serve {
        use fbmpk_bench::serveload::{self, LoadConfig};
        use std::time::Duration;

        // With the feature compiled in, FBMPK_FAULT installs into the
        // kernels for the whole load run (the serving layer must answer
        // a typed 500/503 for every fault); without it, warn loudly
        // instead of silently running fault-free.
        #[cfg(feature = "fault-inject")]
        let _fault_guard = fbmpk_parallel::fault::install_from_env();
        #[cfg(not(feature = "fault-inject"))]
        if std::env::var("FBMPK_FAULT").is_ok_and(|v| !v.trim().is_empty()) {
            eprintln!(
                "serve: FBMPK_FAULT is set but the fault-inject feature is off; no faults will fire"
            );
        }

        let hot_matrix = "grid:64:64".to_string();
        let serve_k = 8usize;
        let handlers = 4usize;
        let mut server = fbmpk_serve::Server::start(fbmpk_serve::ServeConfig {
            kernel_threads: args.cfg.threads.clamp(1, 4),
            handlers,
            queue_cap: 32,
            tenant_cap: 4,
            default_deadline_ms: 2_000,
            ..Default::default()
        })
        .expect("start serving layer");
        let addr = server.local_addr();
        eprintln!("serve: serving layer on {addr}");
        match serveload::measure_capacity(addr, &hot_matrix, serve_k, Duration::from_millis(400)) {
            Err(e) => {
                eprintln!("serve: FAIL: {e}");
                serve_failed = true;
            }
            Ok(capacity) => {
                let overload = args.rate.unwrap_or(capacity * 2.0);
                eprintln!(
                    "serve: sustainable capacity ~{capacity:.0} rps; phases: baseline {:.0} rps, overload {overload:.0} rps",
                    capacity * 0.5
                );
                let mut reports = Vec::new();
                for (phase, rate_rps) in [("baseline", capacity * 0.5), ("overload", overload)] {
                    reports.push(serveload::run_phase(&LoadConfig {
                        phase: phase.to_string(),
                        addr,
                        rate_rps,
                        duration: Duration::from_secs_f64(args.duration_s.max(0.5)),
                        hot_matrix: hot_matrix.clone(),
                        k: serve_k,
                        timeout: Duration::from_secs(10),
                        seed: args.cfg.seed,
                    }));
                }
                let table: Vec<Vec<String>> = reports.iter().map(serveload::csv_row).collect();
                println!("Serving layer under open-loop load (goodput = 200s/s)");
                println!("{}", format_table(&serveload::CSV_HEADER, &table));
                write_csv(&args.out.join("serve.csv"), &serveload::CSV_HEADER, &table)
                    .expect("write serve.csv");
                if let Some(ctx) = &perf_ctx {
                    for r in &reports {
                        // Built directly rather than through push_record:
                        // the serving axes (percentiles, shed count) have
                        // no kernel-timing analogue.
                        let spec = RunSpec {
                            experiment: "serve".to_string(),
                            matrix: hot_matrix.clone(),
                            kernel: format!("serve:{}", r.phase),
                            sync: None,
                            threads: args.cfg.threads,
                            k: Some(serve_k),
                            options_fp: 0,
                            wait_frac: None,
                            ipc: None,
                            modeled_matrix_bytes: None,
                            fallbacks: Some(r.degraded as u64),
                            watchdog_fires: None,
                            cut_edges: None,
                            simd: Some(fbmpk_sparse::simd::detect().tag().to_string()),
                            blocking: None,
                            traffic_vs_model: None,
                            latency_p50_ms: Some(r.p50_ms),
                            latency_p99_ms: Some(r.p99_ms),
                            shed_count: Some(r.shed as u64),
                        };
                        let samples_s: Vec<f64> =
                            r.ok_latencies_ms.iter().map(|m| m / 1e3).collect();
                        if let Some(rec) = RunRecord::new(ctx, spec, &samples_s) {
                            pending.push(rec);
                        }
                    }
                }
                for r in &reports {
                    if r.untyped_failures > 0 {
                        eprintln!(
                            "serve: FAIL: {} untyped failure(s) in phase '{}' (the server must answer every accepted connection)",
                            r.untyped_failures, r.phase
                        );
                        serve_failed = true;
                    }
                    if r.ok == 0 {
                        eprintln!("serve: FAIL: zero goodput in phase '{}'", r.phase);
                        serve_failed = true;
                    }
                }
            }
        }
        server.shutdown();
    }

    let needs_suite = [
        "table2",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "table3",
        "table4",
        "fig11",
        "fig12",
        "ablation_blocks",
        "tune",
        "sync",
        "profile",
        "blocking",
        "partition",
        "attribution",
    ]
    .iter()
    .any(|e| want(e));
    if !needs_suite {
        flush_records(&args, &pending);
        if serve_failed {
            std::process::exit(1);
        }
        return;
    }
    eprintln!("generating the 14-matrix suite at scale {} ...", args.cfg.scale);
    let mut cases: Vec<MatrixCase> = runner::load_suite(&args.cfg);
    if !args.only.is_empty() {
        // Names were validated against the suite vocabulary in main().
        cases.retain(|c| args.only.iter().any(|n| n == c.entry.name));
        eprintln!("--only: restricted to {} suite matrix(es)", cases.len());
    }
    let cases = cases;

    if want("table2") {
        let rows = runner::table2(&cases);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.rows.to_string(),
                    r.nnz.to_string(),
                    format!("{:.2}", r.nnz_per_row),
                    format!("{:.2}", r.paper_nnz_per_row),
                    if r.symmetric { "yes" } else { "no" }.into(),
                ]
            })
            .collect();
        println!("Table II - input matrices (generated at scale {})", args.cfg.scale);
        println!(
            "{}",
            format_table(&["input", "rows", "nnz", "nnz/row", "paper nnz/row", "sym"], &table)
        );
        write_csv(
            &args.out.join("table2.csv"),
            &["input", "rows", "nnz", "nnz_per_row", "paper_nnz_per_row", "symmetric"],
            &table,
        )
        .expect("write table2.csv");
    }

    if want("fig7") {
        eprintln!("fig7: FBMPK vs baseline, k = 5 ...");
        let rows = runner::fig7(&args.cfg, &cases);
        let gm = fbmpk_bench::report::geomean(&rows.iter().map(|r| r.speedup).collect::<Vec<_>>());
        let mut table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{:.6}", r.t_baseline),
                    format!("{:.6}", r.t_fbmpk),
                    f3(r.speedup),
                ]
            })
            .collect();
        table.push(vec!["geomean".into(), String::new(), String::new(), f3(gm)]);
        println!("Fig 7 - speedup of FBMPK over baseline MPK (k=5, {} threads)", args.cfg.threads);
        println!("{}", format_table(&["input", "t_baseline[s]", "t_fbmpk[s]", "speedup"], &table));
        write_csv(
            &args.out.join("fig7.csv"),
            &["input", "t_baseline", "t_fbmpk", "speedup"],
            &table,
        )
        .expect("write fig7.csv");
        if let Some(ctx) = &perf_ctx {
            for r in &rows {
                let t = args.cfg.threads;
                #[rustfmt::skip]
                push_record(&mut pending, ctx, "fig7", &r.name, "standard-mpk", None, t,
                    Some(r.k), 0, None, None, None, None, None, None, None, None,
                    &r.samples_baseline);
                #[rustfmt::skip]
                push_record(&mut pending, ctx, "fig7", &r.name, "fbmpk", None, t,
                    Some(r.k), r.options_fp, None, None, None, None, None, None, None, None,
                    &r.samples_fbmpk);
            }
        }
    }

    if want("fig8") {
        eprintln!("fig8: k sweep 3..9 ...");
        let rows = runner::fig8(&args.cfg, &cases);
        let table: Vec<Vec<String>> =
            rows.iter().map(|r| vec![r.name.clone(), r.k.to_string(), f3(r.speedup)]).collect();
        println!("Fig 8 - speedup vs power k");
        println!("{}", format_table(&["input", "k", "speedup"], &table));
        // Per-k geomeans (the paper's headline trend).
        let mut summary: Vec<Vec<String>> = Vec::new();
        for k in 3..=9usize {
            let s: Vec<f64> = rows.iter().filter(|r| r.k == k).map(|r| r.speedup).collect();
            summary.push(vec![k.to_string(), f3(fbmpk_bench::report::geomean(&s))]);
        }
        println!("Fig 8 summary - geomean speedup per k");
        println!("{}", format_table(&["k", "geomean speedup"], &summary));
        write_csv(&args.out.join("fig8.csv"), &["input", "k", "speedup"], &table)
            .expect("write fig8.csv");
        write_csv(&args.out.join("fig8_summary.csv"), &["k", "geomean_speedup"], &summary)
            .expect("write fig8_summary.csv");
    }

    if want("fig9") {
        eprintln!("fig9: simulated DRAM traffic ...");
        let rows = runner::fig9(&cases);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.k.to_string(),
                    r.dram_standard.to_string(),
                    r.dram_fbmpk.to_string(),
                    format!("{:.1}%", r.ratio * 100.0),
                    format!("{:.1}%", r.ideal * 100.0),
                    format!("{:.1}%", r.vector_fraction * 100.0),
                ]
            })
            .collect();
        println!("Fig 9 - DRAM read/write volume ratio FBMPK / baseline (cache simulator)");
        println!(
            "{}",
            format_table(
                &["input", "k", "dram_baseline[B]", "dram_fbmpk[B]", "ratio", "ideal", "vec share"],
                &table
            )
        );
        write_csv(
            &args.out.join("fig9.csv"),
            &["input", "k", "dram_baseline", "dram_fbmpk", "ratio", "ideal", "vector_fraction"],
            &table,
        )
        .expect("write fig9.csv");
    }

    if want("fig10") {
        eprintln!("fig10: FB vs FB+BtB ablation ...");
        let rows = runner::fig10(&args.cfg, &cases);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| vec![r.name.clone(), f3(r.speedup_fb), f3(r.speedup_fb_btb)])
            .collect();
        println!("Fig 10 - ablation (speedups over baseline, k=5)");
        println!("{}", format_table(&["input", "FB", "FB+BtB"], &table));
        write_csv(&args.out.join("fig10.csv"), &["input", "fb", "fb_btb"], &table)
            .expect("write fig10.csv");
    }

    if want("table3") {
        eprintln!("table3: ABMC impact on single SpMV ...");
        let rows = runner::table3(&args.cfg, &cases);
        let table: Vec<Vec<String>> =
            rows.iter().map(|r| vec![r.name.clone(), format!("{:.2}", r.ratio)]).collect();
        println!("Table III - single-SpMV ratio t_original / t_ABMC (>1 = ABMC faster)");
        println!("{}", format_table(&["input", "ratio"], &table));
        write_csv(&args.out.join("table3.csv"), &["input", "ratio"], &table)
            .expect("write table3.csv");
    }

    if want("table4") {
        let rows = runner::table4(&cases);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.csr_bytes.to_string(),
                    r.split_bytes.to_string(),
                    f3(r.overhead),
                ]
            })
            .collect();
        println!("Table IV - storage: split L+U+d vs plain CSR");
        println!("{}", format_table(&["input", "csr[B]", "L+U+d[B]", "ratio"], &table));
        write_csv(
            &args.out.join("table4.csv"),
            &["input", "csr_bytes", "split_bytes", "ratio"],
            &table,
        )
        .expect("write table4.csv");
    }

    if want("fig11") {
        eprintln!("fig11: ABMC preprocessing cost ...");
        let rows = runner::fig11(&args.cfg, &cases);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{:.6}", r.reorder_seconds),
                    format!("{:.6}", r.spmv_seconds),
                    format!("{:.1}", r.n_spmvs),
                ]
            })
            .collect();
        println!("Fig 11 - ABMC preprocessing cost in single-thread SpMV invocations");
        println!("{}", format_table(&["input", "reorder[s]", "spmv[s]", "#SpMVs"], &table));
        write_csv(
            &args.out.join("fig11.csv"),
            &["input", "reorder_seconds", "spmv_seconds", "n_spmvs"],
            &table,
        )
        .expect("write fig11.csv");
    }

    if want("ablation_blocks") {
        eprintln!("ablation: ABMC block-count sweep ...");
        let counts = [32usize, 128, 512, 1024, 4096];
        let mut table: Vec<Vec<String>> = Vec::new();
        for case in
            cases.iter().filter(|c| ["afshell10", "audikw_1", "G3_circuit"].contains(&c.entry.name))
        {
            for r in runner::ablation_blocks(&args.cfg, case, &counts) {
                table.push(vec![
                    r.name.clone(),
                    r.nblocks.to_string(),
                    r.ncolors.to_string(),
                    r.max_color_width.to_string(),
                    f3(r.speedup),
                ]);
            }
        }
        println!(
            "Block-count ablation (paper SIII-D trade-off, k=5, {} threads)",
            args.cfg.threads
        );
        println!(
            "{}",
            format_table(&["input", "nblocks", "colors", "max width", "speedup"], &table)
        );
        write_csv(
            &args.out.join("ablation_blocks.csv"),
            &["input", "nblocks", "colors", "max_width", "speedup"],
            &table,
        )
        .expect("write ablation_blocks.csv");
    }

    if want("tune") {
        eprintln!("tune: inspector-executor kernel selection ...");
        let rows = runner::tune(&args.cfg, &cases);
        let gm = fbmpk_bench::report::geomean(&rows.iter().map(|r| r.speedup).collect::<Vec<_>>());
        let mut table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.rows.to_string(),
                    format!("{:.2}", r.mean_row_nnz),
                    format!("{:.2}", r.row_cv),
                    r.variant.clone(),
                    format!("{:.6}", r.t_scalar),
                    format!("{:.6}", r.t_tuned),
                    f3(r.speedup),
                    f3(r.probed_speedup),
                ]
            })
            .collect();
        table.push(vec![
            "geomean".into(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            f3(gm),
            String::new(),
        ]);
        println!("Tune - auto-selected SpMV variant vs scalar CSR ({} threads)", args.cfg.threads);
        println!(
            "{}",
            format_table(
                &[
                    "input",
                    "rows",
                    "nnz/row",
                    "row cv",
                    "variant",
                    "t_scalar[s]",
                    "t_tuned[s]",
                    "speedup",
                    "probe x"
                ],
                &table
            )
        );
        write_csv(
            &args.out.join("tune.csv"),
            &[
                "input",
                "rows",
                "nnz_per_row",
                "row_cv",
                "variant",
                "t_scalar",
                "t_tuned",
                "speedup",
                "probed_speedup",
            ],
            &table,
        )
        .expect("write tune.csv");
        let json = Json::obj([
            ("experiment", Json::from("tune")),
            ("scale", Json::from(args.cfg.scale)),
            ("threads", Json::from(args.cfg.threads)),
            ("reps", Json::from(args.cfg.reps)),
            ("geomean_speedup", Json::from(gm)),
            ("simd", Json::from(fbmpk_sparse::simd::detect().tag())),
            ("platform", platform::probe().to_json()),
            (
                "matrices",
                Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::from(r.name.as_str())),
                                ("rows", Json::from(r.rows)),
                                ("nnz", Json::from(r.nnz)),
                                ("mean_row_nnz", Json::from(r.mean_row_nnz)),
                                ("row_cv", Json::from(r.row_cv)),
                                ("variant", Json::from(r.variant.as_str())),
                                ("t_scalar_seconds", Json::from(r.t_scalar)),
                                ("t_tuned_seconds", Json::from(r.t_tuned)),
                                ("t_unrolled4_seconds", Json::from(r.t_unrolled4)),
                                ("t_simd_seconds", Json::from(r.t_simd)),
                                ("simd_speedup", Json::from(r.t_scalar / r.t_simd)),
                                ("speedup", Json::from(r.speedup)),
                                ("probed_speedup", Json::from(r.probed_speedup)),
                                ("inspect_seconds", Json::from(r.inspect_seconds)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        write_json(&args.out.join("BENCH_kernels.json"), &json).expect("write BENCH_kernels.json");
        if let Some(ctx) = &perf_ctx {
            for r in &rows {
                // One SpMV streams the whole CSR once — the modeled-bytes
                // anchor for the tuned kernels' roofline fractions.
                let csr = fbmpk_sparse::TriangularSplit::csr_storage_bytes(r.rows, r.nnz) as u64;
                let t = args.cfg.threads;
                #[rustfmt::skip]
                push_record(&mut pending, ctx, "tune", &r.name, "csr-scalar", None, t,
                    None, 0, None, None, Some(csr), None, None, None, None, None,
                    &r.samples_scalar);
                #[rustfmt::skip]
                push_record(&mut pending, ctx, "tune", &r.name, &format!("tuned:{}", r.variant),
                    None, t, None, 0, None, None, Some(csr), None, None, None, None, None,
                    &r.samples_tuned);
                #[rustfmt::skip]
                push_record(&mut pending, ctx, "tune", &r.name, "csr-unrolled4", None, t,
                    None, 0, None, None, Some(csr), None, None, None, None, None,
                    &r.samples_unrolled4);
                #[rustfmt::skip]
                push_record(&mut pending, ctx, "tune", &r.name, &format!("csr-simd:{}", r.simd),
                    None, t, None, 0, None, None, Some(csr), None, None, None, None, None,
                    &r.samples_simd);
            }
        }
    }

    if want("blocking") {
        eprintln!("blocking: streaming vs level-blocked FBMPK, k = 8 ...");
        let rows = runner::blocking(&args.cfg, &cases);
        assert!(
            rows.iter().all(|r| r.agrees),
            "level-blocked execution diverged from streaming beyond 1e-9"
        );
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.nlevels.to_string(),
                    r.tile_powers.to_string(),
                    r.tile_powers_sim.to_string(),
                    format!("{:.6}", r.t_streaming),
                    format!("{:.6}", r.t_blocked),
                    f3(r.speedup),
                    r.dram_read_streaming.to_string(),
                    r.dram_read_blocked.to_string(),
                    f3(r.dram_read_blocked as f64 / r.dram_read_streaming as f64),
                ]
            })
            .collect();
        println!(
            "Blocking - level-blocked wavefront vs streaming FBMPK (k=8, {} threads)",
            args.cfg.threads
        );
        println!(
            "{}",
            format_table(
                &[
                    "input",
                    "levels",
                    "band kb",
                    "sim kb",
                    "t_stream[s]",
                    "t_blocked[s]",
                    "speedup",
                    "dram_rd_stream[B]",
                    "dram_rd_blocked[B]",
                    "rd ratio"
                ],
                &table
            )
        );
        write_csv(
            &args.out.join("blocking.csv"),
            &[
                "input",
                "levels",
                "tile_powers",
                "tile_powers_sim",
                "t_streaming",
                "t_blocked",
                "speedup",
                "dram_read_streaming",
                "dram_read_blocked",
                "read_ratio",
            ],
            &table,
        )
        .expect("write blocking.csv");
        if let Some(ctx) = &perf_ctx {
            for r in &rows {
                let t = args.cfg.threads;
                let modeled = Some(r.modeled_matrix_bytes);
                #[rustfmt::skip]
                push_record(&mut pending, ctx, "blocking", &r.name, "fbmpk", None, t,
                    Some(r.k), r.options_fp_streaming, None, None, modeled, None, None, None,
                    None, Some("streaming"), &r.samples_streaming);
                #[rustfmt::skip]
                push_record(&mut pending, ctx, "blocking", &r.name, "fbmpk", None, t,
                    Some(r.k), r.options_fp_blocked, None, None, modeled, None, None, None,
                    None, Some("level-blocked"), &r.samples_blocked);
            }
        }
    }

    if want("sync") {
        let max_threads = args.cfg.threads.max(8);
        let mut threads = vec![1usize, 2, 4];
        let mut t = 8;
        while t <= max_threads {
            threads.push(t);
            t *= 2;
        }
        eprintln!("sync: barrier vs point-to-point sweep {threads:?} ...");
        let rows = runner::sync_modes(&args.cfg, &cases, &threads);
        assert!(
            rows.iter().all(|r| r.identical),
            "point-to-point produced a result differing from barrier mode"
        );
        let gm = fbmpk_bench::report::geomean(&rows.iter().map(|r| r.speedup).collect::<Vec<_>>());
        let mut table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.threads.to_string(),
                    r.ncolors.to_string(),
                    r.nblocks.to_string(),
                    r.dep_edges.to_string(),
                    format!("{:.6}", r.t_barrier),
                    format!("{:.6}", r.t_p2p),
                    f3(r.speedup),
                ]
            })
            .collect();
        table.push(vec![
            "geomean".into(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            f3(gm),
        ]);
        println!("Sync - color-barrier vs point-to-point FBMPK (k=5, bit-identical verified)");
        println!(
            "{}",
            format_table(
                &[
                    "input",
                    "threads",
                    "colors",
                    "blocks",
                    "dep edges",
                    "t_barrier[s]",
                    "t_p2p[s]",
                    "speedup"
                ],
                &table
            )
        );
        write_csv(
            &args.out.join("sync.csv"),
            &[
                "input",
                "threads",
                "ncolors",
                "nblocks",
                "dep_edges",
                "t_barrier",
                "t_p2p",
                "speedup",
            ],
            &table,
        )
        .expect("write sync.csv");
        let json = Json::obj([
            ("experiment", Json::from("sync")),
            ("scale", Json::from(args.cfg.scale)),
            ("reps", Json::from(args.cfg.reps)),
            ("k", Json::from(5usize)),
            ("thread_counts", Json::Arr(threads.iter().map(|&t| Json::from(t)).collect())),
            ("geomean_speedup", Json::from(gm)),
            ("all_identical", Json::from(true)),
            ("platform", platform::probe().to_json()),
            (
                "points",
                Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::from(r.name.as_str())),
                                ("threads", Json::from(r.threads)),
                                ("ncolors", Json::from(r.ncolors)),
                                ("nblocks", Json::from(r.nblocks)),
                                ("dep_edges", Json::from(r.dep_edges)),
                                ("t_barrier_seconds", Json::from(r.t_barrier)),
                                ("t_p2p_seconds", Json::from(r.t_p2p)),
                                ("speedup", Json::from(r.speedup)),
                                ("identical", Json::from(r.identical)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        write_json(&args.out.join("BENCH_sync.json"), &json).expect("write BENCH_sync.json");
        if let Some(ctx) = &perf_ctx {
            for r in &rows {
                let modeled = Some(r.modeled_matrix_bytes);
                #[rustfmt::skip]
                push_record(&mut pending, ctx, "sync", &r.name, "fbmpk", Some("barrier"),
                    r.threads, Some(5), r.options_fp_barrier, None, None, modeled, None,
                    None, None, None, None, &r.samples_barrier);
                #[rustfmt::skip]
                push_record(&mut pending, ctx, "sync", &r.name, "fbmpk", Some("p2p"),
                    r.threads, Some(5), r.options_fp_p2p, None, None, modeled,
                    Some(r.fallbacks), None, None, None, None, &r.samples_p2p);
            }
        }
    }

    if want("partition") {
        eprintln!("partition: blocking-strategy comparison under p2p sync, k = 5 ...");
        let rows = runner::partition(&args.cfg, &cases);
        assert!(
            rows.iter().all(|r| r.identical),
            "a blocking strategy's p2p run diverged from its barrier/recording twins"
        );
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.strategy.clone(),
                    r.nblocks.to_string(),
                    r.ncolors.to_string(),
                    r.cut_edges.to_string(),
                    r.dep_edges.to_string(),
                    format!("{:.2}", r.balance),
                    format!("{:.6}", r.t_p2p),
                    format!("{:.2}", r.gbs),
                    format!("{:.1}%", r.wait_frac * 100.0),
                ]
            })
            .collect();
        println!(
            "Partition - blocking strategies under point-to-point sync (k=5, {} threads)",
            args.cfg.threads
        );
        println!(
            "{}",
            format_table(
                &[
                    "input",
                    "strategy",
                    "blocks",
                    "colors",
                    "cut edges",
                    "dep edges",
                    "balance",
                    "t_p2p[s]",
                    "GB/s",
                    "wait"
                ],
                &table
            )
        );
        // Headline: per-matrix cut-edge reduction of the multilevel
        // partitioner over block aggregation.
        let mut summary: Vec<Vec<String>> = Vec::new();
        for c in rows.chunks(3) {
            let cut = |tag: &str| c.iter().find(|r| r.strategy == tag).map_or(0, |r| r.cut_edges);
            let (agg, ml) = (cut("aggregated"), cut("multilevel"));
            summary.push(vec![
                c[0].name.clone(),
                agg.to_string(),
                ml.to_string(),
                if agg > 0 {
                    format!("{:.1}%", 100.0 * (1.0 - ml as f64 / agg as f64))
                } else {
                    "n/a".into()
                },
            ]);
        }
        println!("Partition summary - multilevel cut edges vs aggregated");
        println!(
            "{}",
            format_table(&["input", "cut aggregated", "cut multilevel", "reduction"], &summary)
        );
        write_csv(
            &args.out.join("partition.csv"),
            &[
                "input",
                "strategy",
                "nblocks",
                "ncolors",
                "cut_edges",
                "dep_edges",
                "balance",
                "t_p2p",
                "gbs",
                "wait_frac",
            ],
            &table,
        )
        .expect("write partition.csv");
        let json = Json::obj([
            ("experiment", Json::from("partition")),
            ("scale", Json::from(args.cfg.scale)),
            ("threads", Json::from(args.cfg.threads)),
            ("reps", Json::from(args.cfg.reps)),
            ("k", Json::from(5usize)),
            ("all_identical", Json::from(true)),
            ("platform", platform::probe().to_json()),
            (
                "points",
                Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::from(r.name.as_str())),
                                ("strategy", Json::from(r.strategy.as_str())),
                                ("threads", Json::from(r.threads)),
                                ("nblocks", Json::from(r.nblocks)),
                                ("ncolors", Json::from(r.ncolors)),
                                ("cut_edges", Json::from(r.cut_edges)),
                                ("dep_edges", Json::from(r.dep_edges)),
                                ("balance", Json::from(r.balance)),
                                ("t_p2p_seconds", Json::from(r.t_p2p)),
                                ("gbs", Json::from(r.gbs)),
                                ("wait_frac", Json::from(r.wait_frac)),
                                ("identical", Json::from(r.identical)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        write_json(&args.out.join("BENCH_partition.json"), &json)
            .expect("write BENCH_partition.json");
        if let Some(ctx) = &perf_ctx {
            for r in &rows {
                #[rustfmt::skip]
                push_record(&mut pending, ctx, "partition", &r.name, "fbmpk", Some("p2p"),
                    r.threads, Some(5), r.options_fp, Some(r.wait_frac), None,
                    Some(r.modeled_matrix_bytes), Some(r.fallbacks), None,
                    Some(r.cut_edges as u64), None, Some(&r.strategy), &r.samples);
            }
        }
    }

    if want("profile") {
        eprintln!("profile: in-kernel spans, bandwidth, hardware counters ...");
        let roofline_gbs = perf_ctx.as_ref().and_then(|c| c.bw.map(|b| b.triad_gbs));
        let (rows, trace, metrics) = runner::profile(&args.cfg, &cases, roofline_gbs);
        assert!(
            rows.iter().all(|r| r.identical),
            "a recording plan produced a result differing from its non-recording twin"
        );
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.threads.to_string(),
                    r.ncolors.to_string(),
                    format!("{:.2}", r.bw_barrier_gbs),
                    format!("{:.2}", r.bw_p2p_gbs),
                    f3(r.traffic_vs_model),
                    format!("{:.1}%", r.wait_frac_barrier * 100.0),
                    format!("{:.1}%", r.wait_frac_p2p * 100.0),
                    r.hw.as_ref()
                        .map(|h| format!("{:.2}", h.ipc()))
                        .unwrap_or_else(|| "n/a".into()),
                    r.fallbacks.to_string(),
                    r.watchdog_fires.to_string(),
                ]
            })
            .collect();
        println!(
            "Profile - effective matrix bandwidth, traffic vs model, wait fractions (k=5, {} threads)",
            args.cfg.threads
        );
        println!(
            "{}",
            format_table(
                &[
                    "input",
                    "threads",
                    "colors",
                    "bw barrier[GB/s]",
                    "bw p2p[GB/s]",
                    "traffic/model",
                    "wait barrier",
                    "wait p2p",
                    "ipc",
                    "fallbacks",
                    "wd fires"
                ],
                &table
            )
        );
        let csv_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.threads.to_string(),
                    r.k.to_string(),
                    r.ncolors.to_string(),
                    r.nblocks.to_string(),
                    format!("{:.9}", r.t_barrier),
                    format!("{:.9}", r.t_p2p),
                    r.modeled_matrix_bytes.to_string(),
                    f3(r.bw_barrier_gbs),
                    f3(r.bw_p2p_gbs),
                    r.sim_dram_bytes.to_string(),
                    f3(r.traffic_vs_model),
                    f3(r.wait_frac_barrier),
                    f3(r.wait_frac_p2p),
                    r.identical.to_string(),
                    r.hw.as_ref().map(|h| h.cycles.to_string()).unwrap_or_default(),
                    r.hw.as_ref().map(|h| h.instructions.to_string()).unwrap_or_default(),
                    r.hw.as_ref().map(|h| h.llc_misses.to_string()).unwrap_or_default(),
                    r.dropped_spans.to_string(),
                    r.fallbacks.to_string(),
                    r.watchdog_fires.to_string(),
                    r.fault_injection_hits.to_string(),
                ]
            })
            .collect();
        write_csv(
            &args.out.join("profile.csv"),
            &[
                "input",
                "threads",
                "k",
                "ncolors",
                "nblocks",
                "t_barrier",
                "t_p2p",
                "modeled_matrix_bytes",
                "bw_barrier_gbs",
                "bw_p2p_gbs",
                "sim_dram_bytes",
                "traffic_vs_model",
                "wait_frac_barrier",
                "wait_frac_p2p",
                "identical",
                "hw_cycles",
                "hw_instructions",
                "hw_llc_misses",
                "dropped_spans",
                "fallbacks",
                "watchdog_fires",
                "fault_injection_hits",
            ],
            &csv_rows,
        )
        .expect("write profile.csv");
        let json = Json::obj([
            ("experiment", Json::from("profile")),
            ("scale", Json::from(args.cfg.scale)),
            ("threads", Json::from(args.cfg.threads)),
            ("reps", Json::from(args.cfg.reps)),
            ("k", Json::from(5usize)),
            ("platform", platform::probe().to_json()),
            ("metrics", metrics_json(&metrics)),
            (
                "matrices",
                Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::from(r.name.as_str())),
                                ("threads", Json::from(r.threads)),
                                ("ncolors", Json::from(r.ncolors)),
                                ("nblocks", Json::from(r.nblocks)),
                                ("t_barrier_seconds", Json::from(r.t_barrier)),
                                ("t_p2p_seconds", Json::from(r.t_p2p)),
                                (
                                    "modeled_matrix_bytes",
                                    Json::from(r.modeled_matrix_bytes as usize),
                                ),
                                ("bw_barrier_gbs", Json::from(r.bw_barrier_gbs)),
                                ("bw_p2p_gbs", Json::from(r.bw_p2p_gbs)),
                                ("sim_dram_bytes", Json::from(r.sim_dram_bytes as usize)),
                                ("traffic_vs_model", Json::from(r.traffic_vs_model)),
                                ("wait_frac_barrier", Json::from(r.wait_frac_barrier)),
                                ("wait_frac_p2p", Json::from(r.wait_frac_p2p)),
                                ("identical", Json::from(r.identical)),
                                (
                                    "hw",
                                    match &r.hw {
                                        Some(h) => Json::obj([
                                            ("cycles", Json::from(h.cycles as usize)),
                                            ("instructions", Json::from(h.instructions as usize)),
                                            ("llc_misses", Json::from(h.llc_misses as usize)),
                                            ("ipc", Json::from(h.ipc())),
                                        ]),
                                        None => Json::Null,
                                    },
                                ),
                                ("dropped_spans", Json::from(r.dropped_spans as usize)),
                                ("fallbacks", Json::from(r.fallbacks as usize)),
                                ("watchdog_fires", Json::from(r.watchdog_fires as usize)),
                                (
                                    "fault_injection_hits",
                                    Json::from(r.fault_injection_hits as usize),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        write_json(&args.out.join("BENCH_profile.json"), &json).expect("write BENCH_profile.json");
        trace.write(&args.out.join("profile_trace.json")).expect("write profile_trace.json");
        println!(
            "profile trace: {} events -> {}",
            trace.len(),
            args.out.join("profile_trace.json").display()
        );
        if let Some(ctx) = &perf_ctx {
            for r in &rows {
                let modeled = Some(r.modeled_matrix_bytes);
                let ipc = r.hw.as_ref().map(fbmpk_obs::HwSample::ipc);
                #[rustfmt::skip]
                push_record(&mut pending, ctx, "profile", &r.name, "fbmpk", Some("barrier"),
                    r.threads, Some(r.k), r.options_fp_barrier, Some(r.wait_frac_barrier), ipc,
                    modeled, Some(r.fallbacks), Some(r.watchdog_fires), None,
                    Some(r.traffic_vs_model), None, &r.samples_barrier);
                #[rustfmt::skip]
                push_record(&mut pending, ctx, "profile", &r.name, "fbmpk", Some("p2p"),
                    r.threads, Some(r.k), r.options_fp_p2p, Some(r.wait_frac_p2p), None,
                    modeled, Some(r.fallbacks), Some(r.watchdog_fires), None,
                    Some(r.traffic_vs_model), None, &r.samples_p2p);
            }
        }
    }

    if want("attribution") {
        eprintln!("attribution: modeled / simulated / measured byte ledgers, k = 5 ...");
        let rows = runner::attribution(&args.cfg, &cases);
        assert!(
            rows.iter().all(|r| r.identical),
            "a counter-probed run produced a result differing from the plain kernel"
        );
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.report.blocks.len().to_string(),
                    format!("{:.2}", r.modeled_matrix_bytes as f64 / 1e6),
                    format!("{:.2}", r.sim_dram_total as f64 / 1e6),
                    f3(r.traffic_vs_model),
                    r.report
                        .measured_total
                        .map(|m| format!("{:.2}", m as f64 / 1e6))
                        .unwrap_or_else(|| "n/a".into()),
                    r.report.excess_cut_correlation().map(f3).unwrap_or_else(|| "n/a".into()),
                    format!(
                        "{:.1}%",
                        100.0 * r.sim_unattributed as f64 / r.sim_dram_total.max(1) as f64
                    ),
                ]
            })
            .collect();
        println!("Attribution - where the bytes go (k=5, {} threads)", args.cfg.threads);
        println!(
            "{}",
            format_table(
                &[
                    "input",
                    "blocks",
                    "model[MB]",
                    "sim[MB]",
                    "sim/model",
                    "meas[MB]",
                    "corr(cut,excess)",
                    "sim unattr"
                ],
                &table
            )
        );
        let mut worst: Vec<Vec<String>> = Vec::new();
        for r in &rows {
            for b in r.report.worst_blocks(3) {
                worst.push(vec![
                    r.name.clone(),
                    b.block.to_string(),
                    b.color.to_string(),
                    b.rows.to_string(),
                    b.cut_edges.to_string(),
                    b.modeled_bytes.to_string(),
                    b.simulated_bytes.to_string(),
                    f3(b.ranking_ratio()),
                ]);
            }
        }
        println!("Attribution - worst blocks by traffic-vs-model ratio");
        println!(
            "{}",
            format_table(
                &["input", "block", "color", "rows", "cut edges", "model[B]", "sim[B]", "ratio"],
                &worst
            )
        );
        // The full three-ledger decomposition: one CSV row per
        // (matrix, block, power) cell; `measured_bytes` is empty (not 0)
        // when hardware counters were unavailable.
        let csv: Vec<Vec<String>> = rows
            .iter()
            .flat_map(|r| {
                r.report.cells.iter().map(|c| {
                    vec![
                        r.name.clone(),
                        c.block.to_string(),
                        c.color.to_string(),
                        c.power.to_string(),
                        c.modeled_bytes.to_string(),
                        c.simulated_bytes.to_string(),
                        c.measured_bytes.map(|m| m.to_string()).unwrap_or_default(),
                    ]
                })
            })
            .collect();
        write_csv(
            &args.out.join("attribution.csv"),
            &[
                "input",
                "block",
                "color",
                "power",
                "modeled_bytes",
                "simulated_bytes",
                "measured_bytes",
            ],
            &csv,
        )
        .expect("write attribution.csv");
        let json = Json::obj([
            ("experiment", Json::from("attribution")),
            ("scale", Json::from(args.cfg.scale)),
            ("threads", Json::from(args.cfg.threads)),
            ("reps", Json::from(args.cfg.reps)),
            ("k", Json::from(5usize)),
            ("platform", platform::probe().to_json()),
            (
                "matrices",
                Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::from(r.name.as_str())),
                                ("threads", Json::from(r.threads)),
                                ("nblocks", Json::from(r.report.blocks.len())),
                                ("t_p2p_seconds", Json::from(r.t_p2p)),
                                (
                                    "modeled_matrix_bytes",
                                    Json::from(r.modeled_matrix_bytes as usize),
                                ),
                                ("sim_dram_bytes", Json::from(r.sim_dram_total as usize)),
                                ("sim_unattributed_bytes", Json::from(r.sim_unattributed as usize)),
                                ("traffic_vs_model", Json::from(r.traffic_vs_model)),
                                (
                                    "measured_bytes",
                                    match r.report.measured_total {
                                        Some(m) => Json::from(m as usize),
                                        None => Json::Null,
                                    },
                                ),
                                (
                                    "measured_unattributed_bytes",
                                    match r.measured_unattributed {
                                        Some(m) => Json::from(m as usize),
                                        None => Json::Null,
                                    },
                                ),
                                (
                                    "excess_cut_correlation",
                                    match r.report.excess_cut_correlation() {
                                        Some(c) => Json::from(c),
                                        None => Json::Null,
                                    },
                                ),
                                (
                                    "phase_bytes",
                                    Json::Obj(
                                        r.sim_phase_bytes
                                            .iter()
                                            .map(|&(p, v)| (p.to_string(), Json::from(v as usize)))
                                            .collect(),
                                    ),
                                ),
                                (
                                    "node_bytes",
                                    Json::Obj(
                                        r.node_bytes
                                            .iter()
                                            .map(|&(nid, v)| {
                                                let key = if nid == u32::MAX {
                                                    "unknown".to_string()
                                                } else {
                                                    nid.to_string()
                                                };
                                                (key, Json::from(v as usize))
                                            })
                                            .collect(),
                                    ),
                                ),
                                ("identical", Json::from(r.identical)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        write_json(&args.out.join("BENCH_attribution.json"), &json)
            .expect("write BENCH_attribution.json");
        let html = perfreport::attribution_heatmap_html(&rows);
        let html_path = args.out.join("attribution_heatmap.html");
        std::fs::write(&html_path, html).expect("write attribution_heatmap.html");
        println!("attribution heatmap: {}", html_path.display());
        if let Some(ctx) = &perf_ctx {
            for r in &rows {
                let cut: u64 = r.report.blocks.iter().map(|b| b.cut_edges).sum();
                #[rustfmt::skip]
                push_record(&mut pending, ctx, "attribution", &r.name, "fbmpk", Some("p2p"),
                    r.threads, Some(r.k), r.options_fp, None, None,
                    Some(r.modeled_matrix_bytes), None, None, Some(cut),
                    Some(r.traffic_vs_model), None, &r.samples);
            }
        }
    }

    if want("fig12") {
        let max_threads = args.cfg.threads.max(8);
        let mut threads = vec![1usize, 2, 4];
        let mut t = 8;
        while t <= max_threads {
            threads.push(t);
            t *= 2;
        }
        eprintln!("fig12: thread sweep {threads:?} ...");
        let rows = runner::fig12(&args.cfg, &cases, &threads);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| vec![r.name.clone(), r.threads.to_string(), f3(r.speedup)])
            .collect();
        println!("Fig 12 - FBMPK speedup over single-thread baseline (k=5)");
        println!("{}", format_table(&["input", "threads", "speedup"], &table));
        write_csv(&args.out.join("fig12.csv"), &["input", "threads", "speedup"], &table)
            .expect("write fig12.csv");
    }

    flush_records(&args, &pending);
    if serve_failed {
        std::process::exit(1);
    }
}
