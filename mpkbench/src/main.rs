//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path mpkbench/Cargo.toml -- \
//!     --workload <mpk-dram|mpk-llc|serve-mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; every output is checked; the last
//! line of standard output is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). See README.md.

mod host;
mod mpk;
mod report;
mod serve;

use report::{result_line, Checker, Metrics};

const USAGE: &str =
    "usage: mpkbench --workload <mpk-dram|mpk-llc|serve-mixed> --seed N --seconds S --trace <0|1>";

/// End-to-end metrics every untraced run reports, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fbmpk_gnnz_s", "Gnnz/s"),
    ("standard_gnnz_s", "Gnnz/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p95_ms", "ms"),
    ("serve_max_rps", "1/s"),
];

/// Per-layer metrics of every workload.
const PER_RUN: [(&str, &str); 4] = [
    ("failed_frac", "fraction"),
    ("bench.roofline.triad_gbs", "GB/s"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.unattributed_frac", "fraction"),
];

/// Per-layer metrics of the library workloads, one per matrix (the name
/// gets the matrix key as a suffix).
const PER_MATRIX: [(&str, &str); 20] = [
    ("reorder.abmc.reorder_s", "s"),
    ("sparse.split.split_s", "s"),
    ("core.plan.build_s", "s"),
    ("core.plan.build_spmv_equiv", "spmv"),
    ("reorder.abmc.ncolors", "count"),
    ("core.kernel.fbmpk_ms", "ms"),
    ("core.kernel.head_ms", "ms"),
    ("core.kernel.forward_ms", "ms"),
    ("core.kernel.backward_ms", "ms"),
    ("core.kernel.tail_ms", "ms"),
    ("parallel.sync.wait_frac", "fraction"),
    ("core.model.fbmpk_matrix_mb", "MB"),
    ("core.model.standard_matrix_mb", "MB"),
    ("core.kernel.fbmpk_roofline_frac", "fraction"),
    ("core.standard.std_ms", "ms"),
    ("core.standard.roofline_frac", "fraction"),
    ("core.kernel.speedup_vs_standard", "ratio"),
    ("core.kernel.serial_speedup", "ratio"),
    ("core.kernel.parallel_eff", "ratio"),
    ("bench.input.csr_llc_ratio", "ratio"),
];

/// Per-layer metrics of the serving workload.
const PER_SERVE: [(&str, &str); 15] = [
    ("serve.http.parse_ms", "ms"),
    ("serve.http.render_ms", "ms"),
    ("serve.kernel.power_ms", "ms"),
    ("serve.kernel.mpk_ms", "ms"),
    ("serve.kernel.spmv_ms", "ms"),
    ("serve.kernel.power_matrix_reads", "count"),
    ("serve.batch.mean_width", "ratio"),
    ("serve.plancache.hit_ratio", "fraction"),
    ("serve.plancache.cold_ms", "ms"),
    ("core.tune.inspect_s", "s"),
    ("reorder.partition.select_s", "s"),
    ("core.plan.tuned_build_s", "s"),
    ("serve.admission.shed", "count"),
    ("serve.admission.queue_wait_ms", "ms"),
    ("bench.loadgen.late_p95_ms", "ms"),
];

/// Every per-layer metric with its unit, in report order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &str)> = PER_RUN.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for (key, _) in mpk::MATRICES {
        out.extend(PER_MATRIX.iter().map(|&(base, u)| (format!("{base}.{key}"), u)));
    }
    out.extend(PER_SERVE.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn run(args: &Args, checker: &mut Checker) -> Result<Metrics, String> {
    let (seed, secs) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("mpk-dram", false) => mpk::run(&mpk::DRAM, seed, secs, checker),
        ("mpk-dram", true) => mpk::run_traced(&mpk::DRAM, seed, secs, checker),
        ("mpk-llc", false) => mpk::run(&mpk::LLC, seed, secs, checker),
        ("mpk-llc", true) => mpk::run_traced(&mpk::LLC, seed, secs, checker),
        ("serve-mixed", false) => serve::run(seed, secs, checker),
        ("serve-mixed", true) => serve::run_traced(seed, secs, checker),
        (other, _) => Err(format!("unknown workload {other:?} (mpk-dram | mpk-llc | serve-mixed)")),
    }
}

/// Orders the workload's metrics as the benchmark declares them and
/// attaches their units. A per-layer metric of a layer the workload does
/// not run reads 0; a name outside the declared set is a bug here.
fn finish(
    args: &Args,
    checker: &Checker,
    mut got: Metrics,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let declared: Vec<(String, &str)> = if args.trace {
        got.put("failed_frac", checker.failed as f64 / checker.attempted.max(1) as f64);
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    if let Some((name, _)) = got.0.iter().find(|(n, _)| !declared.iter().any(|(d, _)| d == n)) {
        return Err(format!("metric {name} is not declared"));
    }
    if let Some((name, v)) = got.0.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite: {v}"));
    }
    declared
        .into_iter()
        .map(|(name, unit)| match got.get(&name) {
            Some(v) => Ok((name, v, unit)),
            None if args.trace => Ok((name, 0.0, unit)),
            None => Err(format!("end-to-end metric {name} was not measured")),
        })
        .collect()
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mpkbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut checker = Checker::default();
    let metrics = run(&args, &mut checker).and_then(|m| finish(&args, &checker, m));
    if let Some(f) = &checker.first_failure {
        eprintln!(
            "mpkbench: {} of {} operations failed; first: {f}",
            checker.failed, checker.attempted
        );
    }
    match metrics {
        Ok(m) => {
            let correct = checker.failed == 0 && checker.attempted > 0;
            println!("{}", result_line(correct, &checker, &m));
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("mpkbench: {e}");
            std::process::exit(1);
        }
    }
}
