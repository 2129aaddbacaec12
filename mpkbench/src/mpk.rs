//! The library workloads `mpk-dram` and `mpk-llc`: `Aᵏx` through the
//! documented plan path `FbmpkPlan::new(&a, FbmpkOptions::parallel(2))`
//! against `StandardMpk::new(&a, 2)` on three suite matrices that span
//! the structure classes (block FEM, banded, unsymmetric cage).
//!
//! Matrices run one after another and are dropped before the next is
//! generated, so the process holds one matrix and its plans at a time.

use std::time::{Duration, Instant};

use fbmpk::{FbmpkOptions, FbmpkPlan, ObsOptions, StandardMpk};
use fbmpk_gen::suite::suite_entry;
use fbmpk_obs::{NoopProbe, Recorder, SpanKind};
use fbmpk_sparse::Csr;

use crate::host::{self, timed};
use crate::report::{geomean, median, percentile, Checker, Metrics};

/// Kernel threads of every plan (the sized host has 2 vCPUs).
pub const THREADS: usize = 2;
/// Plan builds per matrix; `setup_s` takes the median.
const SETUP_REPS: usize = 3;
/// Floor on timed calls per kernel and matrix in an untraced run,
/// whatever `--seconds` says: the median needs enough calls on the
/// slowest matrix (Serena at DRAM scale, ~0.35 s per FBMPK call).
const MIN_CALLS: usize = 12;
/// The same floor in a traced run, which times three variants per round.
const MIN_TRACED_CALLS: usize = 9;
/// Largest tolerated share of an untraced call that the traced layers
/// (kernel phases, sync waits, pool idle, permutation) leave unexplained.
/// What remains is the per-call staging of the iterate buffers plus the
/// call-to-call spread between the traced and the untraced median.
const LEDGER_TOLERANCE: f64 = 0.15;

/// Metric key and suite name of each matrix.
pub const MATRICES: [(&str, &str); 3] =
    [("flan_1565", "Flan_1565"), ("serena", "Serena"), ("cage14", "cage14")];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// Every CSR at least twice the LLC: `A` streams from DRAM.
    Dram,
    /// Every CSR between L2 and the LLC.
    Llc,
}

/// One library workload.
#[derive(Debug)]
pub struct Workload {
    k: usize,
    regime: Regime,
    /// Suite scale per matrix, in [`MATRICES`] order.
    scales: [f64; 3],
    /// Geomean rate of [`host::reference_power`] over the three matrices
    /// on the sized host, in 10⁹ nnz/s: the host speed the end-to-end
    /// metrics are reported at (see [`run`]).
    reference_gnnz_s: f64,
}

/// `A` streams from DRAM (≈ 270 MB CSR each), k = 5.
pub const DRAM: Workload =
    Workload { k: 5, regime: Regime::Dram, scales: [0.2, 0.35, 0.8], reference_gnnz_s: 0.85 };
/// `A` fits the LLC but not L2; even k, so no tail step.
pub const LLC: Workload =
    Workload { k: 8, regime: Regime::Llc, scales: [0.01; 3], reference_gnnz_s: 0.9 };

/// Bytes of the CSR arrays: 8-byte value + 4-byte column per nonzero and
/// an 8-byte row pointer per row plus one.
fn csr_bytes(a: &Csr) -> u64 {
    12 * a.nnz() as u64 + 8 * (a.nrows() as u64 + 1)
}

struct Input {
    key: &'static str,
    a: Csr,
    x: Vec<f64>,
    csr_bytes: u64,
}

/// Generates matrix `i` and refuses it when its size puts it in the
/// other workload's regime on this host.
fn load(w: &Workload, i: usize, seed: u64, llc: u64, l2: u64) -> Result<Input, String> {
    let (key, suite) = MATRICES[i];
    let entry = suite_entry(suite).expect("suite names are fixed");
    let a = entry.generate(w.scales[i], seed);
    let bytes = csr_bytes(&a);
    println!(
        "input {key}: scale {} rows {} nnz {} csr_bytes {bytes} ({:.2}x LLC)",
        w.scales[i],
        a.nrows(),
        a.nnz(),
        bytes as f64 / llc as f64
    );
    match w.regime {
        Regime::Dram if bytes < 2 * llc => {
            return Err(format!("{key}: CSR {bytes} B is under 2x the LLC ({llc} B); not a DRAM workload on this host"));
        }
        Regime::Llc if !(l2 < bytes && bytes < llc) => {
            return Err(format!("{key}: CSR {bytes} B is outside (L2 {l2} B, LLC {llc} B); not an LLC workload on this host"));
        }
        _ => {}
    }
    let x = host::seeded_vector(a.nrows(), seed.wrapping_mul(31).wrapping_add(i as u64));
    Ok(Input { key, a, x, csr_bytes: bytes })
}

fn host_line() -> (u64, u64) {
    let (llc, l2) = (fbmpk::probe_llc_bytes(), host::l2_bytes());
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("host: llc_bytes {llc} l2_bytes {l2} available_parallelism {cpus} threads {THREADS}");
    (llc, l2)
}

/// Runs `round` for `seconds`, and at least `min` times.
fn repeat_for(seconds: f64, min: usize, mut round: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut n = 0;
    while n < min || Instant::now() < deadline {
        round();
        n += 1;
    }
}

/// One checked kernel call: times `f`, then (outside the timed region)
/// checks its output against `want`.
fn call(
    what: &str,
    times: &mut Vec<f64>,
    checker: &mut Checker,
    want: &[f64],
    f: impl FnOnce() -> Result<Vec<f64>, fbmpk::FbmpkError>,
) {
    let (y, dt) = timed(f);
    times.push(dt);
    match y {
        Ok(y) => {
            checker.check(what, &y, want);
        }
        Err(e) => checker.fail(|| format!("{what}: {e}")),
    }
}

fn parallel_plan(a: &Csr, obs: ObsOptions) -> Result<FbmpkPlan, String> {
    FbmpkPlan::new(a, FbmpkOptions { obs, ..FbmpkOptions::parallel(THREADS) })
        .map_err(|e| format!("plan build: {e}"))
}

fn standard(a: &Csr, threads: usize) -> Result<StandardMpk, String> {
    StandardMpk::new(a, threads).map_err(|e| format!("standard build: {e}"))
}

/// The untraced run: end-to-end metrics only.
///
/// Each round also times [`host::reference_power`] on the same matrix
/// and vector. Rates and latencies are reported at the sized host's
/// speed: divided (latencies: multiplied) by the run's reference rate
/// over [`Workload::reference_gnnz_s`]. On a shared host whole runs
/// land in slower or faster states (an LLC-resident kernel moved by up
/// to 1.8x between consecutive runs while its ratio to the standard
/// kernel held within 6%); the reference kernel moves with them.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    checker: &mut Checker,
) -> Result<Metrics, String> {
    let (llc, l2) = host_line();
    let share = seconds / MATRICES.len() as f64;
    let (mut setup_s, mut fb_rate, mut std_rate) = (0.0, Vec::new(), Vec::new());
    let (mut p50, mut p95, mut rps, mut ref_rate) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..MATRICES.len() {
        let inp = load(w, i, seed, llc, l2)?;
        let mut builds = Vec::with_capacity(SETUP_REPS);
        let mut built = None;
        for _ in 0..SETUP_REPS {
            // Free the previous build first: one plan set in memory at a time.
            drop(built.take());
            let (plans, dt) = timed(|| -> Result<_, String> {
                Ok((parallel_plan(&inp.a, ObsOptions::default())?, standard(&inp.a, THREADS)?))
            });
            builds.push(dt);
            built = Some(plans?);
        }
        let (plan, std) = built.expect("SETUP_REPS > 0");
        setup_s += median(&builds);
        let want = std.power(&inp.x, w.k);
        // One untimed call of each other kernel faults its buffers in.
        let _ = (plan.try_power(&inp.x, w.k), host::reference_power(&inp.a, &inp.x, w.k));
        let (mut fb, mut st, mut rf) = (Vec::new(), Vec::new(), Vec::new());
        let (fb_what, st_what) = (format!("fbmpk {}", inp.key), format!("standard {}", inp.key));
        let rf_what = format!("reference {}", inp.key);
        repeat_for(share, MIN_CALLS, || {
            call(&fb_what, &mut fb, checker, &want, || plan.try_power(&inp.x, w.k));
            call(&st_what, &mut st, checker, &want, || Ok(std.power(&inp.x, w.k)));
            call(&rf_what, &mut rf, checker, &want, || {
                Ok(host::reference_power(&inp.a, &inp.x, w.k))
            });
        });
        let work = (w.k * inp.a.nnz()) as f64;
        fb_rate.push(work / median(&fb) / 1e9);
        std_rate.push(work / median(&st) / 1e9);
        ref_rate.push(work / median(&rf) / 1e9);
        p50.push(median(&fb) * 1e3);
        // Each call scaled by its round's probe time over the median
        // probe time: a burst that slows both kernels of a round is the
        // host's tail, not the kernel's.
        let med_rf = median(&rf);
        let scaled: Vec<f64> = fb.iter().zip(&rf).map(|(f, r)| f * med_rf / r).collect();
        p95.push(percentile(&scaled, 95.0) * 1e3);
        rps.push(fb.len() as f64 / fb.iter().sum::<f64>());
        println!(
            "{}: fbmpk {} calls median {:.3} ms, standard median {:.3} ms, reference median {:.3} ms, setup median {:.3} s",
            inp.key,
            fb.len(),
            median(&fb) * 1e3,
            median(&st) * 1e3,
            median(&rf) * 1e3,
            median(&builds)
        );
    }
    let speed = geomean(&ref_rate) / w.reference_gnnz_s;
    println!(
        "host speed: reference {:.4} Gnnz/s = {speed:.3}x the sized host; raw fbmpk {:.4} Gnnz/s, standard {:.4} Gnnz/s",
        geomean(&ref_rate),
        geomean(&fb_rate),
        geomean(&std_rate)
    );
    let mut m = Metrics::default();
    m.put("setup_s", setup_s);
    m.put("fbmpk_gnnz_s", geomean(&fb_rate) / speed);
    m.put("standard_gnnz_s", geomean(&std_rate) / speed);
    m.put("serve_p50_ms", geomean(&p50) * speed);
    m.put("serve_p95_ms", geomean(&p95) * speed);
    m.put("serve_max_rps", geomean(&rps) / speed);
    m.put("peak_rss_mb", host::peak_rss_mb());
    Ok(m)
}

/// Layers of one traced call in per-thread mean seconds: head, forward,
/// backward, tail, sync wait, and pool idle (the part of the kernel's
/// span extent, first span start to last span end, that no span of the
/// thread covers: worker wake-up and dispatch between phases). Clears
/// the recorder.
fn harvest(rec: &Recorder) -> Result<[f64; 6], String> {
    if rec.total_dropped() > 0 {
        return Err(format!("span recorder dropped {} spans", rec.total_dropped()));
    }
    let mut ns = [0u64; 6];
    let (mut first, mut last) = (u64::MAX, 0u64);
    for t in 0..rec.nthreads() {
        for span in rec.thread_spans(t) {
            let slot = match span.kind {
                SpanKind::Head => 0,
                SpanKind::Forward => 1,
                SpanKind::Backward => 2,
                SpanKind::Tail => 3,
                SpanKind::BarrierWait | SpanKind::FlagWait => 4,
                // Any other kind is a layer this ledger does not price.
                other => return Err(format!("unexpected {} span in a power call", other.name())),
            };
            ns[slot] += span.duration_ns();
            first = first.min(span.start_ns);
            last = last.max(span.end_ns);
        }
    }
    let threads = rec.nthreads() as u64;
    ns[5] = (last.saturating_sub(first) * threads).saturating_sub(ns.iter().sum());
    rec.reset();
    Ok(ns.map(|v| v as f64 / 1e9 / threads as f64))
}

/// The traced run: per-layer metrics from calls into each layer's public
/// functions plus the plan's own span recorder.
pub fn run_traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    checker: &mut Checker,
) -> Result<Metrics, String> {
    let (llc, l2) = host_line();
    let mut m = Metrics::default();
    // STREAM arrays of 4x the LLC in total.
    let triad = host::triad_gbs(4 * llc as usize, THREADS, 5);
    println!("host: triad {triad:.2} GB/s over {} MB", 4 * llc / 1_000_000);
    m.put("bench.roofline.triad_gbs", triad);
    let share = seconds / MATRICES.len() as f64;
    let (mut overheads, mut residual) = (Vec::new(), 0.0f64);
    for i in 0..MATRICES.len() {
        let inp = load(w, i, seed, llc, l2)?;
        let key = inp.key;
        let (plan, build_s) = timed(|| parallel_plan(&inp.a, ObsOptions::recording()));
        let plan = plan?;
        let stats = plan.stats();
        let std = standard(&inp.a, THREADS)?;
        let want = std.power(&inp.x, w.k);
        let _ = plan.try_power(&inp.x, w.k);
        let rec = plan.recorder().expect("recording plan has a recorder");
        rec.reset();
        let (mut plain, mut traced, mut st) = (Vec::new(), Vec::new(), Vec::new());
        let mut layers: Vec<[f64; 6]> = Vec::new();
        let mut span_err = None;
        let fb_what = format!("fbmpk {key}");
        repeat_for(share * 2.0 / 3.0, MIN_TRACED_CALLS, || {
            call(&fb_what, &mut plain, checker, &want, || {
                plan.power_probed(&inp.x, w.k, &NoopProbe)
            });
            call(&fb_what, &mut traced, checker, &want, || plan.try_power(&inp.x, w.k));
            match harvest(rec) {
                Ok(l) => layers.push(l),
                Err(e) => span_err = Some(e),
            }
            call(
                &format!("standard {key}"),
                &mut st,
                checker,
                &want,
                || Ok(std.power(&inp.x, w.k)),
            );
        });
        if let Some(e) = span_err {
            return Err(format!("{key}: {e}"));
        }
        let perm = plan.permutation().expect("parallel plans reorder");
        let mut permute = Vec::new();
        for _ in 0..MIN_TRACED_CALLS {
            let (_, dt) = timed(|| perm.unapply_vec_alloc(&perm.apply_vec_alloc(&inp.x)));
            permute.push(dt);
        }
        let modeled = plan.modeled_matrix_bytes(w.k) as f64;
        drop((plan, std));

        // The serial §III-B pipeline against the serial baseline.
        let plan1 = FbmpkPlan::new(&inp.a, FbmpkOptions::default())
            .map_err(|e| format!("serial plan build: {e}"))?;
        let std1 = standard(&inp.a, 1)?;
        let (mut fb1, mut st1) = (Vec::new(), Vec::new());
        repeat_for(share / 3.0, MIN_TRACED_CALLS, || {
            call(&fb_what, &mut fb1, checker, &want, || plan1.try_power(&inp.x, w.k));
            call(&format!("standard {key}"), &mut st1, checker, &want, || {
                Ok(std1.power(&inp.x, w.k))
            });
        });
        drop((plan1, std1));

        let fb_s = median(&plain);
        let std_s = median(&st);
        let layer = |j: usize| median(&layers.iter().map(|l| l[j]).collect::<Vec<_>>());
        let kernel = median(&layers.iter().map(|l| l.iter().sum()).collect::<Vec<f64>>());
        let waits = layers.iter().map(|l| l[4] / l[..5].iter().sum::<f64>()).collect::<Vec<_>>();
        let case_residual = (fb_s - kernel - median(&permute)) / fb_s;
        println!(
            "{key}: untraced {:.3} ms = kernel {:.3} ms (pool idle {:.3}) + permutation {:.3} ms + residual {:+.1}%",
            fb_s * 1e3,
            kernel * 1e3,
            layer(5) * 1e3,
            median(&permute) * 1e3,
            case_residual * 100.0
        );
        if case_residual.abs() > residual.abs() {
            residual = case_residual;
        }
        overheads.push(median(&traced) / fb_s);
        let std_bytes = (w.k as u64 * inp.csr_bytes) as f64;
        m.put(format!("reorder.abmc.reorder_s.{key}"), stats.reorder_seconds);
        m.put(format!("sparse.split.split_s.{key}"), stats.split_seconds);
        m.put(format!("core.plan.build_s.{key}"), build_s);
        m.put(format!("core.plan.build_spmv_equiv.{key}"), build_s / (std_s / w.k as f64));
        m.put(format!("reorder.abmc.ncolors.{key}"), stats.ncolors as f64);
        m.put(format!("core.kernel.fbmpk_ms.{key}"), fb_s * 1e3);
        m.put(format!("core.kernel.head_ms.{key}"), layer(0) * 1e3);
        m.put(format!("core.kernel.forward_ms.{key}"), layer(1) * 1e3);
        m.put(format!("core.kernel.backward_ms.{key}"), layer(2) * 1e3);
        m.put(format!("core.kernel.tail_ms.{key}"), layer(3) * 1e3);
        m.put(format!("parallel.sync.wait_frac.{key}"), median(&waits));
        m.put(format!("core.model.fbmpk_matrix_mb.{key}"), modeled / 1e6);
        m.put(format!("core.model.standard_matrix_mb.{key}"), std_bytes / 1e6);
        m.put(format!("core.kernel.fbmpk_roofline_frac.{key}"), modeled / fb_s / (triad * 1e9));
        m.put(format!("core.standard.std_ms.{key}"), std_s * 1e3);
        m.put(format!("core.standard.roofline_frac.{key}"), std_bytes / std_s / (triad * 1e9));
        m.put(format!("core.kernel.speedup_vs_standard.{key}"), std_s / fb_s);
        m.put(format!("core.kernel.serial_speedup.{key}"), median(&st1) / median(&fb1));
        m.put(format!("core.kernel.parallel_eff.{key}"), median(&fb1) / (THREADS as f64 * fb_s));
        m.put(format!("bench.input.csr_llc_ratio.{key}"), inp.csr_bytes as f64 / llc as f64);
    }
    m.put("bench.trace_overhead_frac", geomean(&overheads) - 1.0);
    m.put("bench.unattributed_frac", residual);
    if residual.abs() > LEDGER_TOLERANCE {
        return Err(format!(
            "ledger self-check failed: {:.1}% of an untraced call is unattributed (tolerance {:.0}%)",
            residual * 100.0,
            LEDGER_TOLERANCE * 100.0
        ));
    }
    Ok(m)
}
