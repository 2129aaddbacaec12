//! Observability invariants: the span recorder must never change the
//! numerics (recording plans are bit-identical to non-recording ones in
//! every sync mode and k parity), recorded timelines must cover every
//! (thread, color) pair of the sweep, ring-buffer overflow must degrade
//! to counted drops rather than corruption, and — in release builds —
//! the `NoopProbe` monomorphization must keep a medium FBMPK run within
//! 2% of the recording plan's upper bound (the recorder itself is cheap
//! enough that even the *enabled* path stays in the noise).

use fbmpk::{BlockingMode, FbmpkOptions, FbmpkPlan, ObsOptions, SyncMode};
use fbmpk_obs::recorder::SpanKind;
use fbmpk_reorder::AbmcParams;

fn start(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 71 % 127) as f64) / 63.5 - 1.0).collect()
}

fn opts(threads: usize, nblocks: usize, sync: SyncMode, obs: ObsOptions) -> FbmpkOptions {
    FbmpkOptions {
        nthreads: threads,
        reorder: Some(AbmcParams { nblocks, ..Default::default() }),
        sync,
        obs,
        ..Default::default()
    }
}

#[test]
fn recording_is_bit_identical_across_modes_parities_and_threads() {
    let a = fbmpk_gen::suite::suite_entry("cant").unwrap().generate(0.002, 5);
    let n = a.nrows();
    let x0 = start(n);
    for sync in [SyncMode::ColorBarrier, SyncMode::PointToPoint] {
        for threads in [1usize, 4] {
            let plain = FbmpkPlan::new(&a, opts(threads, 48, sync, ObsOptions::default())).unwrap();
            let rec = FbmpkPlan::new(&a, opts(threads, 48, sync, ObsOptions::recording())).unwrap();
            assert!(plain.recorder().is_none());
            assert!(rec.recorder().is_some());
            // Both parities: even k ends on a backward sweep, odd k adds
            // the tail stage.
            for k in [4usize, 5] {
                assert_eq!(plain.power(&x0, k), rec.power(&x0, k), "{sync:?} t={threads} k={k}");
            }
            assert_eq!(
                plain.sspmv(&[0.5, -1.0, 0.25, 2.0], &x0),
                rec.sspmv(&[0.5, -1.0, 0.25, 2.0], &x0),
                "{sync:?} t={threads} sspmv"
            );
        }
    }
    // The serial pipeline (no reordering) records too, identically.
    let plain = FbmpkPlan::new(&a, FbmpkOptions::default()).unwrap();
    let rec =
        FbmpkPlan::new(&a, FbmpkOptions { obs: ObsOptions::recording(), ..Default::default() })
            .unwrap();
    for k in [4usize, 5] {
        assert_eq!(plain.power(&x0, k), rec.power(&x0, k), "serial k={k}");
    }
}

#[test]
fn workspace_calls_take_the_plan_dispatch() {
    // `power_with` runs through the same dispatch as `power`: a recording
    // plan records the streaming phases (or the level-blocked wavefront's
    // tiles), and the result is bitwise the allocating call's.
    let a = fbmpk_gen::suite::suite_entry("cant").unwrap().generate(0.002, 5);
    let n = a.nrows();
    let x0 = start(n);
    let streaming = opts(2, 48, SyncMode::ColorBarrier, ObsOptions::recording());
    let blocked =
        FbmpkOptions { blocking: BlockingMode::LevelBlocked { tile_powers: Some(2) }, ..streaming };
    for (options, kinds) in [
        (streaming, &[SpanKind::Forward, SpanKind::Backward][..]),
        (blocked, &[SpanKind::Tile][..]),
    ] {
        let plan = FbmpkPlan::new(&a, options).unwrap();
        let rec = plan.recorder().unwrap();
        let mut ws = plan.workspace();
        let mut y = vec![0.0; n];
        for k in [4usize, 5] {
            rec.reset();
            plan.power_with(&mut ws, &x0, k, &mut y);
            let recorded: Vec<SpanKind> =
                (0..rec.nthreads()).flat_map(|t| rec.thread_spans(t)).map(|s| s.kind).collect();
            for kind in kinds {
                assert!(recorded.contains(kind), "{:?} k={k}: no {kind:?} span", options.blocking);
            }
            assert_eq!(y, plan.power(&x0, k), "{:?} k={k}", options.blocking);
        }
    }
}

#[test]
fn recording_symgs_is_bit_identical() {
    let a = fbmpk_gen::poisson::grid2d_5pt(30, 28);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    for sync in [SyncMode::ColorBarrier, SyncMode::PointToPoint] {
        for threads in [1usize, 4] {
            let plain = FbmpkPlan::new(&a, opts(threads, 32, sync, ObsOptions::default())).unwrap();
            let rec = FbmpkPlan::new(&a, opts(threads, 32, sync, ObsOptions::recording())).unwrap();
            let mut xp = vec![0.0; n];
            let mut xr = vec![0.0; n];
            for _ in 0..3 {
                plain.symgs_sweep(&b, &mut xp);
                rec.symgs_sweep(&b, &mut xr);
            }
            assert_eq!(xp, xr, "{sync:?} t={threads}");
        }
    }
}

#[test]
fn barrier_mode_timeline_covers_every_thread_and_color() {
    let a = fbmpk_gen::suite::suite_entry("G3_circuit").unwrap().generate(0.001, 5);
    let n = a.nrows();
    let threads = 4;
    let plan =
        FbmpkPlan::new(&a, opts(threads, 48, SyncMode::ColorBarrier, ObsOptions::recording()))
            .unwrap();
    let k = 5; // odd: rounds + tail (the head rides in the first forward sweep)
    plan.power(&start(n), k);
    let rec = plan.recorder().unwrap();
    let ncolors = plan.stats().ncolors;
    assert!(ncolors > 1);
    for t in 0..threads {
        let spans = rec.thread_spans(t);
        assert!(!spans.is_empty(), "thread {t} recorded nothing");
        assert!(!spans.iter().any(|s| s.kind == SpanKind::Head), "thread {t}: head not folded");
        assert!(spans.iter().any(|s| s.kind == SpanKind::Tail), "thread {t} missing tail");
        assert!(
            spans.iter().any(|s| s.kind == SpanKind::BarrierWait),
            "thread {t} missing barrier waits"
        );
        for c in 0..ncolors as u32 {
            for kind in [SpanKind::Forward, SpanKind::Backward] {
                assert!(
                    spans.iter().any(|s| s.kind == kind && s.color == c),
                    "thread {t} missing {kind:?} span for color {c}"
                );
            }
        }
        // Timestamps are monotone per lane and spans are well-formed.
        for w in spans.windows(2) {
            assert!(w[1].start_ns >= w[0].start_ns, "thread {t} out-of-order spans");
        }
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
    assert_eq!(rec.total_dropped(), 0);
    let frac = rec.wait_fraction();
    assert!((0.0..=1.0).contains(&frac), "wait fraction {frac}");
    // k = 1 is one flat pass per thread, recorded as the head, with no
    // sweep and no barrier.
    rec.reset();
    plan.power(&start(n), 1);
    for t in 0..threads {
        let kinds: Vec<SpanKind> = rec.thread_spans(t).iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [SpanKind::Head], "thread {t} k=1");
    }
}

#[test]
fn p2p_mode_records_flag_waits_and_block_spans() {
    let a = fbmpk_gen::suite::suite_entry("cant").unwrap().generate(0.002, 5);
    let n = a.nrows();
    let threads = 4;
    let plan =
        FbmpkPlan::new(&a, opts(threads, 48, SyncMode::PointToPoint, ObsOptions::recording()))
            .unwrap();
    plan.power(&start(n), 4);
    let rec = plan.recorder().unwrap();
    let all: Vec<_> = (0..threads).flat_map(|t| rec.thread_spans(t)).collect();
    assert!(all.iter().any(|s| s.kind == SpanKind::FlagWait), "no flag-wait spans");
    // Point-to-point compute spans carry block ids.
    assert!(all
        .iter()
        .any(|s| s.kind == SpanKind::Forward && s.block != fbmpk_obs::recorder::Span::NO_ID));
    assert!(all.iter().any(|s| s.kind == SpanKind::Backward));
}

#[test]
fn ring_overflow_drops_spans_without_changing_results() {
    let a = fbmpk_gen::poisson::grid2d_5pt(25, 25);
    let n = a.nrows();
    let x0 = start(n);
    let tiny = ObsOptions { record: true, span_capacity: 4 };
    let plain =
        FbmpkPlan::new(&a, opts(2, 32, SyncMode::ColorBarrier, ObsOptions::default())).unwrap();
    let rec = FbmpkPlan::new(&a, opts(2, 32, SyncMode::ColorBarrier, tiny)).unwrap();
    assert_eq!(plain.power(&x0, 5), rec.power(&x0, 5));
    let r = rec.recorder().unwrap();
    assert!(r.total_dropped() > 0, "a 4-span ring must overflow on k=5");
    // Retained spans stay well-formed (capacity bounds the lane length).
    for t in 0..2 {
        assert!(r.thread_spans(t).len() <= 4);
    }
    // reset() clears both spans and drop counters for reuse.
    r.reset();
    assert_eq!(r.total_dropped(), 0);
    assert!((0..2).all(|t| r.thread_spans(t).is_empty()));
}

/// Interleaved min-of-12 overhead measurement between two plans, three
/// attempts, robust on shared CI hosts. Panics when `other` stays more
/// than 2% slower than `plain` across every attempt.
#[cfg(not(debug_assertions))]
fn assert_overhead_under_two_percent(
    plain: &FbmpkPlan,
    other: &FbmpkPlan,
    x0: &[f64],
    k: usize,
    what: &str,
) {
    use std::time::Instant;
    let mut last_ratio = f64::INFINITY;
    for _attempt in 0..3 {
        let mut t_plain = f64::INFINITY;
        let mut t_other = f64::INFINITY;
        for _ in 0..12 {
            let t0 = Instant::now();
            std::hint::black_box(plain.power(x0, k));
            t_plain = t_plain.min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            std::hint::black_box(other.power(x0, k));
            t_other = t_other.min(t0.elapsed().as_secs_f64());
        }
        last_ratio = t_other / t_plain;
        if last_ratio < 1.02 {
            return;
        }
    }
    panic!("{what} overhead {:.2}% exceeds 2%", (last_ratio - 1.0) * 100.0);
}

/// Release-only: a recording plan stays within 2% of a non-recording one
/// on a medium serial FBMPK run. The `NoopProbe` path is monomorphized to
/// the uninstrumented kernel, so bounding the *enabled* recorder bounds
/// the Noop overhead from above.
#[cfg(not(debug_assertions))]
#[test]
fn enabled_recorder_overhead_is_under_two_percent() {
    let a = fbmpk_gen::poisson::grid2d_5pt(200, 200);
    let n = a.nrows();
    let x0 = start(n);
    let base = FbmpkOptions {
        reorder: Some(AbmcParams { nblocks: 64, ..Default::default() }),
        ..Default::default()
    };
    let plain = FbmpkPlan::new(&a, base).unwrap();
    let rec = FbmpkPlan::new(&a, FbmpkOptions { obs: ObsOptions::recording(), ..base }).unwrap();
    assert_overhead_under_two_percent(&plain, &rec, &x0, 9, "recording");
}

/// Release-only: a plan with the live metrics endpoint attached (which
/// implies span recording plus per-sweep telemetry updates) stays within
/// 2% of a bare plan, and the numerics stay bit-identical — the
/// acceptance bound for leaving an endpoint on in production runs.
#[cfg(not(debug_assertions))]
#[test]
fn metrics_endpoint_overhead_is_under_two_percent_and_bit_identical() {
    let a = fbmpk_gen::poisson::grid2d_5pt(200, 200);
    let n = a.nrows();
    let x0 = start(n);
    let k = 9;
    let base = FbmpkOptions {
        reorder: Some(AbmcParams { nblocks: 64, ..Default::default() }),
        ..Default::default()
    };
    let plain = FbmpkPlan::new(&a, base).unwrap();
    let live = FbmpkPlan::new(
        &a,
        FbmpkOptions { metrics_addr: Some("127.0.0.1:0".parse().unwrap()), ..base },
    )
    .unwrap();
    assert_eq!(plain.power(&x0, k), live.power(&x0, k), "endpoint changed the numerics");
    assert_overhead_under_two_percent(&plain, &live, &x0, k, "metrics endpoint");
}
