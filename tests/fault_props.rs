//! Fault-tolerance properties: every injected fault terminates — with a
//! typed error or a bit-identical barrier fallback — and the hardened
//! runtime changes nothing when no fault fires.
//!
//! The deterministic injection tests and the (generator × threads × fault
//! site) proptest need the `fault-inject` feature:
//!
//! ```text
//! cargo test --test fault_props --features fault-inject
//! ```
//!
//! Without the feature only the zero-fault half runs: watchdog/fallback
//! configuration must be invisible on healthy runs (bit-identity plus, in
//! release, a <2% overhead bound mirroring `tests/obs_props.rs`).
//!
//! An installed fault is process-global and the harness runs tests in
//! parallel, so every plan call that must run fault-free goes through
//! [`quiet`]: it holds the injection lock with no fault installed, and a
//! fault another test installs cannot fire inside it.

use fbmpk::{FallbackPolicy, FbmpkOptions, FbmpkPlan, SyncMode};
use fbmpk_parallel::fault::FaultPlan;
use fbmpk_reorder::AbmcParams;

/// Runs `f` with no fault installed (under the `fault-inject` feature,
/// holding the injection lock so no other test can install one
/// meanwhile). Must not be nested in, or nest, an `install` guard.
fn quiet<T>(f: impl FnOnce() -> T) -> T {
    #[cfg(feature = "fault-inject")]
    let _guard = fbmpk_parallel::fault::install(FaultPlan { faults: vec![] });
    f()
}

fn start(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 71 % 127) as f64) / 63.5 - 1.0).collect()
}

/// A point-to-point plan with the stall watchdog armed at `watchdog_ms`
/// and the given fallback policy, on the same 64-block ABMC ordering the
/// baseline uses.
fn hardened_plan(
    a: &fbmpk_sparse::Csr,
    threads: usize,
    watchdog_ms: u64,
    fallback: FallbackPolicy,
) -> FbmpkPlan {
    let opts = FbmpkOptions {
        nthreads: threads,
        reorder: Some(AbmcParams { nblocks: 64, ..Default::default() }),
        sync: SyncMode::PointToPoint,
        watchdog_ms: Some(watchdog_ms),
        fallback,
        ..Default::default()
    };
    FbmpkPlan::new(a, opts).unwrap()
}

/// The barrier baseline every fallback must reproduce bit-for-bit.
fn barrier_plan(a: &fbmpk_sparse::Csr, threads: usize) -> FbmpkPlan {
    let opts = FbmpkOptions {
        nthreads: threads,
        reorder: Some(AbmcParams { nblocks: 64, ..Default::default() }),
        sync: SyncMode::ColorBarrier,
        ..Default::default()
    };
    FbmpkPlan::new(a, opts).unwrap()
}

fn test_matrix(idx: usize) -> fbmpk_sparse::Csr {
    match idx % 3 {
        0 => fbmpk_gen::poisson::grid2d_5pt(20, 20),
        1 => fbmpk_gen::poisson::grid2d_5pt(17, 23),
        _ => fbmpk_gen::cage::cage_like(fbmpk_gen::cage::CageParams {
            n: 500,
            neighbors: 5,
            seed: 11,
        }),
    }
}

// ---------------------------------------------------------- zero-fault

/// Arming the watchdog and the fallback policy must be invisible on a
/// healthy run: bit-identical results and an untouched fallback counter.
#[test]
fn hardened_options_are_bit_identical_without_faults() {
    quiet(|| {
        for idx in 0..3 {
            let a = test_matrix(idx);
            let x0 = start(a.nrows());
            for t in [2usize, 4, 8] {
                let want_barrier = barrier_plan(&a, t).power(&x0, 5);
                let hardened = hardened_plan(&a, t, 2_000, FallbackPolicy::ColorBarrier);
                assert_eq!(hardened.power(&x0, 5), want_barrier, "matrix {idx} @{t}t");
                assert_eq!(hardened.power(&x0, 4), barrier_plan(&a, t).power(&x0, 4));
                assert_eq!(hardened.fallbacks(), 0, "no stall may be recorded on a healthy run");
            }
        }
    })
}

/// The `FBMPK_FAULT` grammar is part of the public surface whether or not
/// injection is compiled in: operators must get parse feedback, not
/// silently inert plans.
#[test]
fn fault_grammar_is_always_available() {
    let plan = FaultPlan::parse("panic:1:0;delay:3:2:25;skip:7:1").unwrap();
    assert_eq!(plan.faults.len(), 3);
    assert!(FaultPlan::parse("panic:1").is_err());
    assert!(FaultPlan::parse("warp:1:2").is_err());
}

/// Release-only, production configuration only (fault hooks compiled
/// out): the armed watchdog must stay within 2% of the default plan. Same
/// interleaved min-of-12 protocol as `tests/obs_props.rs`, three attempts
/// to ride out scheduler noise.
#[cfg(all(not(debug_assertions), not(feature = "fault-inject")))]
#[test]
fn hardened_plan_overhead_is_under_two_percent() {
    let a = fbmpk_gen::poisson::grid2d_5pt(60, 60);
    let x0 = start(a.nrows());
    let base = barrier_plan(&a, 4);
    let p2p_default = {
        let opts = FbmpkOptions {
            nthreads: 4,
            reorder: Some(AbmcParams { nblocks: 64, ..Default::default() }),
            sync: SyncMode::PointToPoint,
            ..Default::default()
        };
        FbmpkPlan::new(&a, opts).unwrap()
    };
    let hardened = hardened_plan(&a, 4, 10_000, FallbackPolicy::ColorBarrier);
    assert_eq!(hardened.power(&x0, 5), base.power(&x0, 5));

    let min_of = |plan: &FbmpkPlan| -> std::time::Duration {
        (0..12)
            .map(|_| {
                let t0 = std::time::Instant::now();
                std::hint::black_box(plan.power(&x0, 5));
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    let mut last_ratio = f64::INFINITY;
    for _ in 0..3 {
        // Interleave so frequency drift hits both plans equally.
        let (mut d, mut h) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..3 {
            d = d.min(min_of(&p2p_default));
            h = h.min(min_of(&hardened));
        }
        last_ratio = h.as_secs_f64() / d.as_secs_f64();
        if last_ratio <= 1.02 {
            return;
        }
    }
    panic!("hardened-plan overhead {:.2}% exceeds 2%", (last_ratio - 1.0) * 100.0);
}

// ---------------------------------------------------------- injected

#[cfg(feature = "fault-inject")]
mod injected {
    use super::*;
    use fbmpk::FbmpkError;
    use fbmpk_parallel::fault::{install, Fault};
    use proptest::prelude::*;

    /// A skip fault on every block's epoch-1 publish: any dependency edge
    /// in the forward sweep then waits on a flag that never arrives, so
    /// the stall is guaranteed on any connected matrix.
    fn skip_all_epoch1() -> FaultPlan {
        FaultPlan { faults: (0..64).map(|b| Fault::SkipMark { block: b, epoch: 1 }).collect() }
    }

    #[test]
    fn panicking_worker_is_a_typed_error_and_the_plan_stays_usable() {
        let a = test_matrix(0);
        let x0 = start(a.nrows());
        let want = quiet(|| barrier_plan(&a, 4).power(&x0, 5));
        let plan = hardened_plan(&a, 4, 2_000, FallbackPolicy::Error);
        {
            let _guard =
                install(FaultPlan { faults: vec![Fault::PanicAt { thread: 1, color: 0 }] });
            match plan.try_power(&x0, 5) {
                Err(FbmpkError::WorkerPanicked { thread: 1, payload, .. }) => {
                    assert!(payload.contains("fault-inject"), "{payload}");
                }
                other => panic!("expected WorkerPanicked from worker 1, got {other:?}"),
            }
        }
        // Pool and plan survive the fault: the same plan now succeeds and
        // still matches the baseline bit-for-bit.
        assert_eq!(quiet(|| plan.try_power(&x0, 5)).unwrap(), want);
    }

    #[test]
    fn skipped_publish_stalls_with_diagnostic_dump_under_error_policy() {
        let a = test_matrix(0);
        let x0 = start(a.nrows());
        let plan = hardened_plan(&a, 4, 150, FallbackPolicy::Error);
        let _guard = install(skip_all_epoch1());
        match plan.try_power(&x0, 5) {
            Err(FbmpkError::Stalled { waited_ms, dump, .. }) => {
                assert!(waited_ms >= 150, "deadline honored, waited {waited_ms} ms");
                assert!(dump.contains("thread"), "dump must name the waiters:\n{dump}");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn stall_falls_back_to_barrier_bit_identically() {
        let a = test_matrix(1);
        let x0 = start(a.nrows());
        let want = quiet(|| barrier_plan(&a, 4).power(&x0, 5));
        let plan = hardened_plan(&a, 4, 150, FallbackPolicy::ColorBarrier);
        let _guard = install(skip_all_epoch1());
        // The skip faults only affect point-to-point flag publishes; the
        // barrier schedule publishes none, so the retry must succeed.
        assert_eq!(plan.try_power(&x0, 5).unwrap(), want);
        assert!(plan.fallbacks() >= 1, "the degradation must be recorded");
    }

    #[test]
    fn delayed_publish_is_absorbed_bit_identically() {
        let a = test_matrix(2);
        let x0 = start(a.nrows());
        let want = quiet(|| barrier_plan(&a, 4).power(&x0, 5));
        let plan = hardened_plan(&a, 4, 2_000, FallbackPolicy::Error);
        let _guard =
            install(FaultPlan { faults: vec![Fault::DelayMark { block: 0, epoch: 1, ms: 30 }] });
        // A delay shorter than the deadline is ordinary slowness: the
        // waiters spin it out and the result is untouched.
        assert_eq!(plan.try_power(&x0, 5).unwrap(), want);
        assert_eq!(plan.fallbacks(), 0);
    }

    /// CI matrix entry point: when `FBMPK_FAULT` is set, install the plan
    /// it describes and assert the termination contract under the
    /// fallback policy — bit-identical success (fault missed, absorbed,
    /// or fallen back to the barrier schedule) or a typed panic fault.
    /// No-op when the variable is unset, so local runs are unaffected.
    #[test]
    fn env_driven_fault_terminates() {
        if std::env::var("FBMPK_FAULT").map_or(true, |s| s.trim().is_empty()) {
            return;
        }
        // Baseline before the fault goes live: the injected plan applies
        // to every kernel launch, the barrier reference included.
        let a = test_matrix(0);
        let x0 = start(a.nrows());
        let want = quiet(|| barrier_plan(&a, 4).power(&x0, 5));
        let plan = hardened_plan(&a, 4, 500, FallbackPolicy::ColorBarrier);
        let _guard =
            fbmpk_parallel::fault::install_from_env().expect("FBMPK_FAULT is set and non-empty");
        match plan.try_power(&x0, 5) {
            Ok(got) => assert_eq!(got, want, "recovered run must be bit-identical"),
            Err(FbmpkError::WorkerPanicked { .. }) => {}
            Err(other) => {
                panic!("env fault must end in success or a typed panic fault, got {other}")
            }
        }
    }

    fn arb_fault() -> impl Strategy<Value = Fault> {
        ((0usize..3, 0usize..64, 1u64..5), (0usize..8, 0usize..4, 1u64..25)).prop_map(
            |((kind, block, epoch), (thread, color, ms))| match kind {
                0 => Fault::PanicAt { thread, color },
                1 => Fault::SkipMark { block, epoch },
                _ => Fault::DelayMark { block, epoch, ms },
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The headline property: *any* (generator × threads × fault site
        /// × policy) combination terminates within the watchdog deadline —
        /// as a bit-identical success (fault missed, absorbed, or fallen
        /// back) or as the matching typed error. Never a hang, and the
        /// plan is always reusable afterwards.
        #[test]
        fn every_injected_fault_terminates(
            gen_idx in 0usize..3,
            tsel in 0usize..3,
            fault in arb_fault(),
            color_barrier in proptest::bool::ANY,
        ) {
            let threads = [2usize, 4, 8][tsel];
            let policy = if color_barrier {
                FallbackPolicy::ColorBarrier
            } else {
                FallbackPolicy::Error
            };
            let a = test_matrix(gen_idx);
            let x0 = start(a.nrows());
            let want = quiet(|| barrier_plan(&a, threads).power(&x0, 5));
            let plan = hardened_plan(&a, threads, 150, policy);
            {
                let _guard = install(FaultPlan { faults: vec![fault] });
                match plan.try_power(&x0, 5) {
                    Ok(got) => prop_assert_eq!(got, want.clone()),
                    Err(FbmpkError::WorkerPanicked { thread, .. }) => {
                        prop_assert!(
                            matches!(fault, Fault::PanicAt { thread: t, .. } if t == thread),
                            "panic error must come from the injected site, got thread \
                             {thread} for {fault:?}"
                        );
                    }
                    Err(FbmpkError::Stalled { .. }) => {
                        prop_assert!(
                            matches!(fault, Fault::SkipMark { .. })
                                && policy == FallbackPolicy::Error,
                            "only an unrecovered skip may stall, got {fault:?} under {policy:?}"
                        );
                    }
                    Err(other) => prop_assert!(false, "unexpected error: {other}"),
                }
            }
            // Fault uninstalled: the same plan must recover completely.
            prop_assert_eq!(quiet(|| plan.try_power(&x0, 5)).unwrap(), want);
        }
    }
}
