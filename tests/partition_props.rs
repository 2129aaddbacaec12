//! Partitioner properties and cross-strategy equivalence tests.
//!
//! Three blocking strategies feed the ABMC pipeline: `Contiguous` index
//! ranges, BFS `Aggregated` blocks, and the `Multilevel` edge-cut
//! partitioner; the default `FewestColors` policy keeps whichever of the
//! first two colors in fewer colors. Changing the strategy changes the
//! block structure, the coloring, and the point-to-point wait lists — but
//! for any *fixed* strategy the swept numbers must stay bit-identical
//! across thread counts and sync modes, exactly like the base ABMC
//! ordering.
//!
//! The cut-quality tests pin down the partitioner's reason to exist: on
//! irregular structures (R-MAT power-law graphs, circuit-like matrices)
//! the multilevel partition must cut fewer structural edges than BFS
//! aggregation at the same block count.
//!
//! Set `FBMPK_TEST_THREADS` to add an extra (oversubscribed) thread
//! count, as in `sync_props.rs` — CI uses `FBMPK_TEST_THREADS=16`.

use fbmpk::{FbmpkOptions, FbmpkPlan, SyncMode, TuneOptions, TunedPlan};
use fbmpk_reorder::blocking::{aggregated_blocks, block_size_for_count, contiguous_blocks};
use fbmpk_reorder::{
    balance_ratio, cut_edges, multilevel_blocks, Abmc, AbmcParams, BlockingStrategy, Graph,
};
use proptest::prelude::*;

const STRATEGIES: [BlockingStrategy; 4] = [
    BlockingStrategy::FewestColors,
    BlockingStrategy::Contiguous,
    BlockingStrategy::Aggregated,
    BlockingStrategy::Multilevel,
];

fn start(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 71 % 127) as f64) / 63.5 - 1.0).collect()
}

/// Thread counts under test: `{1, 2, 4, 8}` plus `FBMPK_TEST_THREADS`.
fn thread_counts() -> Vec<usize> {
    let mut t = vec![1usize, 2, 4, 8];
    if let Some(extra) =
        std::env::var("FBMPK_TEST_THREADS").ok().and_then(|v| v.parse::<usize>().ok())
    {
        if extra > 0 && !t.contains(&extra) {
            t.push(extra);
        }
    }
    t
}

fn plan(
    a: &fbmpk_sparse::Csr,
    threads: usize,
    nblocks: usize,
    strategy: BlockingStrategy,
    sync: SyncMode,
) -> FbmpkPlan {
    let opts = FbmpkOptions {
        nthreads: threads,
        reorder: Some(AbmcParams { nblocks, strategy, ..Default::default() }),
        sync,
        ..Default::default()
    };
    FbmpkPlan::new(a, opts).unwrap()
}

/// The two irregular generator classes the partitioner targets: a
/// symmetric R-MAT power-law graph and a circuit-like matrix with
/// long-range couplings.
fn irregular_cases() -> Vec<(&'static str, fbmpk_sparse::Csr)> {
    let rmat = fbmpk_gen::rmat::rmat(fbmpk_gen::rmat::RmatParams {
        scale: 10,
        edge_factor: 8,
        symmetric: true,
        seed: 11,
        ..Default::default()
    });
    let circuit = fbmpk_gen::circuit::circuit_like(fbmpk_gen::circuit::CircuitParams {
        n: 1500,
        nnz_per_row: 4.8,
        long_range_frac: 0.15,
        seed: 3,
    });
    vec![("rmat", rmat), ("circuit", circuit)]
}

#[test]
fn multilevel_partition_covers_balances_and_is_deterministic() {
    for (name, a) in irregular_cases() {
        let g = Graph::from_matrix(&a);
        for nblocks in [8usize, 32] {
            let b = multilevel_blocks(&g, nblocks);
            assert_eq!(b.block_of.len(), g.n(), "{name}: every row assigned");
            b.validate().unwrap_or_else(|e| panic!("{name}: invalid blocking: {e:?}"));
            // No hard absolute bound is possible on hub-heavy graphs (a
            // dense hub cluster formed during coarsening cannot always be
            // split back), but the partition must stay far from collapse
            // and never be *more* imbalanced than the BFS aggregation it
            // replaces at the same block count.
            let bal = balance_ratio(&g, &b);
            assert!(bal < 8.0, "{name} nblocks={nblocks}: balance {bal}");
            let agg = aggregated_blocks(&g, block_size_for_count(g.n(), nblocks));
            if nblocks == 8 {
                assert!(
                    bal < balance_ratio(&g, &agg),
                    "{name}: multilevel balance {bal} not better than aggregation {}",
                    balance_ratio(&g, &agg)
                );
            }
            let again = multilevel_blocks(&g, nblocks);
            assert_eq!(b.block_of, again.block_of, "{name}: nondeterministic");
        }
    }
}

#[test]
fn multilevel_cut_beats_aggregation_on_irregular_generators() {
    // The acceptance property: fewer cut structural edges than BFS
    // aggregation at the same block count on both irregular classes —
    // cut edges are what become cross-block wait-list dependencies.
    for (name, a) in irregular_cases() {
        let g = Graph::from_matrix(&a);
        for nblocks in [16usize, 64] {
            let ml = cut_edges(&g, &multilevel_blocks(&g, nblocks));
            let agg = cut_edges(&g, &aggregated_blocks(&g, block_size_for_count(g.n(), nblocks)));
            assert!(ml < agg, "{name} nblocks={nblocks}: multilevel {ml} >= aggregated {agg}");
        }
    }
}

/// A symmetric R-MAT graph: power-law structure with a scrambled
/// numbering, the class where BFS aggregation colors in fewer colors.
fn symmetric_rmat(scale: u32) -> fbmpk_sparse::Csr {
    fbmpk_gen::rmat::rmat(fbmpk_gen::rmat::RmatParams {
        scale,
        edge_factor: 8,
        symmetric: true,
        seed: 5,
        ..Default::default()
    })
}

#[test]
fn tuner_selects_fewest_colors_strategy() {
    // The tuner's choice is the default policy's: the blocking (of
    // contiguous and aggregated) whose quotient graph colors in fewer
    // colors, contiguous on a tie. Multilevel is never chosen.
    let suite = fbmpk_gen::suite::suite_entry("Serena").expect("suite member").generate(0.002, 1);
    let mut cases = irregular_cases();
    cases.push(("serena", suite));
    for (name, a) in cases {
        let tuned = TunedPlan::new(
            &a,
            TuneOptions { nthreads: 2, probe: false, probe_reps: 1, ..Default::default() },
        );
        for nblocks in [8usize, 32] {
            let colors = |strategy| {
                Abmc::new(&a, AbmcParams { nblocks, strategy, ..Default::default() }).ncolors()
            };
            let (cont, agg) =
                (colors(BlockingStrategy::Contiguous), colors(BlockingStrategy::Aggregated));
            let want = if agg < cont {
                BlockingStrategy::Aggregated
            } else {
                BlockingStrategy::Contiguous
            };
            let chosen = tuned.blocking_strategy(nblocks);
            assert_eq!(chosen, want, "{name} nblocks={nblocks}: {cont} vs {agg} colors");
            let plan = tuned.fbmpk_plan_auto(nblocks).unwrap();
            assert_eq!(plan.stats().blocking, Some(chosen), "{name}: plan built another blocking");
            assert_eq!(plan.stats().ncolors, cont.min(agg), "{name}: not the fewest colors");
        }
    }
}

#[test]
fn default_policy_resolves_per_matrix_class() {
    // Locally numbered suite matrices keep contiguous ranges; a
    // scrambled power-law graph gets BFS aggregates. The resolution is
    // deterministic: a second build makes the same ordering.
    let suite =
        |name: &str| fbmpk_gen::suite::suite_entry(name).expect("suite member").generate(0.004, 1);
    let cases = [
        ("Serena", suite("Serena"), BlockingStrategy::Contiguous),
        ("Flan_1565", suite("Flan_1565"), BlockingStrategy::Contiguous),
        ("rmat", symmetric_rmat(14), BlockingStrategy::Aggregated),
    ];
    for (name, a, want) in cases {
        let first = FbmpkPlan::new(&a, FbmpkOptions::parallel(2)).unwrap();
        let again = FbmpkPlan::new(&a, FbmpkOptions::parallel(2)).unwrap();
        assert_eq!(first.stats().blocking, Some(want), "{name}: {:?}", first.stats());
        let shape = |p: &FbmpkPlan| (p.stats().blocking, p.stats().nblocks, p.stats().ncolors);
        assert_eq!(shape(&first), shape(&again), "{name}");
        assert_eq!(first.permutation(), again.permutation(), "{name}: nondeterministic ordering");
    }
}

#[test]
fn power_bit_identical_across_partitioner_threads_and_sync() {
    for (name, a) in irregular_cases() {
        let n = a.nrows();
        let x0 = start(n);
        for strategy in STRATEGIES {
            // Reference: serial pool, barrier schedule, same strategy.
            let serial = plan(&a, 1, 24, strategy, SyncMode::ColorBarrier);
            for t in thread_counts() {
                let barrier = plan(&a, t, 24, strategy, SyncMode::ColorBarrier);
                let p2p = plan(&a, t, 24, strategy, SyncMode::PointToPoint);
                for k in [4usize, 5] {
                    let want = serial.power(&x0, k);
                    assert_eq!(
                        barrier.power(&x0, k),
                        want,
                        "{name} {strategy:?} t={t} k={k} barrier"
                    );
                    assert_eq!(p2p.power(&x0, k), want, "{name} {strategy:?} t={t} k={k} p2p");
                }
            }
        }
    }
}

#[test]
fn symgs_bit_identical_across_partitioner_threads_and_sync() {
    // SYMGS updates in place — the anti-dependency half of the wait
    // lists — under every blocking strategy.
    let a = fbmpk_gen::circuit::circuit_like(fbmpk_gen::circuit::CircuitParams {
        n: 900,
        nnz_per_row: 5.0,
        long_range_frac: 0.2,
        seed: 17,
    });
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    for strategy in STRATEGIES {
        let serial = plan(&a, 1, 20, strategy, SyncMode::ColorBarrier);
        for t in thread_counts() {
            let barrier = plan(&a, t, 20, strategy, SyncMode::ColorBarrier);
            let p2p = plan(&a, t, 20, strategy, SyncMode::PointToPoint);
            let mut xs = vec![0.0; n];
            let mut xb = vec![0.0; n];
            let mut xp = vec![0.0; n];
            for sweep in 0..3 {
                serial.symgs_sweep(&b, &mut xs);
                barrier.symgs_sweep(&b, &mut xb);
                p2p.symgs_sweep(&b, &mut xp);
                assert_eq!(xs, xb, "{strategy:?} t={t} sweep={sweep} barrier");
                assert_eq!(xs, xp, "{strategy:?} t={t} sweep={sweep} p2p");
            }
        }
    }
}

#[test]
fn numa_first_touch_is_bit_identical_across_strategies() {
    // First-touch placement only changes which pages back the kernel
    // buffers, never the arithmetic: results must match bit for bit.
    let (_, a) = irregular_cases().remove(0);
    let n = a.nrows();
    let x0 = start(n);
    for strategy in STRATEGIES {
        for sync in [SyncMode::ColorBarrier, SyncMode::PointToPoint] {
            let opts = FbmpkOptions {
                nthreads: 4,
                reorder: Some(AbmcParams { nblocks: 24, strategy, ..Default::default() }),
                sync,
                ..Default::default()
            };
            let plain = FbmpkPlan::new(&a, opts).unwrap();
            let touched =
                FbmpkPlan::new(&a, FbmpkOptions { numa_first_touch: true, ..opts }).unwrap();
            for k in [4usize, 5] {
                assert_eq!(
                    plain.power(&x0, k),
                    touched.power(&x0, k),
                    "{strategy:?} {sync:?} k={k}"
                );
            }
        }
    }
}

#[test]
fn absent_sysfs_numa_degrades_to_historical_pinning() {
    // Single-node machines (and machines with no sysfs node tree at all)
    // must see exactly the pre-NUMA worker→core order.
    let t = fbmpk_parallel::NumaTopology::from_sysfs_root(std::path::Path::new(
        "/nonexistent-sysfs-node-tree",
    ));
    assert!(t.is_single_node());
    let cores = fbmpk_parallel::affinity::available_cores();
    assert_eq!(t.cpu_order(), (0..cores).collect::<Vec<_>>());
}

/// Random banded SPD-ish systems, as in `sync_props.rs`.
fn arb_banded() -> impl Strategy<Value = fbmpk_sparse::Csr> {
    (40usize..=220, 3usize..=24, 0u64..1000).prop_map(|(n, bandwidth, seed)| {
        fbmpk_gen::banded::banded_symmetric(fbmpk_gen::banded::BandedParams {
            n,
            nnz_per_row: 7.0,
            bandwidth,
            seed,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn multilevel_partition_is_valid_on_random_systems(
        a in arb_banded(),
        nblocks in 2usize..=40,
    ) {
        let g = Graph::from_matrix(&a);
        let b = multilevel_blocks(&g, nblocks);
        prop_assert_eq!(b.block_of.len(), g.n());
        prop_assert!(b.validate().is_ok());
        // Every structural edge is either internal or cut — the cut can
        // never exceed the edge total (sanity for the cost model the
        // tuner compares strategies with).
        let total_edges = cut_edges(&g, &contiguous_blocks(g.n(), g.n().max(1)));
        prop_assert!(cut_edges(&g, &b) <= total_edges);
    }

    #[test]
    fn power_equal_across_strategies_and_sync_on_random_systems(
        a in arb_banded(),
        threads in 1usize..=8,
        nblocks in 2usize..=40,
        k in 1usize..=6,
    ) {
        let n = a.nrows();
        let x0 = start(n);
        for strategy in STRATEGIES {
            let barrier = plan(&a, threads, nblocks, strategy, SyncMode::ColorBarrier);
            let p2p = plan(&a, threads, nblocks, strategy, SyncMode::PointToPoint);
            prop_assert_eq!(barrier.power(&x0, k), p2p.power(&x0, k));
        }
    }
}
