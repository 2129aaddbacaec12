//! Pins the FBMPK kernel's results, bit for bit, to the four-phase
//! pipeline it replaced: a separate head pass `tmp = U·x₀`, the
//! forward/backward rounds, and an odd-`k` tail. The kernel now folds the
//! head into the first forward sweep (or, for `k = 1`, into the single
//! flat pass) and balances the tail by `L` alone; neither change may
//! move a single bit of `power`, `krylov` or `sspmv`, at any thread
//! count, in either sync mode or vector layout.
//!
//! The reference below runs the four phases serially on the plan's own
//! split, in permuted row order, with the per-row reduction order of each
//! phase (4-way head/tail dots, 2-way dual dots in the sweeps). Thread
//! count and sync mode only decide *when* a row runs, never its
//! arithmetic (`tests/sync_props.rs`), so the serial pipeline is the
//! parallel one's exact result.
//!
//! Also here: several OS threads calling one shared plan at once (the
//! allocating calls share a plan-owned spare workspace) must each get the
//! sequential result.
//!
//! Set `FBMPK_TEST_THREADS` to add an extra thread count on top of
//! `{1, 2, 4, 8, 16}`; run with `--features simd` to pin the vectorized
//! sweeps too.

use fbmpk::{FbmpkOptions, FbmpkPlan, SyncMode, VectorLayout};
use fbmpk_reorder::AbmcParams;
use fbmpk_sparse::{Csr, TriangularSplit};
use std::sync::Arc;

fn start(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 71 % 127) as f64) / 63.5 - 1.0).collect()
}

/// `{1, 2, 4, 8, 16}` plus `FBMPK_TEST_THREADS`.
fn thread_counts() -> Vec<usize> {
    let mut t = vec![1usize, 2, 4, 8, 16];
    if let Some(extra) =
        std::env::var("FBMPK_TEST_THREADS").ok().and_then(|v| v.parse::<usize>().ok())
    {
        if extra > 0 && !t.contains(&extra) {
            t.push(extra);
        }
    }
    t
}

/// A symmetric FEM-like matrix, an unsymmetric one, and a 5-point grid
/// (rows of 0–2 entries per triangle exercise every unroll remainder).
fn matrices() -> Vec<(&'static str, Csr)> {
    vec![
        ("cant", fbmpk_gen::suite::suite_entry("cant").unwrap().generate(0.002, 5)),
        (
            "cage",
            fbmpk_gen::cage::cage_like(fbmpk_gen::cage::CageParams {
                n: 700,
                neighbors: 6,
                seed: 3,
            }),
        ),
        ("grid", fbmpk_gen::poisson::grid2d_5pt(23, 19)),
    ]
}

fn plan(a: &Csr, threads: usize, sync: SyncMode, layout: VectorLayout) -> FbmpkPlan {
    let opts = FbmpkOptions {
        nthreads: threads,
        reorder: Some(AbmcParams { nblocks: 48, ..Default::default() }),
        sync,
        layout,
        ..Default::default()
    };
    FbmpkPlan::new(a, opts).unwrap()
}

fn row(m: &Csr, r: usize) -> (&[u32], &[f64]) {
    let (lo, hi) = (m.row_ptr()[r], m.row_ptr()[r + 1]);
    (&m.col_idx()[lo..hi], &m.values()[lo..hi])
}

/// `init + Σ v·x[c]` over row `r`, 4-way unrolled with `init` and the
/// remainder in the first accumulator (the head and tail stages).
fn dot4(m: &Csr, r: usize, x: &[f64], init: f64) -> f64 {
    let (cols, vals) = row(m, r);
    let main = cols.len() - cols.len() % 4;
    let mut s = [init, 0.0, 0.0, 0.0];
    for j in (0..main).step_by(4) {
        for (i, acc) in s.iter_mut().enumerate() {
            *acc += vals[j + i] * x[cols[j + i] as usize];
        }
    }
    for j in main..cols.len() {
        s[0] += vals[j] * x[cols[j] as usize];
    }
    (s[0] + s[1]) + (s[2] + s[3])
}

/// `(init_a + Σ v·a[c], Σ v·b[c])` over row `r` in one traversal, each
/// 2-way unrolled with the remainder in the first accumulator (the
/// sweeps' dual dot).
fn dual2(m: &Csr, r: usize, a: &[f64], b: &[f64], init_a: f64) -> (f64, f64) {
    let (cols, vals) = row(m, r);
    let main = cols.len() - cols.len() % 2;
    let (mut a0, mut a1, mut b0, mut b1) = (init_a, 0.0, 0.0, 0.0);
    for j in (0..main).step_by(2) {
        let (c0, c1) = (cols[j] as usize, cols[j + 1] as usize);
        a0 += vals[j] * a[c0];
        a1 += vals[j + 1] * a[c1];
        b0 += vals[j] * b[c0];
        b1 += vals[j + 1] * b[c1];
    }
    if main < cols.len() {
        let c = cols[main] as usize;
        a0 += vals[main] * a[c];
        b0 += vals[main] * b[c];
    }
    (a0 + a1, b0 + b1)
}

/// The four-phase pipeline on `split` (permuted numbering): the iterates
/// `x_1..=x_k` exactly as a power-`k` invocation produces them.
fn four_phase(split: &TriangularSplit, x0: &[f64], k: usize) -> Vec<Vec<f64>> {
    let n = split.n();
    let (l, u, d) = (&split.lower, &split.upper, &split.diag);
    let mut even = x0.to_vec();
    let mut odd = vec![0.0; n];
    // Head: tmp = U x0.
    let mut tmp: Vec<f64> = (0..n).map(|r| dot4(u, r, &even, 0.0)).collect();
    let mut iterates = Vec::with_capacity(k);
    for _ in 0..k / 2 {
        for r in 0..n {
            let (x, lx) = dual2(l, r, &even, &odd, tmp[r] + d[r] * even[r]);
            odd[r] = x;
            tmp[r] = lx + d[r] * x;
        }
        iterates.push(odd.clone());
        for r in (0..n).rev() {
            let (x, ux) = dual2(u, r, &odd, &even, tmp[r]);
            even[r] = x;
            tmp[r] = ux;
        }
        iterates.push(even.clone());
    }
    if k % 2 == 1 {
        iterates.push((0..n).map(|r| dot4(l, r, &even, tmp[r] + d[r] * even[r])).collect());
    }
    iterates
}

/// The reference `Aᵏx₀` iterates of `plan`, in the original numbering.
fn reference(plan: &FbmpkPlan, x0: &[f64], k: usize) -> Vec<Vec<f64>> {
    let p = plan.permutation().expect("reordered plan");
    let xs = four_phase(plan.split(), &p.apply_vec_alloc(x0), k);
    xs.iter().map(|x| p.unapply_vec_alloc(x)).collect()
}

/// `Σ coeffs[i]·x_i`, folded per row in power order as the sweeps emit.
fn reference_sspmv(plan: &FbmpkPlan, coeffs: &[f64], x0: &[f64]) -> Vec<f64> {
    let mut y: Vec<f64> = x0.iter().map(|&v| coeffs[0] * v).collect();
    if coeffs.len() > 1 {
        for (x, &c) in reference(plan, x0, coeffs.len() - 1).iter().zip(&coeffs[1..]) {
            if c != 0.0 {
                for (yi, &xi) in y.iter_mut().zip(x) {
                    *yi += c * xi;
                }
            }
        }
    }
    y
}

#[test]
fn kernel_is_bitwise_the_four_phase_pipeline() {
    let coeff_sets: [&[f64]; 3] =
        [&[0.5, 2.0], &[0.25, -1.0, 0.5, 0.0, 2.0, -0.125, 1.5, 0.75], &[1.0, 0.0, -3.0]];
    for (name, a) in matrices() {
        let x0 = start(a.nrows());
        for t in thread_counts() {
            for sync in [SyncMode::ColorBarrier, SyncMode::PointToPoint] {
                for layout in [VectorLayout::BackToBack, VectorLayout::Split] {
                    let plan = plan(&a, t, sync, layout);
                    let tag = format!("{name} t={t} {sync:?} {layout:?}");
                    for k in 1..=7 {
                        let want_k = reference(&plan, &x0, k);
                        assert_eq!(plan.power(&x0, k), want_k[k - 1], "{tag} power k={k}");
                        assert_eq!(plan.krylov(&x0, k), want_k, "{tag} krylov k={k}");
                    }
                    for coeffs in coeff_sets {
                        assert_eq!(
                            plan.sspmv(coeffs, &x0),
                            reference_sspmv(&plan, coeffs, &x0),
                            "{tag} sspmv deg {}",
                            coeffs.len() - 1
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn symgs_is_bitwise_the_serial_sweep_pair() {
    // The kernel change leaves SYMGS alone; pin it to a serial forward
    // then backward Gauss–Seidel on the same split.
    for (name, a) in matrices() {
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        for t in thread_counts() {
            for sync in [SyncMode::ColorBarrier, SyncMode::PointToPoint] {
                let plan = plan(&a, t, sync, VectorLayout::BackToBack);
                let p = plan.permutation().unwrap();
                let s = plan.split();
                let bp = p.apply_vec_alloc(&b);
                let mut xp = vec![0.0; n];
                let mut x = vec![0.0; n];
                for sweep in 0..2 {
                    let update = |xp: &mut [f64], r: usize| {
                        let mut acc = bp[r];
                        for m in [&s.lower, &s.upper] {
                            let (cols, vals) = row(m, r);
                            for (&c, &v) in cols.iter().zip(vals) {
                                acc -= v * xp[c as usize];
                            }
                        }
                        xp[r] = acc / s.diag[r];
                    };
                    (0..n).for_each(|r| update(&mut xp, r));
                    (0..n).rev().for_each(|r| update(&mut xp, r));
                    plan.symgs_sweep(&b, &mut x);
                    assert_eq!(x, p.unapply_vec_alloc(&xp), "{name} t={t} {sync:?} sweep {sweep}");
                }
            }
        }
    }
}

#[test]
fn concurrent_calls_on_one_plan_match_sequential() {
    let a = fbmpk_gen::suite::suite_entry("cant").unwrap().generate(0.002, 5);
    let n = a.nrows();
    let inputs: Vec<Vec<f64>> = (0..4)
        .map(|s| (0..n).map(|i| ((i * (7 + s) % 31) as f64) / 15.0 - 1.0).collect())
        .collect();
    let coeffs = [0.5, -1.0, 0.25, 2.0, 0.0, 1.5];
    for (t, sync) in [
        (1, SyncMode::ColorBarrier),
        (1, SyncMode::PointToPoint),
        (2, SyncMode::ColorBarrier),
        (2, SyncMode::PointToPoint),
        (4, SyncMode::PointToPoint),
    ] {
        let plan = Arc::new(plan(&a, t, sync, VectorLayout::BackToBack));
        let want: Vec<(Vec<f64>, Vec<f64>)> = inputs
            .iter()
            .enumerate()
            .map(|(i, x)| (plan.power(x, 4 + i), plan.sspmv(&coeffs, x)))
            .collect();
        let want = Arc::new(want);
        let callers: Vec<_> = (0..inputs.len())
            .map(|i| {
                let (plan, want, x) = (Arc::clone(&plan), Arc::clone(&want), inputs[i].clone());
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        assert_eq!(plan.power(&x, 4 + i), want[i].0, "caller {i} power");
                        assert_eq!(plan.sspmv(&coeffs, &x), want[i].1, "caller {i} sspmv");
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap_or_else(|_| panic!("t={t} {sync:?}: a concurrent caller failed"));
        }
    }
}
