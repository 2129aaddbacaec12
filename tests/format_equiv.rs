//! Storage-format equivalence: CSR and SELL-C-sigma must compute
//! identical SpMV results on every suite matrix class, and SpMM must match
//! per-vector SpMV — the invariants that make format choice a pure
//! performance decision (paper SVII).

use fbmpk_sparse::sellcs::SellCs;
use fbmpk_sparse::spmm::{block_power, spmm, MultiVec};
use fbmpk_sparse::spmv::{spmv, spmv_alloc};
use fbmpk_sparse::vecops::rel_err_inf;

#[test]
fn all_formats_agree_on_full_suite() {
    for entry in fbmpk_gen::paper_suite() {
        let a = entry.generate(0.0005, 21);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 29 % 53) as f64) / 26.0 - 1.0).collect();
        let mut want = vec![0.0; n];
        spmv(&a, &x, &mut want);
        let mut got = vec![0.0; n];
        for (c, sigma) in [(4usize, 0usize), (8, 64), (16, 128)] {
            let s = SellCs::from_csr(&a, c, sigma);
            s.spmv(&x, &mut got);
            assert!(rel_err_inf(&got, &want) < 1e-13, "{} SELL-{c}-{sigma}", entry.name);
        }
    }
}

#[test]
fn spmm_block_power_matches_fbmpk_krylov() {
    use fbmpk::{FbmpkOptions, FbmpkPlan};
    let a = fbmpk_gen::suite::suite_entry("pwtk").unwrap().generate(0.001, 3);
    let n = a.nrows();
    let cols: Vec<Vec<f64>> =
        (0..3).map(|v| (0..n).map(|i| ((i * (v + 2) % 17) as f64) / 8.0 - 1.0).collect()).collect();
    let x = MultiVec::from_columns(&cols);
    let k = 4;
    let y = block_power(&a, &x, k);
    let plan = FbmpkPlan::new(&a, FbmpkOptions::default()).unwrap();
    for (v, col) in cols.iter().enumerate() {
        let want = plan.power(col, k);
        assert!(rel_err_inf(&y.column(v), &want) < 1e-11, "vector {v}");
    }
}

#[test]
fn spmm_on_unsymmetric_matrix() {
    let a =
        fbmpk_gen::cage::cage_like(fbmpk_gen::cage::CageParams { n: 300, neighbors: 18, seed: 2 });
    let n = a.nrows();
    let cols = vec![vec![1.0; n], (0..n).map(|i| i as f64 / n as f64).collect()];
    let x = MultiVec::from_columns(&cols);
    let mut y = MultiVec::zeros(n, 2);
    spmm(&a, &x, &mut y);
    for (v, col) in cols.iter().enumerate() {
        assert!(rel_err_inf(&y.column(v), &spmv_alloc(&a, col)) < 1e-13, "vector {v}");
    }
}
