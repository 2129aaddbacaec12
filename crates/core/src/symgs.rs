//! Symmetric Gauss–Seidel (SYMGS) on the FBMPK infrastructure.
//!
//! The paper notes (§III-A, §VII) that FBMPK's forward/backward sweeps have
//! the same shape as SYMGS — the smoother at the heart of HPCG — and that
//! the same `A = L + D + U` split and multi-color parallelization apply.
//! This module delivers that: one SYMGS sweep
//!
//! ```text
//! forward :  x[r] ← (b[r] − Σ_{c<r} L[r,c]·x[c] − Σ_{c>r} U[r,c]·x[c]) / d[r]   (top-down)
//! backward:  the same update, bottom-up
//! ```
//!
//! runs serially or on the ABMC-colored schedule, reusing the plan's split,
//! schedule and thread pool. In-place updates are safe under the coloring
//! for exactly the FBMPK argument: a neighbor is either in another color
//! (stable during this color's phase) or in the same block (processed
//! sequentially by the owning thread).

use crate::kernel::{backward_sweep, forward_sweep, reset_own_flags};
use crate::schedule::{Schedule, SyncCtx};
use fbmpk_obs::{NoopProbe, Probe};
use fbmpk_parallel::{SharedSlice, ThreadPool};
use fbmpk_sparse::TriangularSplit;

/// Runs one symmetric Gauss–Seidel sweep (forward then backward) in place.
///
/// `x` holds the current iterate on entry and the updated iterate on exit;
/// `b` is the right-hand side. The sweep order is the (permuted) row order
/// encoded by the schedule.
///
/// `sync` selects barrier-per-color or point-to-point block
/// synchronization. SYMGS updates `x` in place, which is exactly why the
/// dependency lists carry anti-dependencies: in point-to-point mode a
/// block may not overwrite its rows until every earlier-color reader of
/// those rows has passed (forward), and symmetrically backward — the
/// same-epoch flag wait on the union list guarantees both.
///
/// # Errors
/// Returns [`crate::FbmpkError::WorkerPanicked`] or
/// [`crate::FbmpkError::Stalled`] when a worker dies or a point-to-point
/// wait times out; `x` may then hold a partially updated iterate.
///
/// # Panics
/// Panics on length mismatches or a zero diagonal entry.
pub fn run_symgs(
    pool: &ThreadPool,
    sched: &Schedule,
    split: &TriangularSplit,
    b: &[f64],
    x: &mut [f64],
    sync: &SyncCtx,
) -> crate::Result<()> {
    run_symgs_probed(pool, sched, split, b, x, sync, &NoopProbe)
}

/// [`run_symgs`] with an observability probe threaded through both
/// sweeps; the [`NoopProbe`] monomorphization (what [`run_symgs`]
/// passes) is the uninstrumented kernel.
pub fn run_symgs_probed<P: Probe>(
    pool: &ThreadPool,
    sched: &Schedule,
    split: &TriangularSplit,
    b: &[f64],
    x: &mut [f64],
    sync: &SyncCtx,
    probe: &P,
) -> crate::Result<()> {
    let n = split.n();
    assert_eq!(sched.n, n, "schedule dimension mismatch");
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    assert_eq!(pool.nthreads(), sched.nthreads, "pool/schedule thread count mismatch");
    assert!(split.diag.iter().all(|&d| d != 0.0), "SYMGS requires a nonzero diagonal");
    if let SyncCtx::PointToPoint { deps, flags } = sync {
        assert_eq!(deps.nblocks(), sched.nblocks(), "dependency/schedule block count mismatch");
        assert_eq!(flags.len(), sched.nblocks(), "flag/schedule block count mismatch");
    }
    let x = SharedSlice::new(x);
    let lower = &split.lower;
    let upper = &split.upper;
    let diag = &split.diag;
    let barrier = pool.barrier();
    let p2p = matches!(sync, SyncCtx::PointToPoint { .. });

    pool.try_run(&|t| {
        let l_ptr = lower.row_ptr();
        let l_col = lower.col_idx();
        let l_val = lower.values();
        let u_ptr = upper.row_ptr();
        let u_col = upper.col_idx();
        let u_val = upper.values();
        let update = |r: usize| {
            // SAFETY: row r is owned by this thread in this phase; L-cols
            // are finished (earlier color / earlier in block), U-cols are
            // untouched this phase (later color / later in block) — the
            // multi-color GS invariant validated by fbmpk-reorder, enforced
            // per color by the barrier or per block by the flag waits.
            unsafe {
                let mut s = b[r];
                for j in l_ptr[r]..l_ptr[r + 1] {
                    s -= l_val[j] * x.get(l_col[j] as usize);
                }
                for j in u_ptr[r]..u_ptr[r + 1] {
                    s -= u_val[j] * x.get(u_col[j] as usize);
                }
                x.set(r, s / diag[r]);
            }
        };
        if p2p {
            // Publish the flag resets before anyone starts waiting on
            // them (FBMPK does the same).
            reset_own_flags(sched, sync, t);
            barrier.wait();
        }
        // Forward (epoch 1) then backward (epoch 2); the anti-dependency
        // halves of the wait lists order the two sweeps against each
        // other, so no barrier separates them in point-to-point mode.
        forward_sweep(sched, sync, pool, t, 1, probe, update);
        backward_sweep(sched, sync, pool, t, 2, probe, update);
    })
    .map_err(crate::FbmpkError::from)
}

impl crate::plan::FbmpkPlan {
    /// One SYMGS sweep on this plan's (possibly reordered) system.
    ///
    /// `b` and `x` are in the *original* numbering; the plan permutes in
    /// and out. Repeated sweeps form the classic SYMGS stationary
    /// iteration / HPCG smoother.
    ///
    /// # Panics
    /// Panics on length mismatches, a zero diagonal, or a worker fault
    /// (use [`FbmpkPlan::try_symgs_sweep`](crate::plan::FbmpkPlan::try_symgs_sweep)
    /// for the fallible form).
    pub fn symgs_sweep(&self, b: &[f64], x: &mut [f64]) {
        self.try_symgs_sweep(b, x).unwrap_or_else(|e| panic!("fbmpk: SYMGS sweep failed: {e}"));
    }

    /// Fallible [`symgs_sweep`](Self::symgs_sweep): worker panics and
    /// watchdog stalls come back as typed errors instead of panicking.
    /// Under [`crate::FallbackPolicy::ColorBarrier`] a stalled
    /// point-to-point sweep is transparently re-executed on the barrier
    /// schedule; `x` is only committed when an attempt succeeds.
    pub fn try_symgs_sweep(&self, b: &[f64], x: &mut [f64]) -> crate::Result<()> {
        // Same probe dispatch as `power` et al.: recording plans trace
        // SYMGS sweeps too, everyone else runs the uninstrumented kernel.
        match self.recorder() {
            Some(rec) => self.try_symgs_sweep_probed(b, x, &fbmpk_obs::SpanProbe::new(rec)),
            None => self.try_symgs_sweep_probed(b, x, &NoopProbe),
        }
    }

    fn try_symgs_sweep_probed<P: Probe>(
        &self,
        b: &[f64],
        x: &mut [f64],
        probe: &P,
    ) -> crate::Result<()> {
        let n = self.n();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        match self.permutation() {
            Some(p) => {
                let bp = p.apply_vec_alloc(b);
                // Each attempt rebuilds xp from the untouched caller `x`,
                // so a fallback retry restarts from the pristine iterate.
                let xp = self.with_fallback(|sync| {
                    let mut xp = p.apply_vec_alloc(x);
                    run_symgs_probed(
                        self.pool(),
                        self.schedule(),
                        self.split(),
                        &bp,
                        &mut xp,
                        sync,
                        probe,
                    )?;
                    Ok(xp)
                })?;
                p.unapply_vec(&xp, x);
                Ok(())
            }
            None if self.can_fallback() => {
                // In-place sweep, but a retry needs the pristine iterate:
                // work on a scratch copy and commit on success only.
                let xn = self.with_fallback(|sync| {
                    let mut xn = x.to_vec();
                    run_symgs_probed(
                        self.pool(),
                        self.schedule(),
                        self.split(),
                        b,
                        &mut xn,
                        sync,
                        probe,
                    )?;
                    Ok(xn)
                })?;
                x.copy_from_slice(&xn);
                Ok(())
            }
            None => {
                // No fallback possible: sweep in place, zero extra copies
                // (an error leaves x partially updated, as documented on
                // `run_symgs`).
                let sync = self.sync_ctx();
                let r = run_symgs_probed(
                    self.pool(),
                    self.schedule(),
                    self.split(),
                    b,
                    x,
                    &sync,
                    probe,
                );
                self.note_outcome(&r);
                r
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::plan::{FbmpkOptions, FbmpkPlan};
    use fbmpk_reorder::AbmcParams;
    use fbmpk_sparse::spmv::spmv_alloc;
    use fbmpk_sparse::vecops::{max_abs_diff, norm2};
    use fbmpk_sparse::Csr;

    /// Dense reference SYMGS sweep in natural order.
    fn dense_symgs(a: &Csr, b: &[f64], x: &mut [f64]) {
        let n = a.nrows();
        let d = a.to_dense();
        let row = |x: &[f64], r: usize| -> f64 {
            let mut s = b[r];
            for c in 0..n {
                if c != r {
                    s -= d[r][c] * x[c];
                }
            }
            s / d[r][r]
        };
        for r in 0..n {
            x[r] = row(x, r);
        }
        for r in (0..n).rev() {
            x[r] = row(x, r);
        }
    }

    fn spd() -> Csr {
        fbmpk_gen::poisson::grid2d_5pt(7, 6)
    }

    #[test]
    fn serial_sweep_matches_dense_reference() {
        let a = spd();
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let plan = FbmpkPlan::new(&a, FbmpkOptions::default()).unwrap();
        let mut x = vec![0.0; n];
        plan.symgs_sweep(&b, &mut x);
        let mut want = vec![0.0; n];
        dense_symgs(&a, &b, &mut want);
        assert!(max_abs_diff(&x, &want) < 1e-13, "{:?}", max_abs_diff(&x, &want));
    }

    #[test]
    fn parallel_matches_serial_on_same_ordering_bitwise() {
        let a = fbmpk_gen::banded::banded_symmetric(fbmpk_gen::banded::BandedParams {
            n: 400,
            nnz_per_row: 11.0,
            bandwidth: 60,
            seed: 7,
        });
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let abmc = AbmcParams { nblocks: 32, ..Default::default() };
        let serial =
            FbmpkPlan::new(&a, FbmpkOptions { reorder: Some(abmc), ..Default::default() }).unwrap();
        let mut opts = FbmpkOptions::parallel(4);
        opts.reorder = Some(abmc);
        let par = FbmpkPlan::new(&a, opts).unwrap();
        let mut xs = vec![0.0; n];
        let mut xp = vec![0.0; n];
        for _ in 0..3 {
            serial.symgs_sweep(&b, &mut xs);
            par.symgs_sweep(&b, &mut xp);
        }
        assert_eq!(xs, xp);
    }

    #[test]
    fn stationary_iteration_converges_on_spd() {
        // SYMGS as a stationary method converges for SPD systems.
        let a = spd();
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 3 % 7) as f64) - 3.0).collect();
        let b = spmv_alloc(&a, &x_true);
        let plan = FbmpkPlan::new(&a, FbmpkOptions::default()).unwrap();
        let mut x = vec![0.0; n];
        let mut prev_res = f64::INFINITY;
        for sweep in 0..200 {
            plan.symgs_sweep(&b, &mut x);
            let r: Vec<f64> = spmv_alloc(&a, &x).iter().zip(&b).map(|(ax, bi)| bi - ax).collect();
            let rn = norm2(&r);
            assert!(rn <= prev_res * (1.0 + 1e-12), "sweep {sweep} residual grew");
            prev_res = rn;
        }
        assert!(max_abs_diff(&x, &x_true) < 1e-8, "err {}", max_abs_diff(&x, &x_true));
    }

    #[test]
    fn reordered_sweep_still_converges() {
        // GS depends on the sweep order; a permuted order is a *different*
        // but still convergent iteration for SPD systems.
        let a = spd();
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut opts = FbmpkOptions::parallel(3);
        opts.reorder = Some(AbmcParams { nblocks: 8, ..Default::default() });
        let plan = FbmpkPlan::new(&a, opts).unwrap();
        let mut x = vec![0.0; n];
        for _ in 0..300 {
            plan.symgs_sweep(&b, &mut x);
        }
        let res: Vec<f64> = spmv_alloc(&a, &x).iter().zip(&b).map(|(ax, bi)| bi - ax).collect();
        assert!(norm2(&res) / norm2(&b) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "nonzero diagonal")]
    fn zero_diagonal_rejected() {
        let a = Csr::from_dense(&[&[0.0, 1.0], &[1.0, 1.0]]);
        let plan = FbmpkPlan::new(&a, FbmpkOptions::default()).unwrap();
        let mut x = vec![0.0; 2];
        plan.symgs_sweep(&[1.0, 1.0], &mut x);
    }
}
