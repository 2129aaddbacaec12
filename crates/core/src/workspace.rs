//! Allocation-free repeated invocation.
//!
//! Solvers call the MPK once per outer iteration (power method, Chebyshev
//! filters, smoothers); allocating `xy`/`tmp`/`out` each call costs more
//! than the kernel on small systems, and at DRAM scale fresh pages cost a
//! fault per 4 KiB. [`Workspace`] owns the kernel buffers and the `*_with`
//! methods on [`FbmpkPlan`] reuse a caller's, so steady-state invocations
//! perform no heap allocation. The allocating calls (`power`, `krylov`,
//! `sspmv`) reuse one spare workspace the plan owns; only a call that
//! finds the spare taken by a concurrent call allocates its own.

use crate::plan::{FbmpkPlan, VectorLayout};
use crate::sink::{AccumSink, NullSink};
use std::sync::PoisonError;

/// Reusable kernel buffers for one plan (sized to its dimension).
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Interleaved or even-half buffer (length `2n`; split layout uses the
    /// two halves as separate arrays).
    pub(crate) xy: Vec<f64>,
    pub(crate) tmp: Vec<f64>,
    pub(crate) out: Vec<f64>,
    /// The invocation's input in the plan's (permuted) numbering. The
    /// kernel never writes it, so a fallback retry starts clean from it.
    pub(crate) staged: Vec<f64>,
    /// Permuted-domain accumulator for `sspmv_with` on reordered plans.
    acc: Vec<f64>,
    n: usize,
}

impl Workspace {
    /// Allocates buffers for a plan of dimension `n`.
    pub fn new(n: usize) -> Self {
        Workspace {
            xy: vec![0.0; 2 * n],
            tmp: vec![0.0; n],
            out: vec![0.0; n],
            staged: vec![0.0; n],
            acc: vec![0.0; n],
            n,
        }
    }

    /// Dimension the workspace was sized for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Leaves an externally computed `x_k` (the level-blocked wavefront's)
    /// where [`FbmpkPlan::extract_result`] reads it: `out` for odd `k`,
    /// the even iterate slots otherwise.
    pub(crate) fn store_result(&mut self, layout: VectorLayout, k: usize, xk: &[f64]) {
        if k % 2 == 1 {
            self.out.copy_from_slice(xk);
            return;
        }
        match layout {
            VectorLayout::BackToBack => {
                for (i, &v) in xk.iter().enumerate() {
                    self.xy[2 * i] = v;
                }
            }
            VectorLayout::Split => self.xy[..self.n].copy_from_slice(xk),
        }
    }
}

impl FbmpkPlan {
    /// Creates a workspace matching this plan. When the plan was built
    /// with [`crate::FbmpkOptions::numa_first_touch`], the buffers are
    /// zeroed by the pool workers in equal contiguous shares, so their
    /// pages are first-touched (and hence placed) on the memory node of
    /// the workers that stream them.
    pub fn workspace(&self) -> Workspace {
        let n = self.n();
        Workspace {
            xy: self.alloc_zeroed(2 * n),
            tmp: self.alloc_zeroed(n),
            out: self.alloc_zeroed(n),
            staged: self.alloc_zeroed(n),
            acc: self.alloc_zeroed(n),
            n,
        }
    }

    /// Runs `f` on the buffers of one allocating call (`power`, `krylov`,
    /// `sspmv`) with `x0` staged: the plan's spare workspace when it is
    /// free, else a fresh one (no `sspmv_with` accumulator). The spare's
    /// lock is held only to take and return it, never across the kernel,
    /// so concurrent calls run side by side. Stale contents cannot leak:
    /// the kernel writes every buffer entry before reading it.
    pub(crate) fn with_call_workspace<T>(
        &self,
        x0: &[f64],
        f: impl FnOnce(&mut Workspace) -> T,
    ) -> T {
        let spare = self.spare.lock().unwrap_or_else(PoisonError::into_inner).take();
        let mut ws = spare.unwrap_or_else(|| {
            let n = self.n();
            Workspace {
                xy: self.alloc_zeroed(2 * n),
                tmp: self.alloc_zeroed(n),
                out: self.alloc_zeroed(n),
                staged: vec![0.0; n],
                acc: Vec::new(),
                n,
            }
        });
        self.stage(&mut ws, x0);
        let result = f(&mut ws);
        self.spare.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(ws);
        result
    }

    /// Copies `x0` into `ws.staged` in the plan's numbering.
    fn stage(&self, ws: &mut Workspace, x0: &[f64]) {
        match self.permutation() {
            Some(p) => p.apply_vec(x0, &mut ws.staged),
            None => ws.staged.copy_from_slice(x0),
        }
    }

    /// [`Self::extract_result`] into a fresh vector.
    pub(crate) fn result_alloc(&self, ws: &Workspace, k: usize) -> Vec<f64> {
        let mut y = vec![0.0; self.n()];
        self.extract_result(ws, k, &mut y);
        y
    }

    /// Like [`FbmpkPlan::power`], but reusing `ws` and writing into `y` —
    /// no allocation in steady state.
    ///
    /// # Panics
    /// Panics on length mismatches, a workspace sized for a different
    /// plan, or a worker fault (use [`FbmpkPlan::try_power_with`]).
    pub fn power_with(&self, ws: &mut Workspace, x0: &[f64], k: usize, y: &mut [f64]) {
        self.try_power_with(ws, x0, k, y)
            .unwrap_or_else(|e| panic!("fbmpk: power kernel failed: {e}"));
    }

    /// Fallible [`power_with`](Self::power_with); worker faults come back
    /// as typed errors, and stalled point-to-point invocations retry on
    /// the barrier schedule under
    /// [`crate::FallbackPolicy::ColorBarrier`]. `y` is only written on
    /// success.
    pub fn try_power_with(
        &self,
        ws: &mut Workspace,
        x0: &[f64],
        k: usize,
        y: &mut [f64],
    ) -> crate::Result<()> {
        let n = self.n();
        assert_eq!(ws.n, n, "workspace sized for a different plan");
        assert_eq!(x0.len(), n);
        assert_eq!(y.len(), n);
        if k == 0 {
            y.copy_from_slice(x0);
            return Ok(());
        }
        self.stage(ws, x0);
        self.with_fallback(|sync| self.execute(ws, k, &NullSink, sync))?;
        self.extract_result(ws, k, y);
        Ok(())
    }

    /// Like [`FbmpkPlan::sspmv`], but reusing `ws` and writing into `y`.
    ///
    /// # Panics
    /// Panics on length mismatches, empty `coeffs`, a foreign workspace,
    /// or a worker fault (use [`FbmpkPlan::try_sspmv_with`]).
    pub fn sspmv_with(&self, ws: &mut Workspace, coeffs: &[f64], x0: &[f64], y: &mut [f64]) {
        self.try_sspmv_with(ws, coeffs, x0, y)
            .unwrap_or_else(|e| panic!("fbmpk: sspmv kernel failed: {e}"));
    }

    /// Fallible [`sspmv_with`](Self::sspmv_with); see
    /// [`FbmpkPlan::try_power_with`] for the error and fallback
    /// semantics. On error `y` may hold a partial accumulation.
    pub fn try_sspmv_with(
        &self,
        ws: &mut Workspace,
        coeffs: &[f64],
        x0: &[f64],
        y: &mut [f64],
    ) -> crate::Result<()> {
        let n = self.n();
        assert_eq!(ws.n, n, "workspace sized for a different plan");
        assert!(!coeffs.is_empty(), "need at least the alpha_0 coefficient");
        assert_eq!(x0.len(), n);
        assert_eq!(y.len(), n);
        let k = coeffs.len() - 1;
        self.stage(ws, x0);
        // On reordered plans the accumulation happens in the permuted
        // domain; `ws.acc` is moved out for the duration of the kernel
        // (the sink borrows it while `execute` borrows `ws`) and
        // moved back afterwards — no allocation in steady state.
        let mut acc = std::mem::take(&mut ws.acc);
        let permuted = self.permutation().is_some();
        let r = self.with_fallback(|sync| {
            // The accumulator is reinitialized inside the attempt: the
            // sink adds into it as the sweeps run, so a stalled attempt
            // taints it and the retry must start from coeffs[0]·x.
            let acc_slice: &mut [f64] = if permuted {
                acc.resize(n, 0.0);
                for (ai, &xi) in acc.iter_mut().zip(&ws.staged) {
                    *ai = coeffs[0] * xi;
                }
                &mut acc
            } else {
                for (yi, &xi) in y.iter_mut().zip(&ws.staged) {
                    *yi = coeffs[0] * xi;
                }
                &mut *y
            };
            if k > 0 {
                let sink = AccumSink::new(acc_slice, coeffs);
                self.execute(ws, k, &sink, sync)?;
            }
            Ok(())
        });
        if r.is_ok() {
            if let Some(p) = self.permutation() {
                p.unapply_vec(&acc, y);
            }
        }
        ws.acc = acc;
        r
    }

    /// Copies `x_k` out of the workspace after [`Self::execute`], in the
    /// original numbering.
    pub(crate) fn extract_result(&self, ws: &Workspace, k: usize, y: &mut [f64]) {
        let n = self.n();
        let pick = |i: usize| -> f64 {
            if k % 2 == 1 {
                ws.out[i]
            } else {
                match self.layout() {
                    VectorLayout::BackToBack => ws.xy[2 * i],
                    VectorLayout::Split => ws.xy[i],
                }
            }
        };
        match self.permutation() {
            Some(p) => {
                let order = p.new_of_old();
                for (i, yi) in y.iter_mut().enumerate() {
                    *yi = pick(order[i] as usize);
                }
            }
            None => {
                for (i, yi) in y.iter_mut().enumerate().take(n) {
                    *yi = pick(i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FbmpkOptions;
    use fbmpk_reorder::AbmcParams;
    use fbmpk_sparse::vecops::rel_err_inf;

    fn grid() -> fbmpk_sparse::Csr {
        fbmpk_gen::poisson::grid2d_5pt(9, 8)
    }

    fn all_plans(a: &fbmpk_sparse::Csr) -> Vec<(&'static str, FbmpkPlan)> {
        let abmc = AbmcParams { nblocks: 12, ..Default::default() };
        vec![
            ("serial-btb", FbmpkPlan::new(a, FbmpkOptions::default()).unwrap()),
            (
                "serial-split",
                FbmpkPlan::new(
                    a,
                    FbmpkOptions { layout: VectorLayout::Split, ..Default::default() },
                )
                .unwrap(),
            ),
            (
                "serial-reordered",
                FbmpkPlan::new(a, FbmpkOptions { reorder: Some(abmc), ..Default::default() })
                    .unwrap(),
            ),
            ("parallel", {
                let mut o = FbmpkOptions::parallel(3);
                o.reorder = Some(abmc);
                FbmpkPlan::new(a, o).unwrap()
            }),
            ("parallel-split", {
                let mut o = FbmpkOptions::parallel(2);
                o.reorder = Some(abmc);
                o.layout = VectorLayout::Split;
                FbmpkPlan::new(a, o).unwrap()
            }),
        ]
    }

    #[test]
    fn power_with_matches_power() {
        let a = grid();
        let n = a.nrows();
        let x0: Vec<f64> = (0..n).map(|i| ((i * 13 % 31) as f64) / 15.0 - 1.0).collect();
        for (name, plan) in all_plans(&a) {
            let mut ws = plan.workspace();
            let mut y = vec![0.0; n];
            for k in 0..=7 {
                plan.power_with(&mut ws, &x0, k, &mut y);
                let want = plan.power(&x0, k);
                assert_eq!(y, want, "{name} k={k}");
            }
        }
    }

    #[test]
    fn sspmv_with_matches_sspmv() {
        let a = grid();
        let n = a.nrows();
        let x0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).cos()).collect();
        let coeffs = [0.5, -1.0, 0.25, 0.0, 1.5];
        for (name, plan) in all_plans(&a) {
            let mut ws = plan.workspace();
            let mut y = vec![0.0; n];
            plan.sspmv_with(&mut ws, &coeffs, &x0, &mut y);
            let want = plan.sspmv(&coeffs, &x0);
            assert!(rel_err_inf(&y, &want) < 1e-14, "{name}");
        }
    }

    #[test]
    fn workspace_is_reusable_across_k() {
        let a = grid();
        let n = a.nrows();
        let plan = FbmpkPlan::new(&a, FbmpkOptions::default()).unwrap();
        let mut ws = plan.workspace();
        let x0 = vec![1.0; n];
        let mut y = vec![0.0; n];
        // Alternate parities and sizes; stale buffer content must not leak.
        for &k in &[5usize, 2, 7, 1, 4] {
            plan.power_with(&mut ws, &x0, k, &mut y);
            assert_eq!(y, plan.power(&x0, k), "k={k}");
        }
    }

    #[test]
    fn allocating_calls_reuse_the_plan_spare() {
        let a = grid();
        let n = a.nrows();
        for (name, plan) in all_plans(&a) {
            let x0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
            assert!(plan.spare.lock().unwrap().is_none(), "{name}: spare before any call");
            let want = plan.power(&x0, 3);
            let base = plan.spare.lock().unwrap().as_ref().expect("spare after a call").xy.as_ptr();
            // Every allocating entry point takes the same buffers back, and
            // stale contents from other k and other sinks never leak.
            for k in [2usize, 5, 1] {
                plan.power(&x0, k);
                plan.krylov(&x0, k);
                plan.sspmv(&vec![0.5; k + 1], &x0);
            }
            assert_eq!(plan.power(&x0, 3), want, "{name}");
            let spare = plan.spare.lock().unwrap();
            assert_eq!(spare.as_ref().unwrap().xy.as_ptr(), base, "{name}: spare reallocated");
        }
    }

    #[test]
    #[should_panic(expected = "different plan")]
    fn foreign_workspace_rejected() {
        let a = grid();
        let plan = FbmpkPlan::new(&a, FbmpkOptions::default()).unwrap();
        let mut ws = Workspace::new(3);
        let mut y = vec![0.0; a.nrows()];
        plan.power_with(&mut ws, &vec![1.0; a.nrows()], 2, &mut y);
    }
}
