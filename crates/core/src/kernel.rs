//! The forward–backward MPK kernel (paper Algorithm 2, generalized).
//!
//! One generic function implements serial and parallel FBMPK for both
//! vector layouts and all three sink modes; monomorphization recovers the
//! specialized loops of the paper's hand-written variants.
//!
//! # Algorithm (computing `x_k = Aᵏ x₀` with `A = L + D + U`)
//!
//! State: the even iterate `x_{2p}` lives in the layout's even slots, the
//! odd iterate `x_{2p+1}` in the odd slots, and `tmp[r]` carries partial
//! sums between stages.
//!
//! * **head** — `U[r,:]·x₀` (one read of `U`), computed in a register by
//!   row `r` of the first forward sweep just before it needs it. The
//!   forward sweep never writes the even slots, so `x₀` is intact there
//!   for every row; no separate pass or barrier precedes the sweeps.
//! * `⌊k/2⌋` **forward/backward rounds**, each advancing two powers while
//!   reading `L` and `U` once each:
//!   * *forward*, rows top-down over `L`:
//!     `x_{2p+1}[r] = tmp[r] + d[r]·x_{2p}[r] + Σ L[r,c]·x_{2p}[c]` and, in
//!     the same pass over the row (the elements of `L` are already in
//!     registers), `tmp[r] = Σ L[r,c]·x_{2p+1}[c] + d[r]·x_{2p+1}[r]` — the
//!     lower triangle only references columns `c < r`, which this sweep has
//!     already finished.
//!   * *backward*, rows bottom-up over `U`: symmetric, producing
//!     `x_{2p+2}` in the even slots and `tmp = U·x_{2p+2}` for the next
//!     round's head state.
//! * **tail** (odd `k`) — `x_k = tmp + d·x_{k-1} + L·x_{k-1}` (one read of
//!   `L`), on a flat row partition balanced by `L` nonzeros. For `k = 1`
//!   there is no sweep: one flat pass computes each row's `U` and `L` dots
//!   together, balanced by `L + U` nonzeros, with no barrier at all.
//!
//! Matrix reads: `⌈(k+1)/2⌉` instead of the standard `k` (paper §III-B).
//!
//! # Parallel soundness
//!
//! With an ABMC schedule, rows are ordered by color; the forward sweep
//! processes colors ascending and the backward sweep descending, with a
//! pool barrier after every color. A lower-triangle entry `(r, c)` under an
//! ABMC permutation has `color(c) < color(r)` (finished before the barrier)
//! or lies in the same block (processed sequentially by the owning thread)
//! — `fbmpk-reorder` validates exactly this property. All writes
//! (`odd[r]`, `even[r]`, `tmp[r]`, sink emissions) are indexed by rows the
//! executing thread owns.
//!
//! In [`SyncCtx::PointToPoint`] mode the per-color barriers disappear:
//! each block instead waits on the epoch flags of exactly the predecessor
//! blocks in its [`fbmpk_reorder::BlockDeps`] wait list (flow **and**
//! anti dependencies, so the scheme is also safe for in-place SYMGS and
//! for structurally unsymmetric matrices) and flags itself done
//! afterwards. Epochs count sweeps within one invocation — forward of
//! round `p` is `2p+1`, backward `2p+2` — and a same-epoch wait plus
//! program order on the owning thread subsumes all earlier sweeps. Two
//! pool barriers remain: one after each thread resets its own flags
//! (publishing the resets before the first wait), and one before an
//! odd-`k` tail (its flat partition ignores block boundaries).

use crate::layout::XyLayout;
use crate::schedule::{Schedule, SyncCtx};
use crate::sink::Sink;
use fbmpk_obs::recorder::{Span, SpanKind};
use fbmpk_obs::{NoopProbe, Probe};
use fbmpk_parallel::{fault, SharedSlice, ThreadPool};
use fbmpk_sparse::TriangularSplit;

/// Resets the epoch flags of thread `t`'s own blocks (point-to-point mode
/// only). Flags are strictly thread-local to their owning thread — only
/// the owner ever resets or marks a flag — so no cross-thread write races
/// exist; a pool barrier between the resets and the first wait publishes
/// them (FBMPK and SYMGS both place one right after this call).
pub(crate) fn reset_own_flags(sched: &Schedule, sync: &SyncCtx, t: usize) {
    if let SyncCtx::PointToPoint { flags, .. } = sync {
        for per_color in sched.blocks.iter() {
            for b in per_color[t].clone() {
                flags.reset_one(b);
            }
        }
    }
}

/// One forward sweep (colors ascending, rows top-down) under either sync
/// mode. `epoch` identifies this sweep within the current invocation
/// (1-based); `row` performs one row update.
///
/// Point-to-point mode is deadlock-free because every forward wait
/// targets a strictly earlier color ([`fbmpk_reorder::BlockDeps`]
/// validates this), i.e. a block scheduled earlier in every thread's
/// forward order; both modes execute identical per-row arithmetic in an
/// order consistent with the same dependences, so results are bitwise
/// equal.
pub(crate) fn forward_sweep<F: Fn(usize), P: Probe>(
    sched: &Schedule,
    sync: &SyncCtx,
    pool: &ThreadPool,
    t: usize,
    epoch: u64,
    probe: &P,
    row: F,
) {
    let barrier = pool.barrier();
    let progress = pool.progress();
    // Every instrumented path lives behind `if P::ENABLED`; the `else`
    // branches are the uninstrumented loops verbatim, so the NoopProbe
    // monomorphization is the original kernel.
    match *sync {
        SyncCtx::Barrier => {
            if P::ENABLED {
                for (c, per_thread) in sched.colors.iter().enumerate() {
                    progress.set_site(t, c as u32, None);
                    fault::at_color(t, c);
                    let range = per_thread[t].clone();
                    let rows = range.len() as u32;
                    let t0 = probe.now();
                    for r in range {
                        row(r);
                    }
                    let t1 = probe.now();
                    let (_, snoozes) = barrier.wait_counted();
                    let t2 = probe.now();
                    // SAFETY: `t` is this worker's own lane.
                    unsafe {
                        probe.record(
                            t,
                            span(SpanKind::Forward, c as u32, Span::NO_ID, rows, t0, t1),
                        );
                        probe.record(
                            t,
                            span(SpanKind::BarrierWait, c as u32, Span::NO_ID, snoozes, t1, t2),
                        );
                    }
                }
            } else {
                for (c, per_thread) in sched.colors.iter().enumerate() {
                    progress.set_site(t, c as u32, None);
                    fault::at_color(t, c);
                    for r in per_thread[t].clone() {
                        row(r);
                    }
                    barrier.wait();
                }
            }
        }
        SyncCtx::PointToPoint { deps, flags } => {
            if P::ENABLED {
                for (c, per_color) in sched.blocks.iter().enumerate() {
                    fault::at_color(t, c);
                    for b in per_color[t].clone() {
                        progress.set_site(t, c as u32, Some(b as u32));
                        let t0 = probe.now();
                        let snoozes = flags.wait_all_counted_from(t, deps.fwd(b), epoch);
                        let t1 = probe.now();
                        let block = sched.block_rows(b);
                        let rows = block.len() as u32;
                        for r in block {
                            row(r);
                        }
                        if fault::before_mark(t, b, epoch) {
                            flags.mark(b, epoch);
                        }
                        let t2 = probe.now();
                        // SAFETY: `t` is this worker's own lane.
                        unsafe {
                            probe.record(
                                t,
                                span(SpanKind::FlagWait, c as u32, b as u32, snoozes, t0, t1),
                            );
                            probe.record(
                                t,
                                span(SpanKind::Forward, c as u32, b as u32, rows, t1, t2),
                            );
                        }
                    }
                }
            } else {
                for (c, per_color) in sched.blocks.iter().enumerate() {
                    fault::at_color(t, c);
                    for b in per_color[t].clone() {
                        progress.set_site(t, c as u32, Some(b as u32));
                        flags.wait_all_counted_from(t, deps.fwd(b), epoch);
                        for r in sched.block_rows(b) {
                            row(r);
                        }
                        if fault::before_mark(t, b, epoch) {
                            flags.mark(b, epoch);
                        }
                    }
                }
            }
        }
    }
}

/// Builds a span literal (keeps the instrumentation sites readable).
#[inline(always)]
fn span(kind: SpanKind, color: u32, block: u32, detail: u32, start_ns: u64, end_ns: u64) -> Span {
    Span { kind, color, block, detail, start_ns, end_ns }
}

/// One backward sweep (colors descending, rows bottom-up); mirror of
/// [`forward_sweep`] waiting on the later-color dependency lists.
pub(crate) fn backward_sweep<F: Fn(usize), P: Probe>(
    sched: &Schedule,
    sync: &SyncCtx,
    pool: &ThreadPool,
    t: usize,
    epoch: u64,
    probe: &P,
    row: F,
) {
    let barrier = pool.barrier();
    let progress = pool.progress();
    match *sync {
        SyncCtx::Barrier => {
            if P::ENABLED {
                let ncolors = sched.colors.len();
                for (i, per_thread) in sched.colors.iter().rev().enumerate() {
                    let c = (ncolors - 1 - i) as u32;
                    progress.set_site(t, c, None);
                    fault::at_color(t, c as usize);
                    let range = per_thread[t].clone();
                    let rows = range.len() as u32;
                    let t0 = probe.now();
                    for r in range.rev() {
                        row(r);
                    }
                    let t1 = probe.now();
                    let (_, snoozes) = barrier.wait_counted();
                    let t2 = probe.now();
                    // SAFETY: `t` is this worker's own lane.
                    unsafe {
                        probe.record(t, span(SpanKind::Backward, c, Span::NO_ID, rows, t0, t1));
                        probe.record(
                            t,
                            span(SpanKind::BarrierWait, c, Span::NO_ID, snoozes, t1, t2),
                        );
                    }
                }
            } else {
                let ncolors = sched.colors.len();
                for (i, per_thread) in sched.colors.iter().rev().enumerate() {
                    let c = ncolors - 1 - i;
                    progress.set_site(t, c as u32, None);
                    fault::at_color(t, c);
                    for r in per_thread[t].clone().rev() {
                        row(r);
                    }
                    barrier.wait();
                }
            }
        }
        SyncCtx::PointToPoint { deps, flags } => {
            if P::ENABLED {
                let ncolors = sched.blocks.len();
                for (i, per_color) in sched.blocks.iter().rev().enumerate() {
                    let c = (ncolors - 1 - i) as u32;
                    fault::at_color(t, c as usize);
                    for b in per_color[t].clone().rev() {
                        progress.set_site(t, c, Some(b as u32));
                        let t0 = probe.now();
                        let snoozes = flags.wait_all_counted_from(t, deps.bwd(b), epoch);
                        let t1 = probe.now();
                        let block = sched.block_rows(b);
                        let rows = block.len() as u32;
                        for r in block.rev() {
                            row(r);
                        }
                        if fault::before_mark(t, b, epoch) {
                            flags.mark(b, epoch);
                        }
                        let t2 = probe.now();
                        // SAFETY: `t` is this worker's own lane.
                        unsafe {
                            probe.record(t, span(SpanKind::FlagWait, c, b as u32, snoozes, t0, t1));
                            probe.record(t, span(SpanKind::Backward, c, b as u32, rows, t1, t2));
                        }
                    }
                }
            } else {
                let ncolors = sched.blocks.len();
                for (i, per_color) in sched.blocks.iter().rev().enumerate() {
                    let c = ncolors - 1 - i;
                    fault::at_color(t, c);
                    for b in per_color[t].clone().rev() {
                        progress.set_site(t, c as u32, Some(b as u32));
                        flags.wait_all_counted_from(t, deps.bwd(b), epoch);
                        for r in sched.block_rows(b).rev() {
                            row(r);
                        }
                        if fault::before_mark(t, b, epoch) {
                            flags.mark(b, epoch);
                        }
                    }
                }
            }
        }
    }
}

/// Runs the FBMPK pipeline.
///
/// On entry the layout's **even** slots must hold `x₀`; odd slots, `tmp`
/// and `out` may hold anything (every entry is written before it is
/// read). On exit:
///
/// * even `k`: the even slots hold `x_k`,
/// * odd `k`: `out` holds `x_k` (even slots hold `x_{k-1}`).
///
/// `tmp` and `out` must have length `n`. The sink observes every entry of
/// every iterate `1..=k`.
///
/// `sync` selects the intra-sweep synchronization: barriers after every
/// color, or per-block point-to-point waits (whose dependency lists and
/// flag table must match this schedule's block structure). Either way the
/// last sweep hands off to an odd-`k` tail through a pool barrier: the
/// tail runs on a flat partition, which crosses block boundaries.
///
/// # Errors
/// Returns [`crate::FbmpkError::WorkerPanicked`] when a worker closure
/// panics mid-kernel (peers unwind via the pool's poison latch and the
/// pool stays reusable), and [`crate::FbmpkError::Stalled`] when a
/// point-to-point wait exceeds the watchdog deadline attached to `flags`.
///
/// # Panics
/// Panics if `k == 0` or buffer lengths disagree with the schedule.
#[allow(clippy::too_many_arguments)] // the kernel signature mirrors Algorithm 2's inputs
pub fn run_fbmpk<L: XyLayout, S: Sink>(
    pool: &ThreadPool,
    sched: &Schedule,
    split: &TriangularSplit,
    layout: &L,
    tmp: &mut [f64],
    out: &mut [f64],
    k: usize,
    sink: &S,
    sync: &SyncCtx,
) -> crate::Result<()> {
    run_fbmpk_probed(pool, sched, split, layout, tmp, out, k, sink, sync, &NoopProbe)
}

/// A pool barrier wait, recorded as a [`SpanKind::BarrierWait`] span when
/// the probe is enabled.
fn probed_barrier<P: Probe>(pool: &ThreadPool, t: usize, probe: &P) {
    if P::ENABLED {
        let t0 = probe.now();
        let (_, snoozes) = pool.barrier().wait_counted();
        let t1 = probe.now();
        // SAFETY: `t` is this worker's own lane.
        unsafe {
            probe.record(t, span(SpanKind::BarrierWait, Span::NO_ID, Span::NO_ID, snoozes, t0, t1));
        }
    } else {
        pool.barrier().wait();
    }
}

/// [`run_fbmpk`] with an observability probe threaded through every
/// phase. With [`NoopProbe`] (what [`run_fbmpk`] passes) the probe
/// parameters monomorphize away and this *is* the uninstrumented kernel;
/// with [`fbmpk_obs::SpanProbe`] each thread records forward/backward/
/// tail compute spans plus barrier-wait and epoch-flag-wait spans into
/// its own recorder lane. [`SpanKind::Head`] marks the single flat pass
/// of `k = 1`; for `k ≥ 2` the head's work is inside the first forward
/// sweep's spans.
#[allow(clippy::too_many_arguments)] // the kernel signature mirrors Algorithm 2's inputs
pub fn run_fbmpk_probed<L: XyLayout, S: Sink, P: Probe>(
    pool: &ThreadPool,
    sched: &Schedule,
    split: &TriangularSplit,
    layout: &L,
    tmp: &mut [f64],
    out: &mut [f64],
    k: usize,
    sink: &S,
    sync: &SyncCtx,
    probe: &P,
) -> crate::Result<()> {
    assert!(k >= 1, "k must be at least 1 (k = 0 is the identity)");
    let n = split.n();
    assert_eq!(sched.n, n, "schedule dimension mismatch");
    assert_eq!(tmp.len(), n);
    assert_eq!(out.len(), n);
    assert_eq!(pool.nthreads(), sched.nthreads, "pool/schedule thread count mismatch");
    let p2p = matches!(sync, SyncCtx::PointToPoint { .. });
    if let SyncCtx::PointToPoint { deps, flags } = sync {
        assert_eq!(deps.nblocks(), sched.nblocks(), "dependency/schedule block count mismatch");
        assert_eq!(flags.len(), sched.nblocks(), "flag/schedule block count mismatch");
    }

    let tmp = SharedSlice::new(tmp);
    let out = SharedSlice::new(out);
    let lower = &split.lower;
    let upper = &split.upper;
    let diag = &split.diag;
    let rounds = k / 2;

    // With the `simd` feature on and a vector unit detected at runtime, the
    // sweeps gather whole rows through the layout's base pointers using the
    // dispatched kernels of `fbmpk_sparse::simd` (bit-identical to the
    // unrolled scalar loops below by construction). Layouts that keep
    // `vector_bases` at `None` (e.g. access-tracing ones) stay on the
    // accessor path regardless of the feature.
    #[cfg(feature = "simd")]
    let simd_bases: Option<crate::layout::LayoutBases> =
        if fbmpk_sparse::simd::detect().is_accelerated() { layout.vector_bases() } else { None };

    pool.try_run(&|t| {
        let l_ptr = lower.row_ptr();
        let l_col = lower.col_idx();
        let l_val = lower.values();
        let u_ptr = upper.row_ptr();
        let u_col = upper.col_idx();
        let u_val = upper.values();

        // `init + Σ vals[j]·x_even[cols[j]]` for one row: 4-way unrolled
        // (independent accumulators keep the FP pipeline full), with
        // `init` and the < 4 remainder folded into s0 so short rows stay
        // bit-identical to the scalar loop. Callers read only even slots
        // that are stable: `x₀` during the first forward sweep (which
        // never writes them) or the k = 1 pass, `x_{k-1}` after the last
        // sweep's barrier.
        let even_dot = |cols: &[u32], vals: &[f64], init: f64| -> f64 {
            #[cfg(feature = "simd")]
            if let Some(bases) = simd_bases {
                use crate::layout::LayoutBases;
                // SAFETY: the even slots read are stable (above); lane 0
                // seeded with `init` is the scalar `s0` initialization.
                return unsafe {
                    match bases {
                        LayoutBases::Btb(xy) => {
                            fbmpk_sparse::simd::btb_even_dot_ptr(cols, vals, xy.0, init)
                        }
                        LayoutBases::Split { even, .. } => {
                            fbmpk_sparse::simd::row_dot_ptr(cols, vals, even.0, init)
                        }
                    }
                };
            }
            let len = cols.len();
            let vals = &vals[..len];
            let main = len - len % 4;
            let (mut s0, mut s1, mut s2, mut s3) = (init, 0.0f64, 0.0f64, 0.0f64);
            let mut j = 0;
            // SAFETY: the even slots read are stable (above).
            unsafe {
                while j < main {
                    s0 += vals[j] * layout.get_even(cols[j] as usize);
                    s1 += vals[j + 1] * layout.get_even(cols[j + 1] as usize);
                    s2 += vals[j + 2] * layout.get_even(cols[j + 2] as usize);
                    s3 += vals[j + 3] * layout.get_even(cols[j + 3] as usize);
                    j += 4;
                }
                while j < len {
                    s0 += vals[j] * layout.get_even(cols[j] as usize);
                    j += 1;
                }
            }
            (s0 + s1) + (s2 + s3)
        };
        // Row r's head value `U[r,:]·x₀`, which the first forward sweep
        // and the k = 1 pass use in place of `tmp[r]`.
        let head = |r: usize| {
            let (lo, hi) = (u_ptr[r], u_ptr[r + 1]);
            even_dot(&u_col[lo..hi], &u_val[lo..hi], 0.0)
        };

        // Point-to-point sweeps wait on flags; publish this thread's
        // resets before anyone waits. Without sweeps (k = 1) nothing waits.
        if p2p && rounds > 0 {
            reset_own_flags(sched, sync, t);
            probed_barrier(pool, t, probe);
        }

        for p in 0..rounds {
            // Forward sweep over L, colors ascending. The first one folds
            // the head in: tmp[r] is not yet written, so row r computes
            // U[r,:]·x₀ itself.
            let first = p == 0;
            forward_sweep(sched, sync, pool, t, (2 * p + 1) as u64, probe, |r| {
                // SAFETY: tmp[r]/even[r] owned or phase-stable; odd[c] for
                // c in L-row r is finished (earlier color — barrier or
                // flag-waited — or same block processed earlier by this
                // thread). In point-to-point mode the forward wait also
                // covers the anti-dependency: earlier-color readers of
                // this block's odd rows finished their previous backward
                // sweep before marking this epoch.
                unsafe {
                    let d = diag[r];
                    let (lo, hi) = (l_ptr[r], l_ptr[r + 1]);
                    let carried = if first { head(r) } else { tmp.get(r) };
                    let init_even = carried + d * layout.get_even(r);
                    #[cfg(feature = "simd")]
                    if let Some(bases) = simd_bases {
                        use crate::layout::LayoutBases;
                        // Dual dot with the even stream seeded by
                        // tmp[r] + d·x_even[r] — exactly `sum0a`'s scalar
                        // initialization below.
                        let (sum0, sum1) = match bases {
                            LayoutBases::Btb(xy) => fbmpk_sparse::simd::btb_dual_dot_ptr(
                                &l_col[lo..hi],
                                &l_val[lo..hi],
                                xy.0,
                                init_even,
                                0.0,
                            ),
                            LayoutBases::Split { even, odd } => {
                                fbmpk_sparse::simd::split_dual_dot_ptr(
                                    &l_col[lo..hi],
                                    &l_val[lo..hi],
                                    even.0,
                                    odd.0,
                                    init_even,
                                    0.0,
                                )
                            }
                        };
                        layout.set_odd(r, sum0); // x_{2p+1}[r]
                        sink.emit(2 * p + 1, r, sum0);
                        tmp.set(r, sum1 + d * sum0); // (L+D) x_{2p+1}
                        return;
                    }
                    // Two dot products share one traversal of the L row
                    // (even and odd streams); each is 2-way unrolled —
                    // four independent accumulators total, mirroring the
                    // standalone SpMV's 4-way unroll. The odd remainder
                    // element folds into the `a` accumulators so rows
                    // with < 2 nonzeros stay bit-identical to scalar.
                    let main = hi - (hi - lo) % 2;
                    let mut sum0a = init_even;
                    let (mut sum0b, mut sum1a, mut sum1b) = (0.0f64, 0.0f64, 0.0f64);
                    let mut j = lo;
                    while j < main {
                        let c0 = l_col[j] as usize;
                        let c1 = l_col[j + 1] as usize;
                        let v0 = l_val[j];
                        let v1 = l_val[j + 1];
                        sum0a += v0 * layout.get_even(c0);
                        sum0b += v1 * layout.get_even(c1);
                        sum1a += v0 * layout.get_odd(c0);
                        sum1b += v1 * layout.get_odd(c1);
                        j += 2;
                    }
                    if j < hi {
                        let c = l_col[j] as usize;
                        let v = l_val[j];
                        sum0a += v * layout.get_even(c);
                        sum1a += v * layout.get_odd(c);
                    }
                    let sum0 = sum0a + sum0b;
                    let sum1 = sum1a + sum1b;
                    layout.set_odd(r, sum0); // x_{2p+1}[r]
                    sink.emit(2 * p + 1, r, sum0);
                    tmp.set(r, sum1 + d * sum0); // (L+D) x_{2p+1}
                }
            });
            // Backward sweep over U, colors descending, rows bottom-up.
            backward_sweep(sched, sync, pool, t, (2 * p + 2) as u64, probe, |r| {
                // SAFETY: even[c] for c in U-row r is already the new
                // iterate (later color or same block, processed first in
                // this bottom-up order); odd slots are read-only here. The
                // point-to-point backward wait also orders this block's
                // even-row overwrites after every later-color reader's
                // forward sweep (the anti-dependency).
                unsafe {
                    let (lo, hi) = (u_ptr[r], u_ptr[r + 1]);
                    #[cfg(feature = "simd")]
                    if let Some(bases) = simd_bases {
                        use crate::layout::LayoutBases;
                        // Mirror of the forward branch with the streams
                        // swapped: the *odd* stream carries tmp[r] (scalar
                        // `sum0a` below), the even stream starts at zero, so
                        // the kernel's (even, odd) return is (sum1, sum0).
                        let (sum1, sum0) = match bases {
                            LayoutBases::Btb(xy) => fbmpk_sparse::simd::btb_dual_dot_ptr(
                                &u_col[lo..hi],
                                &u_val[lo..hi],
                                xy.0,
                                0.0,
                                tmp.get(r),
                            ),
                            LayoutBases::Split { even, odd } => {
                                fbmpk_sparse::simd::split_dual_dot_ptr(
                                    &u_col[lo..hi],
                                    &u_val[lo..hi],
                                    even.0,
                                    odd.0,
                                    0.0,
                                    tmp.get(r),
                                )
                            }
                        };
                        layout.set_even(r, sum0); // x_{2p+2}[r]
                        sink.emit(2 * p + 2, r, sum0);
                        tmp.set(r, sum1); // U x_{2p+2}: next round's head
                        return;
                    }
                    // Mirror of the forward sweep: two 2-way unrolled
                    // dot products over the U row.
                    let main = hi - (hi - lo) % 2;
                    let mut sum0a = tmp.get(r);
                    let (mut sum0b, mut sum1a, mut sum1b) = (0.0f64, 0.0f64, 0.0f64);
                    let mut j = lo;
                    while j < main {
                        let c0 = u_col[j] as usize;
                        let c1 = u_col[j + 1] as usize;
                        let v0 = u_val[j];
                        let v1 = u_val[j + 1];
                        sum0a += v0 * layout.get_odd(c0);
                        sum0b += v1 * layout.get_odd(c1);
                        sum1a += v0 * layout.get_even(c0);
                        sum1b += v1 * layout.get_even(c1);
                        j += 2;
                    }
                    if j < hi {
                        let c = u_col[j] as usize;
                        let v = u_val[j];
                        sum0a += v * layout.get_odd(c);
                        sum1a += v * layout.get_even(c);
                    }
                    let sum0 = sum0a + sum0b;
                    let sum1 = sum1a + sum1b;
                    layout.set_even(r, sum0); // x_{2p+2}[r]
                    sink.emit(2 * p + 2, r, sum0);
                    tmp.set(r, sum1); // U x_{2p+2}: next round's head
                }
            });
        }

        if k % 2 == 1 {
            // Tail: x_k = tmp + D x_{k-1} + L x_{k-1} with x_{k-1} in the
            // even slots and tmp = U x_{k-1} from the last backward sweep.
            // For k = 1 there was no sweep: the row computes U x₀ itself,
            // on the L + U balanced partition, and nothing precedes it.
            let (rows, kind) = if rounds == 0 {
                (sched.flat[t].clone(), SpanKind::Head)
            } else {
                // Point-to-point sweeps end without a barrier, but the
                // tail reads tmp/even across its flat partition; the
                // barrier schedule already ended every color with one.
                if p2p {
                    probed_barrier(pool, t, probe);
                }
                (sched.tail[t].clone(), SpanKind::Tail)
            };
            let nrows = rows.len() as u32;
            let t0 = probe.now();
            for r in rows {
                // SAFETY: even slots and tmp are stable (no sweep left to
                // write them); out rows in this thread's range are owned.
                unsafe {
                    let carried = if rounds == 0 { head(r) } else { tmp.get(r) };
                    let (lo, hi) = (l_ptr[r], l_ptr[r + 1]);
                    let s = even_dot(
                        &l_col[lo..hi],
                        &l_val[lo..hi],
                        carried + diag[r] * layout.get_even(r),
                    );
                    out.set(r, s);
                    sink.emit(k, r, s);
                }
            }
            if P::ENABLED {
                let t1 = probe.now();
                // SAFETY: `t` is this worker's own lane.
                unsafe { probe.record(t, span(kind, Span::NO_ID, Span::NO_ID, nrows, t0, t1)) };
            }
        }
    })
    .map_err(crate::FbmpkError::from)
}

/// Counts the matrix-element reads the pipeline performs for a given `k` —
/// the quantity Fig. 3(b) of the paper reasons about. Returns
/// `(lower_reads, upper_reads)` in units of full-triangle traversals.
pub fn triangle_reads(k: usize) -> (usize, usize) {
    assert!(k >= 1);
    let rounds = k / 2;
    if k % 2 == 1 {
        // head(U) + rounds*(L+U) + tail(L)
        (rounds + 1, rounds + 1)
    } else {
        // head(U) + rounds*(L+U)
        (rounds, rounds + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{BtbXy, SplitXy};
    use crate::schedule::Schedule;
    use crate::sink::{AccumSink, CollectSink, NullSink};
    use fbmpk_sparse::spmv::spmv;
    use fbmpk_sparse::Csr;

    fn sample() -> Csr {
        Csr::from_dense(&[
            &[4.0, 1.0, 0.0, 2.0],
            &[1.0, 3.0, 3.0, 0.0],
            &[0.0, 3.0, 5.0, 1.0],
            &[2.0, 0.0, 1.0, 6.0],
        ])
    }

    fn reference_powers(a: &Csr, x0: &[f64], k: usize) -> Vec<Vec<f64>> {
        let mut out = Vec::new();
        let mut x = x0.to_vec();
        for _ in 0..k {
            let mut y = vec![0.0; x.len()];
            spmv(a, &x, &mut y);
            out.push(y.clone());
            x = y;
        }
        out
    }

    fn run_serial_btb(a: &Csr, x0: &[f64], k: usize) -> Vec<f64> {
        let n = a.nrows();
        let split = TriangularSplit::split(a).unwrap();
        let sched = Schedule::serial(n);
        let pool = ThreadPool::new(1);
        let mut xy = vec![0.0; 2 * n];
        for (i, &v) in x0.iter().enumerate() {
            xy[2 * i] = v;
        }
        let mut tmp = vec![0.0; n];
        let mut out = vec![0.0; n];
        {
            let layout = BtbXy::new(&mut xy);
            run_fbmpk(
                &pool,
                &sched,
                &split,
                &layout,
                &mut tmp,
                &mut out,
                k,
                &NullSink,
                &SyncCtx::Barrier,
            )
            .unwrap();
        }
        if k % 2 == 1 {
            out
        } else {
            (0..n).map(|i| xy[2 * i]).collect()
        }
    }

    #[test]
    fn matches_standard_for_all_small_k() {
        let a = sample();
        let x0 = [1.0, -2.0, 0.5, 3.0];
        for k in 1..=8 {
            let want = reference_powers(&a, &x0, k).pop().unwrap();
            let got = run_serial_btb(&a, &x0, k);
            for (g, w) in got.iter().zip(&want) {
                let scale = w.abs().max(1.0);
                assert!((g - w).abs() / scale < 1e-12, "k={k}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn split_layout_equals_btb() {
        let a = sample();
        let x0 = [0.3, 1.7, -0.9, 0.2];
        let n = 4;
        let split = TriangularSplit::split(&a).unwrap();
        let sched = Schedule::serial(n);
        let pool = ThreadPool::new(1);
        for k in [1, 2, 3, 4, 5] {
            let btb = run_serial_btb(&a, &x0, k);
            let mut even = x0.to_vec();
            let mut odd = vec![0.0; n];
            let mut tmp = vec![0.0; n];
            let mut out = vec![0.0; n];
            {
                let layout = SplitXy::new(&mut even, &mut odd);
                run_fbmpk(
                    &pool,
                    &sched,
                    &split,
                    &layout,
                    &mut tmp,
                    &mut out,
                    k,
                    &NullSink,
                    &SyncCtx::Barrier,
                )
                .unwrap();
            }
            let got = if k % 2 == 1 { out } else { even };
            for (g, w) in got.iter().zip(&btb) {
                assert_eq!(g, w, "layouts diverge at k={k}");
            }
        }
    }

    #[test]
    fn collect_sink_yields_all_iterates() {
        let a = sample();
        let x0 = [1.0, 1.0, 1.0, 1.0];
        let n = 4;
        let k = 5;
        let split = TriangularSplit::split(&a).unwrap();
        let sched = Schedule::serial(n);
        let pool = ThreadPool::new(1);
        let mut xy = vec![0.0; 2 * n];
        for (i, &v) in x0.iter().enumerate() {
            xy[2 * i] = v;
        }
        let mut tmp = vec![0.0; n];
        let mut out = vec![0.0; n];
        let mut basis = vec![0.0; k * n];
        {
            let layout = BtbXy::new(&mut xy);
            let sink = CollectSink::new(&mut basis, n, k);
            run_fbmpk(
                &pool,
                &sched,
                &split,
                &layout,
                &mut tmp,
                &mut out,
                k,
                &sink,
                &SyncCtx::Barrier,
            )
            .unwrap();
        }
        let want = reference_powers(&a, &x0, k);
        for i in 0..k {
            for r in 0..n {
                let w = want[i][r];
                let g = basis[i * n + r];
                assert!((g - w).abs() / w.abs().max(1.0) < 1e-12, "iterate {i} row {r}");
            }
        }
    }

    #[test]
    fn accum_sink_computes_polynomial() {
        // y = 2 x1 + 0 x2 + 3 x3
        let a = sample();
        let x0 = [0.5, -1.0, 2.0, 1.0];
        let n = 4;
        let k = 3;
        let coeffs = [0.0, 2.0, 0.0, 3.0];
        let split = TriangularSplit::split(&a).unwrap();
        let sched = Schedule::serial(n);
        let pool = ThreadPool::new(1);
        let mut xy = vec![0.0; 2 * n];
        for (i, &v) in x0.iter().enumerate() {
            xy[2 * i] = v;
        }
        let mut tmp = vec![0.0; n];
        let mut out = vec![0.0; n];
        let mut y = vec![0.0; n];
        {
            let layout = BtbXy::new(&mut xy);
            let sink = AccumSink::new(&mut y, &coeffs);
            run_fbmpk(
                &pool,
                &sched,
                &split,
                &layout,
                &mut tmp,
                &mut out,
                k,
                &sink,
                &SyncCtx::Barrier,
            )
            .unwrap();
        }
        let refs = reference_powers(&a, &x0, k);
        for r in 0..n {
            let w = 2.0 * refs[0][r] + 3.0 * refs[2][r];
            assert!((y[r] - w).abs() / w.abs().max(1.0) < 1e-12);
        }
    }

    #[test]
    fn triangle_reads_match_paper_formulas() {
        // Paper §III-B: k even -> U: k/2 + 1, L: k/2;
        //               k odd  -> both: 1 + (k-1)/2.
        for k in 1..=10 {
            let (l, u) = triangle_reads(k);
            if k % 2 == 0 {
                assert_eq!(u, k / 2 + 1, "k={k}");
                assert_eq!(l, k / 2, "k={k}");
            } else {
                assert_eq!(l, 1 + (k - 1) / 2, "k={k}");
                assert_eq!(u, 1 + (k - 1) / 2, "k={k}");
            }
            // Total = k+1 triangle reads ~ (k+1)/2 reads of A, vs the
            // standard method's 2k triangle reads (k reads of A).
            assert_eq!(l + u, k + 1);
        }
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn k_zero_rejected() {
        let a = sample();
        run_serial_btb(&a, &[1.0; 4], 0);
    }

    #[test]
    fn identity_matrix_powers() {
        let a = Csr::identity(3);
        let x0 = [3.0, -1.0, 2.0];
        for k in 1..=4 {
            let got = run_serial_btb(&a, &x0, k);
            assert_eq!(got, x0.to_vec(), "k={k}");
        }
    }

    #[test]
    fn diagonal_matrix_powers() {
        let a = Csr::from_dense(&[&[2.0, 0.0], &[0.0, -3.0]]);
        let got = run_serial_btb(&a, &[1.0, 1.0], 3);
        assert_eq!(got, vec![8.0, -27.0]);
    }

    #[test]
    fn strictly_triangular_matrices() {
        // Pure lower: nilpotent; k >= n gives zero.
        let l = Csr::from_dense(&[&[0.0, 0.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let got = run_serial_btb(&l, &[1.0, 0.0, 0.0], 2);
        assert_eq!(got, vec![0.0, 0.0, 1.0]);
        let got = run_serial_btb(&l, &[1.0, 0.0, 0.0], 3);
        assert_eq!(got, vec![0.0, 0.0, 0.0]);
        // Pure upper.
        let u = l.transpose();
        let got = run_serial_btb(&u, &[0.0, 0.0, 1.0], 2);
        assert_eq!(got, vec![1.0, 0.0, 0.0]);
    }
}
