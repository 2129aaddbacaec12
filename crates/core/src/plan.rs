//! The public FBMPK planning/execution API.
//!
//! Mirrors the library structure the paper describes: preprocessing
//! (split + ABMC reorder) is a one-off cost captured in the plan and
//! amortized over many kernel invocations (paper §V-F); each invocation
//! then runs the forward–backward pipeline. Inputs and outputs are always
//! in the *original* row numbering; the plan permutes in and out
//! internally.

use crate::kernel::{run_fbmpk_probed, triangle_reads};
use crate::layout::{BtbXy, SplitXy};
use crate::levelblock::{probe_llc_bytes, BlockingMode, LevelBlockPlan};
use crate::schedule::{Schedule, SyncCtx, SyncMode};
use crate::sink::{AccumSink, CollectSink, NullSink, Sink};
use crate::workspace::Workspace;
use crate::{FbmpkError, Result};
use fbmpk_obs::recorder::{Span, SpanKind};
use fbmpk_obs::{NoopProbe, Probe, Recorder, SpanProbe, DEFAULT_SPAN_CAPACITY};
use fbmpk_parallel::{BlockFlags, ThreadPool};
use fbmpk_reorder::{Abmc, AbmcParams, BlockDeps, BlockingStrategy};
use fbmpk_sparse::{Csr, Permutation, TriangularSplit};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Storage layout for the two live iterates (paper §III-C, Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VectorLayout {
    /// One interleaved `2n` array (the paper's BtB optimization).
    #[default]
    BackToBack,
    /// Two independent arrays (the plain "FB" ablation variant).
    Split,
}

/// In-kernel observability options (see the `fbmpk-obs` crate).
///
/// Off by default: the kernels are then monomorphized with the no-op
/// probe and carry zero instrumentation. When `record` is on, the plan
/// owns a per-thread span [`Recorder`] and every `power`/`krylov`/
/// `sspmv`/`symgs_sweep` call appends phase-level compute and wait spans
/// to it; results are bit-identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsOptions {
    /// Record per-thread spans during kernel execution.
    pub record: bool,
    /// Per-thread span buffer capacity (spans past it are counted as
    /// dropped, never reallocated mid-kernel).
    pub span_capacity: usize,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions { record: false, span_capacity: DEFAULT_SPAN_CAPACITY }
    }
}

impl ObsOptions {
    /// Recording enabled at the default capacity.
    pub fn recording() -> Self {
        ObsOptions { record: true, ..Default::default() }
    }
}

/// What to do when the stall watchdog fires during a point-to-point
/// invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FallbackPolicy {
    /// Surface the stall as [`FbmpkError::Stalled`] and let the caller
    /// decide.
    #[default]
    Error,
    /// Transparently re-execute the invocation under the per-color
    /// barrier schedule (which carries no cross-block flag waits, so a
    /// lost or delayed flag publish cannot recur), record the
    /// degradation, and return the fallback's result. Panics are never
    /// retried — a deterministic panic would just fire again.
    ColorBarrier,
}

/// Stall-watchdog deadline used when neither
/// [`FbmpkOptions::watchdog_ms`] nor the `FBMPK_WATCHDOG_MS` environment
/// variable overrides it.
pub const DEFAULT_WATCHDOG_MS: u64 = 10_000;

/// Resolves the effective watchdog deadline: an explicit option wins,
/// then `FBMPK_WATCHDOG_MS`, then [`DEFAULT_WATCHDOG_MS`]. `0` disables
/// the deadline (waits still observe the poison latch).
fn resolved_watchdog_ms(opt: Option<u64>) -> u64 {
    match opt {
        Some(ms) => ms,
        None => std::env::var("FBMPK_WATCHDOG_MS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_WATCHDOG_MS),
    }
}

/// Structural input validation runs in debug builds always, and in
/// release builds when `FBMPK_VALIDATE` is set (to anything but `0`).
pub(crate) fn validate_inputs_enabled() -> bool {
    cfg!(debug_assertions) || std::env::var_os("FBMPK_VALIDATE").is_some_and(|v| v != "0")
}

/// Plan construction options.
#[derive(Debug, Clone, Copy)]
pub struct FbmpkOptions {
    /// Worker threads. `1` runs the serial pipeline of §III-B.
    pub nthreads: usize,
    /// ABMC reordering parameters. Required when `nthreads > 1`; optional
    /// (locality-only) for serial runs.
    pub reorder: Option<AbmcParams>,
    /// Iterate-pair layout.
    pub layout: VectorLayout,
    /// Apply a reverse Cuthill–McKee pass *before* ABMC blocking. RCM
    /// compacts the bandwidth (paper §II-C cites it as the standard
    /// locality reordering), which both tightens the gather window and
    /// tends to reduce the quotient-graph color count on irregular inputs.
    /// Only meaningful together with `reorder`.
    pub pre_rcm: bool,
    /// Intra-sweep synchronization: barrier per color, or barrier-free
    /// point-to-point block waits (see [`SyncMode`]). Bit-identical
    /// results either way; point-to-point wins when colors are many or
    /// narrow.
    pub sync: SyncMode,
    /// Pin pool workers to cores at startup (best-effort; see
    /// [`fbmpk_parallel::affinity`]). Only applies to pools created by
    /// [`FbmpkPlan::new`] — [`FbmpkPlan::with_pool`] keeps the caller's
    /// pool as-is.
    pub pin_threads: bool,
    /// NUMA-aware first-touch placement of the kernel buffers and the
    /// per-triangle CSR arrays: on parallel plans, pool workers fault in
    /// equal contiguous shares of each allocation so its pages land on
    /// the memory node of a worker that will stream them (workers pin
    /// node-locally under `pin_threads`; see
    /// [`fbmpk_parallel::numa::NumaTopology`]). Off by default. Results
    /// are bit-identical either way — only page placement changes — and
    /// serial plans ignore the flag entirely.
    pub numa_first_touch: bool,
    /// In-kernel observability (off by default — zero overhead).
    pub obs: ObsOptions,
    /// Stall-watchdog deadline for point-to-point waits, in milliseconds.
    /// `None` defers to `FBMPK_WATCHDOG_MS` / [`DEFAULT_WATCHDOG_MS`];
    /// `Some(0)` disables the deadline (waits still observe the poison
    /// latch, so a peer's panic always unblocks them).
    pub watchdog_ms: Option<u64>,
    /// What to do when the watchdog fires (see [`FallbackPolicy`]).
    pub fallback: FallbackPolicy,
    /// Memory traversal of the power kernels: the streaming
    /// forward–backward pipeline, or BFS-shell level blocking that holds a
    /// band of shells in cache across `tile_powers` consecutive powers
    /// (see [`BlockingMode`]). Level blocking pays a BFS preprocessing
    /// pass and denser synchronization; it wins when the matrix greatly
    /// exceeds the LLC and `k >= 4`.
    pub blocking: BlockingMode,
    /// Address for the Prometheus text-exposition endpoint (port `0`
    /// picks a free port; the bound address is logged to stderr). `None`
    /// defers to the `FBMPK_METRICS_ADDR` environment variable; with
    /// neither set there is no endpoint, no live telemetry, and zero
    /// overhead. Setting an address implies span recording
    /// ([`ObsOptions::record`]) so wait fractions are observable. The
    /// endpoint is process-global: the first plan to request one binds
    /// it, later plans join it.
    pub metrics_addr: Option<std::net::SocketAddr>,
}

impl Default for FbmpkOptions {
    fn default() -> Self {
        FbmpkOptions {
            nthreads: 1,
            reorder: None,
            layout: VectorLayout::default(),
            pre_rcm: false,
            sync: SyncMode::default(),
            pin_threads: false,
            numa_first_touch: false,
            obs: ObsOptions::default(),
            watchdog_ms: None,
            fallback: FallbackPolicy::default(),
            blocking: BlockingMode::default(),
            metrics_addr: None,
        }
    }
}

impl FbmpkOptions {
    /// The library's parallel configuration for `nthreads` workers:
    /// [`AbmcParams::for_threads`], i.e. 16 blocks per thread (capped at
    /// `n / 2`) with the blocking chosen per matrix by
    /// [`BlockingStrategy::FewestColors`] — contiguous ranges unless BFS
    /// aggregation colors the quotient graph in fewer colors. DESIGN.md
    /// ("ABMC policy") has the block-count sweep and the comparison with
    /// the earlier default of 512 BFS aggregates.
    pub fn parallel(nthreads: usize) -> Self {
        FbmpkOptions {
            nthreads,
            reorder: Some(AbmcParams::for_threads(nthreads)),
            ..Default::default()
        }
    }
}

/// One-off preprocessing costs (paper Fig. 11 normalizes these to SpMV
/// invocations).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanStats {
    /// Seconds spent computing and applying the ABMC ordering.
    pub reorder_seconds: f64,
    /// Seconds spent splitting `A = L + D + U`.
    pub split_seconds: f64,
    /// Number of ABMC colors (0 when unordered).
    pub ncolors: usize,
    /// Number of ABMC blocks (0 when unordered).
    pub nblocks: usize,
    /// The blocking the ABMC ordering was built with (`None` when
    /// unordered). Never [`BlockingStrategy::FewestColors`]: that policy
    /// reports the blocking it kept.
    pub blocking: Option<BlockingStrategy>,
}

/// Point-to-point synchronization state: per-block wait lists plus the
/// epoch flag table the sweeps mark and poll.
struct P2pState {
    deps: BlockDeps,
    flags: BlockFlags,
}

/// A prepared FBMPK executor.
pub struct FbmpkPlan {
    split: TriangularSplit,
    perm: Option<Permutation>,
    schedule: Schedule,
    pool: Arc<ThreadPool>,
    layout: VectorLayout,
    sync: SyncMode,
    blocking: BlockingMode,
    levelblock: Option<LevelBlockPlan>,
    p2p: Option<P2pState>,
    recorder: Option<Arc<Recorder>>,
    stats: PlanStats,
    n: usize,
    watchdog_ms: u64,
    fallback: FallbackPolicy,
    numa_first_touch: bool,
    /// Times a stalled point-to-point invocation was re-executed under
    /// the barrier schedule (the `ColorBarrier` fallback policy). Shared
    /// with the live-telemetry collector, which may outlive neither but
    /// must not borrow the plan.
    fallbacks: Arc<AtomicU64>,
    /// Scrape-time collector for the live exposition endpoint; `None`
    /// unless an endpoint is attached at plan build.
    telemetry: Option<Arc<crate::telemetry::PlanTelemetry>>,
    /// The allocating calls' reusable buffers (see
    /// [`Self::with_call_workspace`]); `None` until the first call, or
    /// while a call has it out.
    pub(crate) spare: Mutex<Option<Workspace>>,
}

impl FbmpkPlan {
    /// Builds a plan: optional ABMC reorder, triangular split, colored
    /// schedule, worker pool.
    ///
    /// # Errors
    /// [`FbmpkError::NotSquare`] for rectangular input;
    /// [`FbmpkError::ParallelNeedsReorder`] when `nthreads > 1` without
    /// `reorder`.
    pub fn new(a: &Csr, options: FbmpkOptions) -> Result<Self> {
        Self::with_pool(
            a,
            options,
            Arc::new(ThreadPool::with_affinity(options.nthreads, options.pin_threads)),
        )
    }

    /// Like [`FbmpkPlan::new`] but reusing an existing pool (whose size
    /// must equal `options.nthreads`).
    pub fn with_pool(a: &Csr, options: FbmpkOptions, pool: Arc<ThreadPool>) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(FbmpkError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
        }
        if options.nthreads == 0 || pool.nthreads() != options.nthreads {
            return Err(FbmpkError::BadLength { expected: options.nthreads, got: pool.nthreads() });
        }
        if options.nthreads > 1 && options.reorder.is_none() {
            return Err(FbmpkError::ParallelNeedsReorder);
        }
        // Structural validation of untrusted input (sorted in-bounds
        // columns, monotone row pointers, finite values): always in debug
        // builds, opt-in via FBMPK_VALIDATE in release.
        if validate_inputs_enabled() {
            a.validate()?;
        }
        let _build_span = fbmpk_obs::phases::span("plan.build");
        let n = a.nrows();
        let mut stats = PlanStats::default();
        // `working` is only needed to build the split; it borrows the
        // input unless a permuted copy exists.
        let (working, perm, abmc): (Cow<Csr>, _, _) = match options.reorder {
            Some(params) => {
                let _span = fbmpk_obs::phases::span("plan.reorder");
                let t0 = Instant::now();
                // Optional RCM locality pre-pass, composed with ABMC.
                let (pre_matrix, pre_perm): (Cow<Csr>, _) = if options.pre_rcm {
                    let rcm = fbmpk_reorder::rcm(a);
                    let m =
                        rcm.permute_symmetric(a).expect("RCM permutation matches matrix dimension");
                    (Cow::Owned(m), Some(rcm))
                } else {
                    (Cow::Borrowed(a), None)
                };
                let abmc = Abmc::new(&pre_matrix, params);
                let permuted = abmc.apply(&pre_matrix);
                drop(pre_matrix);
                stats.reorder_seconds = t0.elapsed().as_secs_f64();
                stats.ncolors = abmc.ncolors();
                stats.nblocks = abmc.nblocks();
                stats.blocking = Some(abmc.strategy());
                let total = match pre_perm {
                    Some(rcm) => rcm.then(abmc.permutation()),
                    None => abmc.permutation().clone(),
                };
                (Cow::Owned(permuted), Some(total), Some(abmc))
            }
            None => (Cow::Borrowed(a), None, None),
        };
        let t0 = Instant::now();
        let split = {
            let _span = fbmpk_obs::phases::span("plan.split");
            let mut s = TriangularSplit::split(&working)?;
            if options.numa_first_touch && options.nthreads > 1 {
                s = first_touch_split(&pool, s);
            }
            s
        };
        stats.split_seconds = t0.elapsed().as_secs_f64();
        // Level-blocked mode preprocesses the working (permuted) matrix
        // into BFS shells once, amortized like the reorder itself.
        let levelblock = match options.blocking {
            BlockingMode::Streaming => None,
            BlockingMode::LevelBlocked { tile_powers } => Some(LevelBlockPlan::new(
                &working,
                options.nthreads,
                tile_powers,
                probe_llc_bytes(),
            )),
        };
        let schedule = {
            let _span = fbmpk_obs::phases::span("plan.schedule");
            match &abmc {
                Some(abmc) => Schedule::colored(abmc, &split, options.nthreads),
                None => Schedule::serial(n),
            }
        };
        debug_assert!(schedule.validate().is_ok());
        let watchdog_ms = resolved_watchdog_ms(options.watchdog_ms);
        let p2p = match options.sync {
            SyncMode::ColorBarrier => None,
            SyncMode::PointToPoint => {
                // Derive the wait lists from the same (ordering, split)
                // pair the schedule was built from; the serial fallback
                // has one barrier-free block with nothing to wait on.
                let deps = match &abmc {
                    Some(abmc) => BlockDeps::build(abmc, &split),
                    None => BlockDeps::trivial(schedule.nblocks()),
                };
                debug_assert!(deps.validate().is_ok());
                let mut flags = BlockFlags::new(schedule.nblocks());
                // Wire the flag waits into the pool's fault runtime: they
                // observe the poison latch, report to the progress table,
                // and time out after the watchdog deadline.
                flags.attach_runtime(
                    Arc::clone(pool.poison()),
                    Arc::clone(pool.progress()),
                    watchdog_ms,
                );
                Some(P2pState { deps, flags })
            }
        };
        // Live-telemetry endpoint: an explicit option or FBMPK_METRICS_ADDR
        // binds the process-global exposition listener (idempotent) and
        // implies span recording so wait fractions are scrape-able.
        let metrics_on = match crate::telemetry::resolved_metrics_addr(options.metrics_addr) {
            Some(addr) => crate::telemetry::ensure_endpoint(addr).is_some(),
            None => false,
        };
        let recorder = if options.obs.record || metrics_on {
            Some(Arc::new(Recorder::new(options.nthreads, options.obs.span_capacity)))
        } else {
            None
        };
        let fallbacks = Arc::new(AtomicU64::new(0));
        let telemetry = if metrics_on || fbmpk_obs::live::enabled() {
            // Placement ground truth for the PR 7 first-touch claim: where
            // did the pages of the kernel arrays actually land? Only
            // queried when first touch ran (otherwise placement is
            // whatever the allocating thread's node was) and only at plan
            // build — it is a property of the allocations, not of runs.
            let numa_placement = if options.numa_first_touch && options.nthreads > 1 {
                collect_numa_placement(&pool, &split, n)
            } else {
                Vec::new()
            };
            Some(crate::telemetry::PlanTelemetry::register(
                options.nthreads,
                recorder.clone(),
                Arc::clone(&fallbacks),
                numa_placement,
            ))
        } else {
            None
        };
        Ok(FbmpkPlan {
            split,
            perm,
            schedule,
            pool,
            layout: options.layout,
            sync: options.sync,
            blocking: options.blocking,
            levelblock,
            p2p,
            recorder,
            stats,
            n,
            watchdog_ms,
            fallback: options.fallback,
            numa_first_touch: options.numa_first_touch,
            fallbacks,
            telemetry,
            spare: Mutex::new(None),
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Worker count.
    pub fn nthreads(&self) -> usize {
        self.pool.nthreads()
    }

    /// Preprocessing statistics.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// The ABMC permutation, if the plan reorders.
    pub fn permutation(&self) -> Option<&Permutation> {
        self.perm.as_ref()
    }

    /// The triangular split the kernels run on (in permuted numbering when
    /// the plan reorders).
    pub fn split(&self) -> &TriangularSplit {
        &self.split
    }

    /// The worker pool (shared with other kernels, e.g. SYMGS).
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// The colored (or trivial serial) schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The configured iterate-pair layout.
    pub fn layout(&self) -> VectorLayout {
        self.layout
    }

    /// The configured sweep synchronization mode.
    pub fn sync_mode(&self) -> SyncMode {
        self.sync
    }

    /// The configured memory-traversal mode.
    pub fn blocking_mode(&self) -> BlockingMode {
        self.blocking
    }

    /// The level-blocking state (shells, band sizing), when the plan runs
    /// level-blocked.
    pub fn level_block(&self) -> Option<&LevelBlockPlan> {
        self.levelblock.as_ref()
    }

    /// The per-block dependency lists, when the plan runs point-to-point.
    pub fn block_deps(&self) -> Option<&BlockDeps> {
        self.p2p.as_ref().map(|s| &s.deps)
    }

    /// The span recorder, when [`ObsOptions::record`] was set. Spans
    /// accumulate across kernel invocations until [`Recorder::reset`].
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// Modeled bytes of matrix data streamed by one `Aᵏx₀` invocation —
    /// the quantity the paper's ⌈(k+1)/2⌉-reads claim is about, priced
    /// for this split: each triangle traversal streams 12 bytes per
    /// stored nonzero (8-byte value + 4-byte column index) plus the
    /// `8(n+1)`-byte row-pointer array, and the diagonal (`8n` bytes)
    /// rides along once per `L` traversal (forward sweeps and the tail
    /// both touch it; the head and backward sweeps run on `U` alone).
    ///
    /// Divide measured wall time into this to get effective bandwidth;
    /// compare against `fbmpk-memsim`'s simulated DRAM traffic to get
    /// the traffic-vs-model ratio.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn modeled_matrix_bytes(&self, k: usize) -> u64 {
        let (l_reads, u_reads) = triangle_reads(k);
        let n = self.n as u64;
        let tri_bytes = |nnz: u64| 12 * nnz + 8 * (n + 1);
        let l_bytes = tri_bytes(self.split.lower.nnz() as u64) + 8 * n;
        let u_bytes = tri_bytes(self.split.upper.nnz() as u64);
        l_reads as u64 * l_bytes + u_reads as u64 * u_bytes
    }

    /// The schedule's block row boundaries: block `b` covers permuted
    /// rows `block_row_start()[b]..block_row_start()[b + 1]`.
    pub fn block_row_start(&self) -> &[usize] {
        &self.schedule.block_row_start
    }

    /// The color each global block executes under ([`Span::NO_ID`] never
    /// appears: every block belongs to exactly one color).
    pub fn block_color(&self) -> Vec<u32> {
        let mut colors = vec![Span::NO_ID; self.schedule.nblocks()];
        for (c, threads) in self.schedule.blocks.iter().enumerate() {
            for range in threads {
                for b in range.clone() {
                    colors[b] = c as u32;
                }
            }
        }
        colors
    }

    /// Per-block shapes of this plan's split along the schedule's block
    /// boundaries — the modeled ledger's decomposition inputs.
    pub fn block_shapes(&self) -> Vec<crate::model::BlockShape> {
        crate::model::block_shapes(&self.split, &self.schedule.block_row_start)
    }

    /// [`Self::modeled_matrix_bytes`] decomposed per block; sums back to
    /// the whole-matrix figure exactly.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn modeled_block_bytes(&self, k: usize) -> Vec<u64> {
        crate::model::fbmpk_block_matrix_bytes(&self.block_shapes(), k)
    }

    /// [`Self::modeled_matrix_bytes`] decomposed per (power, block):
    /// `out[p - 1][b]` — see
    /// [`crate::model::fbmpk_block_power_matrix_bytes`] for the phase →
    /// power billing. Sums back to the whole-matrix figure exactly.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn modeled_block_power_bytes(&self, k: usize) -> Vec<Vec<u64>> {
        crate::model::fbmpk_block_power_matrix_bytes(&self.block_shapes(), k)
    }

    /// [`Self::try_power`] with a caller-supplied [`Probe`] threaded into
    /// the sweeps — the hook the measured attribution ledger uses to
    /// sample hardware counters at block boundaries. The plan's own
    /// recorder (if any) is bypassed for this invocation; fallback and
    /// permutation semantics match [`Self::try_power`].
    pub fn power_probed<P: Probe>(&self, x0: &[f64], k: usize, probe: &P) -> Result<Vec<f64>> {
        assert_eq!(x0.len(), self.n, "x0 length mismatch");
        if k == 0 {
            return Ok(x0.to_vec());
        }
        self.with_call_workspace(x0, |ws| {
            self.with_fallback(|sync| self.execute_probed(ws, k, &NullSink, sync, probe))?;
            Ok(self.result_alloc(ws, k))
        })
    }

    /// The synchronization context the kernels run under.
    pub(crate) fn sync_ctx(&self) -> SyncCtx<'_> {
        match &self.p2p {
            Some(s) => SyncCtx::PointToPoint { deps: &s.deps, flags: &s.flags },
            None => SyncCtx::Barrier,
        }
    }

    /// The effective stall-watchdog deadline in milliseconds (0 when
    /// disabled).
    pub fn watchdog_ms(&self) -> u64 {
        self.watchdog_ms
    }

    /// Re-arms the point-to-point stall deadline for *subsequent*
    /// invocations (`0` disables it) and returns the deadline that was in
    /// effect. Returns `None` on barrier-sync plans: they have no block
    /// flag waits to watch, so a mid-run deadline cannot be enforced and
    /// the call is a no-op. A wait already in its slow path keeps the
    /// deadline it started with, so callers sharing one plan across
    /// requests must serialize invocations around the override.
    pub fn set_watchdog_ms(&self, ms: u64) -> Option<u64> {
        self.p2p.as_ref().and_then(|s| s.flags.set_deadline_ms(ms))
    }

    /// The configured watchdog fallback policy.
    pub fn fallback_policy(&self) -> FallbackPolicy {
        self.fallback
    }

    /// How many invocations fell back to the barrier schedule after a
    /// stall (only ever nonzero under [`FallbackPolicy::ColorBarrier`]).
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Whether a stalled invocation can be retried on the barrier
    /// schedule: point-to-point mode with the `ColorBarrier` policy.
    pub(crate) fn can_fallback(&self) -> bool {
        self.p2p.is_some() && self.fallback == FallbackPolicy::ColorBarrier
    }

    /// Runs `attempt` under the plan's own sync context; when it stalls
    /// and the policy allows, re-runs it once under the barrier schedule.
    ///
    /// The closure must rebuild all per-attempt state (output buffers,
    /// accumulating sinks) itself — a stalled attempt leaves its buffers
    /// partially written. Only [`FbmpkError::Stalled`] triggers the
    /// retry: the barrier schedule publishes no block flags, so a lost or
    /// delayed flag publish cannot recur there, whereas a panic would.
    pub(crate) fn with_fallback<T>(
        &self,
        mut attempt: impl FnMut(&SyncCtx) -> Result<T>,
    ) -> Result<T> {
        match attempt(&self.sync_ctx()) {
            Ok(v) => Ok(v),
            Err(e @ FbmpkError::Stalled { .. }) if self.can_fallback() => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                self.note_fault(&e, true);
                attempt(&SyncCtx::Barrier)
            }
            Err(e) => {
                self.note_fault(&e, false);
                Err(e)
            }
        }
    }

    /// Records a fault into the recorder (zero-duration `Poison`/
    /// `Watchdog` marker span) and, when falling back, echoes the
    /// diagnostic dump to stderr — the error value is consumed by the
    /// retry, so this is its only escape hatch.
    pub(crate) fn note_fault(&self, e: &FbmpkError, falling_back: bool) {
        if falling_back {
            eprintln!("fbmpk: {e}\nfbmpk: retrying under the ColorBarrier schedule");
        }
        let Some(rec) = &self.recorder else { return };
        let (kind, thread, color, block, detail) = match e {
            FbmpkError::Stalled { thread, block, waited_ms, .. } => (
                SpanKind::Watchdog,
                *thread,
                Span::NO_ID,
                *block as u32,
                (*waited_ms).min(u32::MAX as u64) as u32,
            ),
            FbmpkError::WorkerPanicked { thread, color, block, .. } => (
                SpanKind::Poison,
                *thread,
                color.unwrap_or(Span::NO_ID),
                block.unwrap_or(Span::NO_ID),
                0,
            ),
            _ => return,
        };
        let now = rec.now_ns();
        let t = thread.min(rec.nthreads() - 1);
        // SAFETY: the kernel invocation already returned, so no worker is
        // recording; this thread transiently owns every lane.
        unsafe {
            rec.record(t, Span { kind, color, block, detail, start_ns: now, end_ns: now });
        }
    }

    /// Error-path bookkeeping for callers that bypass
    /// [`Self::with_fallback`] (the in-place SYMGS sweep).
    pub(crate) fn note_outcome<T>(&self, r: &Result<T>) {
        if let Err(e) = r {
            self.note_fault(e, false);
        }
    }

    /// Computes `Aᵏ x₀`.
    ///
    /// Allocates only the returned vector: the working buffers are a
    /// spare [`crate::Workspace`] the plan keeps between calls (a call
    /// that overlaps another on the same plan allocates its own). Hot
    /// loops that also want to reuse the result vector should use
    /// [`FbmpkPlan::power_with`].
    ///
    /// # Panics
    /// Panics when `x0.len() != n` or on a worker fault (use
    /// [`FbmpkPlan::try_power`] for the fallible form).
    pub fn power(&self, x0: &[f64], k: usize) -> Vec<f64> {
        self.try_power(x0, k).unwrap_or_else(|e| panic!("fbmpk: power kernel failed: {e}"))
    }

    /// Fallible [`power`](Self::power): worker panics and watchdog stalls
    /// come back as typed errors. Under
    /// [`FallbackPolicy::ColorBarrier`] a stalled point-to-point
    /// invocation is transparently re-executed on the barrier schedule
    /// (bit-identical results) before any error surfaces.
    pub fn try_power(&self, x0: &[f64], k: usize) -> Result<Vec<f64>> {
        assert_eq!(x0.len(), self.n, "x0 length mismatch");
        if k == 0 {
            return Ok(x0.to_vec());
        }
        self.with_call_workspace(x0, |ws| {
            self.with_fallback(|sync| self.execute(ws, k, &NullSink, sync))?;
            Ok(self.result_alloc(ws, k))
        })
    }

    /// [`Self::try_power`] under a per-request watchdog deadline: the
    /// point-to-point stall deadline is re-armed to `deadline_ms` for this
    /// invocation and restored afterwards, error or not. On barrier-sync
    /// plans there are no flag waits to watch, so the deadline is not
    /// enforced mid-run (the request still runs — callers wanting hard
    /// deadlines should build the plan with p2p sync). Invocations on one
    /// plan must be externally serialized while an override is active; a
    /// serving layer holds a per-plan execution lock.
    pub fn try_power_deadline(&self, x0: &[f64], k: usize, deadline_ms: u64) -> Result<Vec<f64>> {
        struct Restore<'a>(&'a FbmpkPlan, Option<u64>);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                if let Some(prev) = self.1 {
                    self.0.set_watchdog_ms(prev);
                }
            }
        }
        let _restore = Restore(self, self.set_watchdog_ms(deadline_ms));
        self.try_power(x0, k)
    }

    /// Computes the Krylov iterates `[A x₀, …, Aᵏ x₀]`.
    ///
    /// # Panics
    /// Panics on a worker fault (use [`FbmpkPlan::try_krylov`]).
    pub fn krylov(&self, x0: &[f64], k: usize) -> Vec<Vec<f64>> {
        self.try_krylov(x0, k).unwrap_or_else(|e| panic!("fbmpk: krylov kernel failed: {e}"))
    }

    /// Fallible [`krylov`](Self::krylov); see [`FbmpkPlan::try_power`]
    /// for the error and fallback semantics.
    pub fn try_krylov(&self, x0: &[f64], k: usize) -> Result<Vec<Vec<f64>>> {
        assert_eq!(x0.len(), self.n, "x0 length mismatch");
        if k == 0 {
            return Ok(Vec::new());
        }
        // The basis is (re)built inside the attempt: a stalled attempt
        // leaves it partially written.
        let basis = self.with_call_workspace(x0, |ws| {
            self.with_fallback(|sync| {
                let mut basis = vec![0.0; k * self.n];
                {
                    let sink = CollectSink::new(&mut basis, self.n, k);
                    self.execute(ws, k, &sink, sync)?;
                }
                Ok(basis)
            })
        })?;
        Ok(basis.chunks(self.n).map(|c| self.permute_out(c.to_vec())).collect())
    }

    /// Computes `y = Σ_{i=0..=k} coeffs[i] · Aⁱ x₀` with `k =
    /// coeffs.len() - 1`, folding the combination into the sweeps.
    ///
    /// # Panics
    /// Panics when `coeffs` is empty, `x0.len() != n`, or on a worker
    /// fault (use [`FbmpkPlan::try_sspmv`]).
    pub fn sspmv(&self, coeffs: &[f64], x0: &[f64]) -> Vec<f64> {
        self.try_sspmv(coeffs, x0).unwrap_or_else(|e| panic!("fbmpk: sspmv kernel failed: {e}"))
    }

    /// Fallible [`sspmv`](Self::sspmv); see [`FbmpkPlan::try_power`] for
    /// the error and fallback semantics.
    pub fn try_sspmv(&self, coeffs: &[f64], x0: &[f64]) -> Result<Vec<f64>> {
        assert!(!coeffs.is_empty(), "need at least the alpha_0 coefficient");
        assert_eq!(x0.len(), self.n, "x0 length mismatch");
        let k = coeffs.len() - 1;
        // The accumulator is rebuilt per attempt: AccumSink adds into it
        // as the sweeps run, so a stalled attempt taints it.
        let y = self.with_call_workspace(x0, |ws| {
            self.with_fallback(|sync| {
                let mut y: Vec<f64> = ws.staged.iter().map(|&v| coeffs[0] * v).collect();
                if k > 0 {
                    let sink = AccumSink::new(&mut y, coeffs);
                    self.execute(ws, k, &sink, sync)?;
                }
                Ok(y)
            })
        })?;
        Ok(self.permute_out(y))
    }

    /// Runs one invocation out of `ws` (input staged in `ws.staged`) and
    /// leaves `x_k` (permuted) where [`Self::extract_result`] reads it.
    /// Every entry point — allocating or workspace — comes through here:
    /// it dispatches on the recorder, so the common (no-recorder) case
    /// monomorphizes to the uninstrumented kernel, and feeds the live
    /// telemetry.
    pub(crate) fn execute<S: Sink>(
        &self,
        ws: &mut Workspace,
        k: usize,
        sink: &S,
        sync: &SyncCtx,
    ) -> Result<()> {
        let t0 = self.telemetry.as_ref().map(|_| Instant::now());
        let result = match &self.recorder {
            Some(rec) => self.execute_probed(ws, k, sink, sync, &SpanProbe::new(rec)),
            None => self.execute_probed(ws, k, sink, sync, &NoopProbe),
        };
        // One invocation-granularity stats update (never per color/row):
        // feeds the endpoint's achieved-GB/s and invocation counters.
        if let (Some(tele), Some(t0), Ok(_)) = (&self.telemetry, t0, &result) {
            tele.sweeps().record(self.modeled_matrix_bytes(k), t0.elapsed().as_nanos() as u64);
        }
        result
    }

    fn execute_probed<S: Sink, P: Probe>(
        &self,
        ws: &mut Workspace,
        k: usize,
        sink: &S,
        sync: &SyncCtx,
        probe: &P,
    ) -> Result<()> {
        // Level-blocked mode replaces the whole streaming pipeline with
        // the BFS-shell wavefront (sinks see every power either way). It
        // runs on per-substep barriers only, so the point-to-point sync
        // context and its fallback machinery don't apply.
        if let Some(lb) = &self.levelblock {
            let xk = lb.run_probed(&self.pool, &ws.staged, k, sink, probe)?;
            ws.store_result(self.layout, k, &xk);
            return Ok(());
        }
        let n = self.n;
        let Workspace { xy, tmp, out, staged, .. } = ws;
        match self.layout {
            VectorLayout::BackToBack => {
                for (i, &v) in staged.iter().enumerate() {
                    xy[2 * i] = v;
                }
                let layout = BtbXy::new(xy);
                run_fbmpk_probed(
                    &self.pool,
                    &self.schedule,
                    &self.split,
                    &layout,
                    tmp,
                    out,
                    k,
                    sink,
                    sync,
                    probe,
                )
            }
            VectorLayout::Split => {
                let (even, odd) = xy.split_at_mut(n);
                even.copy_from_slice(staged);
                let layout = SplitXy::new(even, odd);
                run_fbmpk_probed(
                    &self.pool,
                    &self.schedule,
                    &self.split,
                    &layout,
                    tmp,
                    out,
                    k,
                    sink,
                    sync,
                    probe,
                )
            }
        }
    }

    fn permute_out(&self, y: Vec<f64>) -> Vec<f64> {
        match &self.perm {
            Some(p) => p.unapply_vec_alloc(&y),
            None => y,
        }
    }

    /// Whether this plan first-touches its buffers from the pool workers.
    pub fn numa_first_touch(&self) -> bool {
        self.numa_first_touch
    }

    /// Allocates a zeroed kernel buffer. With
    /// [`FbmpkOptions::numa_first_touch`] on a parallel plan, pool
    /// workers zero equal contiguous shares, so under Linux's first-touch
    /// policy each page lands on the memory node of a worker that will
    /// stream it (node-major pinning keeps consecutive workers
    /// node-local). The contents are identical either way — all zeros —
    /// so kernel results cannot differ.
    pub(crate) fn alloc_zeroed(&self, len: usize) -> Vec<f64> {
        if !self.numa_first_touch || self.pool.nthreads() <= 1 || len == 0 {
            return vec![0.0; len];
        }
        first_touch_zeroed(&self.pool, len)
    }
}

/// A raw pointer the first-touch closures share across workers; safe
/// because every worker writes a disjoint element range. (The accessor
/// keeps closures capturing the `Sync` wrapper rather than the pointer
/// field itself, which precise capture would otherwise pull out.)
struct FirstTouchPtr<T>(*mut T);
unsafe impl<T> Sync for FirstTouchPtr<T> {}

impl<T> FirstTouchPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Zero-fills a fresh `len`-element buffer with each pool worker writing
/// its own contiguous share (the first-touch placement protocol).
fn first_touch_zeroed(pool: &ThreadPool, len: usize) -> Vec<f64> {
    let mut v: Vec<f64> = Vec::with_capacity(len);
    let nthreads = pool.nthreads();
    let chunk = len.div_ceil(nthreads);
    let ptr = FirstTouchPtr(v.as_mut_ptr());
    pool.run(&|t| {
        let start = (t * chunk).min(len);
        let end = ((t + 1) * chunk).min(len);
        if start < end {
            // SAFETY: per-worker ranges are disjoint, lie within the
            // reserved capacity, and all-zero bits are a valid f64 (0.0).
            unsafe { std::ptr::write_bytes(ptr.get().add(start), 0, end - start) };
        }
    });
    // SAFETY: the workers above zero-initialized all `len` elements.
    unsafe { v.set_len(len) };
    v
}

/// Copies `src` into a fresh buffer whose pages the pool workers
/// first-touch (each copies its own contiguous share).
fn first_touch_copy<T: Copy + Sync>(pool: &ThreadPool, src: &[T]) -> Vec<T> {
    let len = src.len();
    let mut v: Vec<T> = Vec::with_capacity(len);
    let nthreads = pool.nthreads();
    let chunk = len.div_ceil(nthreads);
    let ptr = FirstTouchPtr(v.as_mut_ptr());
    pool.run(&|t| {
        let start = (t * chunk).min(len);
        let end = ((t + 1) * chunk).min(len);
        if start < end {
            // SAFETY: disjoint in-capacity destination ranges; the source
            // is read-only for the whole call.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    src.as_ptr().add(start),
                    ptr.get().add(start),
                    end - start,
                )
            };
        }
    });
    // SAFETY: the workers above wrote all `len` elements.
    unsafe { v.set_len(len) };
    v
}

/// Rebuilds the split's per-triangle CSR arrays (and the diagonal) into
/// worker-first-touched storage. Values and structure are copied bitwise,
/// so the rebuilt split is exactly the old one — only page placement
/// differs.
fn first_touch_split(pool: &Arc<ThreadPool>, split: TriangularSplit) -> TriangularSplit {
    let ft_csr = |m: &Csr| -> Csr {
        Csr::from_raw_parts(
            m.nrows(),
            m.ncols(),
            first_touch_copy(pool, m.row_ptr()),
            first_touch_copy(pool, m.col_idx()),
            first_touch_copy(pool, m.values()),
        )
        .expect("first-touch copy preserves CSR invariants")
    };
    TriangularSplit {
        lower: ft_csr(&split.lower),
        diag: first_touch_copy(pool, &split.diag),
        upper: ft_csr(&split.upper),
    }
}

/// Queries where the first-touched kernel arrays actually landed
/// (pages per NUMA node, via `move_pages`): the triangle CSR arrays and
/// diagonal of the live split, plus a representative `xy` iterate buffer
/// allocated through the same first-touch protocol as the plan's
/// workspaces. Arrays whose placement cannot be queried are omitted.
fn collect_numa_placement(
    pool: &Arc<ThreadPool>,
    split: &TriangularSplit,
    n: usize,
) -> crate::telemetry::NumaPlacement {
    use fbmpk_parallel::numa::slice_pages_per_node;
    let mut out: crate::telemetry::NumaPlacement = Vec::new();
    let mut add = |name: &str, placement: Option<fbmpk_parallel::numa::PagesPerNode>| {
        if let Some(p) = placement {
            if !p.is_empty() {
                out.push((name.to_string(), p));
            }
        }
    };
    add("lower", slice_pages_per_node(split.lower.values()));
    add("upper", slice_pages_per_node(split.upper.values()));
    add("diag", slice_pages_per_node(&split.diag));
    // The iterate pair lives in workspaces allocated after plan build;
    // sample one allocated the same way (pool workers zero disjoint
    // shares) and drop it.
    let xy = first_touch_zeroed(pool, 2 * n);
    add("xy", slice_pages_per_node(&xy));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::StandardMpk;
    use fbmpk_sparse::vecops::rel_err_inf;

    fn grid() -> Csr {
        fbmpk_gen::poisson::grid2d_5pt(8, 7)
    }

    fn opts_matrix() -> Vec<(&'static str, FbmpkOptions)> {
        vec![
            ("serial-btb", FbmpkOptions::default()),
            ("serial-split", FbmpkOptions { layout: VectorLayout::Split, ..Default::default() }),
            (
                "serial-reordered",
                FbmpkOptions {
                    reorder: Some(AbmcParams { nblocks: 8, ..Default::default() }),
                    ..Default::default()
                },
            ),
            ("parallel-2", {
                let mut o = FbmpkOptions::parallel(2);
                o.reorder = Some(AbmcParams { nblocks: 8, ..Default::default() });
                o
            }),
            ("parallel-4-split", {
                let mut o = FbmpkOptions::parallel(4);
                o.reorder = Some(AbmcParams { nblocks: 8, ..Default::default() });
                o.layout = VectorLayout::Split;
                o
            }),
            (
                "serial-levelblocked",
                FbmpkOptions {
                    blocking: BlockingMode::LevelBlocked { tile_powers: Some(3) },
                    ..Default::default()
                },
            ),
            ("parallel-2-levelblocked", {
                let mut o = FbmpkOptions::parallel(2);
                o.reorder = Some(AbmcParams { nblocks: 8, ..Default::default() });
                o.blocking = BlockingMode::LevelBlocked { tile_powers: None };
                o
            }),
            ("parallel-3-numa-first-touch", {
                let mut o = FbmpkOptions::parallel(3);
                o.reorder = Some(AbmcParams { nblocks: 8, ..Default::default() });
                o.numa_first_touch = true;
                o
            }),
        ]
    }

    #[test]
    fn power_matches_standard_across_configs() {
        let a = grid();
        let n = a.nrows();
        let x0: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let baseline = StandardMpk::new(&a, 1).unwrap();
        for (name, opts) in opts_matrix() {
            let plan = FbmpkPlan::new(&a, opts).unwrap();
            for k in 1..=7 {
                let want = baseline.power(&x0, k);
                let got = plan.power(&x0, k);
                assert!(
                    rel_err_inf(&got, &want) < 1e-11,
                    "{name} k={k}: err {}",
                    rel_err_inf(&got, &want)
                );
            }
        }
    }

    #[test]
    fn krylov_matches_standard() {
        let a = grid();
        let n = a.nrows();
        let x0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let baseline = StandardMpk::new(&a, 1).unwrap();
        let mut opts = FbmpkOptions::parallel(3);
        opts.reorder = Some(AbmcParams { nblocks: 6, ..Default::default() });
        let plan = FbmpkPlan::new(&a, opts).unwrap();
        let k = 5;
        let want = baseline.krylov(&x0, k);
        let got = plan.krylov(&x0, k);
        assert_eq!(got.len(), k);
        for i in 0..k {
            assert!(rel_err_inf(&got[i], &want[i]) < 1e-11, "iterate {i}");
        }
    }

    #[test]
    fn sspmv_matches_standard() {
        let a = grid();
        let n = a.nrows();
        let x0: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let coeffs = [0.5, -1.0, 0.0, 2.0, 0.25];
        let baseline = StandardMpk::new(&a, 1).unwrap();
        for (name, opts) in opts_matrix() {
            let plan = FbmpkPlan::new(&a, opts).unwrap();
            let want = baseline.sspmv(&coeffs, &x0);
            let got = plan.sspmv(&coeffs, &x0);
            assert!(rel_err_inf(&got, &want) < 1e-11, "{name}");
        }
    }

    #[test]
    fn k_zero_and_alpha0_only() {
        let a = grid();
        let n = a.nrows();
        let x0 = vec![1.0; n];
        let plan = FbmpkPlan::new(&a, FbmpkOptions::default()).unwrap();
        assert_eq!(plan.power(&x0, 0), x0);
        assert!(plan.krylov(&x0, 0).is_empty());
        let y = plan.sspmv(&[3.0], &x0);
        assert!(y.iter().all(|&v| v == 3.0));
    }

    #[test]
    fn parallel_without_reorder_rejected() {
        let a = grid();
        let opts = FbmpkOptions { nthreads: 2, reorder: None, ..Default::default() };
        assert!(matches!(FbmpkPlan::new(&a, opts), Err(FbmpkError::ParallelNeedsReorder)));
    }

    #[test]
    fn rectangular_rejected() {
        let a = Csr::zero(3, 4);
        assert!(matches!(
            FbmpkPlan::new(&a, FbmpkOptions::default()),
            Err(FbmpkError::NotSquare { .. })
        ));
    }

    #[test]
    fn stats_populated_when_reordered() {
        let a = grid();
        let mut opts = FbmpkOptions::parallel(2);
        opts.reorder = Some(AbmcParams { nblocks: 8, ..Default::default() });
        let plan = FbmpkPlan::new(&a, opts).unwrap();
        let s = plan.stats();
        assert!(s.ncolors >= 2);
        assert!(s.nblocks >= 8);
        assert!(s.reorder_seconds >= 0.0);
    }

    #[test]
    fn numa_first_touch_is_bit_identical() {
        // First-touch placement changes page residency, never values:
        // every kernel must return the same bits as the default allocator,
        // for every blocking strategy.
        let a = grid();
        let n = a.nrows();
        let x0: Vec<f64> = (0..n).map(|i| ((i * 11 % 17) as f64) - 8.0).collect();
        for strategy in [
            fbmpk_reorder::BlockingStrategy::Contiguous,
            fbmpk_reorder::BlockingStrategy::Aggregated,
            fbmpk_reorder::BlockingStrategy::Multilevel,
        ] {
            let mut base = FbmpkOptions::parallel(3);
            base.reorder = Some(AbmcParams { nblocks: 8, strategy, ..Default::default() });
            let mut ft = base;
            ft.numa_first_touch = true;
            let plain = FbmpkPlan::new(&a, base).unwrap();
            let touched = FbmpkPlan::new(&a, ft).unwrap();
            assert_eq!(plain.split(), touched.split(), "{strategy:?}: split must copy bitwise");
            for k in 1..=5 {
                assert_eq!(plain.power(&x0, k), touched.power(&x0, k), "{strategy:?} k={k}");
            }
            let mut ws = touched.workspace();
            let mut y = vec![0.0; n];
            touched.power_with(&mut ws, &x0, 4, &mut y);
            assert_eq!(y, plain.power(&x0, 4), "{strategy:?}: workspace path");
        }
    }

    #[test]
    fn unsymmetric_matrix_supported() {
        let a = fbmpk_gen::cage::cage_like(fbmpk_gen::cage::CageParams {
            n: 64,
            neighbors: 7,
            seed: 5,
        });
        let n = a.nrows();
        let x0: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let baseline = StandardMpk::new(&a, 1).unwrap();
        let mut opts = FbmpkOptions::parallel(2);
        opts.reorder = Some(AbmcParams { nblocks: 8, ..Default::default() });
        let plan = FbmpkPlan::new(&a, opts).unwrap();
        for k in [1, 2, 5, 6] {
            let want = baseline.power(&x0, k);
            let got = plan.power(&x0, k);
            assert!(rel_err_inf(&got, &want) < 1e-12, "k={k}");
        }
    }
}
