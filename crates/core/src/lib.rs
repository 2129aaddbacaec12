//! # fbmpk
//!
//! Forward–backward matrix-power kernels (FBMPK) — a Rust reproduction of
//! Zhang et al., *Memory-aware Optimization for Sequences of Sparse
//! Matrix-Vector Multiplications*, IPDPS 2023.
//!
//! An MPK computes `Ax, A²x, …, Aᵏx`; generic SSpMV computes
//! `y = Σᵢ αᵢ Aⁱ x`. The standard implementation ([`standard`]) streams the
//! matrix from memory `k` times. FBMPK splits `A = L + D + U` and merges
//! adjacent SpMV invocations into one forward sweep over `L` plus one
//! backward sweep over `U`, reading the matrix only ⌈(k+1)/2⌉ times
//! (paper §III-B), with the two live iterates interleaved back-to-back in
//! memory (§III-C) and parallelized by ABMC multi-coloring (§III-D/E).
//!
//! # Quick start
//!
//! ```
//! use fbmpk::{FbmpkPlan, FbmpkOptions};
//!
//! let a = fbmpk_sparse::Csr::from_dense(&[
//!     &[4.0, 1.0, 0.0],
//!     &[1.0, 4.0, 1.0],
//!     &[0.0, 1.0, 4.0],
//! ]);
//! let plan = FbmpkPlan::new(&a, FbmpkOptions::default()).unwrap();
//! let x0 = vec![1.0, 0.0, 0.0];
//! let x3 = plan.power(&x0, 3);               // A^3 x0
//! let y = plan.sspmv(&[1.0, 0.0, 1.0], &x0); // x0 + A^2 x0
//! assert_eq!(x3.len(), 3);
//! assert_eq!(y.len(), 3);
//! ```

pub mod engine;
pub mod fingerprint;
pub mod kernel;
pub mod layout;
pub mod levelblock;
pub mod model;
pub mod plan;
pub mod schedule;
pub mod sink;
pub mod standard;
pub mod symgs;
pub mod telemetry;
pub mod tune;
pub mod workspace;

pub use engine::MpkEngine;
pub use fingerprint::Fnv64;
pub use levelblock::{probe_llc_bytes, BlockingMode, LevelBlockPlan};
pub use plan::{
    FallbackPolicy, FbmpkOptions, FbmpkPlan, ObsOptions, VectorLayout, DEFAULT_WATCHDOG_MS,
};
pub use schedule::{Schedule, SyncCtx, SyncMode};
pub use standard::StandardMpk;
pub use tune::{KernelVariant, MatrixFeatures, TuneOptions, TunedPlan};
pub use workspace::Workspace;

/// Errors from plan construction and kernel invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FbmpkError {
    /// The input matrix was not square.
    NotSquare { nrows: usize, ncols: usize },
    /// A vector length did not match the matrix dimension.
    BadLength { expected: usize, got: usize },
    /// Parallel execution was requested without a reordering; the FB sweeps
    /// carry intra-sweep dependencies that need a coloring to parallelize.
    ParallelNeedsReorder,
    /// An underlying sparse-matrix operation failed.
    Sparse(String),
    /// A pool worker panicked during a kernel invocation. Peers unwound
    /// via the poison latch; the pool (and plan) remain usable.
    WorkerPanicked {
        /// Worker id whose closure panicked.
        thread: usize,
        /// Color of the last compute unit the worker started, if known.
        color: Option<u32>,
        /// Block of that unit (point-to-point schedules only).
        block: Option<u32>,
        /// Stringified panic payload.
        payload: String,
    },
    /// A point-to-point wait exceeded the stall watchdog deadline
    /// (`FbmpkOptions::watchdog_ms` / `FBMPK_WATCHDOG_MS`).
    Stalled {
        /// Worker id that timed out.
        thread: usize,
        /// Block whose epoch flag never arrived.
        block: usize,
        /// Epoch the waiter needed.
        epoch: u64,
        /// Milliseconds spent waiting past the spin budget.
        waited_ms: u64,
        /// Per-thread diagnostic dump (who waits on what, last started
        /// compute unit per thread).
        dump: String,
    },
}

impl std::fmt::Display for FbmpkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FbmpkError::NotSquare { nrows, ncols } => {
                write!(f, "matrix must be square, got {nrows}x{ncols}")
            }
            FbmpkError::BadLength { expected, got } => {
                write!(f, "vector length {got}, expected {expected}")
            }
            FbmpkError::ParallelNeedsReorder => {
                write!(f, "parallel FBMPK requires ABMC reordering (set options.reorder)")
            }
            FbmpkError::Sparse(m) => write!(f, "sparse error: {m}"),
            FbmpkError::WorkerPanicked { thread, color, block, payload } => {
                write!(f, "worker {thread} panicked")?;
                if let Some(c) = color {
                    write!(f, " at color {c}")?;
                }
                if let Some(b) = block {
                    write!(f, " block {b}")?;
                }
                write!(f, ": {payload}")
            }
            FbmpkError::Stalled { thread, block, epoch, waited_ms, dump } => {
                write!(
                    f,
                    "worker {thread} stalled {waited_ms} ms waiting for block {block} \
                     epoch {epoch}\n{dump}"
                )
            }
        }
    }
}

impl std::error::Error for FbmpkError {}

impl From<fbmpk_sparse::SparseError> for FbmpkError {
    fn from(e: fbmpk_sparse::SparseError) -> Self {
        FbmpkError::Sparse(e.to_string())
    }
}

impl From<fbmpk_parallel::WorkerFault> for FbmpkError {
    fn from(f: fbmpk_parallel::WorkerFault) -> Self {
        match f.cause {
            fbmpk_parallel::FaultCause::Panic { payload } => FbmpkError::WorkerPanicked {
                thread: f.thread,
                color: f.color,
                block: f.block,
                payload,
            },
            fbmpk_parallel::FaultCause::Stall { block, epoch, waited_ms, dump } => {
                FbmpkError::Stalled { thread: f.thread, block, epoch, waited_ms, dump }
            }
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FbmpkError>;
