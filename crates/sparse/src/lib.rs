//! # fbmpk-sparse
//!
//! Sparse-matrix substrate for the FBMPK reproduction (Zhang et al.,
//! *Memory-aware Optimization for Sequences of Sparse Matrix-Vector
//! Multiplications*, IPDPS 2023).
//!
//! The paper's kernels operate on CSR matrices and on the triangular split
//! `A = L + D + U`. This crate provides:
//!
//! * [`coo::Coo`] — a coordinate-format builder with duplicate folding,
//! * [`csr::Csr`] — compressed sparse row storage with validated invariants,
//! * [`split`] — the `A = L + D + U` triangular split and its inverse,
//! * [`spmv`] — reference serial SpMV kernels (full matrix and row ranges),
//! * [`permute`] — permutation objects and symmetric matrix permutation,
//! * [`io`] — Matrix Market (`.mtx`) reading and writing,
//! * [`stats`] — structural statistics (Table II of the paper),
//! * [`vecops`] — dense-vector helpers used by the solvers,
//! * [`sellcs`] — SELL-C-σ, the vector-friendly sliced-ELLPACK format
//!   the paper lists as future work,
//! * [`simd`] — the portable SIMD lane abstraction (AVX2/NEON behind the
//!   `simd` feature, bit-identical scalar fallback otherwise),
//! * [`spmm`] — sparse × multi-vector products for block Krylov methods.
//!
//! Index convention: column indices are stored as `u32` (4-byte `int`, as in
//! the C implementation the paper evaluates), row pointers as `usize`.

pub mod coo;
pub mod csr;
pub mod io;
pub mod permute;
pub mod sellcs;
pub mod simd;
pub mod split;
pub mod spmm;
pub mod spmv;
pub mod stats;
pub mod trisolve;
pub mod vecops;

pub use coo::Coo;
pub use csr::Csr;
pub use permute::Permutation;
pub use split::TriangularSplit;

/// Errors produced while constructing or validating sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// A row pointer array was not monotonically non-decreasing, did not
    /// start at zero, or did not end at `nnz`.
    BadRowPtr(String),
    /// A column index was out of range or unsorted within its row.
    BadColumnIndex(String),
    /// Array lengths were mutually inconsistent.
    LengthMismatch(String),
    /// An entry coordinate was outside the matrix dimensions.
    OutOfBounds { row: usize, col: usize, nrows: usize, ncols: usize },
    /// Matrix dimensions were incompatible for the requested operation.
    DimensionMismatch(String),
    /// A permutation array was not a bijection on `0..n`.
    BadPermutation(String),
    /// A Matrix Market stream could not be parsed.
    Parse(String),
    /// A Matrix Market stream had a malformed line (`line` is 1-based,
    /// counting every physical line including comments).
    ParseAt { line: usize, msg: String },
    /// A stored value was NaN or infinite where a finite one is required.
    NonFiniteValue { row: usize, col: usize },
    /// An I/O error occurred (message only, to keep the error `Clone`).
    Io(String),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::BadRowPtr(m) => write!(f, "invalid row_ptr: {m}"),
            SparseError::BadColumnIndex(m) => write!(f, "invalid column index: {m}"),
            SparseError::LengthMismatch(m) => write!(f, "length mismatch: {m}"),
            SparseError::OutOfBounds { row, col, nrows, ncols } => {
                write!(f, "entry ({row}, {col}) outside {nrows}x{ncols} matrix")
            }
            SparseError::DimensionMismatch(m) => write!(f, "dimension mismatch: {m}"),
            SparseError::BadPermutation(m) => write!(f, "invalid permutation: {m}"),
            SparseError::Parse(m) => write!(f, "parse error: {m}"),
            SparseError::ParseAt { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            SparseError::NonFiniteValue { row, col } => {
                write!(f, "non-finite value at ({row}, {col})")
            }
            SparseError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for SparseError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SparseError>;
