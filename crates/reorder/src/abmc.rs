//! Algebraic Block Multi-Color ordering (Iwashita et al., IPDPS 2012) —
//! the reordering FBMPK uses to expose parallelism (paper §III-D).
//!
//! Pipeline: aggregate rows into blocks → color the block quotient graph →
//! renumber rows block-by-block with blocks sorted by color. In the
//! permuted matrix, two blocks of the same color share no entry, so all
//! blocks of one color can be processed concurrently; the forward sweep
//! walks colors in ascending order, the backward sweep descending, with a
//! barrier at every color boundary.

use crate::blocking::{aggregated_blocks, block_size_for_count, contiguous_blocks, Blocking};
use crate::coloring::{greedy_coloring, validate_coloring, Coloring, ColoringOrdering};
use crate::graph::Graph;
use crate::partition::multilevel_blocks;
use fbmpk_sparse::{Csr, Permutation};

/// How rows are aggregated into blocks before coloring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockingStrategy {
    /// The default policy: build both the [`Contiguous`] and the
    /// [`Aggregated`] blocking, color both quotient graphs, and keep the
    /// one with fewer colors (contiguous on a tie). Fewer colors means
    /// fewer barriers per sweep and wider colors; a locally numbered
    /// matrix (banded FEM, the suite generators) keeps its numbering,
    /// while a scrambled one (R-MAT) gets the graph-compact BFS blocks.
    /// [`Abmc::strategy`] reports which one was kept.
    ///
    /// [`Contiguous`]: BlockingStrategy::Contiguous
    /// [`Aggregated`]: BlockingStrategy::Aggregated
    #[default]
    FewestColors,
    /// Contiguous index ranges (cheap; good when the input numbering is
    /// already local, e.g. banded FEM).
    Contiguous,
    /// Greedy BFS aggregation over the structure graph (the "algebraic"
    /// blocking; re-groups irregular matrices).
    Aggregated,
    /// Multilevel edge-cut partitioning ([`crate::partition`]): minimizes
    /// cross-block entries, i.e. the dependency edges the barrier-free
    /// point-to-point sweep waits on. Costs more at plan time than the
    /// other two and is never chosen automatically; select it
    /// explicitly.
    Multilevel,
}

/// Blocks [`AbmcParams::for_threads`] asks for per pool thread. In a
/// sweep of 16, 32 and 64 per thread on the benchmark's DRAM- and
/// LLC-scale suite matrices at 2 threads, 16 was the fastest at DRAM
/// scale (fewer colors on Serena) and within noise of the best at LLC
/// scale (see DESIGN.md, "ABMC policy").
pub const BLOCKS_PER_THREAD: usize = 16;

/// Parameters for [`Abmc::new`].
#[derive(Debug, Clone, Copy)]
pub struct AbmcParams {
    /// Target number of blocks (the paper's experiments use 512 or
    /// 1024). Capped at `n / 2`, so every block averages at least two
    /// rows.
    pub nblocks: usize,
    /// Blocking strategy.
    pub strategy: BlockingStrategy,
    /// Vertex ordering for the greedy quotient coloring.
    pub ordering: ColoringOrdering,
}

impl Default for AbmcParams {
    fn default() -> Self {
        AbmcParams {
            nblocks: 512,
            strategy: BlockingStrategy::default(),
            ordering: ColoringOrdering::default(),
        }
    }
}

impl AbmcParams {
    /// The library's parallel policy for a pool of `nthreads` workers:
    /// [`BLOCKS_PER_THREAD`] blocks per thread, blocking chosen by
    /// [`BlockingStrategy::FewestColors`].
    ///
    /// Sizing, as geomean ms per `Aᵏx` call over Flan_1565, Serena and
    /// cage14 at 2 threads (2-vCPU Xeon VM, 105 MB LLC; DRAM scale
    /// k = 5 with each CSR ≈ 270 MB, LLC scale k = 8; DESIGN.md, "ABMC
    /// policy", has the per-matrix table):
    ///
    /// | blocks per thread | 16 | 32 | 64 | 512 BFS aggregates in all |
    /// |---|---|---|---|---|
    /// | DRAM scale | **152.0** | 155.7 | 160.8 | 206.6 |
    /// | LLC scale | 5.56 | **5.54** | 5.60 | 6.95 |
    pub fn for_threads(nthreads: usize) -> Self {
        AbmcParams { nblocks: BLOCKS_PER_THREAD * nthreads.max(1), ..Default::default() }
    }
}

/// The result of ABMC reordering.
///
/// All row indices below refer to the *new* (permuted) numbering: rows are
/// laid out block after block, blocks sorted by color. The colored sweep
/// structure is fully described by two offset arrays:
///
/// * block `b` covers rows `block_row_start[b] .. block_row_start[b+1]`,
/// * color `c` owns blocks
///   `color_block_start[c] .. color_block_start[c+1]`.
#[derive(Debug, Clone)]
pub struct Abmc {
    perm: Permutation,
    block_row_start: Vec<usize>,
    color_block_start: Vec<usize>,
    strategy: BlockingStrategy,
}

impl Abmc {
    /// Computes the ABMC ordering of a square matrix.
    ///
    /// ```
    /// use fbmpk_reorder::{Abmc, AbmcParams, BlockingStrategy};
    /// let a = fbmpk_sparse::Csr::from_dense(&[
    ///     &[2.0, -1.0, 0.0, 0.0],
    ///     &[-1.0, 2.0, -1.0, 0.0],
    ///     &[0.0, -1.0, 2.0, -1.0],
    ///     &[0.0, 0.0, -1.0, 2.0],
    /// ]);
    /// let abmc = Abmc::new(&a, AbmcParams { nblocks: 2, ..Default::default() });
    /// let permuted = abmc.apply(&a);
    /// // Soundness: no entry joins two same-color blocks.
    /// abmc.validate_against(&permuted).unwrap();
    /// // The default strategy resolves to a concrete blocking.
    /// assert_eq!(abmc.strategy(), BlockingStrategy::Contiguous);
    /// ```
    ///
    /// # Panics
    /// Panics for non-square input or `nblocks == 0`.
    pub fn new(a: &Csr, params: AbmcParams) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "ABMC needs a square matrix");
        assert!(params.nblocks > 0, "need at least one block");
        let n = a.nrows();
        let nblocks = params.nblocks.min(n / 2).max(1);
        let g = Graph::from_matrix(a);
        let colored = |strategy: BlockingStrategy| {
            let blocking = match strategy {
                BlockingStrategy::Contiguous => contiguous_blocks(n, nblocks),
                BlockingStrategy::Aggregated => {
                    aggregated_blocks(&g, block_size_for_count(n, nblocks))
                }
                BlockingStrategy::Multilevel => multilevel_blocks(&g, nblocks),
                BlockingStrategy::FewestColors => unreachable!("resolved below"),
            };
            let quotient = g.quotient(&blocking.block_of, blocking.nblocks);
            let coloring = greedy_coloring(&quotient, params.ordering);
            // The parallel sweeps' memory safety rests on this property,
            // so it is checked in release builds too (O(blocks + block
            // edges), a rounding error next to the quotient construction
            // itself).
            validate_coloring(&quotient, &coloring)
                .expect("greedy coloring violated the distance-1 property (internal bug)");
            (strategy, blocking, coloring)
        };
        let (strategy, blocking, coloring) = match params.strategy {
            BlockingStrategy::FewestColors => {
                let contiguous = colored(BlockingStrategy::Contiguous);
                let aggregated = colored(BlockingStrategy::Aggregated);
                if aggregated.2.ncolors < contiguous.2.ncolors {
                    aggregated
                } else {
                    contiguous
                }
            }
            explicit => colored(explicit),
        };
        Self::assemble(n, strategy, &blocking, &coloring)
    }

    /// Builds the permutation and offset arrays from a blocking + coloring.
    fn assemble(
        n: usize,
        strategy: BlockingStrategy,
        blocking: &Blocking,
        coloring: &Coloring,
    ) -> Self {
        let nblocks = blocking.nblocks;
        let ncolors = coloring.ncolors;
        // Sort block ids by (color, id) — stable within a color so block
        // interiors keep their relative order.
        let mut block_order: Vec<u32> = (0..nblocks as u32).collect();
        block_order.sort_by_key(|&b| (coloring.colors[b as usize], b));
        // Gather members per block (ascending old index).
        let members = blocking.members();
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut block_row_start = Vec::with_capacity(nblocks + 1);
        let mut color_block_start = vec![0usize; ncolors + 1];
        block_row_start.push(0);
        let mut current_color = 0usize;
        for (k, &b) in block_order.iter().enumerate() {
            let c = coloring.colors[b as usize] as usize;
            while current_color < c {
                current_color += 1;
                color_block_start[current_color] = k;
            }
            order.extend_from_slice(&members[b as usize]);
            block_row_start.push(order.len());
        }
        while current_color < ncolors {
            current_color += 1;
            color_block_start[current_color] = nblocks;
        }
        let perm = Permutation::from_order(&order).expect("blocking covers all rows exactly once");
        Abmc { perm, block_row_start, color_block_start, strategy }
    }

    /// The blocking this ordering was built with: the requested strategy,
    /// or for [`BlockingStrategy::FewestColors`] the one it kept (never
    /// `FewestColors` itself).
    pub fn strategy(&self) -> BlockingStrategy {
        self.strategy
    }

    /// The symmetric row/column permutation (old → new).
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// Number of blocks.
    pub fn nblocks(&self) -> usize {
        self.block_row_start.len() - 1
    }

    /// Number of colors.
    pub fn ncolors(&self) -> usize {
        self.color_block_start.len() - 1
    }

    /// Row range (new numbering) of block `b`.
    #[inline]
    pub fn block_rows(&self, b: usize) -> std::ops::Range<usize> {
        self.block_row_start[b]..self.block_row_start[b + 1]
    }

    /// Block-id range of color `c`.
    #[inline]
    pub fn color_blocks(&self, c: usize) -> std::ops::Range<usize> {
        self.color_block_start[c]..self.color_block_start[c + 1]
    }

    /// Number of blocks in the largest color class — the available
    /// within-color parallelism (the paper's `cant` analysis counts "only
    /// 77 blocks in one color").
    pub fn max_color_width(&self) -> usize {
        (0..self.ncolors()).map(|c| self.color_blocks(c).len()).max().unwrap_or(0)
    }

    /// Applies the ordering to the matrix: returns `P A Pᵀ`.
    pub fn apply(&self, a: &Csr) -> Csr {
        self.perm.permute_symmetric(a).expect("ABMC permutation matches matrix dimension")
    }

    /// Verifies the schedule-soundness property on a permuted matrix: no
    /// entry of `PAPᵀ` may join two different blocks of the same color.
    pub fn validate_against(&self, permuted: &Csr) -> Result<(), String> {
        if permuted.nrows() != self.perm.len() {
            return Err("matrix size does not match ordering".into());
        }
        // Map each (new) row to its block, each block to its color.
        let n = permuted.nrows();
        let mut block_of_row = vec![0u32; n];
        for b in 0..self.nblocks() {
            for r in self.block_rows(b) {
                block_of_row[r] = b as u32;
            }
        }
        let mut color_of_block = vec![0u32; self.nblocks()];
        for c in 0..self.ncolors() {
            for b in self.color_blocks(c) {
                color_of_block[b] = c as u32;
            }
        }
        for (r, c, _) in permuted.iter() {
            let (br, bc) = (block_of_row[r], block_of_row[c]);
            if br != bc && color_of_block[br as usize] == color_of_block[bc as usize] {
                return Err(format!(
                    "entry ({r}, {c}) joins blocks {br} and {bc} of color {}",
                    color_of_block[br as usize]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbmpk_sparse::spmv::spmv;

    fn tridiag(n: usize) -> Csr {
        let mut coo = fbmpk_sparse::Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i > 0 {
                coo.push(i, i - 1, -1.0).unwrap();
                coo.push(i - 1, i, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn offsets_partition_rows_and_blocks() {
        let a = tridiag(100);
        for strategy in [
            BlockingStrategy::FewestColors,
            BlockingStrategy::Contiguous,
            BlockingStrategy::Aggregated,
            BlockingStrategy::Multilevel,
        ] {
            let abmc = Abmc::new(
                &a,
                AbmcParams { nblocks: 10, strategy, ordering: ColoringOrdering::Natural },
            );
            assert_eq!(abmc.block_rows(0).start, 0);
            assert_eq!(abmc.block_rows(abmc.nblocks() - 1).end, 100);
            let total_rows: usize = (0..abmc.nblocks()).map(|b| abmc.block_rows(b).len()).sum();
            assert_eq!(total_rows, 100);
            let total_blocks: usize = (0..abmc.ncolors()).map(|c| abmc.color_blocks(c).len()).sum();
            assert_eq!(total_blocks, abmc.nblocks());
        }
    }

    #[test]
    fn fewest_colors_keeps_the_blocking_with_fewer_colors() {
        let pick = |a: &Csr, nblocks: usize| {
            let params = |strategy| AbmcParams { nblocks, strategy, ..Default::default() };
            let auto = Abmc::new(a, params(BlockingStrategy::FewestColors));
            let cont = Abmc::new(a, params(BlockingStrategy::Contiguous));
            let agg = Abmc::new(a, params(BlockingStrategy::Aggregated));
            assert_eq!(auto.ncolors(), cont.ncolors().min(agg.ncolors()));
            let kept = if agg.ncolors() < cont.ncolors() { &agg } else { &cont };
            assert_eq!(auto.strategy(), kept.strategy());
            assert_eq!(auto.permutation(), kept.permutation(), "same ordering as the explicit one");
            auto.strategy()
        };
        // Local numbering: contiguous ranges color a path in 2, and the
        // tie goes to contiguous.
        assert_eq!(pick(&tridiag(200), 16), BlockingStrategy::Contiguous);
        assert_eq!(pick(&fbmpk_gen::poisson::grid2d_5pt(40, 40), 32), BlockingStrategy::Contiguous);
        // Scrambled numbering: contiguous ranges of a power-law graph
        // touch nearly every other range; BFS blocks stay compact.
        let rmat = fbmpk_gen::rmat::rmat(fbmpk_gen::rmat::RmatParams {
            scale: 12,
            edge_factor: 8,
            symmetric: true,
            seed: 7,
            ..Default::default()
        });
        assert_eq!(pick(&rmat, 64), BlockingStrategy::Aggregated);
    }

    #[test]
    fn block_count_is_capped_at_half_the_rows() {
        for strategy in [BlockingStrategy::Contiguous, BlockingStrategy::Aggregated] {
            let abmc =
                Abmc::new(&tridiag(20), AbmcParams { nblocks: 64, strategy, ..Default::default() });
            assert_eq!(abmc.nblocks(), 10, "{strategy:?}");
        }
        assert_eq!(AbmcParams::for_threads(2).nblocks, 2 * BLOCKS_PER_THREAD);
        assert_eq!(AbmcParams::for_threads(2).strategy, BlockingStrategy::FewestColors);
    }

    #[test]
    fn same_color_blocks_share_no_entries() {
        for (n, nblocks) in [(100, 10), (64, 8), (37, 5)] {
            let a = tridiag(n);
            let abmc = Abmc::new(&a, AbmcParams { nblocks, ..Default::default() });
            let b = abmc.apply(&a);
            abmc.validate_against(&b).unwrap();
        }
    }

    #[test]
    fn tridiagonal_contiguous_needs_two_colors() {
        // Contiguous blocks of a path quotient to a path; greedy colors a
        // path with 2 colors.
        let a = tridiag(64);
        let abmc = Abmc::new(
            &a,
            AbmcParams {
                nblocks: 8,
                strategy: BlockingStrategy::Contiguous,
                ordering: ColoringOrdering::Natural,
            },
        );
        assert_eq!(abmc.ncolors(), 2);
        assert!(abmc.max_color_width() >= 4);
    }

    #[test]
    fn permuted_spmv_consistent() {
        let a = tridiag(50);
        let abmc = Abmc::new(&a, AbmcParams { nblocks: 7, ..Default::default() });
        let b = abmc.apply(&a);
        let x: Vec<f64> = (0..50).map(|i| (i as f64).sin()).collect();
        let mut ax = vec![0.0; 50];
        spmv(&a, &x, &mut ax);
        let px = abmc.permutation().apply_vec_alloc(&x);
        let mut bpx = vec![0.0; 50];
        spmv(&b, &px, &mut bpx);
        let pax = abmc.permutation().apply_vec_alloc(&ax);
        for (u, v) in bpx.iter().zip(&pax) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn single_block_single_color() {
        let a = tridiag(10);
        let abmc = Abmc::new(&a, AbmcParams { nblocks: 1, ..Default::default() });
        assert_eq!(abmc.nblocks(), 1);
        assert_eq!(abmc.ncolors(), 1);
        // One block means identity-like grouping: all rows in block 0.
        assert_eq!(abmc.block_rows(0), 0..10);
    }

    #[test]
    fn validate_rejects_wrong_matrix() {
        let a = tridiag(20);
        let abmc = Abmc::new(&a, AbmcParams { nblocks: 4, ..Default::default() });
        // Unpermuted matrix of the wrong size:
        let wrong = tridiag(10);
        assert!(abmc.validate_against(&wrong).is_err());
    }

    #[test]
    fn dense_matrix_each_block_its_own_color() {
        // A dense 8x8 matrix: every pair of blocks is adjacent, so the
        // quotient is complete and every block needs its own color.
        let rows: Vec<Vec<f64>> = (0..8).map(|_| vec![1.0; 8]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Csr::from_dense(&refs);
        let abmc = Abmc::new(
            &a,
            AbmcParams {
                nblocks: 4,
                strategy: BlockingStrategy::Contiguous,
                ordering: ColoringOrdering::Natural,
            },
        );
        assert_eq!(abmc.ncolors(), abmc.nblocks());
        abmc.validate_against(&abmc.apply(&a)).unwrap();
    }
}
