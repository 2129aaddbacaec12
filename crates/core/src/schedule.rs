//! Execution schedules for the colored sweeps.
//!
//! A [`Schedule`] fixes, ahead of time (paper: "the number of blocks for
//! each thread task are allocated in advance"), which contiguous row range
//! each thread owns within each color, plus two flat row partitions for
//! the stages outside the sweeps (the `k = 1` pass and the odd-`k` tail).
//! Color row ranges never split an ABMC block — intra-block dependencies
//! require a block to stay on one thread.

use fbmpk_parallel::partition::merge_balance_by_weight;
use fbmpk_parallel::BlockFlags;
use fbmpk_reorder::{Abmc, BlockDeps};
use fbmpk_sparse::TriangularSplit;
use std::ops::Range;

/// How the colored sweeps synchronize between dependent blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// A pool-wide barrier after every color (paper §III-D/E): simple,
    /// and near-free when colors are few and wide.
    #[default]
    ColorBarrier,
    /// Barrier-free sweeps: each block spin-waits on the per-block epoch
    /// flags of exactly the predecessor blocks its rows reference
    /// ([`fbmpk_reorder::BlockDeps`]), so a thread flows straight from
    /// color `c` into `c+1`. Barriers remain only after the per-invocation
    /// flag reset and before an odd-`k` tail, whose flat partition crosses
    /// block boundaries.
    PointToPoint,
}

/// Synchronization context handed to the sweep kernels: the mode plus,
/// for point-to-point runs, borrowed dependency lists and flag table.
#[derive(Clone, Copy)]
pub enum SyncCtx<'a> {
    /// Barrier after every color.
    Barrier,
    /// Per-block flag waits; no intra-sweep barriers.
    PointToPoint {
        /// Per-block wait lists (forward: earlier colors; backward: later).
        deps: &'a BlockDeps,
        /// One epoch flag per block, reset at the start of each kernel
        /// invocation.
        flags: &'a BlockFlags,
    },
}

/// Per-color, per-thread row assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// `colors[c][t]` = contiguous row range of color `c` owned by thread
    /// `t`. Colors are contiguous row spans in the ABMC-permuted numbering.
    pub colors: Vec<Vec<Range<usize>>>,
    /// `blocks[c][t]` = contiguous **global block-id** range backing
    /// `colors[c][t]` (same partition, block granularity — what the
    /// point-to-point sweeps iterate and flag).
    pub blocks: Vec<Vec<Range<usize>>>,
    /// Row range of block `b` is
    /// `block_row_start[b] .. block_row_start[b + 1]`.
    pub block_row_start: Vec<usize>,
    /// `flat[t]` = row range of thread `t` for the `k = 1` pass, which
    /// reads both triangles (balanced by `nnz(L) + nnz(U) + 1` per row).
    pub flat: Vec<Range<usize>>,
    /// `tail[t]` = row range of thread `t` for the odd-`k` tail after the
    /// sweeps, which reads only `L` (balanced by `nnz(L) + 1` per row).
    pub tail: Vec<Range<usize>>,
    /// Number of worker threads.
    pub nthreads: usize,
    /// Matrix dimension.
    pub n: usize,
}

impl Schedule {
    /// The trivial single-thread schedule: one color covering all rows in
    /// natural order — the serial FBMPK of paper §III-B.
    pub fn serial(n: usize) -> Self {
        let full: Vec<Range<usize>> = std::iter::once(0..n).collect();
        Schedule {
            colors: vec![full.clone()],
            blocks: vec![vec![0..1]],
            block_row_start: vec![0, n],
            tail: full.clone(),
            flat: full,
            nthreads: 1,
            n,
        }
    }

    /// Builds the colored schedule from an ABMC ordering and the (permuted)
    /// triangular split. Within each color, that color's blocks are
    /// distributed over threads by merge-path diagonals over per-block
    /// `nnz(L) + nnz(U)` weights, which bounds each thread's overshoot to
    /// one block even on skewed inputs. Thread ranges never split a block.
    ///
    /// All partition work happens here, once: per-row weights are computed
    /// in a single pass and shared by the per-color block weights and the
    /// flat `k = 1` partition; the tail partition weighs `L` alone. Both
    /// the row- and block-granular thread ranges are cached on the
    /// schedule (see [`Schedule::color_threads`] /
    /// [`Schedule::color_thread_blocks`]) so sweep call sites never
    /// re-partition.
    pub fn colored(abmc: &Abmc, split: &TriangularSplit, nthreads: usize) -> Self {
        assert!(nthreads > 0);
        let n = split.n();
        // One pass over the matrix rows; reused by every partition below.
        let row_weights: Vec<usize> =
            (0..n).map(|r| split.lower.row_nnz(r) + split.upper.row_nnz(r) + 1).collect();
        let mut colors = Vec::with_capacity(abmc.ncolors());
        let mut block_ranges = Vec::with_capacity(abmc.ncolors());
        for c in 0..abmc.ncolors() {
            let blocks: Vec<usize> = abmc.color_blocks(c).collect();
            let cb_start = abmc.color_blocks(c).start;
            let weights: Vec<usize> =
                blocks.iter().map(|&b| abmc.block_rows(b).map(|r| row_weights[r]).sum()).collect();
            let parts = merge_balance_by_weight(&weights, nthreads);
            let mut per_thread = Vec::with_capacity(nthreads);
            let mut per_thread_blocks = Vec::with_capacity(nthreads);
            for brange in parts {
                // Local (within-color) block indices → global block ids.
                per_thread_blocks.push(cb_start + brange.start..cb_start + brange.end);
                per_thread.push(if brange.is_empty() {
                    // Empty block range: empty row range at the color
                    // edge. A color can own fewer blocks than there are
                    // threads — or none at all — so every index here is
                    // guarded rather than unwrapped.
                    let edge = if blocks.is_empty() {
                        0
                    } else if brange.start < blocks.len() {
                        abmc.block_rows(blocks[brange.start]).start
                    } else {
                        abmc.block_rows(*blocks.last().expect("blocks nonempty")).end
                    };
                    edge..edge
                } else {
                    let first = blocks[brange.start];
                    let last = blocks[brange.end - 1];
                    abmc.block_rows(first).start..abmc.block_rows(last).end
                });
            }
            colors.push(per_thread);
            block_ranges.push(per_thread_blocks);
        }
        let mut block_row_start: Vec<usize> =
            (0..abmc.nblocks()).map(|b| abmc.block_rows(b).start).collect();
        block_row_start.push(n);
        // Flat partitions: whole rows balanced by the nonzeros each stage
        // reads, block boundaries irrelevant (neither stage has intra-pass
        // dependencies).
        let flat = merge_balance_by_weight(&row_weights, nthreads);
        let l_weights: Vec<usize> = (0..n).map(|r| split.lower.row_nnz(r) + 1).collect();
        let tail = merge_balance_by_weight(&l_weights, nthreads);
        Schedule { colors, blocks: block_ranges, block_row_start, flat, tail, nthreads, n }
    }

    /// Number of colors.
    pub fn ncolors(&self) -> usize {
        self.colors.len()
    }

    /// Number of blocks.
    pub fn nblocks(&self) -> usize {
        self.block_row_start.len() - 1
    }

    /// The cached per-thread row ranges of color `c`.
    #[inline]
    pub fn color_threads(&self, c: usize) -> &[Range<usize>] {
        &self.colors[c]
    }

    /// The cached per-thread global-block-id ranges of color `c`.
    #[inline]
    pub fn color_thread_blocks(&self, c: usize) -> &[Range<usize>] {
        &self.blocks[c]
    }

    /// Row range of block `b` (global id, schedule order).
    #[inline]
    pub fn block_rows(&self, b: usize) -> Range<usize> {
        self.block_row_start[b]..self.block_row_start[b + 1]
    }

    /// Validates internal consistency: per color, thread ranges are
    /// contiguous and disjoint; the union over colors covers `0..n`; each
    /// flat partition (`flat`, `tail`) covers every row exactly once.
    pub fn validate(&self) -> std::result::Result<(), String> {
        // Exact-cover check: mark every row; a duplicate mark catches
        // overlaps across colors that a length sum would miss.
        let mut seen = vec![false; self.n];
        for (c, per_thread) in self.colors.iter().enumerate() {
            if per_thread.len() != self.nthreads {
                return Err(format!("color {c} has {} thread slots", per_thread.len()));
            }
            let mut prev_end: Option<usize> = None;
            for (t, r) in per_thread.iter().enumerate() {
                if r.start > r.end {
                    return Err(format!("color {c} thread {t} invalid range {r:?}"));
                }
                if let Some(pe) = prev_end {
                    if !r.is_empty() && r.start < pe {
                        return Err(format!("color {c} thread {t} overlaps previous"));
                    }
                }
                if !r.is_empty() {
                    prev_end = Some(r.end);
                }
                for row in r.clone() {
                    if row >= self.n {
                        return Err(format!("color {c} thread {t} row {row} out of range"));
                    }
                    if seen[row] {
                        return Err(format!("row {row} assigned to more than one color/thread"));
                    }
                    seen[row] = true;
                }
            }
        }
        if let Some(row) = seen.iter().position(|&s| !s) {
            return Err(format!("row {row} not covered by any color"));
        }
        for (name, parts) in [("flat", &self.flat), ("tail", &self.tail)] {
            if parts.len() != self.nthreads {
                return Err(format!("{name} has {} thread slots", parts.len()));
            }
            let mut seen = vec![false; self.n];
            for (t, r) in parts.iter().enumerate() {
                if r.end > self.n {
                    return Err(format!("{name} thread {t} range {r:?} out of range"));
                }
                for row in r.clone() {
                    if std::mem::replace(&mut seen[row], true) {
                        return Err(format!("{name} assigns row {row} more than once"));
                    }
                }
            }
            if let Some(row) = seen.iter().position(|&s| !s) {
                return Err(format!("{name} does not cover row {row}"));
            }
        }
        // Block table: offsets monotone over 0..n, block-granular thread
        // ranges mirror the row-granular ones exactly, every block
        // assigned once.
        if self.block_row_start.first() != Some(&0)
            || self.block_row_start.last() != Some(&self.n)
            || self.block_row_start.windows(2).any(|w| w[0] > w[1])
        {
            return Err("block_row_start is not a monotone cover of 0..n".into());
        }
        if self.blocks.len() != self.colors.len() {
            return Err("blocks/colors color-count mismatch".into());
        }
        let mut block_seen = vec![false; self.nblocks()];
        for (c, (per_thread_blocks, per_thread)) in self.blocks.iter().zip(&self.colors).enumerate()
        {
            if per_thread_blocks.len() != self.nthreads {
                return Err(format!("color {c} has {} block slots", per_thread_blocks.len()));
            }
            for (t, (br, rr)) in per_thread_blocks.iter().zip(per_thread).enumerate() {
                for b in br.clone() {
                    if b >= self.nblocks() {
                        return Err(format!("color {c} thread {t} block {b} out of range"));
                    }
                    if block_seen[b] {
                        return Err(format!("block {b} assigned twice"));
                    }
                    block_seen[b] = true;
                }
                if !br.is_empty() {
                    let rows = self.block_row_start[br.start]..self.block_row_start[br.end];
                    if rows != *rr {
                        return Err(format!(
                            "color {c} thread {t}: block range {br:?} covers rows {rows:?}, \
                             schedule says {rr:?}"
                        ));
                    }
                } else if !rr.is_empty() {
                    return Err(format!("color {c} thread {t}: empty blocks but rows {rr:?}"));
                }
            }
        }
        if let Some(b) = block_seen.iter().position(|&s| !s) {
            return Err(format!("block {b} not assigned to any color/thread"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbmpk_reorder::{AbmcParams, BlockingStrategy};
    use fbmpk_sparse::Csr;

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
    fn serial_schedule_trivial() {
        let s = Schedule::serial(10);
        s.validate().unwrap();
        assert_eq!(s.ncolors(), 1);
        assert_eq!(s.colors[0][0], 0..10);
        assert_eq!(s.nblocks(), 1);
        assert_eq!(s.block_rows(0), 0..10);
        assert_eq!(s.color_thread_blocks(0), std::slice::from_ref(&(0..1)));
    }

    #[test]
    fn cached_block_ranges_mirror_row_ranges() {
        let a = tridiag(96);
        let abmc = Abmc::new(&a, AbmcParams { nblocks: 12, ..Default::default() });
        let b = abmc.apply(&a);
        let split = TriangularSplit::split(&b).unwrap();
        for t in [1, 3, 4, 16] {
            let s = Schedule::colored(&abmc, &split, t);
            s.validate().unwrap();
            assert_eq!(s.nblocks(), abmc.nblocks());
            for c in 0..s.ncolors() {
                // Accessors expose the cached partitions.
                assert_eq!(s.color_threads(c), &s.colors[c][..]);
                for (tid, br) in s.color_thread_blocks(c).iter().enumerate() {
                    if br.is_empty() {
                        assert!(s.colors[c][tid].is_empty());
                    } else {
                        assert_eq!(
                            s.block_rows(br.start).start..s.block_rows(br.end - 1).end,
                            s.colors[c][tid]
                        );
                    }
                }
            }
            // Every block id shows up exactly once across colors/threads.
            let mut ids: Vec<usize> = s.blocks.iter().flatten().flat_map(|r| r.clone()).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..abmc.nblocks()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn colored_schedule_covers_rows() {
        let a = tridiag(128);
        let abmc = Abmc::new(
            &a,
            AbmcParams {
                nblocks: 16,
                strategy: BlockingStrategy::Contiguous,
                ..Default::default()
            },
        );
        let b = abmc.apply(&a);
        let split = TriangularSplit::split(&b).unwrap();
        for t in [1, 2, 4, 9] {
            let s = Schedule::colored(&abmc, &split, t);
            s.validate().unwrap();
            assert_eq!(s.nthreads, t);
            assert_eq!(s.ncolors(), abmc.ncolors());
        }
    }

    #[test]
    fn thread_ranges_respect_block_boundaries() {
        let a = tridiag(100);
        let abmc = Abmc::new(
            &a,
            AbmcParams {
                nblocks: 10,
                strategy: BlockingStrategy::Contiguous,
                ..Default::default()
            },
        );
        let b = abmc.apply(&a);
        let split = TriangularSplit::split(&b).unwrap();
        let s = Schedule::colored(&abmc, &split, 3);
        // Every thread range boundary must coincide with a block boundary.
        let block_starts: std::collections::HashSet<usize> = (0..abmc.nblocks())
            .flat_map(|b| [abmc.block_rows(b).start, abmc.block_rows(b).end])
            .collect();
        for per_thread in &s.colors {
            for r in per_thread {
                if !r.is_empty() {
                    assert!(block_starts.contains(&r.start), "{r:?} splits a block");
                    assert!(block_starts.contains(&r.end), "{r:?} splits a block");
                }
            }
        }
    }

    #[test]
    fn validate_requires_flat_partitions_to_cover_each_row_once() {
        let a = tridiag(40);
        let abmc = Abmc::new(
            &a,
            AbmcParams { nblocks: 4, strategy: BlockingStrategy::Contiguous, ..Default::default() },
        );
        let split = TriangularSplit::split(&abmc.apply(&a)).unwrap();
        let good = Schedule::colored(&abmc, &split, 3);
        good.validate().unwrap();
        // Thread 1 repeats thread 0's tail rows and drops its own: the
        // lengths no longer sum to n, but a repeat must be named as such.
        let mut bad = good.clone();
        bad.tail[1] = bad.tail[0].clone();
        assert!(bad.validate().unwrap_err().contains("tail assigns row"));
        let mut bad = good.clone();
        bad.flat[2].end -= 1;
        assert!(bad.validate().unwrap_err().contains("flat does not cover row 39"));
        let mut bad = good;
        bad.tail.pop();
        assert!(bad.validate().unwrap_err().contains("tail has 2 thread slots"));
    }

    #[test]
    fn more_threads_than_blocks() {
        let a = tridiag(20);
        let abmc = Abmc::new(
            &a,
            AbmcParams { nblocks: 2, strategy: BlockingStrategy::Contiguous, ..Default::default() },
        );
        let b = abmc.apply(&a);
        let split = TriangularSplit::split(&b).unwrap();
        let s = Schedule::colored(&abmc, &split, 8);
        s.validate().unwrap();
    }

    /// Regression: a color with fewer blocks than threads produced an
    /// out-of-bounds `blocks.last().unwrap()` when a trailing empty block
    /// range was materialized. Exercise nthreads far above nblocks across
    /// both blocking strategies and several matrix shapes so every color
    /// hands most threads an empty range.
    #[test]
    fn many_threads_few_blocks_per_color() {
        for n in [4, 7, 20, 33] {
            let a = tridiag(n);
            for strategy in [BlockingStrategy::Contiguous, BlockingStrategy::Aggregated] {
                for nblocks in [1, 2, 3] {
                    let abmc =
                        Abmc::new(&a, AbmcParams { nblocks, strategy, ..Default::default() });
                    let b = abmc.apply(&a);
                    let split = TriangularSplit::split(&b).unwrap();
                    for nthreads in [abmc.nblocks() + 1, 16, 64] {
                        let s = Schedule::colored(&abmc, &split, nthreads);
                        s.validate().unwrap_or_else(|e| {
                            panic!("n={n} nblocks={nblocks} nthreads={nthreads}: {e}")
                        });
                    }
                }
            }
        }
    }
}
