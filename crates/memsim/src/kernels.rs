//! Traced MPK kernels: replay the exact address streams of the standard
//! and forward–backward pipelines through the cache hierarchy.
//!
//! These mirror `fbmpk::standard` and `fbmpk::kernel` access-for-access
//! (row pointers, index/value streams, vector gathers, result stores) but
//! perform no arithmetic — the structure alone determines DRAM traffic.
//!
//! The FBMPK replay still follows the unfused order: a separate head pass
//! over `U` that stores `tmp`, then the sweeps, then the tail. The kernel
//! now reads `U[r,:]` for the head inside the first forward sweep (no `tmp`
//! store or reload in between) and, for `k = 1`, in the same flat pass as
//! the tail. The matrix bytes are the same; the interleaving, and so the
//! cache reuse, differ. Replaying the real kernel through an address
//! observer is the planned replacement for this mirror.
//! Replays are single-threaded, like the paper's per-socket LIKWID counts
//! (traffic is schedule-invariant for barrier-synchronized sweeps up to
//! boundary effects).

#![allow(clippy::needless_range_loop)] // replay loops index several parallel arrays by j/r

use crate::cache::CacheConfig;
use crate::hierarchy::{
    AccessLabel, Hierarchy, LabeledReport, SweepPhase, TrafficClass, TrafficReport,
};
use crate::layout::{AddressMap, ArrayRef, Elem};
use fbmpk_reorder::levels::bfs_level_schedule;
use fbmpk_sparse::{Csr, TriangularSplit};

/// Which vector layout the FBMPK replay models (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TracedLayout {
    /// Interleaved `xy[2n]` (back-to-back).
    #[default]
    BackToBack,
    /// Two separate iterate arrays.
    Split,
}

struct CsrRefs {
    ptr: ArrayRef,
    col: ArrayRef,
    val: ArrayRef,
}

fn place_csr(map: &mut AddressMap, m: &Csr) -> CsrRefs {
    CsrRefs {
        ptr: map.alloc(Elem::U64, m.nrows() + 1),
        col: map.alloc(Elem::U32, m.nnz()),
        val: map.alloc(Elem::F64, m.nnz()),
    }
}

/// Registers an array's span under a traffic class.
fn tag(h: &mut Hierarchy, a: &ArrayRef, class: TrafficClass) {
    if !a.is_empty() {
        h.register_region(a.addr(0), (a.len() * a.elem_bytes()) as u64, class);
    }
}

/// Registers all three CSR arrays as matrix traffic.
fn tag_csr(h: &mut Hierarchy, m: &CsrRefs) {
    tag(h, &m.ptr, TrafficClass::Matrix);
    tag(h, &m.col, TrafficClass::Matrix);
    tag(h, &m.val, TrafficClass::Matrix);
}

/// Attribution inputs for [`trace_fbmpk_attributed`].
#[derive(Debug, Clone, Copy)]
pub struct FbmpkTraceAttribution<'a> {
    /// Block row boundaries: block `b` covers rows
    /// `block_row_start[b]..block_row_start[b + 1]`; must start at 0 and
    /// end at `n`.
    pub block_row_start: &'a [usize],
    /// NUMA node of each of the pool workers' equal contiguous
    /// first-touch shares (worker `t` touches elements
    /// `[t·⌈len/T⌉, (t+1)·⌈len/T⌉)` of every array, `T =
    /// node_of_share.len()`). Empty disables the per-node split.
    pub node_of_share: &'a [u32],
}

/// Registers an array's pages per NUMA node under the pool's first-touch
/// share protocol: worker `t` zeroes an equal contiguous element share,
/// so under Linux first-touch those elements land on `t`'s node.
fn tag_nodes(h: &mut Hierarchy, a: &ArrayRef, node_of_share: &[u32]) {
    if a.is_empty() || node_of_share.is_empty() {
        return;
    }
    let nshares = node_of_share.len();
    let chunk = a.len().div_ceil(nshares);
    for (t, &node) in node_of_share.iter().enumerate() {
        let start = (t * chunk).min(a.len());
        let end = ((t + 1) * chunk).min(a.len());
        if start < end {
            h.register_node_range(a.addr(start), ((end - start) * a.elem_bytes()) as u64, node);
        }
    }
}

/// Replays `k` standard CSR SpMV invocations (`Aᵏx` via Algorithm 1) and
/// reports DRAM traffic.
///
/// # Panics
/// Panics when `k == 0` or `a` is not square.
pub fn trace_standard_mpk(a: &Csr, k: usize, configs: &[CacheConfig]) -> TrafficReport {
    assert!(k >= 1);
    assert_eq!(a.nrows(), a.ncols());
    let n = a.nrows();
    let mut map = AddressMap::new();
    let m = place_csr(&mut map, a);
    let x = map.alloc(Elem::F64, n);
    let y = map.alloc(Elem::F64, n);
    let mut h = Hierarchy::new(configs);
    tag_csr(&mut h, &m);
    tag(&mut h, &x, TrafficClass::Vector);
    tag(&mut h, &y, TrafficClass::Vector);
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    for inv in 0..k {
        let (src, dst) = if inv % 2 == 0 { (&x, &y) } else { (&y, &x) };
        for r in 0..n {
            h.access(m.ptr.addr(r), 8, false);
            h.access(m.ptr.addr(r + 1), 8, false);
            for j in row_ptr[r]..row_ptr[r + 1] {
                h.access(m.col.addr(j), 4, false);
                h.access(m.val.addr(j), 8, false);
                h.access(src.addr(col_idx[j] as usize), 8, false);
            }
            h.access(dst.addr(r), 8, true);
        }
    }
    h.finish()
}

/// Replays the FBMPK pipeline (head + ⌊k/2⌋ forward/backward rounds +
/// odd-`k` tail) for the given vector layout and reports DRAM traffic.
///
/// ```
/// use fbmpk_memsim::{trace_fbmpk, trace_standard_mpk, CacheConfig, TracedLayout};
/// let a = fbmpk_gen::poisson::grid3d_27pt(8, 8, 8);
/// let llc = [CacheConfig { size_bytes: 64 << 10, line_bytes: 64, assoc: 8 }];
/// let std = trace_standard_mpk(&a, 6, &llc);
/// let fb = trace_fbmpk(&a, 6, TracedLayout::BackToBack, &llc);
/// // FBMPK moves less DRAM traffic than the standard pipeline.
/// assert!(fb.total() < std.total());
/// ```
///
/// # Panics
/// Panics when `k == 0` or `a` is not square.
pub fn trace_fbmpk(
    a: &Csr,
    k: usize,
    layout: TracedLayout,
    configs: &[CacheConfig],
) -> TrafficReport {
    assert!(k >= 1);
    let split = TriangularSplit::split(a).expect("square matrix");
    trace_fbmpk_split(&split, k, layout, configs)
}

/// Like [`trace_fbmpk`] but takes a precomputed split (so callers can reuse
/// the preprocessing across `k` values, as the plan API does).
pub fn trace_fbmpk_split(
    split: &TriangularSplit,
    k: usize,
    layout: TracedLayout,
    configs: &[CacheConfig],
) -> TrafficReport {
    trace_fbmpk_inner(split, k, layout, configs, None).report
}

/// [`trace_fbmpk_split`] with every access stamped with its
/// (block × power × phase) label and the address space carved into
/// per-NUMA-node ranges — the simulated attribution ledger. The access
/// stream is identical to the unlabeled replay, so the embedded
/// [`LabeledReport::report`] equals [`trace_fbmpk_split`]'s output
/// bit-for-bit, and the label/node maps sum to it exactly.
///
/// # Panics
/// Panics when `k == 0` or `attr.block_row_start` does not cover `0..n`.
pub fn trace_fbmpk_attributed(
    split: &TriangularSplit,
    k: usize,
    layout: TracedLayout,
    configs: &[CacheConfig],
    attr: &FbmpkTraceAttribution<'_>,
) -> LabeledReport {
    trace_fbmpk_inner(split, k, layout, configs, Some(attr))
}

fn trace_fbmpk_inner(
    split: &TriangularSplit,
    k: usize,
    layout: TracedLayout,
    configs: &[CacheConfig],
    attr: Option<&FbmpkTraceAttribution<'_>>,
) -> LabeledReport {
    assert!(k >= 1);
    let n = split.n();
    // Row → block lookup for the labeled replay (empty when unlabeled).
    let block_of_row: Vec<u32> = match attr {
        Some(a) => {
            let starts = a.block_row_start;
            assert!(starts.len() >= 2, "need at least one block");
            assert_eq!(starts[0], 0, "blocks must start at row 0");
            assert_eq!(*starts.last().expect("nonempty"), n, "blocks must cover all rows");
            (0..n).map(|r| (starts.partition_point(|&s| s <= r) - 1) as u32).collect()
        }
        None => Vec::new(),
    };
    let mut map = AddressMap::new();
    let l = place_csr(&mut map, &split.lower);
    let u = place_csr(&mut map, &split.upper);
    let d = map.alloc(Elem::F64, n.max(1));
    let tmp = map.alloc(Elem::F64, n.max(1));
    // Vector layout: one interleaved array or two separate ones.
    let (xy, xe, xo) = match layout {
        TracedLayout::BackToBack => {
            let xy = map.alloc(Elem::F64, 2 * n.max(1));
            (Some(xy), None, None)
        }
        TracedLayout::Split => {
            let xe = map.alloc(Elem::F64, n.max(1));
            let xo = map.alloc(Elem::F64, n.max(1));
            (None, Some(xe), Some(xo))
        }
    };
    let out = map.alloc(Elem::F64, n.max(1));
    let even_addr = |i: usize| match layout {
        TracedLayout::BackToBack => xy.unwrap().addr(2 * i),
        TracedLayout::Split => xe.unwrap().addr(i),
    };
    let odd_addr = |i: usize| match layout {
        TracedLayout::BackToBack => xy.unwrap().addr(2 * i + 1),
        TracedLayout::Split => xo.unwrap().addr(i),
    };

    let mut h = Hierarchy::new(configs);
    tag_csr(&mut h, &l);
    tag_csr(&mut h, &u);
    tag(&mut h, &d, TrafficClass::Matrix);
    tag(&mut h, &tmp, TrafficClass::Vector);
    match layout {
        TracedLayout::BackToBack => tag(&mut h, &xy.unwrap(), TrafficClass::Vector),
        TracedLayout::Split => {
            tag(&mut h, &xe.unwrap(), TrafficClass::Vector);
            tag(&mut h, &xo.unwrap(), TrafficClass::Vector);
        }
    }
    tag(&mut h, &out, TrafficClass::Vector);
    if let Some(a) = attr {
        for arr in [&l.ptr, &l.col, &l.val, &u.ptr, &u.col, &u.val, &d, &tmp, &out] {
            tag_nodes(&mut h, arr, a.node_of_share);
        }
        match layout {
            TracedLayout::BackToBack => tag_nodes(&mut h, &xy.unwrap(), a.node_of_share),
            TracedLayout::Split => {
                tag_nodes(&mut h, &xe.unwrap(), a.node_of_share);
                tag_nodes(&mut h, &xo.unwrap(), a.node_of_share);
            }
        }
    }
    let labeled = attr.is_some();
    let l_ptr = split.lower.row_ptr();
    let l_col = split.lower.col_idx();
    let u_ptr = split.upper.row_ptr();
    let u_col = split.upper.col_idx();

    // Head: tmp = U x0 (billed to power 1, like the modeled ledger).
    for r in 0..n {
        if labeled {
            h.set_label(AccessLabel { block: block_of_row[r], power: 1, phase: SweepPhase::Head });
        }
        h.access(u.ptr.addr(r), 8, false);
        h.access(u.ptr.addr(r + 1), 8, false);
        for j in u_ptr[r]..u_ptr[r + 1] {
            h.access(u.col.addr(j), 4, false);
            h.access(u.val.addr(j), 8, false);
            h.access(even_addr(u_col[j] as usize), 8, false);
        }
        h.access(tmp.addr(r), 8, true);
    }
    let rounds = k / 2;
    for p in 0..rounds {
        // Forward over L (completes x_{2p+1}).
        for r in 0..n {
            if labeled {
                h.set_label(AccessLabel {
                    block: block_of_row[r],
                    power: (2 * p + 1) as u32,
                    phase: SweepPhase::Forward,
                });
            }
            h.access(tmp.addr(r), 8, false);
            h.access(d.addr(r), 8, false);
            h.access(even_addr(r), 8, false);
            h.access(l.ptr.addr(r), 8, false);
            h.access(l.ptr.addr(r + 1), 8, false);
            for j in l_ptr[r]..l_ptr[r + 1] {
                h.access(l.col.addr(j), 4, false);
                h.access(l.val.addr(j), 8, false);
                h.access(even_addr(l_col[j] as usize), 8, false);
                h.access(odd_addr(l_col[j] as usize), 8, false);
            }
            h.access(odd_addr(r), 8, true);
            h.access(tmp.addr(r), 8, true);
        }
        // Backward over U (completes x_{2p+2}).
        for r in (0..n).rev() {
            if labeled {
                h.set_label(AccessLabel {
                    block: block_of_row[r],
                    power: (2 * p + 2) as u32,
                    phase: SweepPhase::Backward,
                });
            }
            h.access(tmp.addr(r), 8, false);
            h.access(u.ptr.addr(r), 8, false);
            h.access(u.ptr.addr(r + 1), 8, false);
            for j in u_ptr[r]..u_ptr[r + 1] {
                h.access(u.col.addr(j), 4, false);
                h.access(u.val.addr(j), 8, false);
                h.access(odd_addr(u_col[j] as usize), 8, false);
                h.access(even_addr(u_col[j] as usize), 8, false);
            }
            h.access(even_addr(r), 8, true);
            h.access(tmp.addr(r), 8, true);
        }
    }
    if k % 2 == 1 {
        // Tail: out = tmp + D x_{k-1} + L x_{k-1} (completes x_k).
        for r in 0..n {
            if labeled {
                h.set_label(AccessLabel {
                    block: block_of_row[r],
                    power: k as u32,
                    phase: SweepPhase::Tail,
                });
            }
            h.access(tmp.addr(r), 8, false);
            h.access(d.addr(r), 8, false);
            h.access(even_addr(r), 8, false);
            h.access(l.ptr.addr(r), 8, false);
            h.access(l.ptr.addr(r + 1), 8, false);
            for j in l_ptr[r]..l_ptr[r + 1] {
                h.access(l.col.addr(j), 4, false);
                h.access(l.val.addr(j), 8, false);
                h.access(even_addr(l_col[j] as usize), 8, false);
            }
            h.access(out.addr(r), 8, true);
        }
    }
    h.finish_labeled()
}

/// Replays the level-blocked wavefront schedule for `Aᵏx` (the cache
/// blocking in `fbmpk::levelblock`): BFS shells of the symmetrized
/// pattern advance `tile_powers` powers per stage through a ring of
/// `tile_powers + 1` iterate buffers. When `tile_powers` consecutive
/// shells fit the cache, each stage's matrix re-reads hit cache and the
/// matrix streams from DRAM only `⌈k / tile_powers⌉` times, versus `k`
/// for [`trace_standard_mpk`] and `⌈(k+1)/2⌉` for [`trace_fbmpk`].
///
/// # Panics
/// Panics when `k == 0`, `tile_powers == 0`, or `a` is not square.
pub fn trace_level_blocked(
    a: &Csr,
    k: usize,
    tile_powers: usize,
    configs: &[CacheConfig],
) -> TrafficReport {
    assert!(k >= 1);
    assert!(tile_powers >= 1);
    assert_eq!(a.nrows(), a.ncols());
    let n = a.nrows();
    let shells = bfs_level_schedule(a);
    let nlevels = shells.nlevels();
    let kb = tile_powers.min(k);
    let nb = kb + 1;
    let mut map = AddressMap::new();
    let m = place_csr(&mut map, a);
    let bufs: Vec<ArrayRef> = (0..nb).map(|_| map.alloc(Elem::F64, n.max(1))).collect();
    let mut h = Hierarchy::new(configs);
    tag_csr(&mut h, &m);
    for b in &bufs {
        tag(&mut h, b, TrafficClass::Vector);
    }
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let mut base = 0usize;
    while base < k {
        let kb_eff = kb.min(k - base);
        // Wavefront over (power offset q, shell j): substep (q, j) runs at
        // step s = q + j - 1, ascending q within a step — identical
        // iteration space to `LevelBlockPlan::run_probed`.
        for s in 0..(nlevels + kb_eff).saturating_sub(1) {
            for q in 1..=kb_eff {
                let Some(j) = (s + 1).checked_sub(q) else { continue };
                if j >= nlevels {
                    continue;
                }
                let p = base + q;
                let src = &bufs[(p - 1) % nb];
                let dst = &bufs[p % nb];
                for &r in shells.level_rows(j) {
                    let r = r as usize;
                    h.access(m.ptr.addr(r), 8, false);
                    h.access(m.ptr.addr(r + 1), 8, false);
                    for e in row_ptr[r]..row_ptr[r + 1] {
                        h.access(m.col.addr(e), 4, false);
                        h.access(m.val.addr(e), 8, false);
                        h.access(src.addr(col_idx[e] as usize), 8, false);
                    }
                    h.access(dst.addr(r), 8, true);
                }
            }
        }
        base += kb_eff;
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache far smaller than the matrix but large enough for the live
    /// vectors: the streaming regime where the paper's (k+1)/2k argument
    /// applies (matrix re-reads hit DRAM, stencil-local gathers hit cache).
    fn small_llc() -> Vec<CacheConfig> {
        vec![CacheConfig { size_bytes: 256 << 10, line_bytes: 64, assoc: 8 }]
    }

    /// A cache that holds everything: only compulsory misses remain.
    fn huge_llc() -> Vec<CacheConfig> {
        vec![CacheConfig { size_bytes: 256 << 20, line_bytes: 64, assoc: 16 }]
    }

    /// 27-point stencil, dense enough (27 nnz/row) that matrix traffic
    /// dominates. Footprint ~1.3 MB >> 256 KiB cache; vectors (32 KiB)
    /// stay resident.
    fn grid() -> Csr {
        fbmpk_gen::poisson::grid3d_27pt(16, 16, 16)
    }

    #[test]
    fn fbmpk_reduces_streaming_traffic_toward_ideal() {
        let a = grid();
        for k in [3usize, 6, 9] {
            let std = trace_standard_mpk(&a, k, &small_llc());
            let fb = trace_fbmpk(&a, k, TracedLayout::BackToBack, &small_llc());
            let ratio = fb.total() as f64 / std.total() as f64;
            let ideal = (k + 1) as f64 / (2 * k) as f64;
            // The measured ratio sits above the matrix-only ideal (vector
            // and row_ptr overheads — exactly what Fig. 9 reports) but well
            // below 1.
            assert!(
                ratio > ideal - 0.02 && ratio < 0.95,
                "k={k}: ratio {ratio:.3} vs ideal {ideal:.3}"
            );
        }
    }

    #[test]
    fn ratio_improves_with_k() {
        let a = grid();
        let r3 = {
            let s = trace_standard_mpk(&a, 3, &small_llc());
            let f = trace_fbmpk(&a, 3, TracedLayout::BackToBack, &small_llc());
            f.total() as f64 / s.total() as f64
        };
        let r9 = {
            let s = trace_standard_mpk(&a, 9, &small_llc());
            let f = trace_fbmpk(&a, 9, TracedLayout::BackToBack, &small_llc());
            f.total() as f64 / s.total() as f64
        };
        assert!(r9 < r3, "k=9 ratio {r9:.3} must beat k=3 ratio {r3:.3}");
    }

    #[test]
    fn btb_wins_when_gathers_miss_cache() {
        // BtB pays stride-2 on even-only streams but halves the line count
        // of the paired even/odd gathers in the merged loops. It wins
        // exactly when those gathers miss: a wide random band whose x
        // window (±bw*8 bytes) exceeds the cache. This is the FT 2000+
        // regime where the paper sees BtB's largest gains (§V-D: small
        // caches, no L3).
        let a = fbmpk_gen::banded::banded_symmetric(fbmpk_gen::banded::BandedParams {
            n: 20_000,
            nnz_per_row: 35.0,
            bandwidth: 8_000,
            seed: 3,
        });
        let cache = vec![CacheConfig { size_bytes: 64 << 10, line_bytes: 64, assoc: 8 }];
        let btb = trace_fbmpk(&a, 5, TracedLayout::BackToBack, &cache);
        let split = trace_fbmpk(&a, 5, TracedLayout::Split, &cache);
        assert!(btb.total() < split.total(), "btb {} vs split {}", btb.total(), split.total());
        // Logical traffic is identical; only cache behavior differs.
        assert_eq!(btb.logical_bytes, split.logical_bytes);
    }

    #[test]
    fn btb_and_split_equal_when_vectors_fit() {
        // With all vectors resident, layout cannot change DRAM traffic
        // beyond boundary-line noise.
        let a = grid();
        let btb = trace_fbmpk(&a, 4, TracedLayout::BackToBack, &huge_llc());
        let split = trace_fbmpk(&a, 4, TracedLayout::Split, &huge_llc());
        let diff = (btb.total() as f64 - split.total() as f64).abs();
        assert!(diff / (split.total() as f64) < 0.02, "btb {btb:?} split {split:?}");
    }

    #[test]
    fn infinite_cache_costs_compulsory_traffic_only() {
        let a = grid();
        let k = 6;
        let std1 = trace_standard_mpk(&a, k, &huge_llc());
        // Matrix footprint read once + vectors; repeating k never refetches.
        let matrix_bytes = (a.nnz() * 12 + (a.nrows() + 1) * 8) as u64;
        assert!(std1.dram_read_bytes < matrix_bytes + 64 * 1024 + 2 * 8 * a.nrows() as u64);
        let fb = trace_fbmpk(&a, k, TracedLayout::BackToBack, &huge_llc());
        // FBMPK reads at most the same footprint (split arrays + vectors).
        assert!(fb.dram_read_bytes <= std1.dram_read_bytes + 64 * 1024);
    }

    #[test]
    fn standard_traffic_scales_linearly_in_k_when_streaming() {
        let a = grid();
        let t3 = trace_standard_mpk(&a, 3, &small_llc()).total();
        let t6 = trace_standard_mpk(&a, 6, &small_llc()).total();
        let ratio = t6 as f64 / t3 as f64;
        assert!((ratio - 2.0).abs() < 0.05, "k=6/k=3 traffic ratio {ratio}");
    }

    #[test]
    fn level_blocked_beats_streaming_on_27pt_suite_input() {
        // Elongated 3D bar: BFS shells plateau at 8x8 = 64 rows, so a few
        // consecutive shells (matrix window plus ring-buffer slots) fit
        // comfortably in the 256 KiB LLC while the whole matrix (~2.7 MB)
        // does not — the regime where advancing each tile through several
        // powers converts DRAM matrix re-reads into cache hits.
        let a = fbmpk_gen::poisson::grid3d_27pt(8, 8, 128);
        for k in [4usize, 6, 8] {
            let streaming = trace_standard_mpk(&a, k, &small_llc());
            let blocked = trace_level_blocked(&a, k, 4, &small_llc());
            assert!(
                blocked.dram_read_bytes < streaming.dram_read_bytes,
                "k={k}: blocked {} must read less DRAM than streaming {}",
                blocked.dram_read_bytes,
                streaming.dram_read_bytes
            );
        }
    }

    #[test]
    fn level_blocked_read_traffic_tracks_stage_count() {
        // The model: matrix DRAM reads scale with ceil(k / kb) stages, not
        // with k. Doubling the band at fixed k should therefore cut matrix
        // read traffic roughly in half (k=8: 4 stages -> 2).
        let a = fbmpk_gen::poisson::grid3d_27pt(8, 8, 128);
        let kb2 = trace_level_blocked(&a, 8, 2, &small_llc());
        let kb4 = trace_level_blocked(&a, 8, 4, &small_llc());
        let ratio = kb4.matrix_bytes as f64 / kb2.matrix_bytes as f64;
        assert!(
            (0.4..0.7).contains(&ratio),
            "kb=4/kb=2 matrix-read ratio {ratio:.3}, expected ~0.5"
        );
        // And deep blocking beats the FBMPK sweeps' ceil((k+1)/2) reads.
        let fb = trace_fbmpk(&a, 8, TracedLayout::BackToBack, &small_llc());
        assert!(
            kb4.dram_read_bytes < fb.dram_read_bytes,
            "blocked {} vs fbmpk {}",
            kb4.dram_read_bytes,
            fb.dram_read_bytes
        );
    }

    #[test]
    fn level_blocked_degenerates_to_streaming_at_band_one() {
        // kb=1 is plain power iteration in shell order: same logical
        // traffic as the standard kernel, so totals must be close (the
        // shell traversal differs from row order only in line boundary
        // effects and ring-buffer aliasing).
        let a = fbmpk_gen::poisson::grid3d_27pt(8, 8, 32);
        let streaming = trace_standard_mpk(&a, 4, &small_llc());
        let blocked = trace_level_blocked(&a, 4, 1, &small_llc());
        let ratio = blocked.total() as f64 / streaming.total() as f64;
        assert!((0.85..1.15).contains(&ratio), "kb=1 ratio {ratio:.3} should be ~1");
    }

    #[test]
    fn sparser_matrix_has_higher_fb_ratio() {
        // §V-C: G3_circuit-like inputs benefit least because vector traffic
        // dominates.
        let dense = fbmpk_gen::blockfem::block_fem(fbmpk_gen::blockfem::BlockFemParams {
            n: 1500,
            block: 3,
            neighbors: 27,
            symmetric: true,
            seed: 1,
        });
        let sparse = fbmpk_gen::circuit::circuit_like(fbmpk_gen::circuit::CircuitParams {
            n: 1500,
            nnz_per_row: 4.8,
            long_range_frac: 0.15,
            seed: 1,
        });
        let k = 9;
        let r = |m: &Csr| {
            let s = trace_standard_mpk(m, k, &small_llc());
            let f = trace_fbmpk(m, k, TracedLayout::BackToBack, &small_llc());
            f.total() as f64 / s.total() as f64
        };
        assert!(r(&sparse) > r(&dense), "sparse {} dense {}", r(&sparse), r(&dense));
    }
}

#[cfg(test)]
mod attribution_tests {
    use super::*;

    fn llc() -> Vec<CacheConfig> {
        vec![CacheConfig { size_bytes: 256 << 10, line_bytes: 64, assoc: 8 }]
    }

    #[test]
    fn classified_traffic_accounts_for_everything() {
        let a = fbmpk_gen::poisson::grid3d_27pt(12, 12, 12);
        let r = trace_standard_mpk(&a, 4, &llc());
        // Every DRAM byte hits a registered region.
        assert_eq!(r.matrix_bytes + r.vector_bytes, r.total());
        assert!(r.matrix_bytes > 0 && r.vector_bytes > 0);
    }

    #[test]
    fn sparse_matrices_are_vector_dominated() {
        // The quantitative core of SV-C: for G3_circuit-class inputs the
        // vector share of DRAM traffic is large; for block-FEM inputs the
        // matrix share dominates.
        let dense = fbmpk_gen::blockfem::block_fem(fbmpk_gen::blockfem::BlockFemParams {
            n: 6000,
            block: 3,
            neighbors: 27,
            symmetric: true,
            seed: 1,
        });
        let sparse = fbmpk_gen::circuit::circuit_like(fbmpk_gen::circuit::CircuitParams {
            n: 18_000,
            nnz_per_row: 4.8,
            long_range_frac: 0.15,
            seed: 1,
        });
        let k = 6;
        let fd = trace_fbmpk(&dense, k, TracedLayout::BackToBack, &llc());
        let fs = trace_fbmpk(&sparse, k, TracedLayout::BackToBack, &llc());
        assert!(
            fs.vector_fraction() > 2.0 * fd.vector_fraction(),
            "sparse {:.2} vs dense {:.2}",
            fs.vector_fraction(),
            fd.vector_fraction()
        );
        assert!(fd.vector_fraction() < 0.25, "dense input must be matrix-bound");
    }

    #[test]
    fn attributed_trace_is_bit_identical_and_conserves() {
        let a = fbmpk_gen::poisson::grid3d_27pt(10, 10, 10);
        let split = TriangularSplit::split(&a).expect("square");
        let n = split.n();
        let starts = vec![0, n / 4, n / 2, 3 * n / 4, n];
        let nodes = vec![0u32, 0, 1, 1];
        for k in [1usize, 4, 5] {
            for layout in [TracedLayout::BackToBack, TracedLayout::Split] {
                let plain = trace_fbmpk_split(&split, k, layout, &llc());
                let attr =
                    FbmpkTraceAttribution { block_row_start: &starts, node_of_share: &nodes };
                let lr = trace_fbmpk_attributed(&split, k, layout, &llc(), &attr);
                // Same access stream → identical whole-run report.
                assert_eq!(lr.report, plain, "k={k} layout={layout:?}");
                // Per-label DRAM bytes sum to the totals exactly.
                let label_read: u64 = lr.labels.values().map(|t| t.dram_read_bytes).sum();
                let label_write: u64 = lr.labels.values().map(|t| t.dram_write_bytes).sum();
                assert_eq!(label_read, lr.report.dram_read_bytes);
                assert_eq!(label_write, lr.report.dram_write_bytes);
                // Per-node DRAM bytes sum to the totals exactly.
                let node_total: u64 = lr.nodes.values().map(|t| t.dram_total()).sum();
                assert_eq!(node_total, lr.report.total());
                // Every power 1..=k appears; no label leaks past k or
                // names an out-of-range block.
                for label in lr.labels.keys() {
                    if *label == AccessLabel::UNLABELED {
                        continue;
                    }
                    assert!(label.power >= 1 && label.power <= k as u32, "{label:?}");
                    assert!((label.block as usize) < starts.len() - 1, "{label:?}");
                }
                for p in 1..=k as u32 {
                    assert!(lr.labels.keys().any(|l| l.power == p), "power {p} missing at k={k}");
                }
            }
        }
    }

    #[test]
    fn fbmpk_reduces_matrix_traffic_not_vector_traffic() {
        // The mechanism behind Fig. 9: FBMPK's savings are entirely on the
        // matrix side; vector traffic does not shrink.
        let a = fbmpk_gen::poisson::grid3d_27pt(14, 14, 14);
        let k = 8;
        let std = trace_standard_mpk(&a, k, &llc());
        let fb = trace_fbmpk(&a, k, TracedLayout::BackToBack, &llc());
        assert!(
            (fb.matrix_bytes as f64) < 0.7 * std.matrix_bytes as f64,
            "matrix {} vs {}",
            fb.matrix_bytes,
            std.matrix_bytes
        );
        assert!(fb.vector_bytes >= std.vector_bytes / 2, "vector traffic should not collapse");
    }
}
