//! Stable fingerprints for matrices and plan configurations.
//!
//! The performance database (`fbmpk-bench`) keys every recorded run by a
//! *configuration fingerprint* so runs of the same (matrix, kernel,
//! schedule, thread count) can be compared across git revisions and
//! machines. The hashes here are deliberately hand-rolled FNV-1a rather
//! than `std::hash`: `DefaultHasher` is documented to be unstable across
//! Rust releases, which would silently split one configuration's history
//! into disjoint keys after a toolchain upgrade.

use crate::levelblock::BlockingMode;
use crate::plan::{FallbackPolicy, FbmpkOptions, VectorLayout};
use crate::schedule::SyncMode;
use fbmpk_reorder::{AbmcParams, BlockingStrategy, ColoringOrdering};

/// Incremental 64-bit FNV-1a hasher with a stable byte protocol.
///
/// Every `write_*` method folds a fixed-width little-endian encoding into
/// the state, so a fingerprint is a pure function of the logical field
/// sequence — independent of platform, toolchain, and process.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the standard FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Folds raw bytes into the state.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Folds a `usize` widened to 64 bits, so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, v: usize) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// Folds an `f64` by bit pattern (distinguishes `-0.0` from `0.0` and
    /// every NaN payload — exactness beats prettiness for cache keys).
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Folds a length-prefixed UTF-8 string (the prefix prevents
    /// concatenation collisions between adjacent string fields).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64).write_bytes(s.as_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Stable discriminant for [`SyncMode`] (independent of declaration
/// order changes, unlike `as u8`).
fn sync_tag(mode: SyncMode) -> u64 {
    match mode {
        SyncMode::ColorBarrier => 1,
        SyncMode::PointToPoint => 2,
    }
}

fn layout_tag(layout: VectorLayout) -> u64 {
    match layout {
        VectorLayout::BackToBack => 1,
        VectorLayout::Split => 2,
    }
}

fn fallback_tag(policy: FallbackPolicy) -> u64 {
    match policy {
        FallbackPolicy::Error => 1,
        FallbackPolicy::ColorBarrier => 2,
    }
}

/// The fewest-colors policy has its own tag: it is a different
/// configuration from either blocking it may resolve to, and its runs
/// must not share a history key with a fixed strategy's.
fn blocking_tag(strategy: BlockingStrategy) -> u64 {
    match strategy {
        BlockingStrategy::Contiguous => 1,
        BlockingStrategy::Aggregated => 2,
        BlockingStrategy::Multilevel => 3,
        BlockingStrategy::FewestColors => 4,
    }
}

/// Stable `(mode, tile_powers)` encoding for [`BlockingMode`]
/// (`u64::MAX` = auto-sized band; the field is meaningless for
/// streaming but still folded so the protocol stays fixed-width).
fn blocking_mode_tag(mode: BlockingMode) -> (u64, u64) {
    match mode {
        BlockingMode::Streaming => (1, u64::MAX),
        BlockingMode::LevelBlocked { tile_powers } => {
            (2, tile_powers.map_or(u64::MAX, |t| t as u64))
        }
    }
}

fn ordering_tag(ordering: ColoringOrdering) -> u64 {
    match ordering {
        ColoringOrdering::Natural => 1,
        ColoringOrdering::LargestDegreeFirst => 2,
        ColoringOrdering::SmallestLast => 3,
    }
}

/// Folds the performance-relevant ABMC parameters.
fn write_abmc(h: &mut Fnv64, params: &AbmcParams) {
    h.write_usize(params.nblocks)
        .write_u64(blocking_tag(params.strategy))
        .write_u64(ordering_tag(params.ordering));
}

impl FbmpkOptions {
    /// Stable fingerprint of every option that shapes the executed
    /// kernel: thread count, reorder parameters, layout, pre-RCM,
    /// synchronization mode, and cache-blocking mode. Observability and
    /// pinning flags are *included* too — a recording run and a pinned
    /// run are different measurement configurations and must not share a
    /// history key. The runtime-detected SIMD lane width is folded as
    /// well: the same options executed with AVX2 lanes and with the
    /// scalar fallback are different kernels.
    pub fn config_fingerprint(&self) -> u64 {
        let (blocking, tile_powers) = blocking_mode_tag(self.blocking);
        let mut h = Fnv64::new();
        // v3 adds the NUMA first-touch placement axis (and the multilevel
        // partitioner as blocking tag 3); the version bump keeps v2-keyed
        // histories from silently mixing with differently-shaped configs.
        h.write_str("fbmpk-options-v3")
            .write_usize(self.nthreads)
            .write_u64(blocking)
            .write_u64(tile_powers)
            .write_u64(fbmpk_sparse::simd::detect().width() as u64)
            .write_u64(layout_tag(self.layout))
            .write_u64(self.pre_rcm as u64)
            .write_u64(sync_tag(self.sync))
            .write_u64(self.pin_threads as u64)
            .write_u64(self.numa_first_touch as u64)
            .write_u64(self.obs.record as u64)
            .write_u64(fallback_tag(self.fallback))
            // Watchdog deadline: a run that can time out and fall back is
            // a different measurement configuration than one that can't.
            .write_u64(self.watchdog_ms.unwrap_or(u64::MAX));
        match &self.reorder {
            None => {
                h.write_u64(0);
            }
            Some(params) => {
                h.write_u64(1);
                write_abmc(&mut h, params);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_order_sensitive_and_deterministic() {
        let mut a = Fnv64::new();
        a.write_u64(1).write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2).write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv64::new();
        c.write_u64(1).write_u64(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn strings_are_length_prefixed() {
        let mut a = Fnv64::new();
        a.write_str("ab").write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn options_fingerprint_distinguishes_configs() {
        let base = FbmpkOptions::default();
        let threads = FbmpkOptions { nthreads: 4, ..base };
        let sync = FbmpkOptions { sync: SyncMode::PointToPoint, ..base };
        let layout = FbmpkOptions { layout: VectorLayout::Split, ..base };
        let reorder = FbmpkOptions { reorder: Some(AbmcParams::default()), ..base };
        let numa = FbmpkOptions { numa_first_touch: true, ..base };
        let fps = [
            base.config_fingerprint(),
            threads.config_fingerprint(),
            sync.config_fingerprint(),
            layout.config_fingerprint(),
            reorder.config_fingerprint(),
            numa.config_fingerprint(),
        ];
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(base.config_fingerprint(), FbmpkOptions::default().config_fingerprint());
    }

    #[test]
    fn blocking_mode_changes_fingerprint() {
        let base = FbmpkOptions::default();
        let auto =
            FbmpkOptions { blocking: BlockingMode::LevelBlocked { tile_powers: None }, ..base };
        let fixed =
            FbmpkOptions { blocking: BlockingMode::LevelBlocked { tile_powers: Some(3) }, ..base };
        assert_ne!(base.config_fingerprint(), auto.config_fingerprint());
        assert_ne!(auto.config_fingerprint(), fixed.config_fingerprint());
        assert_ne!(base.config_fingerprint(), fixed.config_fingerprint());
    }

    #[test]
    fn blocking_strategy_changes_fingerprint() {
        let mk = |strategy| FbmpkOptions {
            reorder: Some(AbmcParams { strategy, ..Default::default() }),
            ..Default::default()
        };
        let fps = [
            mk(BlockingStrategy::Contiguous).config_fingerprint(),
            mk(BlockingStrategy::Aggregated).config_fingerprint(),
            mk(BlockingStrategy::Multilevel).config_fingerprint(),
            mk(BlockingStrategy::FewestColors).config_fingerprint(),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "strategies {i} and {j} share a key");
            }
        }
    }

    #[test]
    fn nblocks_changes_fingerprint() {
        let a = FbmpkOptions { reorder: Some(AbmcParams::default()), ..Default::default() };
        let b = FbmpkOptions {
            reorder: Some(AbmcParams { nblocks: 1024, ..Default::default() }),
            ..Default::default()
        };
        assert_ne!(a.config_fingerprint(), b.config_fingerprint());
    }
}
