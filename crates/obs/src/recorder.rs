//! The per-thread span recorder.
//!
//! One [`Recorder`] serves one thread pool: lane `t` belongs to worker
//! `t`, is cache-line aligned so neighbouring lanes never share a line,
//! and is preallocated so the record path never allocates. A span is 32
//! bytes; recording one is two monotonic-clock reads (taken by the
//! caller), one bounds check, one array store and one release store of
//! the lane length. When a lane fills up further spans are counted as
//! dropped instead of reallocating — timing fidelity beats completeness.
//!
//! Harvesting ([`Recorder::thread_spans`]) acquires the lane length and
//! copies the prefix, which is race-free even against a concurrently
//! recording owner: entries below the acquired length were published by
//! the owner's release store, entries above it are never read.

use crate::Probe;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// What a span measured. Wait kinds and compute kinds partition a
/// thread's timeline, so `Σ wait / Σ all` is the thread's wait fraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// The single flat pass of a `k = 1` invocation (`x₁ = U·x₀ + D·x₀ +
    /// L·x₀` per row). Only `k = 1` records it: for `k ≥ 2` the head's
    /// `U·x₀` is computed inside the first [`SpanKind::Forward`] units.
    Head,
    /// One forward unit: a color's rows (barrier mode) or one block
    /// (point-to-point mode).
    Forward,
    /// One backward unit, mirror of [`SpanKind::Forward`].
    Backward,
    /// The odd-`k` tail stage after the sweeps (`k ≥ 3`), flat partition.
    Tail,
    /// Arrival-to-release time inside a [`fbmpk-parallel`] sense barrier.
    BarrierWait,
    /// Epoch-flag spin time waiting on predecessor blocks
    /// (point-to-point mode).
    FlagWait,
    /// One tuned standalone SpMV (a thread's row range).
    Spmv,
    /// A worker fault was latched (panic isolation fired). Zero-duration
    /// marker recorded after the run by the runtime, not by workers.
    Poison,
    /// A stall watchdog expired (and, under the `ColorBarrier` fallback
    /// policy, the invocation was re-executed on the barrier schedule).
    /// Zero-duration marker; `detail` holds the milliseconds waited.
    Watchdog,
    /// One level-blocked wavefront stage: a thread's share of advancing
    /// the BFS-shell tiles through a band of powers. `color` holds the
    /// stage index, `detail` the number of powers in the band.
    Tile,
}

impl SpanKind {
    /// Stable lowercase name (used as the chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Head => "head",
            SpanKind::Forward => "forward",
            SpanKind::Backward => "backward",
            SpanKind::Tail => "tail",
            SpanKind::BarrierWait => "barrier-wait",
            SpanKind::FlagWait => "flag-wait",
            SpanKind::Spmv => "spmv",
            SpanKind::Poison => "poison",
            SpanKind::Watchdog => "watchdog",
            SpanKind::Tile => "tile",
        }
    }

    /// `true` for the synchronization-wait kinds.
    pub fn is_wait(self) -> bool {
        matches!(self, SpanKind::BarrierWait | SpanKind::FlagWait)
    }

    /// Every kind, in declaration order.
    pub const ALL: [SpanKind; 10] = [
        SpanKind::Head,
        SpanKind::Forward,
        SpanKind::Backward,
        SpanKind::Tail,
        SpanKind::BarrierWait,
        SpanKind::FlagWait,
        SpanKind::Spmv,
        SpanKind::Poison,
        SpanKind::Watchdog,
        SpanKind::Tile,
    ];
}

/// One recorded interval on one thread's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What was measured.
    pub kind: SpanKind,
    /// ABMC color, or [`Span::NO_ID`] for flat stages.
    pub color: u32,
    /// Global block id (point-to-point units), or [`Span::NO_ID`].
    pub block: u32,
    /// Kind-specific payload: backoff snoozes for wait spans, rows
    /// processed for compute spans.
    pub detail: u32,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder epoch.
    pub end_ns: u64,
}

impl Span {
    /// Sentinel for "no color / no block".
    pub const NO_ID: u32 = u32::MAX;

    /// A filler span (lane preallocation).
    pub fn zeroed() -> Span {
        Span { kind: SpanKind::Head, color: 0, block: 0, detail: 0, start_ns: 0, end_ns: 0 }
    }

    /// Span length in nanoseconds (saturating).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One worker's lane, padded to a cache line so adjacent lanes' length
/// counters never false-share.
#[repr(align(64))]
struct Lane {
    /// Preallocated span storage; written only by the owning worker.
    spans: UnsafeCell<Box<[Span]>>,
    /// Published span count: release-stored by the owner after the span
    /// write, acquire-loaded by harvesters.
    len: AtomicUsize,
    /// Spans discarded after the lane filled.
    dropped: AtomicU64,
}

/// Per-thread span storage for one pool.
pub struct Recorder {
    epoch: Instant,
    lanes: Box<[Lane]>,
    capacity: usize,
}

// SAFETY: `spans` is written only through `record`, whose contract gives
// each lane index a single owning thread (the pool worker with that id);
// cross-thread reads go through the acquire/release `len` publication and
// only touch fully-published entries.
unsafe impl Sync for Recorder {}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("nthreads", &self.lanes.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Recorder {
    /// A recorder with `nthreads` lanes of `capacity` spans each.
    ///
    /// # Panics
    /// Panics when `nthreads == 0`.
    pub fn new(nthreads: usize, capacity: usize) -> Self {
        assert!(nthreads > 0, "recorder needs at least one lane");
        let lanes = (0..nthreads)
            .map(|_| Lane {
                spans: UnsafeCell::new(vec![Span::zeroed(); capacity].into_boxed_slice()),
                len: AtomicUsize::new(0),
                dropped: AtomicU64::new(0),
            })
            .collect();
        Recorder { epoch: Instant::now(), lanes, capacity }
    }

    /// Number of lanes (pool workers).
    pub fn nthreads(&self) -> usize {
        self.lanes.len()
    }

    /// Per-lane span capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Monotonic nanoseconds since this recorder was created.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Appends `span` to lane `t`, or counts it as dropped when full.
    ///
    /// # Safety
    /// `t` must be the calling worker's own lane; no two threads may pass
    /// the same `t` concurrently.
    #[inline]
    pub unsafe fn record(&self, t: usize, span: Span) {
        let lane = &self.lanes[t];
        let len = lane.len.load(Ordering::Relaxed);
        // SAFETY: exclusive lane ownership per the function contract.
        let spans = unsafe { &mut *lane.spans.get() };
        if len < spans.len() {
            spans[len] = span;
            lane.len.store(len + 1, Ordering::Release);
        } else {
            lane.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Clears every lane. Must not run concurrently with recording (call
    /// it between kernel invocations, never inside one).
    pub fn reset(&self) {
        for lane in self.lanes.iter() {
            lane.len.store(0, Ordering::Release);
            lane.dropped.store(0, Ordering::Relaxed);
        }
    }

    /// Copies lane `t`'s published spans.
    pub fn thread_spans(&self, t: usize) -> Vec<Span> {
        let lane = &self.lanes[t];
        let len = lane.len.load(Ordering::Acquire);
        // SAFETY: entries below the acquired `len` were published by the
        // owner's release store; entries at or above it are not read.
        let spans = unsafe { &*lane.spans.get() };
        spans[..len].to_vec()
    }

    /// Spans dropped from lane `t` after it filled.
    pub fn dropped(&self, t: usize) -> u64 {
        self.lanes[t].dropped.load(Ordering::Relaxed)
    }

    /// Total dropped spans across lanes.
    pub fn total_dropped(&self) -> u64 {
        (0..self.nthreads()).map(|t| self.dropped(t)).sum()
    }

    /// `(wait_ns, total_ns)` for lane `t`: synchronization-wait time and
    /// total recorded span time.
    pub fn thread_wait_total_ns(&self, t: usize) -> (u64, u64) {
        let mut wait = 0u64;
        let mut total = 0u64;
        for s in self.thread_spans(t) {
            let d = s.duration_ns();
            total += d;
            if s.kind.is_wait() {
                wait += d;
            }
        }
        (wait, total)
    }

    /// Fraction of all recorded span time spent in synchronization waits,
    /// aggregated over every lane (0.0 when nothing was recorded).
    pub fn wait_fraction(&self) -> f64 {
        let (mut wait, mut total) = (0u64, 0u64);
        for t in 0..self.nthreads() {
            let (w, tot) = self.thread_wait_total_ns(t);
            wait += w;
            total += tot;
        }
        if total == 0 {
            0.0
        } else {
            wait as f64 / total as f64
        }
    }

    /// `(count, total_ns)` per [`SpanKind`] across every lane, in
    /// [`SpanKind::ALL`] order.
    pub fn kind_totals(&self) -> [(SpanKind, u64, u64); 10] {
        let mut out = SpanKind::ALL.map(|k| (k, 0u64, 0u64));
        for t in 0..self.nthreads() {
            for s in self.thread_spans(t) {
                let slot = &mut out[s.kind as usize];
                slot.1 += 1;
                slot.2 += s.duration_ns();
            }
        }
        out
    }
}

/// The enabled probe: borrows a [`Recorder`] and forwards spans to it.
#[derive(Debug, Clone, Copy)]
pub struct SpanProbe<'a> {
    rec: &'a Recorder,
}

impl<'a> SpanProbe<'a> {
    /// A probe writing into `rec`.
    pub fn new(rec: &'a Recorder) -> Self {
        SpanProbe { rec }
    }
}

impl Probe for SpanProbe<'_> {
    const ENABLED: bool = true;

    #[inline]
    fn now(&self) -> u64 {
        self.rec.now_ns()
    }

    #[inline]
    unsafe fn record(&self, t: usize, span: Span) {
        // SAFETY: forwarded contract — `t` is the caller's own lane.
        unsafe { self.rec.record(t, span) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_harvest_roundtrip() {
        let rec = Recorder::new(2, 8);
        let span = Span {
            kind: SpanKind::Forward,
            color: 3,
            block: 17,
            detail: 5,
            start_ns: 100,
            end_ns: 250,
        };
        // SAFETY: single-threaded test, lane indices used exclusively.
        unsafe {
            rec.record(0, span);
            rec.record(1, Span { kind: SpanKind::BarrierWait, ..span });
        }
        assert_eq!(rec.thread_spans(0), vec![span]);
        assert_eq!(rec.thread_spans(0)[0].duration_ns(), 150);
        assert_eq!(rec.thread_spans(1)[0].kind, SpanKind::BarrierWait);
        assert_eq!(rec.total_dropped(), 0);
        rec.reset();
        assert!(rec.thread_spans(0).is_empty());
    }

    #[test]
    fn overflow_drops_instead_of_reallocating() {
        let rec = Recorder::new(1, 2);
        for i in 0..5u64 {
            // SAFETY: single-threaded test.
            unsafe {
                rec.record(0, Span { start_ns: i, end_ns: i + 1, ..Span::zeroed() });
            }
        }
        assert_eq!(rec.thread_spans(0).len(), 2);
        assert_eq!(rec.dropped(0), 3);
        assert_eq!(rec.capacity(), 2);
    }

    #[test]
    fn wait_fraction_separates_kinds() {
        let rec = Recorder::new(1, 8);
        // SAFETY: single-threaded test.
        unsafe {
            rec.record(
                0,
                Span { kind: SpanKind::Forward, start_ns: 0, end_ns: 300, ..Span::zeroed() },
            );
            rec.record(
                0,
                Span { kind: SpanKind::BarrierWait, start_ns: 300, end_ns: 400, ..Span::zeroed() },
            );
        }
        assert!((rec.wait_fraction() - 0.25).abs() < 1e-12);
        let totals = rec.kind_totals();
        assert_eq!(totals[SpanKind::Forward as usize].1, 1);
        assert_eq!(totals[SpanKind::Forward as usize].2, 300);
        assert_eq!(totals[SpanKind::BarrierWait as usize].2, 100);
    }

    #[test]
    fn concurrent_lanes_do_not_interfere() {
        let rec = std::sync::Arc::new(Recorder::new(4, 1024));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let rec = std::sync::Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        // SAFETY: each thread uses its own lane index.
                        unsafe {
                            rec.record(
                                t,
                                Span {
                                    detail: t as u32,
                                    start_ns: i,
                                    end_ns: i + 1,
                                    ..Span::zeroed()
                                },
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4 {
            let spans = rec.thread_spans(t);
            assert_eq!(spans.len(), 1000);
            assert!(spans.iter().all(|s| s.detail == t as u32));
        }
    }

    #[test]
    fn clock_is_monotonic() {
        let rec = Recorder::new(1, 1);
        let a = rec.now_ns();
        let b = rec.now_ns();
        assert!(b >= a);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        Recorder::new(0, 16);
    }
}
