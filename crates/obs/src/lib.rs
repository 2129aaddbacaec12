//! # fbmpk-obs
//!
//! In-kernel observability for the FBMPK sweeps: a near-zero-overhead
//! span recorder, one live metrics registry with its exposition endpoint,
//! an optional `perf_event_open` hardware-counter wrapper, and a
//! chrome://tracing exporter.
//!
//! The paper's headline claim is a memory-traffic one — ⌈(k+1)/2⌉
//! effective reads of `A` per power sequence — and the point-to-point
//! synchronization win is a wall-clock one. Neither can be diagnosed from
//! end-to-end timings alone. This crate makes both visible on every run:
//!
//! * [`recorder::Recorder`] — per-thread, cache-line-padded, preallocated
//!   span buffers with monotonic timestamps. Threads record compute spans
//!   (head, per-color forward/backward, tail) and wait spans (barrier
//!   arrivals, per-block epoch-flag spins) into their own lane; no atomics
//!   on the span path beyond one release store of the lane length.
//! * [`Probe`] — the compile-time on/off switch. Kernels are generic over
//!   `P: Probe`; the [`NoopProbe`] instantiation has `ENABLED == false`,
//!   so every instrumentation branch is a constant `if false` and the
//!   monomorphized kernel is the uninstrumented loop, byte for byte.
//! * [`metrics::Histogram`] — the log₂-bucketed distribution behind
//!   every histogram family.
//! * [`perf`] — raw-syscall `perf_event_open` counters (cycles,
//!   instructions, LLC misses) that degrade to `None` wherever the
//!   syscall is unavailable (containers, CI, non-Linux).
//! * [`trace::TraceBuilder`] — per-thread timelines in the chrome://tracing
//!   "trace event" JSON format.
//! * [`live`] / [`expo`] / [`serve`] / [`phases`] — the *live* half:
//!   per-lane atomic metric cells and scrape-time collectors coalesced
//!   into consistent snapshots — the one registry every layer (kernels,
//!   serving, `repro profile`) records into — rendered as Prometheus text
//!   exposition by a zero-dependency `TcpListener` endpoint, plus coarse
//!   setup-phase spans (tuner, partitioner, leveling, solver iterations)
//!   feeding both the endpoint and the chrome trace. All of it is off
//!   (one relaxed bool) until an endpoint or dashboard attaches.
//! * [`http`] — the one bounded HTTP/1.1 request reader, response writer
//!   and client, shared by the metrics endpoint and the serving layer.

pub mod attribution;
pub mod expo;
pub mod http;
pub mod live;
pub mod metrics;
pub mod perf;
pub mod phases;
pub mod recorder;
pub mod serve;
pub mod summary;
pub mod trace;

pub use attribution::{
    AttributionReport, BlockLedger, CellLedger, HwAttributionProbe, HwEntry, MeasuredLedger,
};
pub use live::{
    FamilySnapshot, LiveCounter, LiveGauge, LiveHistogram, LiveRegistry, LiveSample, LiveSource,
    MetricKind, SampleValue, Snapshot,
};
pub use metrics::Histogram;
pub use perf::{HwSample, HwSession};
pub use recorder::{Recorder, Span, SpanKind, SpanProbe};
pub use serve::MetricsServer;
pub use summary::{KindSummary, ObsSummary};
pub use trace::TraceBuilder;

/// Default per-thread span capacity: 64 Ki spans ≈ 2 MiB per thread,
/// enough for hundreds of power iterations on 100-color schedules.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// The kernels' observability hook, resolved at monomorphization time.
///
/// Implementations with `ENABLED == false` (the [`NoopProbe`]) make every
/// instrumentation site a dead branch the optimizer removes; the compiled
/// kernel is identical to one with no instrumentation at all. With
/// `ENABLED == true` ([`SpanProbe`]) the sites take two monotonic
/// timestamps and one lane write per span.
pub trait Probe: Sync {
    /// Compile-time switch — gate *every* call to [`Probe::now`] /
    /// [`Probe::record`] behind `if P::ENABLED`.
    const ENABLED: bool;

    /// Nanoseconds since the recorder's epoch (0 for the no-op probe).
    fn now(&self) -> u64;

    /// Appends `span` to thread `t`'s lane.
    ///
    /// # Safety
    /// `t` must identify the calling worker's own lane: two threads must
    /// never pass the same `t` concurrently (the same disjoint-ownership
    /// contract as `SharedSlice` writes in the sweeps).
    unsafe fn record(&self, t: usize, span: Span);
}

/// The disabled probe: zero-sized, `ENABLED == false`, compiles to
/// nothing on the hot path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }

    #[inline(always)]
    unsafe fn record(&self, _t: usize, _span: Span) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_probe_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoopProbe>(), 0);
        const { assert!(!NoopProbe::ENABLED) };
        assert_eq!(NoopProbe.now(), 0);
        // SAFETY: the no-op probe touches no lane.
        unsafe { NoopProbe.record(usize::MAX, Span::zeroed()) };
    }
}
