//! Setup-phase spans: coarse wall-time accounting for everything that
//! happens *around* the sweep kernels — tuner inspection, multilevel
//! partitioning, BFS leveling, solver outer iterations.
//!
//! The span recorder deliberately lives inside the worker pool and knows
//! nothing about single-threaded setup code; this module is its coarse
//! counterpart. A [`span`] guard measures one named phase RAII-style and,
//! on drop, feeds two consumers:
//!
//! * a process-global bounded log of `(name, start_ns, end_ns)` triples
//!   for the chrome://tracing exporter (enabled with [`set_recording`]);
//! * per-name `(count, total_ns)` aggregates surfaced through the live
//!   registry as `fbmpk_phase_seconds_total` / `fbmpk_phase_runs_total`
//!   with a `phase` label (enabled whenever [`crate::live::enabled`]).
//!
//! With both consumers off (the default), [`span`] returns an inert guard
//! without reading the clock — setup phases stay exactly as cheap as
//! before this module existed. Phase names must be `'static` literals in
//! `dotted.lowercase` form, e.g. `"tune.inspect"`, `"partition.coarsen"`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::live::{self, FamilySnapshot, LiveSample, LiveSource, MetricKind, SampleValue};

/// One completed phase, relative to the process phase epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Dotted phase name (`"tune.inspect"`, `"solver.bicgstab.iter"`, …).
    pub name: &'static str,
    /// Start, ns since [`epoch_ns`]'s zero.
    pub start_ns: u64,
    /// End, ns since the same zero.
    pub end_ns: u64,
}

impl PhaseSpan {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Cap on the detailed log: phases are coarse (tens per plan build), so
/// 64 Ki spans is hours of activity; beyond it we count drops instead.
const LOG_CAPACITY: usize = 1 << 16;

static RECORDING: AtomicBool = AtomicBool::new(false);

struct PhaseState {
    epoch: Instant,
    log: Mutex<LogState>,
    totals: Mutex<BTreeMap<&'static str, (u64, u64)>>,
}

#[derive(Default)]
struct LogState {
    spans: Vec<PhaseSpan>,
    dropped: u64,
}

fn state() -> &'static PhaseState {
    static STATE: OnceLock<PhaseState> = OnceLock::new();
    STATE.get_or_init(|| PhaseState {
        epoch: Instant::now(),
        log: Mutex::new(LogState::default()),
        totals: Mutex::new(BTreeMap::new()),
    })
}

/// Nanoseconds since the process phase epoch (first phases-API use).
pub fn now_ns() -> u64 {
    state().epoch.elapsed().as_nanos() as u64
}

/// Turns detailed span logging on or off (aggregates follow the live
/// gate independently).
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Is the detailed log collecting?
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Measures one phase; the span is recorded when the guard drops.
/// Inert (clock never read) when both consumers are off.
pub fn span(name: &'static str) -> PhaseGuard {
    let active = recording() || live::enabled();
    if active {
        ensure_source();
    }
    PhaseGuard { name, start: active.then(|| (now_ns(), Instant::now())) }
}

/// RAII guard from [`span`].
#[must_use = "the phase is measured when this guard drops"]
pub struct PhaseGuard {
    name: &'static str,
    start: Option<(u64, Instant)>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let Some((start_ns, start)) = self.start else { return };
        let dur_ns = start.elapsed().as_nanos() as u64;
        let st = state();
        if recording() {
            let mut log = st.log.lock().expect("phase log lock");
            if log.spans.len() < LOG_CAPACITY {
                let span = PhaseSpan { name: self.name, start_ns, end_ns: start_ns + dur_ns };
                log.spans.push(span);
            } else {
                log.dropped += 1;
            }
        }
        if live::enabled() {
            let mut totals = st.totals.lock().expect("phase totals lock");
            let entry = totals.entry(self.name).or_insert((0, 0));
            entry.0 += 1;
            entry.1 = entry.1.saturating_add(dur_ns);
        }
    }
}

/// Clones the detailed log (chrome-trace export path).
pub fn log_snapshot() -> Vec<PhaseSpan> {
    state().log.lock().expect("phase log lock").spans.clone()
}

/// Takes and clears the detailed log, returning `(spans, dropped)`.
pub fn drain_log() -> (Vec<PhaseSpan>, u64) {
    let mut log = state().log.lock().expect("phase log lock");
    let dropped = log.dropped;
    log.dropped = 0;
    (std::mem::take(&mut log.spans), dropped)
}

/// Per-phase `(name, runs, total_ns)` aggregates, sorted by name.
pub fn totals() -> Vec<(&'static str, u64, u64)> {
    state()
        .totals
        .lock()
        .expect("phase totals lock")
        .iter()
        .map(|(&name, &(runs, ns))| (name, runs, ns))
        .collect()
}

/// The live-registry collector: turns [`totals`] into two labeled
/// counter families at scrape time.
struct PhaseTotalsSource;

impl LiveSource for PhaseTotalsSource {
    fn collect(&self) -> Vec<FamilySnapshot> {
        let totals = totals();
        if totals.is_empty() {
            return Vec::new();
        }
        let label = |name: &str| vec![("phase".to_string(), name.to_string())];
        vec![
            FamilySnapshot {
                name: "fbmpk_phase_runs_total".to_string(),
                help: "Completed setup/solver phases by name".to_string(),
                kind: MetricKind::Counter,
                samples: totals
                    .iter()
                    .map(|&(name, runs, _)| LiveSample {
                        labels: label(name),
                        value: SampleValue::Counter(runs),
                    })
                    .collect(),
            },
            FamilySnapshot {
                name: "fbmpk_phase_seconds_total".to_string(),
                help: "Wall time spent in setup/solver phases by name".to_string(),
                kind: MetricKind::Counter,
                samples: totals
                    .iter()
                    .map(|&(name, _, ns)| LiveSample {
                        labels: label(name),
                        value: SampleValue::Gauge(ns as f64 / 1e9),
                    })
                    .collect(),
            },
        ]
    }
}

/// Registers the totals collector with the global live registry once.
fn ensure_source() {
    static SOURCE: OnceLock<Arc<PhaseTotalsSource>> = OnceLock::new();
    let mut fresh = false;
    let arc = SOURCE.get_or_init(|| {
        fresh = true;
        Arc::new(PhaseTotalsSource)
    });
    if fresh {
        let dyn_arc: Arc<dyn LiveSource> = Arc::clone(arc) as Arc<dyn LiveSource>;
        live::global().register_source(Arc::downgrade(&dyn_arc));
        // Keep one strong reference alive for process lifetime.
        std::mem::forget(dyn_arc);
    }
}

/// Adds every logged phase span to `tb` under process `pid` (tid 0) —
/// the setup-phase twin of `TraceBuilder::add_recorder`.
pub fn add_to_trace(tb: &mut crate::trace::TraceBuilder, pid: u32) -> usize {
    let spans = log_snapshot();
    for span in &spans {
        tb.add_phase_span(pid, span);
    }
    spans.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// The recording switch and the log are process-global; tests that
    /// flip the switch hold this lock so one cannot log into another's
    /// window.
    static SWITCH: Mutex<()> = Mutex::new(());

    #[test]
    fn inert_guard_records_nothing() {
        let _switch = SWITCH.lock().unwrap_or_else(PoisonError::into_inner);
        set_recording(false);
        live::set_enabled(false);
        let before = log_snapshot().len();
        drop(span("test.inert"));
        assert_eq!(log_snapshot().len(), before);
    }

    #[test]
    fn recording_appends_spans_and_totals() {
        let _switch = SWITCH.lock().unwrap_or_else(PoisonError::into_inner);
        set_recording(true);
        live::set_enabled(true);
        {
            let _g = span("test.phase_a");
            std::hint::black_box(0);
        }
        set_recording(false);
        live::set_enabled(false);
        let log = log_snapshot();
        assert!(log.iter().any(|s| s.name == "test.phase_a"));
        let t = totals();
        let (_, runs, ns) = t.iter().find(|(n, _, _)| *n == "test.phase_a").unwrap();
        assert!(*runs >= 1);
        // Duration can legitimately round to 0ns on coarse clocks; the
        // aggregate just must exist and be consistent.
        assert!(*ns < u64::MAX);
        let _ = runs;
    }
}
