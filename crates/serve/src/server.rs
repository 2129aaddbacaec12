//! The request server: acceptor, bounded queue, handler threads, and
//! the request lifecycle tying cache, admission, deadlines, and
//! batching together.
//!
//! Routes (plain text in and out; one request per connection):
//!
//! * `POST /v1/spmv` — one tuned SpMV (`k` ignored).
//! * `POST /v1/power` — `Aᵏx` by repeated SpMM; same-matrix requests
//!   coalesce (see [`crate::batch`]).
//! * `POST /v1/mpk` — `Aᵏx` through the FBMPK fused kernel under the
//!   per-request watchdog deadline.
//! * `GET /v1/stats` — the serving counters (`name value` lines).
//! * `GET /healthz` — liveness.
//!
//! Request headers: `X-Tenant` names the tenant (default `anonymous`),
//! `X-Deadline-Ms` the time budget (default from [`ServeConfig`]; `0`
//! means "already expired" and is answered 503 — the degenerate budget
//! the load generator uses for hopeless-deadline scenarios). The budget
//! is checked at admission (covering queue wait), again right before
//! kernel execution (covering plan-build time), and — on `/v1/mpk`
//! only — *during* the kernel via the per-request watchdog; `/v1/spmv`
//! and `/v1/power` kernels run to completion once started, so their
//! enforcement is strictly pre-execution. Response headers
//! `X-Fbmpk-Shed`, `X-Fbmpk-Deadline`, `X-Fbmpk-Fault`,
//! `X-Fbmpk-Degraded`, and `X-Fbmpk-Batch-Width` type every outcome so
//! no client ever has to infer what happened from a dropped connection.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fbmpk::tune::fingerprint;
use fbmpk::{FbmpkError, FbmpkPlan, SyncMode, TuneOptions, TunedPlan};
use fbmpk_sparse::Csr;

use crate::admission::{Admission, Decision};
use crate::batch::PowerBatcher;
use crate::http::{read_request, render_vector, Request, Response};
use crate::metrics::ServeMetrics;
use crate::plancache::{CacheError, CacheOutcome, PlanCache};
use crate::spec::RequestSpec;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (port 0 picks a free port).
    pub addr: SocketAddr,
    /// Worker threads per kernel pool (each cached plan gets one pool).
    pub kernel_threads: usize,
    /// Handler threads draining the request queue.
    pub handlers: usize,
    /// Bound of the request queue; a full queue rejects with 429.
    pub queue_cap: usize,
    /// Per-tenant in-flight concurrency quota.
    pub tenant_cap: usize,
    /// Default `X-Deadline-Ms` when the client sends none.
    pub default_deadline_ms: u64,
    /// Base TTL of negative plan-cache entries (doubles per consecutive
    /// failure).
    pub neg_ttl: Duration,
    /// Bound on resident plan-cache entries (LRU-evicted beyond it). A
    /// plan can cost ~100 MB at the spec grammar's size ceiling, so the
    /// cache must be bounded even when the shedding ladder never
    /// engages.
    pub plan_cache_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".parse().expect("loopback addr"),
            kernel_threads: 2,
            handlers: 4,
            queue_cap: 64,
            tenant_cap: 8,
            default_deadline_ms: 10_000,
            neg_ttl: Duration::from_millis(250),
            plan_cache_cap: 32,
        }
    }
}

/// Bound on the canonical-spec → fingerprint memo. Entries are tiny
/// (string + u64) but keyed by client-controlled specs, so the map is
/// capped; at the cap an arbitrary entry is dropped (costing one
/// generator rebuild on that spec's next request).
const SPEC_FP_CAP: usize = 4096;

/// A cached per-matrix plan bundle.
pub struct PlanEntry {
    /// The tuned SpMV executor; it also holds the plan's one CSR copy,
    /// which the `power` batching path reads through
    /// [`TunedPlan::matrix`].
    pub tuned: TunedPlan,
    /// The FBMPK fused-kernel plan (point-to-point sync, so per-request
    /// deadlines are enforceable).
    pub fbmpk: FbmpkPlan,
    /// Serializes FBMPK invocations: the per-request deadline re-arms
    /// the shared watchdog, so two requests must not run interleaved on
    /// one plan.
    pub exec: Mutex<()>,
    /// Built probe-free under ladder rung 1; served scalar.
    pub degraded: bool,
}

fn build_entry(csr: Csr, degrade: bool, threads: usize) -> Result<PlanEntry, String> {
    let options = TuneOptions {
        nthreads: threads,
        probe: !degrade,
        sync: SyncMode::PointToPoint,
        ..Default::default()
    };
    let tuned = TunedPlan::new(&csr, options);
    // The tuned plan holds the entry's one copy of the matrix. Free this
    // one before the FBMPK build, whose transients set a cold request's
    // memory peak.
    drop(csr);
    // The server's own block count, below the library's 16 per thread:
    // at 2 threads and k = 8 the `rmat:15:16:1` spec ran in 22.4 ms with
    // 8 blocks and 25.1 ms with 32 (its aggregation colors in 4 colors
    // instead of 11). The blocking follows the library's fewest-colors
    // policy.
    let nblocks = (threads * 4).max(1).min(tuned.n().max(1));
    let fbmpk = tuned.fbmpk_plan_auto(nblocks).map_err(|e| e.to_string())?;
    Ok(PlanEntry { tuned, fbmpk, exec: Mutex::new(()), degraded: degrade })
}

struct State {
    cfg: ServeConfig,
    metrics: Arc<ServeMetrics>,
    admission: Arc<Admission>,
    cache: PlanCache<PlanEntry>,
    /// Canonical matrix spec → fingerprint, so cached-plan requests
    /// never rebuild the generator output just to find their key.
    spec_fps: Mutex<HashMap<String, u64>>,
    batcher: PowerBatcher,
}

struct Queued {
    stream: TcpStream,
    arrived: Instant,
}

/// A running server.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    state: Arc<State>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    handlers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting. Registers the serving counters with
    /// the process-wide live registry (labeled `server="<id>"`; they drop
    /// out of scrapes with the last handle) and flips the live-telemetry
    /// gate on, so served plans feed the exposition endpoint too.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(cfg.addr)?;
        let addr = listener.local_addr()?;
        fbmpk_obs::live::set_enabled(true);
        let metrics = Arc::new(ServeMetrics::default());
        fbmpk_obs::live::global().register_source(Arc::<ServeMetrics>::downgrade(&metrics));
        let state = Arc::new(State {
            metrics,
            admission: Arc::new(Admission::new(cfg.queue_cap, cfg.tenant_cap, cfg.handlers)),
            cache: PlanCache::new(cfg.neg_ttl, cfg.plan_cache_cap),
            spec_fps: Mutex::new(HashMap::new()),
            batcher: PowerBatcher::new(),
            cfg,
        });
        let (tx, rx) = std::sync::mpsc::sync_channel::<Queued>(state.cfg.queue_cap);
        let rx = Arc::new(Mutex::new(rx));
        let handlers = (0..state.cfg.handlers.max(1))
            .map(|i| {
                let (state, rx) = (Arc::clone(&state), Arc::clone(&rx));
                std::thread::Builder::new()
                    .name(format!("fbmpk-serve-{i}"))
                    .spawn(move || handler_loop(&state, &rx))
                    .expect("spawn handler thread")
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (state, stop) = (Arc::clone(&state), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("fbmpk-serve-accept".to_string())
                .spawn(move || accept_loop(&state, &listener, tx, &stop))
                .expect("spawn acceptor thread")
        };
        Ok(Server { addr, stop, state, acceptor: Some(acceptor), handlers })
    }

    /// The bound address (resolved port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving counters (shared with the handler threads).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.state.metrics)
    }

    /// The admission state (tests inspect quotas and the EWMA).
    pub fn admission(&self) -> Arc<Admission> {
        Arc::clone(&self.state.admission)
    }

    /// Stops accepting, drains the handler threads, and joins them.
    pub fn shutdown(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            self.stop.store(true, Ordering::Release);
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = acceptor.join();
            for h in self.handlers.drain(..) {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(state: &State, listener: &TcpListener, tx: SyncSender<Queued>, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Bounded patience per connection: a slow or stuck peer costs at
        // most these timeouts, never a wedged thread.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
        // Count before sending: the handler decrements right after recv,
        // and the pairing must never go negative.
        state.admission.enqueued();
        match tx.try_send(Queued { stream, arrived: Instant::now() }) {
            Ok(()) => {}
            Err(TrySendError::Full(q)) => {
                state.admission.dequeued();
                let r = state.admission.reject_queue_full();
                state.metrics.count_shed(r.reason);
                let resp = Response::text(429, "request shed: queue-full\n")
                    .with_header("Retry-After", r.retry_after_s.to_string())
                    .with_header("X-Fbmpk-Shed", r.reason.as_str());
                reject_detached(q.stream, resp);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Closing `tx` (dropped here) ends the handler loops.
}

/// Live rejector threads. Above the cap the 429 is written without
/// draining the request first — the floor for pathological overload,
/// where bounded memory wins over a clean close.
static REJECTORS: AtomicUsize = AtomicUsize::new(0);
const MAX_REJECTORS: usize = 128;

/// Answers a shed connection off the accept thread. The request must be
/// consumed before the socket closes: closing with unread data in the
/// receive buffer makes the kernel send RST, tearing down the typed 429
/// before the client can read it. Reading can block for the connection
/// read timeout, so it runs on a short-lived detached thread rather
/// than stalling the acceptor.
fn reject_detached(mut stream: TcpStream, resp: Response) {
    if REJECTORS.fetch_add(1, Ordering::AcqRel) >= MAX_REJECTORS {
        REJECTORS.fetch_sub(1, Ordering::AcqRel);
        let _ = resp.write(&mut stream);
        return;
    }
    let spawned =
        std::thread::Builder::new().name("fbmpk-serve-reject".to_string()).spawn(move || {
            let _ = read_request(&mut stream);
            let _ = resp.write(&mut stream);
            let _ = stream.shutdown(std::net::Shutdown::Both);
            REJECTORS.fetch_sub(1, Ordering::AcqRel);
        });
    // Spawn failure drops the stream unanswered; just repair the count.
    if spawned.is_err() {
        REJECTORS.fetch_sub(1, Ordering::AcqRel);
    }
}

fn handler_loop(state: &State, rx: &Mutex<Receiver<Queued>>) {
    loop {
        let queued = {
            let guard = rx.lock().expect("serve queue lock");
            guard.recv()
        };
        let Ok(mut queued) = queued else { break };
        state.admission.dequeued();
        serve_one(state, &mut queued);
    }
}

fn serve_one(state: &State, queued: &mut Queued) {
    let m = &state.metrics;
    let request = match read_request(&mut queued.stream) {
        Ok(r) => r,
        Err(e) => {
            // A transport error has no response: the peer vanished.
            if let Some(response) = e.response() {
                m.inc(&m.bad_request);
                let _ = response.write(&mut queued.stream);
            }
            return;
        }
    };
    m.inc(&m.requests);
    let response = route(state, &request, queued.arrived);
    match response.status {
        200 => m.inc(&m.ok),
        400 | 405 | 413 => m.inc(&m.bad_request),
        404 => m.inc(&m.not_found),
        // 429/500/503 are counted at their creation sites, where the
        // reason is known.
        _ => {}
    }
    let _ = response.write(&mut queued.stream);
}

fn route(state: &State, request: &Request, arrived: Instant) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/") => Response::text(
            200,
            "fbmpk serving endpoint; POST /v1/{spmv,power,mpk}, GET /v1/stats\n",
        ),
        ("GET", "/v1/stats") => {
            let mut body = state.metrics.render();
            body.push_str(&format!("fbmpk_serve_queue_depth {}\n", state.admission.depth()));
            body.push_str(&format!(
                "fbmpk_serve_service_ewma_ms {:.3}\n",
                state.admission.service_ewma_ms()
            ));
            Response::text(200, body)
        }
        ("POST", "/v1/spmv" | "/v1/power" | "/v1/mpk") => kernel_request(state, request, arrived),
        ("GET", _) => Response::text(404, "not found\n"),
        _ => Response::text(405, "method not allowed\n"),
    }
}

fn kernel_request(state: &State, request: &Request, arrived: Instant) -> Response {
    let m = &state.metrics;
    let tenant = request.header("x-tenant").unwrap_or("anonymous").to_string();
    let deadline_ms = match request.header("x-deadline-ms") {
        Some(v) => match v.trim().parse::<u64>() {
            Ok(d) => d,
            Err(_) => {
                return Response::text(400, "bad X-Deadline-Ms (want milliseconds)\n");
            }
        },
        None => state.cfg.default_deadline_ms,
    };
    let queued_ms = arrived.elapsed().as_millis() as u64;
    if queued_ms >= deadline_ms {
        // Covers the degenerate `X-Deadline-Ms: 0` budget too. Expiring
        // *before* admission spends no capacity on a doomed request.
        m.inc(&m.deadline_expired);
        return Response::text(
            503,
            format!("deadline expired before execution: budget {deadline_ms} ms, queued {queued_ms} ms\n"),
        )
        .with_header("X-Fbmpk-Deadline", "expired");
    }
    let spec = match RequestSpec::parse(&request.body) {
        Ok(s) => s,
        Err(e) => return Response::text(400, format!("{e}\n")),
    };
    let canonical = spec.matrix.canonical();
    let fp_known = state.spec_fps.lock().expect("spec map").get(&canonical).copied();
    let plan_cached = fp_known.is_some_and(|fp| state.cache.peek(fp).is_some());
    let (degrade, ticket) = match state.admission.decide(&tenant, plan_cached) {
        Decision::Admit { degrade, ticket } => (degrade, ticket),
        Decision::Reject(r) => {
            m.count_shed(r.reason);
            return Response::text(429, format!("request shed: {}\n", r.reason.as_str()))
                .with_header("Retry-After", r.retry_after_s.to_string())
                .with_header("X-Fbmpk-Shed", r.reason.as_str());
        }
    };
    let started = Instant::now();
    let deadline = arrived + Duration::from_millis(deadline_ms);
    // The request-scoped fault boundary: a panic anywhere below — an
    // inspector crash, a kernel assertion, an injected fault the pool
    // did not already convert — becomes a typed 500 for THIS request.
    // The ticket, queue, cache, and pools all stay healthy.
    let outcome =
        catch_unwind(AssertUnwindSafe(|| execute(state, &request.path, &spec, deadline, degrade)));
    drop(ticket);
    let response = match outcome {
        Ok(response) => response,
        Err(payload) => {
            m.inc(&m.worker_fault);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Response::text(500, format!("worker fault: {msg}\n"))
                .with_header("X-Fbmpk-Fault", "panic")
        }
    };
    if response.status == 200 {
        state.admission.observe_service_ms(started.elapsed().as_secs_f64() * 1000.0);
    }
    response
}

/// Milliseconds left until `deadline`, zero once past it.
fn remaining_ms(deadline: Instant) -> u64 {
    deadline.saturating_duration_since(Instant::now()).as_millis() as u64
}

/// The typed 503 for a budget that ran out before the kernel started
/// (plan building and queueing behind a batch both spend budget).
fn deadline_expired_response(m: &ServeMetrics, stage: &str) -> Response {
    m.inc(&m.deadline_expired);
    Response::text(503, format!("deadline expired before {stage}\n"))
        .with_header("X-Fbmpk-Deadline", "expired")
}

fn execute(
    state: &State,
    path: &str,
    spec: &RequestSpec,
    deadline: Instant,
    degrade: bool,
) -> Response {
    let m = &state.metrics;
    let canonical = spec.matrix.canonical();
    let mut prebuilt: Option<Csr> = None;
    // Bind before matching: a guard temporary in a match scrutinee
    // lives to the end of the match, and the `None` arm re-locks.
    let fp_known = state.spec_fps.lock().expect("spec map").get(&canonical).copied();
    let fp = match fp_known {
        Some(fp) => fp,
        None => {
            let csr = spec.matrix.build();
            let fp = fingerprint(&csr);
            {
                let mut memo = state.spec_fps.lock().expect("spec map");
                if memo.len() >= SPEC_FP_CAP {
                    if let Some(victim) = memo.keys().next().cloned() {
                        memo.remove(&victim);
                    }
                }
                memo.insert(canonical, fp);
            }
            prebuilt = Some(csr);
            fp
        }
    };
    // Upgrade path: a plan degraded under pressure is rebuilt at full
    // quality once a request for it is admitted without the degrade flag.
    if !degrade {
        if let Some(entry) = state.cache.peek(fp) {
            if entry.degraded {
                state.cache.invalidate(fp);
            }
        }
    }
    let threads = state.cfg.kernel_threads;
    let matrix = spec.matrix.clone();
    let entry = match state.cache.get_or_build(fp, move || {
        let csr = prebuilt.unwrap_or_else(|| matrix.build());
        build_entry(csr, degrade, threads)
    }) {
        Ok((entry, outcome)) => {
            match outcome {
                CacheOutcome::Hit => m.inc(&m.cache_hits),
                CacheOutcome::Built => m.inc(&m.cache_misses),
                CacheOutcome::Waited => m.inc(&m.cache_singleflight_waits),
            }
            entry
        }
        Err(CacheError::NegativelyCached { detail, retry_in }) => {
            m.inc(&m.cache_negative_hits);
            m.inc(&m.plan_unavailable);
            return Response::text(503, format!("plan negatively cached: {detail}\n"))
                .with_header("Retry-After", retry_in.as_secs().max(1).to_string())
                .with_header("X-Fbmpk-Plan", "negative-cached");
        }
        Err(CacheError::BuildFailed { detail }) => {
            m.inc(&m.cache_build_failures);
            m.inc(&m.plan_unavailable);
            return Response::text(503, format!("plan build failed: {detail}\n"))
                .with_header("X-Fbmpk-Plan", "build-failed");
        }
    };
    let x = match spec.x.materialize(entry.tuned.n()) {
        Ok(x) => x,
        Err(e) => return Response::text(400, format!("{e}\n")),
    };
    if entry.degraded {
        m.inc(&m.degraded);
    }
    let tag_degraded = |r: Response| {
        if entry.degraded {
            r.with_header("X-Fbmpk-Degraded", "1")
        } else {
            r
        }
    };
    // Re-check the budget at the kernel boundary: plan building above
    // can consume an arbitrary slice of it. Past this point `/v1/spmv`
    // and `/v1/power` run to completion (mid-kernel enforcement is
    // mpk-only, via the watchdog), so an already-expired budget must be
    // refused here, not discovered by the client after the work is done.
    if remaining_ms(deadline) == 0 {
        return deadline_expired_response(m, "kernel execution (budget spent on plan build)");
    }
    match path {
        "/v1/spmv" => {
            let mut y = vec![0.0; entry.tuned.n()];
            if entry.degraded {
                entry.tuned.spmv_scalar(&x, &mut y);
            } else {
                entry.tuned.spmv(&x, &mut y);
            }
            tag_degraded(Response::text(200, render_vector(&y)))
        }
        "/v1/power" => {
            // `batch_executions` counts SpMM executions (incremented by
            // whichever request leads the batch); `batched` counts
            // requests that shared a width > 1 batch.
            let count_exec = |_width: usize| m.inc(&m.batch_executions);
            match state.batcher.power(fp, spec.k, entry.tuned.matrix(), x, &count_exec) {
                Ok(out) => {
                    if out.width > 1 {
                        m.inc(&m.batched);
                    }
                    tag_degraded(
                        Response::text(200, render_vector(&out.y))
                            .with_header("X-Fbmpk-Batch-Width", out.width.to_string()),
                    )
                }
                Err(e) => {
                    m.inc(&m.worker_fault);
                    Response::text(500, format!("worker fault: {e}\n"))
                        .with_header("X-Fbmpk-Fault", "batch-leader")
                }
            }
        }
        "/v1/mpk" => {
            // One FBMPK invocation at a time per plan: the deadline
            // override re-arms the plan's shared watchdog. Waiting for
            // the lock spends budget, so the remaining time is computed
            // after acquisition (and may already be zero).
            let _exec = entry.exec.lock().expect("plan exec lock");
            let remaining = remaining_ms(deadline);
            if remaining == 0 {
                return deadline_expired_response(m, "kernel execution (budget spent waiting)");
            }
            match entry.fbmpk.try_power_deadline(&x, spec.k, remaining) {
                Ok(y) => tag_degraded(Response::text(200, render_vector(&y))),
                Err(FbmpkError::Stalled { waited_ms, dump, .. }) => {
                    m.inc(&m.deadline_expired);
                    Response::text(
                        503,
                        format!(
                            "deadline expired after {waited_ms} ms in the kernel\n\
                             partial progress at expiry:\n{dump}"
                        ),
                    )
                    .with_header("X-Fbmpk-Deadline", "expired")
                }
                Err(e @ FbmpkError::WorkerPanicked { .. }) => {
                    m.inc(&m.worker_fault);
                    Response::text(500, format!("worker fault: {e}\n"))
                        .with_header("X-Fbmpk-Fault", "worker-panic")
                }
                Err(e) => Response::text(400, format!("{e}\n")),
            }
        }
        other => Response::text(404, format!("unknown kernel route {other}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{kernel_body, parse_vector, request};

    fn tiny_server() -> Server {
        Server::start(ServeConfig {
            kernel_threads: 1,
            handlers: 2,
            queue_cap: 8,
            ..Default::default()
        })
        .expect("bind")
    }

    const T: Duration = Duration::from_secs(10);

    #[test]
    fn build_entry_terminates() {
        let csr = fbmpk_gen::poisson::grid2d_5pt(4, 4);
        let e = build_entry(csr, false, 1).unwrap();
        assert!(!e.degraded);
    }

    #[test]
    fn health_stats_and_404() {
        let mut server = tiny_server();
        let addr = server.local_addr();
        assert_eq!(request(addr, "GET", "/healthz", &[], "", T).unwrap().status, 200);
        let stats = request(addr, "GET", "/v1/stats", &[], "", T).unwrap();
        assert_eq!(stats.status, 200);
        assert!(stats.body.contains("fbmpk_serve_requests_total"));
        assert_eq!(request(addr, "GET", "/nope", &[], "", T).unwrap().status, 404);
        assert_eq!(request(addr, "PUT", "/v1/power", &[], "", T).unwrap().status, 405);
        server.shutdown();
    }

    #[test]
    fn power_round_trip_and_cache_reuse() {
        let mut server = tiny_server();
        let addr = server.local_addr();
        let body = kernel_body("grid:6:6", 2, "seed:3");
        let first = request(addr, "POST", "/v1/power", &[("X-Tenant", "t1")], &body, T).unwrap();
        assert_eq!(first.status, 200, "{}", first.body);
        let y1 = parse_vector(&first.body).unwrap();
        assert_eq!(y1.len(), 36);
        let second = request(addr, "POST", "/v1/power", &[("X-Tenant", "t2")], &body, T).unwrap();
        assert_eq!(second.status, 200);
        assert_eq!(parse_vector(&second.body).unwrap(), y1, "identical request, identical bits");
        let snap = server.metrics().snapshot();
        assert_eq!(snap.cache_misses, 1, "one inspection for two requests");
        assert!(snap.cache_hits >= 1);
        server.shutdown();
    }

    #[test]
    fn mpk_and_spmv_agree_with_power_for_k1() {
        let mut server = tiny_server();
        let addr = server.local_addr();
        let body = kernel_body("grid:5:4", 1, "seed:9");
        let spmv = request(addr, "POST", "/v1/spmv", &[], &body, T).unwrap();
        let power = request(addr, "POST", "/v1/power", &[], &body, T).unwrap();
        let mpk = request(addr, "POST", "/v1/mpk", &[], &body, T).unwrap();
        assert_eq!((spmv.status, power.status, mpk.status), (200, 200, 200), "{}", mpk.body);
        let (ys, yp, ym) = (
            parse_vector(&spmv.body).unwrap(),
            parse_vector(&power.body).unwrap(),
            parse_vector(&mpk.body).unwrap(),
        );
        let close = |a: &[f64], b: &[f64]| {
            a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-12 * y.abs().max(1.0))
        };
        assert!(close(&ys, &yp), "spmv vs power");
        assert!(close(&ym, &yp), "mpk vs power");
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400() {
        let mut server = tiny_server();
        let addr = server.local_addr();
        for body in ["matrix=mystery:1", "matrix=grid:0:0", "k=2", "matrix=grid:4:4\nk=junk"] {
            let r = request(addr, "POST", "/v1/power", &[], body, T).unwrap();
            assert_eq!(r.status, 400, "{body:?} → {}", r.body);
        }
        let r = request(
            addr,
            "POST",
            "/v1/power",
            &[("X-Deadline-Ms", "soon")],
            &kernel_body("grid:4:4", 1, "ones"),
            T,
        )
        .unwrap();
        assert_eq!(r.status, 400);
        // Wrong-length explicit vector.
        let r = request(addr, "POST", "/v1/power", &[], "matrix=grid:4:4\nx=1,2,3\n", T).unwrap();
        assert_eq!(r.status, 400);
        server.shutdown();
    }

    #[test]
    fn zero_deadline_is_typed_503_and_cache_survives() {
        let mut server = tiny_server();
        let addr = server.local_addr();
        let body = kernel_body("grid:6:5", 2, "ones");
        // Warm the cache.
        assert_eq!(request(addr, "POST", "/v1/mpk", &[], &body, T).unwrap().status, 200);
        let r = request(addr, "POST", "/v1/mpk", &[("X-Deadline-Ms", "0")], &body, T).unwrap();
        assert_eq!(r.status, 503, "{}", r.body);
        assert_eq!(r.header("x-fbmpk-deadline"), Some("expired"));
        assert!(r.body.contains("deadline expired"), "{}", r.body);
        // The cache still serves.
        let ok = request(addr, "POST", "/v1/mpk", &[], &body, T).unwrap();
        assert_eq!(ok.status, 200);
        assert_eq!(server.metrics().snapshot().deadline_expired, 1);
        server.shutdown();
    }

    /// Sends raw bytes (optionally closing the write side early) and
    /// returns the answered status — the listener may reject
    /// mid-request, so the client half tolerates transport errors.
    fn raw_status(addr: SocketAddr, raw: &[u8], close_write: bool) -> Option<u16> {
        use std::io::{Read, Write};
        let mut stream = TcpStream::connect(addr).unwrap();
        let _ = stream.write_all(raw);
        if close_write {
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        crate::client::parse_response(&response).map(|r| r.status)
    }

    #[test]
    fn malformed_requests_get_a_typed_400() {
        // One corpus, both listeners: the metrics endpoint and the
        // serving listener share one reader, so they must agree.
        static REG: std::sync::OnceLock<fbmpk_obs::LiveRegistry> = std::sync::OnceLock::new();
        let reg = REG.get_or_init(fbmpk_obs::LiveRegistry::new);
        let endpoint =
            fbmpk_obs::MetricsServer::start("127.0.0.1:0".parse().unwrap(), reg).expect("bind");
        let mut server = tiny_server();
        let oversized = vec![b'A'; crate::http::MAX_HEAD_BYTES];
        let corpus: [(&str, &[u8], bool, u16); 6] = [
            ("garbage request line", b"not http at all\r\n\r\n", false, 400),
            ("incomplete head, then EOF", b"GET /metrics HTTP/1.1\r\n", true, 400),
            ("fourth request-line token", b"GET /metrics HTTP/1.1 x\r\n\r\n", false, 400),
            ("header without a colon", b"GET /metrics HTTP/1.1\r\nno colon\r\n\r\n", false, 400),
            ("non-UTF-8 header", b"GET /metrics HTTP/1.1\r\nX-A: \xff\xfe\r\n\r\n", false, 400),
            ("oversized head", &oversized, true, 413),
        ];
        for (what, raw, close_write, want) in corpus {
            for addr in [endpoint.local_addr(), server.local_addr()] {
                assert_eq!(raw_status(addr, raw, close_write), Some(want), "{what} on {addr}");
            }
        }
        assert_eq!(server.metrics().snapshot().bad_request, corpus.len() as u64);
        server.shutdown();
    }

    #[test]
    fn serving_families_reach_an_attached_endpoint() {
        let endpoint = fbmpk_obs::MetricsServer::start(
            "127.0.0.1:0".parse().unwrap(),
            fbmpk_obs::live::global(),
        )
        .expect("bind");
        let mut server = tiny_server();
        let addr = server.local_addr();
        let id = server.metrics().id.to_string();
        assert_eq!(request(addr, "GET", "/healthz", &[], "", T).unwrap().status, 200);
        assert_eq!(request(addr, "GET", "/nope", &[], "", T).unwrap().status, 404);
        let scrape = || {
            let body = fbmpk_obs::serve::scrape(endpoint.local_addr(), T).expect("scrape");
            fbmpk_obs::expo::parse(&body).expect("valid exposition")
        };
        let doc = scrape();
        let value = |name: &str| doc.value(name, &[("server", id.as_str())]);
        assert_eq!(value("fbmpk_serve_requests_total"), Some(2.0));
        assert_eq!(value("fbmpk_serve_ok_total"), Some(1.0));
        assert_eq!(value("fbmpk_serve_not_found_total"), Some(1.0));
        assert_eq!(value("fbmpk_serve_batch_executions_total"), Some(0.0));
        // A stopped server drops out of later scrapes.
        server.shutdown();
        drop(server);
        let doc = scrape();
        assert_eq!(doc.value("fbmpk_serve_requests_total", &[("server", id.as_str())]), None);
    }
}
