//! The served workload `serve-mixed`: an in-process `fbmpk_serve::Server`
//! (2 handlers, 2 kernel threads) over loopback, driven open-loop at a
//! frozen Poisson rate and then closed-loop, with a route and body mix
//! over two hot matrix specs.
//!
//! Every response body is parsed and checked against a reference the
//! benchmark computed with `StandardMpk` before anything was timed.

use std::fmt::Write as _;
use std::io::{Read, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use fbmpk::{StandardMpk, SyncMode, TuneOptions, TunedPlan};
use fbmpk_serve::client::{kernel_body, parse_vector, request, ClientResponse};
use fbmpk_serve::http::render_vector;
use fbmpk_serve::spec::{MatrixSpec, RequestSpec, XSpec};
use fbmpk_serve::{ServeConfig, Server};
use fbmpk_sparse::spmm::{block_power, MultiVec};
use fbmpk_sparse::Csr;

use crate::host::{self, timed, SplitMix};
use crate::mpk::THREADS;
use crate::report::{geomean, median, percentile, Checker, Metrics};

/// The two hot matrices: a banded FEM-like operator and a power-law graph.
const SPECS: [&str; 2] = ["banded:50000:40:500:1", "rmat:15:16:1"];
/// Power of `/v1/power` and `/v1/mpk` (even, so FBMPK runs no tail step).
const K: usize = 8;
/// Input vectors per spec; a body draws one of them.
const POOL: usize = 8;
/// Client threads, each with at most one connection open.
const CLIENTS: usize = 2;
/// Open-loop arrival rate, frozen: half the closed-loop capacity
/// (2 connections, same mix) measured when this benchmark was defined,
/// on a 2-vCPU host. A faster server is offered the same load, never more.
const RATE_RPS: f64 = 10.0;
/// Open-loop requests at least (32 s at the frozen rate): p95 then has
/// 16 samples beyond it.
const OPEN_MIN: usize = 320;
/// Seed of the request path (arrival gaps and request order), fixed:
/// with a few hundred arrivals p95 follows which bursts a path happens
/// to hold, so a path drawn from `--seed` would move it by itself, as a
/// re-derived rate would. `--seed` picks the vectors, so bodies and
/// answers still change with it.
const PATH_SEED: u64 = 0x0B5E_55ED;
/// Calls per [`Catalog::probe_ms`]; it takes their median.
const PROBE_CALLS: usize = 5;
/// Median [`request_probe`] time on the sized host, in ms: the host speed
/// the end-to-end metrics are reported at.
const REFERENCE_PROBE_MS: f64 = 37.5;
/// Closed-loop phase length as a share of `--seconds`.
const CLOSED_SHARE: f64 = 0.5;
/// Server starts per run; `setup_s` takes the median.
const SETUP_REPS: usize = 3;
/// Request shapes in the traced run's unloaded phase.
const UNLOADED: usize = 40;
/// Largest tolerated share of unloaded request time that the timed
/// layers (parse, kernel, render, transport) leave unexplained.
const LEDGER_TOLERANCE: f64 = 0.25;
const TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Power,
    Mpk,
    Spmv,
}

impl Route {
    fn path(self) -> &'static str {
        match self {
            Route::Power => "/v1/power",
            Route::Mpk => "/v1/mpk",
            Route::Spmv => "/v1/spmv",
        }
    }
}

/// One request of the mix.
#[derive(Debug, Clone, Copy)]
struct Shape {
    route: Route,
    spec: usize,
    vector: usize,
    /// Explicit `x=` values (parse-heavy) rather than `x=seed:S`.
    explicit: bool,
}

/// Requests per deck: the mix holds exactly in every deck.
const DECK: usize = 20;

impl Shape {
    /// One deck of the mix in seeded order: 50% `/v1/power`, 30%
    /// `/v1/mpk`, 20% `/v1/spmv`, alternating specs and body forms, and
    /// a seeded vector per request. Exact proportions per deck keep a
    /// run's percentiles from following the sampled route shares.
    fn deck(rng: &mut SplitMix) -> [Shape; DECK] {
        let mut deck = std::array::from_fn(|i| Shape {
            route: match i * 10 / DECK {
                0..=4 => Route::Power,
                5..=7 => Route::Mpk,
                _ => Route::Spmv,
            },
            spec: i % 2,
            explicit: (i / 2) % 2 == 1,
            vector: (rng.next_u64() % POOL as u64) as usize,
        });
        for i in (1..DECK).rev() {
            deck.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        deck
    }

    /// `count` requests: whole decks, cut to length.
    fn mix(rng: &mut SplitMix, count: usize) -> Vec<Shape> {
        let mut out: Vec<Shape> = Vec::with_capacity(count + DECK);
        while out.len() < count {
            out.extend(Shape::deck(rng));
        }
        out.truncate(count);
        out
    }
}

/// Request bodies and the answers they must get, built before timing.
struct Catalog {
    nnz: [usize; 2],
    /// `[spec][vector][explicit as usize]`.
    bodies: Vec<Vec<[String; 2]>>,
    /// `Aᴷx` per `[spec][vector]`.
    want_k: Vec<Vec<Vec<f64>>>,
    /// `Ax` per `[spec][vector]`.
    want_1: Vec<Vec<Vec<f64>>>,
    /// The first spec's matrix and its first vector's explicit values:
    /// the input of [`request_probe`].
    probe: Option<(Csr, String)>,
}

impl Catalog {
    fn new(seed: u64) -> Result<Catalog, String> {
        let mut cat = Catalog {
            nnz: [0; 2],
            bodies: Vec::new(),
            want_k: Vec::new(),
            want_1: Vec::new(),
            probe: None,
        };
        for (s, spec) in SPECS.iter().enumerate() {
            let a = MatrixSpec::parse(spec)?.build();
            cat.nnz[s] = a.nnz();
            println!("input {spec}: rows {} nnz {}", a.nrows(), a.nnz());
            let std = StandardMpk::new(&a, THREADS).map_err(|e| e.to_string())?;
            let (mut bodies, mut want_k, mut want_1) = (vec![], vec![], vec![]);
            let mut first = String::new();
            for v in 0..POOL {
                let xseed = seed.wrapping_mul(POOL as u64).wrapping_add(v as u64);
                let x = XSpec::Seed(xseed).materialize(a.nrows())?;
                let values: Vec<String> = x.iter().map(f64::to_string).collect();
                let explicit = values.join(",");
                bodies.push([
                    kernel_body(spec, K, &format!("seed:{xseed}")),
                    kernel_body(spec, K, &explicit),
                ]);
                want_k.push(std.power(&x, K));
                want_1.push(std.power(&x, 1));
                if v == 0 {
                    first = explicit;
                }
            }
            cat.bodies.push(bodies);
            cat.want_k.push(want_k);
            cat.want_1.push(want_1);
            if s == 0 {
                cat.probe = Some((a, first));
            }
        }
        Ok(cat)
    }

    /// Median [`request_probe`] time over [`PROBE_CALLS`] calls, in ms.
    fn probe_ms(&self, ck: &mut Checker) -> Result<f64, String> {
        let (a, values) = self.probe.as_ref().expect("the catalog holds the first spec");
        let times = (0..PROBE_CALLS)
            .map(|_| request_probe(a, values, &self.want_k[0][0], ck))
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(median(&times) * 1e3)
    }

    fn body(&self, sh: Shape) -> &str {
        &self.bodies[sh.spec][sh.vector][sh.explicit as usize]
    }

    fn want(&self, sh: Shape) -> &[f64] {
        match sh.route {
            Route::Spmv => &self.want_1[sh.spec][sh.vector],
            Route::Power | Route::Mpk => &self.want_k[sh.spec][sh.vector],
        }
    }
}

/// One answered (or refused) request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    shape: Shape,
    /// From the scheduled send to the last response byte; `+∞` unless a
    /// checked 200.
    latency: f64,
    /// How late the client sent, relative to schedule.
    late: f64,
    status: u16,
}

/// Sends `shape` and checks the answer. `due` is when it was scheduled.
fn send(addr: SocketAddr, cat: &Catalog, shape: Shape, due: Instant, ck: &mut Checker) -> Sample {
    let sent = Instant::now();
    let resp = request(addr, "POST", shape.route.path(), &[], cat.body(shape), TIMEOUT);
    let elapsed = due.elapsed().as_secs_f64();
    let late = sent.saturating_duration_since(due).as_secs_f64();
    let what = || format!("{} {}", shape.route.path(), SPECS[shape.spec]);
    let (ok, status) = match resp {
        Ok(ClientResponse { status: 200, body, .. }) => match parse_vector(&body) {
            Ok(y) => (ck.check(&what(), &y, cat.want(shape)), 200),
            Err(e) => {
                ck.fail(|| format!("{}: {e}", what()));
                (false, 200)
            }
        },
        Ok(r) => {
            ck.fail(|| format!("{}: HTTP {} {}", what(), r.status, r.body.trim()));
            (false, r.status)
        }
        Err(e) => {
            ck.fail(|| format!("{}: {e}", what()));
            (false, 0)
        }
    };
    Sample { shape, latency: if ok { elapsed } else { f64::INFINITY }, late, status }
}

/// The host-speed probe of `serve-mixed`, in seconds: a stand-in for one
/// served request built from the benchmark's own code. The comma-separated
/// `values` go over a loopback connection to a thread that parses them,
/// computes `Aᴷx` with [`host::reference_power`] and renders the result,
/// which the caller reads back, parses and checks against `want`. It runs
/// no library code, so no change to the program moves it, while it pays
/// what a served request pays for the host: text parsing and rendering,
/// the kernel's memory traffic, a thread hand-off and loopback transfers.
fn request_probe(a: &Csr, values: &str, want: &[f64], ck: &mut Checker) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("request probe: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    std::thread::scope(|s| {
        let peer = s.spawn(move || -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            let mut text = String::new();
            conn.read_to_string(&mut text)?;
            let x: Vec<f64> =
                text.split(',').map(|v| v.trim().parse().unwrap_or(f64::NAN)).collect();
            let y = host::reference_power(a, &x, K);
            let mut out = String::with_capacity(24 * y.len());
            for v in &y {
                let _ = writeln!(out, "{v}");
            }
            conn.write_all(out.as_bytes())
        });
        let t0 = Instant::now();
        let mut text = String::new();
        let sent = (|| -> std::io::Result<()> {
            let mut conn = TcpStream::connect(addr)?;
            conn.write_all(values.as_bytes())?;
            conn.shutdown(Shutdown::Write)?;
            conn.read_to_string(&mut text)?;
            Ok(())
        })();
        let dt = t0.elapsed().as_secs_f64();
        let served = peer.join().map_err(|_| "request probe thread panicked".to_string())?;
        sent.and(served).map_err(io)?;
        let y: Vec<f64> = text.lines().map(|l| l.parse().unwrap_or(f64::NAN)).collect();
        ck.check("request probe", &y, want);
        Ok(dt)
    })
}

/// Runs `CLIENTS` threads that each take the next index from a shared
/// counter and call `one(i)` until it returns `None`.
fn clients(
    ck: &mut Checker,
    one: impl Fn(usize, &mut Checker) -> Option<Sample> + Sync,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let per_thread: Vec<(Vec<Sample>, Checker)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let (mut out, mut ck) = (Vec::new(), Checker::default());
                    while let Some(sample) = one(next.fetch_add(1, Ordering::Relaxed), &mut ck) {
                        out.push(sample);
                    }
                    (out, ck)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut all = Vec::new();
    for (samples, c) in per_thread {
        all.extend(samples);
        ck.merge(c);
    }
    all
}

/// Open loop: Poisson arrivals at [`RATE_RPS`], `count` of them.
fn open_loop(
    addr: SocketAddr,
    cat: &Catalog,
    rng: &mut SplitMix,
    count: usize,
    ck: &mut Checker,
) -> Vec<Sample> {
    let mut t = 0.0;
    let schedule: Vec<(f64, Shape)> = Shape::mix(rng, count)
        .into_iter()
        .map(|shape| {
            t += -(1.0 - rng.next_f64()).ln() / RATE_RPS;
            (t, shape)
        })
        .collect();
    let start = Instant::now();
    clients(ck, |i, ck| {
        let &(at, shape) = schedule.get(i)?;
        let due = start + Duration::from_secs_f64(at);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        Some(send(addr, cat, shape, due, ck))
    })
}

/// Closed loop: each client sends its next request when the previous
/// one is answered, for `seconds`. Returns the samples and the phase's
/// wall time.
fn closed_loop(
    addr: SocketAddr,
    cat: &Catalog,
    rng: &mut SplitMix,
    seconds: f64,
    ck: &mut Checker,
) -> (Vec<Sample>, f64) {
    // More shapes than the phase can use; clients stop at the deadline.
    let shapes = Shape::mix(rng, 10_000);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let samples = clients(ck, |i, ck| {
        if Instant::now() >= end {
            return None;
        }
        Some(send(addr, cat, *shapes.get(i)?, Instant::now(), ck))
    });
    (samples, start.elapsed().as_secs_f64())
}

/// Starts a server and sends the first, plan-building request for each
/// hot spec. Returns the server, the set-up time and the cold latencies.
fn start(cat: &Catalog, ck: &mut Checker) -> Result<(Server, f64, Vec<f64>), String> {
    let t0 = Instant::now();
    let cfg = ServeConfig { kernel_threads: THREADS, handlers: 2, ..Default::default() };
    let server = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
    let cold: Vec<f64> = (0..SPECS.len())
        .map(|spec| {
            let shape = Shape { route: Route::Spmv, spec, vector: 0, explicit: false };
            send(server.local_addr(), cat, shape, Instant::now(), ck).latency
        })
        .collect();
    Ok((server, t0.elapsed().as_secs_f64(), cold))
}

/// `k·nnz` over the median latency of checked 200s of `route`, geomean
/// over the specs, in 10⁹ nnz/s.
fn served_rate(samples: &[Sample], cat: &Catalog, route: Route) -> f64 {
    let rates: Vec<f64> = (0..SPECS.len())
        .map(|spec| {
            let lat: Vec<f64> = samples
                .iter()
                .filter(|s| s.shape.route == route && s.shape.spec == spec && s.status == 200)
                .map(|s| s.latency)
                .collect();
            if lat.is_empty() {
                0.0
            } else {
                (K * cat.nnz[spec]) as f64 / median(&lat) / 1e9
            }
        })
        .collect();
    geomean(&rates)
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency).collect()
}

/// Open-loop requests for a run of `seconds`.
fn open_count(seconds: f64) -> usize {
    ((RATE_RPS * seconds).ceil() as usize).max(OPEN_MIN)
}

/// The untraced run: end-to-end metrics only.
///
/// Rates and latencies are reported at the sized host's speed: divided
/// (latencies: multiplied) by [`REFERENCE_PROBE_MS`] over the median of
/// the probe times taken, with the server idle, before the open loop,
/// between the loops and after the closed loop. A single probe point
/// misses hosts that change state within a run.
pub fn run(seed: u64, seconds: f64, ck: &mut Checker) -> Result<Metrics, String> {
    let cat = Catalog::new(seed)?;
    let (server, first_setup, _) = start(&cat, ck)?;
    let addr = server.local_addr();
    let mut rng = SplitMix(PATH_SEED);
    let mut probes = vec![cat.probe_ms(ck)?];
    let open = open_loop(addr, &cat, &mut rng, open_count(seconds), ck);
    probes.push(cat.probe_ms(ck)?);
    let (closed, closed_s) = closed_loop(addr, &cat, &mut rng, seconds * CLOSED_SHARE, ck);
    probes.push(cat.probe_ms(ck)?);
    drop(server);
    // Read before the extra set-ups: freed plans of earlier servers stay
    // in the allocator, so one server's lifetime is what a user sees.
    let peak_rss_mb = host::peak_rss_mb();
    let mut setups = vec![first_setup];
    for _ in 1..SETUP_REPS {
        setups.push(start(&cat, ck)?.1);
    }
    let ok_closed = closed.iter().filter(|s| s.status == 200).count();
    let lat = latencies(&open);
    let speed = REFERENCE_PROBE_MS / median(&probes);
    println!(
        "host speed: request probe {:.2} / {:.2} / {:.2} ms = {speed:.3}x the sized host; the open-loop and closed-loop figures below are raw",
        probes[0], probes[1], probes[2]
    );
    println!(
        "open loop: {} requests at {RATE_RPS} rps, p50 {:.2} ms, p95 {:.2} ms ({} samples beyond p95); closed loop: {ok_closed} 200s in {closed_s:.2} s",
        open.len(),
        median(&lat) * 1e3,
        percentile(&lat, 95.0) * 1e3,
        open.len() - (0.95 * open.len() as f64).ceil() as usize,
    );
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups));
    m.put("peak_rss_mb", peak_rss_mb);
    m.put("fbmpk_gnnz_s", served_rate(&open, &cat, Route::Mpk) / speed);
    m.put("standard_gnnz_s", served_rate(&open, &cat, Route::Power) / speed);
    m.put("serve_p50_ms", median(&lat) * 1e3 * speed);
    m.put("serve_p95_ms", percentile(&lat, 95.0) * 1e3 * speed);
    m.put("serve_max_rps", ok_closed as f64 / closed_s / speed);
    Ok(m)
}

/// The server-side plan for one spec, built from outside the way the
/// server builds it, with each step timed.
struct OutsidePlan {
    a: Csr,
    tuned: TunedPlan,
    fbmpk: fbmpk::FbmpkPlan,
    inspect_s: f64,
    select_s: f64,
    build_s: f64,
}

fn outside_plan(spec: &str) -> Result<OutsidePlan, String> {
    let a = MatrixSpec::parse(spec)?.build();
    let options = TuneOptions {
        nthreads: THREADS,
        probe: true,
        sync: SyncMode::PointToPoint,
        ..Default::default()
    };
    let (tuned, inspect_s) = timed(|| TunedPlan::new(&a, options));
    // The server asks for 4 blocks per kernel thread.
    let nblocks = (THREADS * 4).min(a.nrows());
    let (_, select_s) = timed(|| tuned.blocking_strategy(nblocks));
    let (fbmpk, build_s) = timed(|| tuned.fbmpk_plan_auto(nblocks));
    let fbmpk = fbmpk.map_err(|e| format!("{spec}: {e}"))?;
    Ok(OutsidePlan { a, tuned, fbmpk, inspect_s, select_s, build_s })
}

/// Parse, kernel and render seconds of one request, replayed from
/// outside the server on `plans`.
fn replay(
    cat: &Catalog,
    plans: &[OutsidePlan],
    sh: Shape,
    ck: &mut Checker,
) -> Result<[f64; 3], String> {
    let p = &plans[sh.spec];
    let (x, parse_s) = timed(|| -> Result<Vec<f64>, String> {
        let spec = RequestSpec::parse(cat.body(sh))?;
        spec.x.materialize(p.a.nrows())
    });
    let x = x?;
    let (y, kernel_s) = timed(|| -> Result<Vec<f64>, String> {
        Ok(match sh.route {
            Route::Power => block_power(&p.a, &MultiVec::from_columns(&[x]), K).column(0),
            Route::Mpk => p.fbmpk.try_power_deadline(&x, K, 10_000).map_err(|e| e.to_string())?,
            Route::Spmv => {
                let mut y = vec![0.0; x.len()];
                p.tuned.spmv(&x, &mut y);
                y
            }
        })
    });
    let y = y?;
    ck.check(&format!("replayed {} {}", sh.route.path(), SPECS[sh.spec]), &y, cat.want(sh));
    let (text, render_s) = timed(|| render_vector(&y));
    std::hint::black_box(text);
    Ok([parse_s, kernel_s, render_s])
}

/// The traced run: per-layer metrics from server counters, the load
/// generator, and calls into each serving layer's public functions.
pub fn run_traced(seed: u64, seconds: f64, ck: &mut Checker) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let triad = host::triad_gbs(4 * fbmpk::probe_llc_bytes() as usize, THREADS, 5);
    m.put("bench.roofline.triad_gbs", triad);
    let cat = Catalog::new(seed)?;
    let (server, _, cold) = start(&cat, ck)?;
    let addr = server.local_addr();
    let mut rng = SplitMix(PATH_SEED);
    let open = open_loop(addr, &cat, &mut rng, open_count(seconds), ck);

    // Unloaded: one request at a time. Each shape goes out twice, with
    // and without the load generator's span log (order alternating), and
    // once more to a route that does no work, which prices the loopback
    // transport of its body.
    let shapes = Shape::mix(&mut rng, UNLOADED);
    let mut spans: Vec<(Shape, Instant, Instant)> = Vec::with_capacity(UNLOADED);
    let (mut plain, mut ratios, mut transport) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &sh) in shapes.iter().enumerate() {
        let mut pair = [0.0; 2];
        for traced in [i % 2 == 0, i % 2 == 1] {
            let due = Instant::now();
            let s = send(addr, &cat, sh, due, ck);
            if traced {
                spans.push((sh, due, Instant::now()));
            }
            pair[traced as usize] = s.latency;
        }
        plain.push(pair[0]);
        ratios.push(pair[1] / pair[0]);
        let (resp, dt) = timed(|| request(addr, "POST", "/v1/none", &[], cat.body(sh), TIMEOUT));
        match resp {
            Ok(r) if r.status == 405 => transport.push(dt),
            other => return Err(format!("transport probe: expected 405, got {other:?}")),
        }
    }
    std::hint::black_box(spans);
    let stats = server.metrics().snapshot();
    drop(server);

    let plans = SPECS.iter().map(|s| outside_plan(s)).collect::<Result<Vec<_>, _>>()?;
    let mut layers = Vec::with_capacity(UNLOADED);
    for &sh in &shapes {
        layers.push(replay(&cat, &plans, sh, ck)?);
    }
    let per_route = |route: Route| {
        let t: Vec<f64> = shapes
            .iter()
            .zip(&layers)
            .filter(|(s, _)| s.route == route)
            .map(|(_, l)| l[1])
            .collect();
        if t.is_empty() {
            0.0
        } else {
            median(&t) * 1e3
        }
    };
    let mean = |j: usize| layers.iter().map(|l| l[j]).sum::<f64>() / layers.len() as f64;
    let transport_s: f64 = transport.iter().sum();
    let attributed = layers.iter().map(|l| l.iter().sum::<f64>()).sum::<f64>() + transport_s;
    let measured: f64 = plain.iter().sum();
    let residual = (measured - attributed) / measured;
    let total = |j: usize| layers.iter().map(|l| l[j]).sum::<f64>() * 1e3;
    println!(
        "ledger: {UNLOADED} unloaded requests {:.1} ms = parse {:.1} + kernel {:.1} + render {:.1} + transport {:.1} ms + residual {:+.1}%",
        measured * 1e3,
        total(0),
        total(1),
        total(2),
        transport_s * 1e3,
        residual * 100.0
    );

    let lat = latencies(&open);
    // `/v1/power` requests the server saw: open loop plus unloaded phase.
    let power_requests = open.iter().filter(|s| s.shape.route == Route::Power).count()
        + 2 * shapes.iter().filter(|s| s.route == Route::Power).count();
    let mean_width = power_requests as f64 / stats.batch_executions.max(1) as f64;
    let lookups = stats.cache_hits + stats.cache_misses + stats.cache_singleflight_waits;
    let shed = open.iter().filter(|s| s.status == 429).count();
    m.put("bench.trace_overhead_frac", median(&ratios) - 1.0);
    m.put("bench.unattributed_frac", residual);
    m.put("serve.http.parse_ms", mean(0) * 1e3);
    m.put("serve.http.render_ms", mean(2) * 1e3);
    m.put("serve.kernel.power_ms", per_route(Route::Power));
    m.put("serve.kernel.mpk_ms", per_route(Route::Mpk));
    m.put("serve.kernel.spmv_ms", per_route(Route::Spmv));
    m.put("serve.kernel.power_matrix_reads", K as f64 / mean_width);
    m.put("serve.batch.mean_width", mean_width);
    m.put("serve.plancache.hit_ratio", stats.cache_hits as f64 / lookups.max(1) as f64);
    m.put("serve.plancache.cold_ms", cold.iter().sum::<f64>() * 1e3);
    m.put("core.tune.inspect_s", plans.iter().map(|p| p.inspect_s).sum());
    m.put("reorder.partition.select_s", plans.iter().map(|p| p.select_s).sum());
    m.put("core.plan.tuned_build_s", plans.iter().map(|p| p.build_s).sum());
    m.put("serve.admission.shed", shed as f64);
    m.put("serve.admission.queue_wait_ms", (median(&lat) - median(&plain)) * 1e3);
    m.put(
        "bench.loadgen.late_p95_ms",
        percentile(&open.iter().map(|s| s.late).collect::<Vec<_>>(), 95.0) * 1e3,
    );
    if residual.abs() > LEDGER_TOLERANCE {
        return Err(format!(
            "ledger self-check failed: {:.1}% of unloaded request time is unattributed (tolerance {:.0}%)",
            residual * 100.0,
            LEDGER_TOLERANCE * 100.0
        ));
    }
    Ok(m)
}
