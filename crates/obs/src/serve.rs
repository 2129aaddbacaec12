//! The metrics endpoint: a tiny blocking HTTP/1.1 listener over
//! [`std::net::TcpListener`] — zero dependencies, one named thread,
//! one connection at a time. That is deliberate: a scrape every second
//! from one Prometheus (or one `repro top`) is the design load, and a
//! single-threaded accept loop cannot amplify into anything that
//! perturbs the sweep workers it is observing. Requests are read and
//! answered through the shared bounded [`crate::http`] module.
//!
//! Lifecycle: [`MetricsServer::start`] binds (port 0 picks a free port,
//! see [`MetricsServer::local_addr`]), flips the [`crate::live`] gate on,
//! and serves `GET /metrics` until [`MetricsServer::shutdown`] or process
//! exit. Shutdown sets a flag and self-connects to unblock `accept`.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::expo;
use crate::http::{self, read_request, Request, Response};
use crate::live::{self, LiveRegistry};

/// A running exposition endpoint.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` and serves `registry` on a background thread. Flips
    /// the live-telemetry gate on so instrumentation sites start feeding
    /// the cells. `addr` may name port 0 to pick any free port.
    pub fn start(addr: SocketAddr, registry: &'static LiveRegistry) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        live::set_enabled(true);
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("fbmpk-metrics".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // A stuck scraper must not wedge the endpoint.
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
                    let _ = serve_one(stream, registry);
                }
            })
            .expect("spawn metrics thread");
        Ok(MetricsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (the resolved port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread. Does not flip the
    /// live gate back off: cells may still have other consumers (an
    /// in-process dashboard) and stale `true` only costs the counters.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // Unblock accept() with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Handles one connection: read the request, route, respond, close
/// (`Connection: close` — scrapers reconnect per poll). Every failure
/// mode gets a typed answer before the close: an oversized head is 413,
/// a broken request is 400, and so is a request that never completes
/// (EOF or read timeout before the header terminator) — never a silently
/// dropped connection the client has to time out against.
fn serve_one(mut stream: TcpStream, registry: &LiveRegistry) -> std::io::Result<()> {
    let response = match read_request(&mut stream) {
        Ok(req) => route(&req, registry),
        Err(e) => e
            .response()
            .unwrap_or_else(|| Response::text(400, "malformed request: incomplete head\n")),
    };
    response.write(&mut stream)
}

fn route(req: &Request, registry: &LiveRegistry) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => Response {
            content_type: expo::CONTENT_TYPE,
            ..Response::text(200, expo::render(&registry.snapshot()))
        },
        ("GET", "/") => Response::text(200, "fbmpk metrics endpoint; scrape /metrics\n"),
        ("GET", _) => Response::text(404, "not found\n"),
        _ => Response::text(405, "GET only\n"),
    }
}

/// Fetches `http://addr/metrics` through the shared client and returns
/// the body — the scraper half used by `repro top` and the smoke tests.
pub fn scrape(addr: SocketAddr, timeout: Duration) -> std::io::Result<String> {
    let response = http::request(addr, "GET", "/metrics", &[], "", timeout)?;
    if response.status != 200 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("scrape failed: status {}", response.status),
        ));
    }
    Ok(response.body)
}

/// Starts the process-global endpoint on `addr` exactly once and leaks it
/// for process lifetime (plans come and go; the endpoint stays). Returns
/// the bound address, or the first call's address on later calls.
pub fn ensure_global(addr: SocketAddr) -> std::io::Result<SocketAddr> {
    use std::sync::OnceLock;
    static GLOBAL: OnceLock<std::io::Result<SocketAddr>> = OnceLock::new();
    let res = GLOBAL.get_or_init(|| {
        let server = MetricsServer::start(addr, live::global())?;
        let bound = server.local_addr();
        // Deliberate leak: serve until process exit.
        std::mem::forget(server);
        eprintln!("fbmpk: serving metrics on {bound}");
        Ok(bound)
    });
    match res {
        Ok(a) => Ok(*a),
        Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_and_scrape() {
        // A local registry, an ephemeral port, one scrape.
        static REG: std::sync::OnceLock<LiveRegistry> = std::sync::OnceLock::new();
        let reg = REG.get_or_init(LiveRegistry::new);
        reg.counter("fbmpk_serve_test_total", "t", 1).add(0, 42);
        let mut server = MetricsServer::start("127.0.0.1:0".parse().unwrap(), reg).expect("bind");
        let body = scrape(server.local_addr(), Duration::from_secs(5)).expect("scrape");
        let doc = expo::parse(&body).expect("valid exposition");
        assert_eq!(doc.value("fbmpk_serve_test_total", &[]), Some(42.0));
        server.shutdown();
    }

    #[test]
    fn routes_and_content_types() {
        static REG: std::sync::OnceLock<LiveRegistry> = std::sync::OnceLock::new();
        let reg = REG.get_or_init(LiveRegistry::new);
        let server = MetricsServer::start("127.0.0.1:0".parse().unwrap(), reg).expect("bind");
        let get = |method: &str, path: &str| {
            http::request(server.local_addr(), method, path, &[], "", Duration::from_secs(5))
                .expect("typed answer")
        };
        let metrics = get("GET", "/metrics");
        assert_eq!(metrics.status, 200);
        assert_eq!(metrics.header("content-type"), Some(expo::CONTENT_TYPE));
        assert_eq!(get("GET", "/").header("content-type"), Some("text/plain"));
        assert_eq!(get("GET", "/nope").status, 404);
        assert_eq!(get("POST", "/metrics").status, 405);
    }
}
