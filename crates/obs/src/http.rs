//! Bounded HTTP/1.1 plumbing: the one request reader, response writer
//! and client every listener in the workspace shares — the metrics
//! endpoint ([`crate::serve`]) and the serving layer (`fbmpk-serve`).
//!
//! One request per connection (`Connection: close`). Head and body are
//! size-bounded and the caller's read timeout bounds how long a slow
//! client can hold the reader, so a slow-loris or oversized request maps
//! to a typed 400/413 instead of a wedged handler.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on the request line + headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Lower-cased header names with trimmed values.
    pub headers: Vec<(String, String)>,
    /// The body (`Content-Length` bytes).
    pub body: String,
}

impl Request {
    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    let name = name.to_ascii_lowercase();
    headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
}

/// Why a request could not be read (each maps to a typed response).
#[derive(Debug)]
pub enum ReadError {
    /// Syntactically broken request → 400.
    Malformed(&'static str),
    /// Head or body over the bound → 413.
    TooLarge(&'static str),
    /// Transport error (peer vanished or timed out); there may be no one
    /// to respond to.
    Io(std::io::Error),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl ReadError {
    /// The typed answer for a malformed or oversized request; `None` for
    /// a transport error.
    pub fn response(&self) -> Option<Response> {
        match self {
            ReadError::Malformed(msg) => Some(Response::text(400, format!("{msg}\n"))),
            ReadError::TooLarge(msg) => Some(Response::text(413, format!("{msg}\n"))),
            ReadError::Io(_) => None,
        }
    }
}

/// Reads and parses one request from `stream` with bounded head and
/// body sizes. The stream's read timeout (set by the caller) bounds how
/// long a slow client can hold the reader.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ReadError> {
    let mut buf = vec![0u8; MAX_HEAD_BYTES];
    let mut len = 0;
    let head_end = loop {
        if let Some(pos) = find_terminator(&buf[..len]) {
            break pos;
        }
        if len == buf.len() {
            return Err(ReadError::TooLarge("request head exceeds the size bound"));
        }
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            return Err(ReadError::Malformed("connection closed before the header terminator"));
        }
        len += n;
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::Malformed("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) =
        (parts.next().unwrap_or(""), parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method.is_empty()
        || !method.bytes().all(|b| b.is_ascii_uppercase())
        || !path.starts_with('/')
        || !version.starts_with("HTTP/")
        || parts.next().is_some()
    {
        return Err(ReadError::Malformed("bad request line"));
    }
    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed("bad header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = header(&headers, "content-length")
        .map(|v| v.parse::<usize>().map_err(|_| ReadError::Malformed("bad Content-Length")))
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge("request body exceeds the size bound"));
    }
    // Body bytes already read past the terminator, then the remainder.
    let mut body = buf[head_end + 4..len].to_vec();
    while body.len() < content_length {
        let mut chunk = vec![0u8; (content_length - body.len()).min(64 * 1024)];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ReadError::Malformed("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body =
        String::from_utf8(body).map_err(|_| ReadError::Malformed("request body is not UTF-8"))?;
    let path = path.split('?').next().unwrap_or(path).to_string();
    Ok(Request { method: method.to_string(), path, headers, body })
}

fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(&'static str, String)>,
    /// The body.
    pub body: String,
}

impl Response {
    /// A `text/plain` response with no extra headers.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response { status, content_type: "text/plain", headers: Vec::new(), body: body.into() }
    }

    /// Appends an extra header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Writes the response (`Connection: close` — one request per
    /// connection).
    pub fn write(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

/// A parsed response (the client half).
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Lower-cased header names with trimmed values.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: String,
}

impl ClientResponse {
    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }
}

/// Sends one request and reads the full response. An `Err` is an
/// *untyped* failure (connect refused, reset, timeout, unparseable
/// response) — load generators count those separately because the
/// listeners promise typed rejections, never dropped connections.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    parse_response(&response)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "unparseable response"))
}

/// Parses a raw response: status line, headers, and everything after the
/// blank line as the body. `None` when the head is incomplete or the
/// status code is not a number.
pub fn parse_response(raw: &str) -> Option<ClientResponse> {
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let mut lines = head.lines();
    let status_line = lines.next()?;
    let status = status_line.split(' ').nth(1)?.parse::<u16>().ok()?;
    let headers = lines
        .filter_map(|l| {
            let (n, v) = l.split_once(':')?;
            Some((n.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();
    Some(ClientResponse { status, headers, body: body.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &[u8]) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // The server may reject and close mid-write (oversized input),
            // so transport errors on this side are expected.
            let _ = s.write_all(&raw);
            let _ = s.shutdown(std::net::Shutdown::Write);
            // Hold the read side open until the server is done.
            let mut sink = Vec::new();
            let _ = s.read_to_end(&mut sink);
        });
        let (mut stream, _) = listener.accept().unwrap();
        let req = read_request(&mut stream);
        drop(stream);
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = roundtrip(
            b"POST /v1/power HTTP/1.1\r\nHost: x\r\nX-Tenant: alice\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/power");
        assert_eq!(req.header("x-tenant"), Some("alice"));
        assert_eq!(req.header("X-Tenant"), Some("alice"));
        assert_eq!(req.body, "hello");
    }

    #[test]
    fn strips_query_string() {
        let req = roundtrip(b"GET /v1/stats?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.path, "/v1/stats");
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(matches!(roundtrip(b"not http at all\r\n\r\n"), Err(ReadError::Malformed(_))));
        assert!(matches!(roundtrip(b"\x00\x01\x02\xff\r\n\r\n"), Err(ReadError::Malformed(_))));
        let huge = vec![b'A'; MAX_HEAD_BYTES + 1];
        assert!(matches!(roundtrip(&huge), Err(ReadError::TooLarge(_))));
        assert!(matches!(
            roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n"),
            Err(ReadError::TooLarge(_))
        ));
        assert!(matches!(
            roundtrip(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn parses_a_response() {
        let r = parse_response(
            "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 3\r\nX-Fbmpk-Shed: queue-full\r\n\r\nqueue full\n",
        )
        .unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.header("retry-after"), Some("3"));
        assert_eq!(r.header("X-Fbmpk-Shed"), Some("queue-full"));
        assert_eq!(r.body, "queue full\n");
        assert!(parse_response("HTTP/1.1 200 OK\r\n").is_none(), "no blank line");
    }
}
