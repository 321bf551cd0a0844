//! Simulation-as-a-service: a std-only, hand-rolled HTTP/1.1 server.
//!
//! `repro --serve ADDR` turns the batch CLI into a long-running service:
//! clients POST a scenario document (the same JSON `repro
//! --from-scenarios` reads, parsed by [`crate::scenario_io`]), the server
//! runs the batch through the shared matrix executor — consulting the
//! result cache first when one is attached, so previously simulated points
//! are answered **without simulating** — and streams the metric rows back
//! as JSONL, byte-identical to what `repro --metrics` would have written
//! for the same specs.
//!
//! Connections are handled **concurrently**: the accept loop runs inside a
//! `pnoc-exec` scope and hands each connection to the persistent executor
//! pool as a job. Per-point determinism (seeds derived only from scenario
//! content) makes every response byte-identical to the single-connection
//! path no matter how requests interleave. Two hardening mechanisms bound
//! the resource envelope:
//!
//! * **per-connection I/O timeouts** — a client that stalls mid-request or
//!   mid-response gets `408` / a dropped connection instead of pinning a
//!   worker forever;
//! * **bounded accept backlog** — beyond `max_in_flight` concurrent
//!   connections the server answers `503` with a JSON body immediately
//!   instead of queueing unboundedly.
//!
//! The workspace builds offline against vendored shims (`vendor/README.md`),
//! so there is no HTTP library to lean on; the protocol subset here
//! (request line, `Content-Length` bodies, `Connection: close` responses)
//! is deliberately small and fully under test.
//!
//! ## Endpoints
//!
//! | request | response |
//! |---------|----------|
//! | `POST /run` | `200 application/x-ndjson`: one summary object line (scenario/point/cache counts), then one JSONL metric row per point |
//! | `GET /health` | `200 application/json`: status + engine fingerprint |
//! | `GET /stats` | `200 application/json`: lifetime request/point/cache counters |
//!
//! Malformed requests get `400`, unknown paths `404`, other methods `405`,
//! stalled requests `408`, bodies over [`MAX_BODY_BYTES`] `413`, heads over
//! [`MAX_HEAD_BYTES`] `431`, over-capacity connections `503`; the connection
//! is always closed after one response.
//!
//! ## Revalidation
//!
//! Every `POST /run` response carries a deterministic `ETag`: the content
//! hash of the resolved scenarios' canonical cache-key material and the
//! engine fingerprint — the exact inputs every point's cache key is built
//! from. The metric rows are a pure function of that material, so a client
//! replaying a scenario document can send the tag back as `If-None-Match`
//! and get `304 Not Modified` with an empty body, **without the server
//! simulating anything** — revalidation is cheaper than even a fully warm
//! cache run. A changed spec or a new engine version changes the tag and
//! the request runs normally.

use crate::runner::ensure_registered;
use crate::scenario_io::parse_scenarios;
use pnoc_sim::metrics::JsonlSink;
use pnoc_sim::scenario::{engine_fingerprint, run_specs_with_cache, PointCache, ScenarioSpec};
use pnoc_store::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Concurrent connections admitted when [`ServerOptions::max_in_flight`] is
/// left at 0.
pub(crate) const DEFAULT_MAX_IN_FLIGHT: usize = 32;

/// Per-connection read/write timeout when [`ServerOptions::io_timeout`] is
/// `None`.
pub(crate) const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Largest request body accepted; a larger `Content-Length` gets `413`
/// before anything is allocated for it. The scenario document of the full
/// default matrix is ≈ 6 KiB, so this leaves two orders of magnitude of
/// headroom for hand-written batches.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest request head (request line + headers) read; a head that has not
/// ended by then gets `431`.
pub const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// How a server instance runs.
#[derive(Default)]
pub struct ServerOptions<'a> {
    /// The cross-run result cache to consult (hits bypass simulation).
    pub cache: Option<&'a dyn PointCache>,
    /// Stop accepting after this many connections (smoke tests and CI);
    /// `None` serves until the process is killed. Already-accepted
    /// connections are always drained before [`serve`] returns.
    pub max_requests: Option<u64>,
    /// Suppress per-request stderr logging.
    pub quiet: bool,
    /// Bound on concurrently handled connections; connections beyond it are
    /// rejected immediately with `503` + a JSON body. 0 means the default of
    /// 32 connections.
    pub max_in_flight: usize,
    /// Per-connection read/write timeout; `None` means the default of 30 s.
    /// A read that times out gets `408`.
    pub io_timeout: Option<Duration>,
}

/// Lifetime counters of one [`serve`] call, also exposed at `GET /stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Connections accepted (any method, any outcome, including rejected).
    pub requests: u64,
    /// Successful `POST /run` batches.
    pub runs: u64,
    /// Sweep points returned across all batches (before deduplication).
    pub points: u64,
    /// Deduplicated points answered from the cache without simulating.
    pub cache_hits: u64,
    /// Deduplicated points that had to be simulated.
    pub cache_misses: u64,
    /// Connections rejected with `503` because `max_in_flight` was reached.
    pub rejected: u64,
}

/// Shared counters updated concurrently by connection jobs.
#[derive(Default)]
struct ServerState {
    requests: AtomicU64,
    runs: AtomicU64,
    points: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    rejected: AtomicU64,
    in_flight: AtomicUsize,
}

impl ServerState {
    fn snapshot(&self) -> ServerReport {
        ServerReport {
            requests: self.requests.load(Ordering::SeqCst),
            runs: self.runs.load(Ordering::SeqCst),
            points: self.points.load(Ordering::SeqCst),
            cache_hits: self.cache_hits.load(Ordering::SeqCst),
            cache_misses: self.cache_misses.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
        }
    }
}

/// Serves connections on `listener` until `options.max_requests` connections
/// have been accepted (forever when `None`), handling them **concurrently**
/// as jobs on the persistent executor pool. Responses stay byte-identical
/// to sequential handling because every simulation point is a pure function
/// of its scenario content. All in-flight connections are drained before
/// this returns.
///
/// # Errors
///
/// Propagates accept failures; per-connection I/O errors are logged and do
/// not stop the server.
pub fn serve(listener: &TcpListener, options: &ServerOptions<'_>) -> io::Result<ServerReport> {
    ensure_registered();
    let state = ServerState::default();
    let limit = if options.max_in_flight == 0 {
        DEFAULT_MAX_IN_FLIGHT
    } else {
        options.max_in_flight
    };
    let timeout = options.io_timeout.unwrap_or(DEFAULT_IO_TIMEOUT);
    let state_ref = &state;
    let accept_loop = pnoc_exec::scope(|scope| -> io::Result<()> {
        let mut accepted = 0u64;
        while options.max_requests.is_none_or(|max| accepted < max) {
            let (stream, peer) = listener.accept()?;
            accepted += 1;
            state_ref.requests.fetch_add(1, Ordering::SeqCst);
            // Best-effort: a socket that rejects timeout configuration still
            // gets served, just without the stall bound.
            let _ = stream.set_read_timeout(Some(timeout));
            let _ = stream.set_write_timeout(Some(timeout));
            // Admission control on the accept thread: the slot is taken (or
            // refused) before the next accept, so an over-limit connection
            // can never sneak past a slot that is still being spawned.
            if state_ref.in_flight.fetch_add(1, Ordering::SeqCst) >= limit {
                state_ref.in_flight.fetch_sub(1, Ordering::SeqCst);
                state_ref.rejected.fetch_add(1, Ordering::SeqCst);
                if !options.quiet {
                    eprintln!(
                        "[serve] connection from {peer} rejected: {limit} requests in flight"
                    );
                }
                reject_connection(stream, limit);
                continue;
            }
            scope.spawn(move || {
                // A second handle keeps the socket open until the slot is
                // released: a client that reconnects the moment it sees EOF
                // must find the slot free, not get a spurious `503`.
                let open = stream.try_clone();
                let outcome = handle_connection(stream, options, state_ref);
                state_ref.in_flight.fetch_sub(1, Ordering::SeqCst);
                drop(open);
                if let Err(error) = outcome {
                    if !options.quiet {
                        eprintln!("[serve] connection from {peer} failed: {error}");
                    }
                }
            });
        }
        Ok(())
    });
    accept_loop?;
    Ok(state.snapshot())
}

/// Answer an over-capacity connection with `503` + a JSON body, off the
/// accept thread. The rejected client's request bytes are still unread;
/// closing a socket with data in its receive queue sends `RST`, which can
/// destroy the response before the client reads it — so after writing we
/// drain to EOF (the client closes once it has the response), bounded by a
/// short timeout and a small byte cap so a misbehaving client cannot pin
/// the thread.
fn reject_connection(mut stream: TcpStream, limit: usize) {
    std::thread::spawn(move || {
        let body = Json::obj(vec![
            ("error", Json::str("server at capacity, retry later")),
            ("max_in_flight", Json::Num(limit as f64)),
        ])
        .render()
            + "\n";
        let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
        let _ = write_response(
            &mut stream,
            503,
            "Service Unavailable",
            "application/json",
            &body,
        );
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut scratch = [0u8; 4096];
        for _ in 0..16 {
            match stream.read(&mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    });
}

fn handle_connection(
    stream: TcpStream,
    options: &ServerOptions<'_>,
    state: &ServerState,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream);
    let request = match read_request(&mut reader) {
        Ok(request) => request,
        Err(failure) => {
            return write_response(
                &mut reader.into_inner(),
                failure.status,
                failure.reason,
                "text/plain",
                &format!("{}\n", failure.message),
            );
        }
    };
    let mut etag: Option<String> = None;
    let (status, reason, content_type, body) =
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/run") => match parse_scenarios(&request.body) {
                Ok(specs) if specs.is_empty() => (
                    400,
                    "Bad Request",
                    "text/plain",
                    "scenario document contains no scenarios\n".to_string(),
                ),
                Ok(specs) => match batch_etag(&specs) {
                    Ok(tag) => {
                        let revalidated = request
                            .if_none_match
                            .as_deref()
                            .is_some_and(|header| etag_matches(header, &tag));
                        etag = Some(tag);
                        if revalidated {
                            // The client's copy is current: answer without
                            // simulating (or even consulting the cache).
                            (304, "Not Modified", "application/x-ndjson", String::new())
                        } else {
                            match run_batch(&specs, options, state) {
                                Ok(body) => (200, "OK", "application/x-ndjson", body),
                                Err(reason) => {
                                    etag = None;
                                    (400, "Bad Request", "text/plain", format!("{reason}\n"))
                                }
                            }
                        }
                    }
                    Err(reason) => (400, "Bad Request", "text/plain", format!("{reason}\n")),
                },
                Err(reason) => (400, "Bad Request", "text/plain", format!("{reason}\n")),
            },
            ("GET", "/health") => (
                200,
                "OK",
                "application/json",
                Json::obj(vec![
                    ("status", Json::str("ok")),
                    ("engine_fingerprint", Json::str(engine_fingerprint())),
                ])
                .render()
                    + "\n",
            ),
            ("GET", "/stats") => (
                200,
                "OK",
                "application/json",
                Json::obj(vec![
                    (
                        "requests",
                        Json::Num(state.requests.load(Ordering::SeqCst) as f64),
                    ),
                    ("runs", Json::Num(state.runs.load(Ordering::SeqCst) as f64)),
                    (
                        "points",
                        Json::Num(state.points.load(Ordering::SeqCst) as f64),
                    ),
                    (
                        "cache_hits",
                        Json::Num(state.cache_hits.load(Ordering::SeqCst) as f64),
                    ),
                    (
                        "cache_misses",
                        Json::Num(state.cache_misses.load(Ordering::SeqCst) as f64),
                    ),
                    (
                        "rejected",
                        Json::Num(state.rejected.load(Ordering::SeqCst) as f64),
                    ),
                    (
                        "in_flight",
                        Json::Num(state.in_flight.load(Ordering::SeqCst) as f64),
                    ),
                ])
                .render()
                    + "\n",
            ),
            ("POST" | "GET", _) => (
                404,
                "Not Found",
                "text/plain",
                "unknown path (use POST /run, GET /health, GET /stats)\n".to_string(),
            ),
            _ => (
                405,
                "Method Not Allowed",
                "text/plain",
                "unsupported method\n".to_string(),
            ),
        };
    if !options.quiet {
        eprintln!(
            "[serve] {} {} -> {status} ({} bytes)",
            request.method,
            request.path,
            body.len()
        );
    }
    let extra: Vec<(&str, &str)> = match &etag {
        Some(tag) => vec![("ETag", tag.as_str())],
        None => Vec::new(),
    };
    write_response_with_headers(
        &mut reader.into_inner(),
        status,
        reason,
        content_type,
        &extra,
        &body,
    )
}

/// The deterministic entity tag of a scenario batch: the [`content_hash`]
/// of every spec's id as written (the rows echo it as their `scenario`
/// label) and every point key of its resolved scenario
/// ([`Scenario::point_keys`]: canonical id, derived seed, load and engine
/// fingerprint) — exactly the inputs the metric rows are a pure function
/// of, so the tag changes iff the response's rows could. Quoted per HTTP
/// syntax. Resolution failures (unknown names, bad parameters) are
/// reported the same way running the batch would report them.
///
/// [`content_hash`]: pnoc_store::content_hash
/// [`Scenario::point_keys`]: pnoc_sim::scenario::Scenario::point_keys
fn batch_etag(specs: &[ScenarioSpec]) -> Result<String, String> {
    let fingerprint = engine_fingerprint();
    let mut material = String::new();
    for spec in specs {
        let scenario = spec.resolve().map_err(|error| error.to_string())?;
        material.push_str(&spec.id());
        for key in scenario.point_keys(&fingerprint) {
            material.push('\n');
            material.push_str(&key);
        }
        material.push('\n');
    }
    Ok(format!("\"{}\"", pnoc_store::content_hash(&material)))
}

/// Whether an `If-None-Match` header value matches `etag`: `*`, or any
/// element of the comma-separated tag list (weak validators compare by
/// their quoted part — byte-identical rows make every match strong here).
fn etag_matches(header: &str, etag: &str) -> bool {
    header.split(',').map(str::trim).any(|candidate| {
        candidate == "*" || candidate == etag || candidate.strip_prefix("W/") == Some(etag)
    })
}

/// Runs one parsed scenario batch and renders the ndjson response body:
/// a summary line, then the metric rows in deterministic batch order.
fn run_batch(
    specs: &[ScenarioSpec],
    options: &ServerOptions<'_>,
    state: &ServerState,
) -> Result<String, String> {
    let result = run_specs_with_cache(specs, options.cache).map_err(|error| error.to_string())?;
    state.runs.fetch_add(1, Ordering::SeqCst);
    state
        .points
        .fetch_add(result.total_points as u64, Ordering::SeqCst);
    state
        .cache_hits
        .fetch_add(result.cache.hits as u64, Ordering::SeqCst);
    state
        .cache_misses
        .fetch_add(result.cache.misses as u64, Ordering::SeqCst);

    // Compact one-line summary first — a streaming client learns the batch
    // shape (and whether the cache answered everything) before any row.
    let mut out = format!(
        "{{\"scenarios\":{},\"total_points\":{},\"unique_points\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\"simulated\":{}}}\n",
        result.scenarios.len(),
        result.total_points,
        result.unique_points,
        result.cache.hits,
        result.cache.misses,
        result.cache.misses,
    );
    let mut sink = JsonlSink::new(Vec::new());
    result
        .write_metrics(&mut sink)
        .map_err(|error| format!("rendering metric rows failed: {error}"))?;
    out.push_str(std::str::from_utf8(&sink.into_inner()).expect("JSONL rows are UTF-8"));
    Ok(out)
}

struct Request {
    method: String,
    path: String,
    body: String,
    /// Raw `If-None-Match` header value, when the client sent one.
    if_none_match: Option<String>,
}

/// Why a request could not be read, mapped to the response to send.
struct RequestFailure {
    status: u16,
    reason: &'static str,
    message: String,
}

impl RequestFailure {
    /// `408` for a stalled client (the read timeout fired), `400` otherwise.
    fn from_io(context: &str, error: &io::Error) -> Self {
        if matches!(
            error.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            RequestFailure {
                status: 408,
                reason: "Request Timeout",
                message: format!("{context} timed out"),
            }
        } else {
            RequestFailure {
                status: 400,
                reason: "Bad Request",
                message: format!("{context} failed: {error}"),
            }
        }
    }

    fn malformed(message: String) -> Self {
        RequestFailure {
            status: 400,
            reason: "Bad Request",
            message,
        }
    }
}

/// Reads one HTTP/1.1 request (request line, headers, `Content-Length`
/// body). Returns the response status + reason to send on anything
/// malformed, oversized or stalled.
fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, RequestFailure> {
    // The head is read through a byte budget, so a line that never ends
    // cannot grow a buffer without bound.
    let mut head = reader.by_ref().take(MAX_HEAD_BYTES);
    let mut read_head_line = |context: &str| -> Result<String, RequestFailure> {
        let mut line = String::new();
        head.read_line(&mut line)
            .map_err(|error| RequestFailure::from_io(context, &error))?;
        if !line.ends_with('\n') && head.limit() == 0 {
            return Err(RequestFailure {
                status: 431,
                reason: "Request Header Fields Too Large",
                message: format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
            });
        }
        Ok(line)
    };
    let request_line = read_head_line("reading request line")?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(RequestFailure::malformed(format!(
            "malformed request line '{}'",
            request_line.trim()
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestFailure::malformed(format!(
            "unsupported protocol '{version}'"
        )));
    }
    let mut content_length = 0usize;
    let mut if_none_match: Option<String> = None;
    loop {
        let line = read_head_line("reading headers")?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().map_err(|_| {
                    RequestFailure::malformed(format!("bad Content-Length '{}'", value.trim()))
                })?;
            } else if name.eq_ignore_ascii_case("if-none-match") {
                if_none_match = Some(value.trim().to_string());
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(RequestFailure {
            status: 413,
            reason: "Payload Too Large",
            message: format!("{content_length}-byte body exceeds the {MAX_BODY_BYTES}-byte limit"),
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|error| {
        RequestFailure::from_io(&format!("reading {content_length}-byte body"), &error)
    })?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body: String::from_utf8(body)
            .map_err(|_| RequestFailure::malformed("body is not UTF-8".to_string()))?,
        if_none_match,
    })
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write_response_with_headers(stream, status, reason, content_type, &[], body)
}

fn write_response_with_headers(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    stream.write_all(b"\r\n")?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
