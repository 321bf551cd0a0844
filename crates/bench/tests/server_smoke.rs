//! In-process smoke test of the `--serve` HTTP server: a scenario document
//! POSTed to `/run` streams back a summary line plus JSONL metric rows that
//! are byte-identical to a batch run of the same specs, a second identical
//! request is answered entirely from the cache (zero points simulated,
//! asserted via the hit counters), and the small endpoints behave.

use pnoc_bench::scenario_io::render_scenarios;
use pnoc_bench::server::{serve, ServerOptions, ServerReport, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use pnoc_sim::metrics::JsonlSink;
use pnoc_sim::scenario::{run_specs_with_cache, Effort, ScenarioSpec};
use pnoc_store::ResultStore;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

fn specs() -> Vec<ScenarioSpec> {
    vec![ScenarioSpec::new("uniform-fabric", "uniform-random").with_effort(Effort::Smoke)]
}

/// Starts a server on an ephemeral port that exits after `requests`
/// connections; returns the address and the join handle yielding the
/// final counters.
fn start_server(
    store: ResultStore,
    requests: u64,
) -> (String, std::thread::JoinHandle<ServerReport>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
    let address = listener.local_addr().expect("bound").to_string();
    let handle = std::thread::spawn(move || {
        serve(
            &listener,
            &ServerOptions {
                cache: Some(&store),
                max_requests: Some(requests),
                quiet: true,
                ..Default::default()
            },
        )
        .expect("server runs to completion")
    });
    (address, handle)
}

/// Sends one HTTP/1.1 request and returns `(status line, body)`.
fn request(address: &str, method: &str, path: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(address).expect("server accepts");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {address}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request writes");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("response reads");
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body separator");
    let status = head.lines().next().expect("status line").to_string();
    (status, payload.to_string())
}

/// Sends `head` verbatim (no body) and returns the response's status line.
fn raw_request(address: &str, head: &str) -> String {
    let mut stream = TcpStream::connect(address).expect("server accepts");
    stream.write_all(head.as_bytes()).expect("request writes");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("response reads");
    response.lines().next().expect("status line").to_string()
}

/// Splits an ndjson `/run` response into the summary line and the rows.
fn split_run_response(body: &str) -> (&str, &str) {
    body.split_once('\n').expect("summary line is terminated")
}

/// Like [`request`] but with one extra header line, returning the full head
/// (status line + headers) alongside the body.
fn request_with_header(
    address: &str,
    method: &str,
    path: &str,
    header: &str,
    body: &str,
) -> (String, String) {
    let mut stream = TcpStream::connect(address).expect("server accepts");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {address}\r\n{header}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request writes");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("response reads");
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body separator");
    (head.to_string(), payload.to_string())
}

/// The `ETag` header value of a response head, if present.
fn etag_of(head: &str) -> Option<String> {
    head.lines()
        .find_map(|line| {
            line.split_once(':')
                .filter(|(n, _)| n.eq_ignore_ascii_case("etag"))
        })
        .map(|(_, value)| value.trim().to_string())
}

/// `POST /run` carries a deterministic `ETag`; replaying the document with
/// `If-None-Match` gets `304 Not Modified` with an empty body and without
/// the engine running at all, while a stale tag runs normally — and so does
/// a document whose rows differ only by seed or by the scenario label it
/// echoes.
#[test]
fn run_responses_revalidate_via_etag() {
    let dir = std::env::temp_dir().join(format!("pnoc-server-etag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let document = render_scenarios(&specs());
    let (address, handle) = start_server(ResultStore::open(&dir).expect("store opens"), 5);

    let (head, first_body) = request_with_header(&address, "POST", "/run", "", &document);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    let etag = etag_of(&head).expect("200 /run response carries an ETag");
    assert!(
        etag.starts_with('"') && etag.ends_with('"'),
        "ETag must be quoted, got {etag}"
    );
    assert!(!first_body.is_empty());

    // Same document + matching tag: 304, empty body, same tag echoed.
    let revalidate = format!("If-None-Match: {etag}\r\n");
    let (head, body) = request_with_header(&address, "POST", "/run", &revalidate, &document);
    assert!(head.starts_with("HTTP/1.1 304 Not Modified"), "{head}");
    assert_eq!(body, "", "304 must carry no body");
    assert_eq!(etag_of(&head).as_deref(), Some(etag.as_str()));

    // A stale tag does not match: the batch runs and returns 200 + rows.
    let stale = "If-None-Match: \"0000000000000000\"\r\n";
    let (head, body) = request_with_header(&address, "POST", "/run", stale, &document);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(!body.is_empty());

    // Another seed (other rows) and an alias spelling (the same simulation,
    // rows labelled as written) are other entities: the first tag must not
    // revalidate either.
    let reseeded = vec![ScenarioSpec::new("uniform-fabric", "uniform-random")
        .with_effort(Effort::Smoke)
        .with_seed(7)];
    let aliased = vec![ScenarioSpec::new("uniform-fabric", "uniform").with_effort(Effort::Smoke)];
    let mut tags = vec![etag.clone()];
    for other in [reseeded, aliased] {
        let (head, body) = request_with_header(
            &address,
            "POST",
            "/run",
            &revalidate,
            &render_scenarios(&other),
        );
        assert!(
            head.starts_with("HTTP/1.1 200 OK"),
            "{}: {head}",
            other[0].id()
        );
        assert!(!body.is_empty());
        assert_ne!(body, first_body, "{}: rows must differ", other[0].id());
        let tag = etag_of(&head).expect("200 /run response carries an ETag");
        assert!(!tags.contains(&tag), "{}: tag {tag} reused", other[0].id());
        tags.push(tag);
    }

    let report = handle.join().expect("server thread joins");
    assert_eq!(report.requests, 5);
    assert_eq!(
        report.runs, 4,
        "the revalidated request must not reach the engine"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn posted_scenarios_stream_rows_identical_to_a_batch_run() {
    let dir = std::env::temp_dir().join(format!("pnoc-server-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let document = render_scenarios(&specs());

    let (address, handle) = start_server(ResultStore::open(&dir).expect("store opens"), 4);

    let (status, body) = request(&address, "GET", "/health", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"status\": \"ok\""), "{body}");

    // First run: everything simulates (the cache is empty).
    let (status, body) = request(&address, "POST", "/run", &document);
    assert_eq!(status, "HTTP/1.1 200 OK");
    let (summary, rows) = split_run_response(&body);
    assert!(summary.contains("\"cache_hits\":0"), "{summary}");

    // Second identical run: answered entirely from the cache — zero points
    // simulated — and byte-identical to the first response.
    let (status, second_body) = request(&address, "POST", "/run", &document);
    assert_eq!(status, "HTTP/1.1 200 OK");
    let (second_summary, second_rows) = split_run_response(&second_body);
    assert!(
        second_summary.contains("\"cache_misses\":0"),
        "{second_summary}"
    );
    assert!(
        second_summary.contains("\"simulated\":0"),
        "{second_summary}"
    );
    assert_eq!(rows, second_rows, "cached response must be byte-identical");

    let (status, body) = request(&address, "GET", "/stats", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"runs\": 2"), "{body}");

    let report = handle.join().expect("server thread joins");
    assert_eq!(report.requests, 4);
    assert_eq!(report.runs, 2);
    assert!(report.cache_hits > 0, "the second run must hit the cache");
    assert_eq!(
        report.cache_hits, report.cache_misses,
        "every point the first run simulated is a hit in the second"
    );

    // The streamed rows equal a batch run of the same document, byte for
    // byte — the server is the batch engine behind a socket, not a variant.
    let batch = run_specs_with_cache(&specs(), None).expect("batch run");
    let mut sink = JsonlSink::new(Vec::new());
    batch.write_metrics(&mut sink).expect("rows render");
    assert_eq!(rows.as_bytes(), &sink.into_inner()[..]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that connects and never finishes its request gets `408` once the
/// per-connection read timeout fires, instead of pinning a worker forever.
#[test]
fn stalled_request_times_out_with_408() {
    let dir = std::env::temp_dir().join(format!("pnoc-server-timeout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("store opens");
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
    let address = listener.local_addr().expect("bound").to_string();
    let handle = std::thread::spawn(move || {
        serve(
            &listener,
            &ServerOptions {
                cache: Some(&store),
                max_requests: Some(1),
                quiet: true,
                io_timeout: Some(std::time::Duration::from_millis(250)),
                ..Default::default()
            },
        )
        .expect("server runs to completion")
    });

    // Connect and send nothing: the server's read must give up.
    let mut stream = TcpStream::connect(&address).expect("server accepts");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("response reads");
    assert!(
        response.starts_with("HTTP/1.1 408 Request Timeout"),
        "stalled request must get 408, got: {response}"
    );
    handle.join().expect("server thread joins");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Connections beyond `max_in_flight` are rejected immediately with `503`
/// and a JSON body — a bounded backlog instead of unbounded queueing.
#[test]
fn over_capacity_connections_get_503() {
    let dir = std::env::temp_dir().join(format!("pnoc-server-backlog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("store opens");
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
    let address = listener.local_addr().expect("bound").to_string();
    let handle = std::thread::spawn(move || {
        serve(
            &listener,
            &ServerOptions {
                cache: Some(&store),
                max_requests: Some(3),
                quiet: true,
                max_in_flight: 1,
                ..Default::default()
            },
        )
        .expect("server runs to completion")
    });

    // Occupy the single slot: send headers announcing a body, then stall.
    // The server blocks reading the body, keeping this connection in
    // flight. TCP handshake order matches accept order, so the *next*
    // connection is guaranteed to see the slot taken.
    let mut holder = TcpStream::connect(&address).expect("server accepts");
    write!(
        holder,
        "POST /run HTTP/1.1\r\nHost: {address}\r\nContent-Length: 10\r\n\r\n"
    )
    .expect("headers write");

    let (status, body) = request(&address, "GET", "/health", "");
    assert_eq!(status, "HTTP/1.1 503 Service Unavailable", "{body}");
    assert!(body.contains("\"max_in_flight\": 1"), "{body}");

    // Release the held slot: complete the body (invalid JSON → 400) and the
    // third connection is admitted normally.
    holder.write_all(b"not json!!").expect("body writes");
    let mut response = String::new();
    holder
        .read_to_string(&mut response)
        .expect("holder answered");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");

    let (status, _) = request(&address, "GET", "/health", "");
    assert_eq!(status, "HTTP/1.1 200 OK");

    let report = handle.join().expect("server thread joins");
    assert_eq!(report.requests, 3);
    assert_eq!(report.rejected, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_errors_not_crashes() {
    let dir = std::env::temp_dir().join(format!("pnoc-server-errors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (address, handle) = start_server(ResultStore::open(&dir).expect("store opens"), 13);

    let (status, body) = request(&address, "POST", "/run", "this is not json");
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");

    // The JSON parser recurses per nesting level; a body of 100 000 '[' gets
    // a parse error, not a stack overflow that takes the process down.
    let (status, body) = request(&address, "POST", "/run", &"[".repeat(100_000));
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
    assert!(body.contains("nest deeper than 128 levels"), "{body}");

    // The body limit bounds CPU as well as memory: the largest body the
    // server accepts, as one string (valid JSON, but no scenario document),
    // is answered at once. A parser quadratic in string bytes would hold a
    // worker for 25 s of release-build time on this request.
    let one_string = format!("\"{}\"", "a".repeat(MAX_BODY_BYTES - 2));
    let started = std::time::Instant::now();
    let (status, body) = request(&address, "POST", "/run", &one_string);
    let elapsed = started.elapsed();
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "a {MAX_BODY_BYTES}-byte body took {elapsed:?} to reject"
    );

    let (status, _) = request(&address, "GET", "/nope", "");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    let (status, _) = request(&address, "DELETE", "/run", "");
    assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");

    // A declared body length is bounded before anything is allocated for it
    // (the second value overflows a `Vec`'s capacity outright).
    for length in ["999999999999", "18446744073709551615"] {
        let status = raw_request(
            &address,
            &format!("POST /run HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"),
        );
        assert_eq!(status, "HTTP/1.1 413 Payload Too Large");
    }

    // A request line that never ends is cut off at the head budget.
    let endless = format!("GET /{}", "a".repeat(MAX_HEAD_BYTES as usize - 5));
    assert_eq!(
        raw_request(&address, &endless),
        "HTTP/1.1 431 Request Header Fields Too Large"
    );

    let (status, _) = request(&address, "GET", "/health", "");
    assert_eq!(status, "HTTP/1.1 200 OK", "the server must still answer");

    // The hierarchy declines fault schedules: a `hier` document with a fault
    // plan is a resolve error (`400`), not a panic in a simulation job that
    // would close the connection unanswered and take the server down.
    let faulted_hier =
        render_scenarios(&[ScenarioSpec::closed_loop("hier{pods=2}", "allreduce:8")
            .with_faults("single-link")
            .with_effort(Effort::Quick)]);
    let (status, body) = request(&address, "POST", "/run", &faulted_hier);
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
    assert!(body.contains("architecture 'hier'"), "{body}");
    let (status, _) = request(&address, "GET", "/health", "");
    assert_eq!(status, "HTTP/1.1 200 OK", "the server must keep answering");

    // A traffic pattern that does not fit the effective topology (the
    // paper's real-application mapping on two pods of 16 clusters) is a
    // resolve error as well.
    let misfit = render_scenarios(&[
        ScenarioSpec::new("hier{pods=2}", "real-application").with_effort(Effort::Smoke)
    ]);
    let (status, body) = request(&address, "POST", "/run", &misfit);
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
    assert!(body.contains("'real-application'"), "{body}");
    let (status, _) = request(&address, "GET", "/health", "");
    assert_eq!(status, "HTTP/1.1 200 OK", "the server must keep answering");

    let report = handle.join().expect("server thread joins");
    assert_eq!(report.requests, 13);
    assert_eq!(report.runs, 0, "no malformed request may reach the engine");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `firefly` and `uniform-fabric` at the paper point build one network, so
/// a cold batch of both misses every point but simulates each once, and the
/// warm replay simulates nothing and returns the same bytes.
#[test]
fn equal_networks_share_a_simulation_in_a_cold_post() {
    let dir = std::env::temp_dir().join(format!("pnoc-server-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs: Vec<ScenarioSpec> = ["firefly", "uniform-fabric"]
        .map(|architecture| {
            ScenarioSpec::new(architecture, "uniform-random").with_effort(Effort::Smoke)
        })
        .into();
    let document = render_scenarios(&specs);
    let (address, handle) = start_server(ResultStore::open(&dir).expect("store opens"), 2);

    let (status, cold) = request(&address, "POST", "/run", &document);
    assert_eq!(status, "HTTP/1.1 200 OK");
    let (cold_summary, cold_rows) = split_run_response(&cold);
    let points = run_specs_with_cache(&specs[..1], None)
        .expect("batch run")
        .total_points;
    assert!(points > 0);
    assert!(
        cold_summary.contains(&format!(
            "\"cache_misses\":{},\"simulated\":{points}}}",
            2 * points
        )),
        "{cold_summary}"
    );

    let (status, warm) = request(&address, "POST", "/run", &document);
    assert_eq!(status, "HTTP/1.1 200 OK");
    let (warm_summary, warm_rows) = split_run_response(&warm);
    assert!(
        warm_summary.contains("\"cache_misses\":0,\"simulated\":0}"),
        "{warm_summary}"
    );
    assert_eq!(
        cold_rows, warm_rows,
        "cached response must be byte-identical"
    );

    let report = handle.join().expect("server thread joins");
    assert_eq!(report.cache_misses, 2 * points as u64);
    assert_eq!(report.cache_hits, 2 * points as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
