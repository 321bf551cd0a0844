//! Concurrency test of the `--serve` server: N parallel `POST /run`
//! requests — released simultaneously by a barrier, sharing one result
//! cache directory — each stream back a response byte-identical to the
//! batch path, proving that concurrent handling on the executor pool never
//! changes bytes, only wall-clock.

use pnoc_bench::scenario_io::render_scenarios;
use pnoc_bench::server::{serve, ServerOptions, ServerReport};
use pnoc_sim::metrics::JsonlSink;
use pnoc_sim::scenario::{run_specs_with_cache, Effort, ScenarioSpec};
use pnoc_store::ResultStore;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Barrier;

/// Three distinct smoke-effort documents; two clients post each one, so six
/// requests race: duplicate pairs exercise concurrent cache population of
/// one store, distinct documents exercise interleaved simulation.
fn documents() -> Vec<(Vec<ScenarioSpec>, String)> {
    ["uniform-random", "tornado", "hotspot-10pct-skewed-2"]
        .into_iter()
        .map(|traffic| {
            let specs =
                vec![ScenarioSpec::new("uniform-fabric", traffic).with_effort(Effort::Smoke)];
            let document = render_scenarios(&specs);
            (specs, document)
        })
        .collect()
}

fn post_run(address: &str, document: &str) -> (String, String) {
    let mut stream = TcpStream::connect(address).expect("server accepts");
    write!(
        stream,
        "POST /run HTTP/1.1\r\nHost: {address}\r\nContent-Length: {}\r\n\r\n{document}",
        document.len()
    )
    .expect("request writes");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("response reads");
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body separator");
    (
        head.lines().next().expect("status line").to_string(),
        payload.to_string(),
    )
}

#[test]
fn parallel_posts_are_byte_identical_to_the_batch_path() {
    // Give the pool real workers so several connections are genuinely in
    // flight at once (this binary owns the process-global override).
    pnoc_exec::set_worker_override(4);

    let dir = std::env::temp_dir().join(format!("pnoc-server-concurrent-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("store opens");
    let docs = documents();
    let clients_per_doc = 2usize;
    let total = docs.len() * clients_per_doc;

    // The batch-path references, computed without any cache: the bytes every
    // served stream must match no matter how requests interleave.
    let references: Vec<String> = docs
        .iter()
        .map(|(specs, _)| {
            let batch = run_specs_with_cache(specs, None).expect("batch run");
            let mut sink = JsonlSink::new(Vec::new());
            batch.write_metrics(&mut sink).expect("rows render");
            String::from_utf8(sink.into_inner()).expect("rows are UTF-8")
        })
        .collect();

    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
    let address = listener.local_addr().expect("bound").to_string();
    let server = std::thread::spawn(move || -> ServerReport {
        serve(
            &listener,
            &ServerOptions {
                cache: Some(&store),
                max_requests: Some(total as u64),
                quiet: true,
                ..Default::default()
            },
        )
        .expect("server runs to completion")
    });

    let barrier = Barrier::new(total);
    let responses: Vec<(usize, String, String)> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (doc_index, (_, document)) in docs.iter().enumerate() {
            for _ in 0..clients_per_doc {
                let address = &address;
                let barrier = &barrier;
                handles.push(s.spawn(move || {
                    barrier.wait();
                    let (status, body) = post_run(address, document);
                    (doc_index, status, body)
                }));
            }
        }
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread joins"))
            .collect()
    });

    for (doc_index, status, body) in &responses {
        assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
        let (_summary, rows) = body.split_once('\n').expect("summary line is terminated");
        assert_eq!(
            rows, references[*doc_index],
            "served stream must be byte-identical to the batch path"
        );
    }

    let report = server.join().expect("server thread joins");
    assert_eq!(report.requests, total as u64);
    assert_eq!(report.runs, total as u64);
    assert_eq!(report.rejected, 0, "default backlog admits all six");

    // The shared cache dir was populated concurrently; each entry is one
    // atomically renamed file, so a reopened store sees them all.
    let reopened = ResultStore::open(&dir).expect("store reopens");
    assert!(
        reopened.entry_count() > 0,
        "concurrent requests populated the cache"
    );
    pnoc_exec::set_worker_override(0);
    let _ = std::fs::remove_dir_all(&dir);
}
