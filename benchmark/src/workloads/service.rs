//! `service_cold_warm`: one cold `POST /run` and the warm traffic after it.
//!
//! Closed loop, one client connection at a time, up to two pool threads, an
//! in-process `serve()` on `127.0.0.1:0` and a fresh `ResultStore` per
//! round. The cold pass is store *writes*, the index lock, orchestration and
//! the executor; the warm passes are store *reads*, the codec and HTTP — so
//! a codec change that helps reads but costs writes shows in one workload.
//!
//! The matrix is named explicitly (not `all_architectures()`), so that a
//! newly registered architecture does not change the workload.

use super::{ns_per_call, parallel_speedup, with_pool_threads, Layers, RepOutcome, Workload};
use crate::harness::{fastest, percentile, request_sequence};
use crate::trace::Tracer;
use pnoc_bench::scenario_io::{parse_scenarios, render_scenarios};
use pnoc_bench::server::{serve, ServerOptions};
use pnoc_noc::traffic_model::OfferedLoad;
use pnoc_sim::metrics::JsonlSink;
use pnoc_sim::registry::lookup_architecture;
use pnoc_sim::scenario::{
    engine_fingerprint, point_cache_key, run_specs, run_specs_with_cache, Effort, ScenarioMatrix,
    ScenarioSpec,
};
use pnoc_sim::sweep::{derive_point_seed, SweepPoint};
use pnoc_store::{point_from_json, point_json, Json, ResultStore};
use pnoc_traffic::factory::{lookup_traffic_factory, TrafficSpec};
use pnoc_traffic::pattern::PacketShape;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Instant;

const ARCHITECTURES: [&str; 3] = ["d-hetpnoc", "firefly", "uniform-fabric"];
const TRAFFICS: [&str; 2] = ["tornado", "bursty-uniform"];
const WARM_SINGLES: usize = 60;
const REVALIDATIONS: usize = 60;
const STATS_REQUESTS: usize = 5;
const REQUESTS_PER_ROUND: usize = 2 + WARM_SINGLES + REVALIDATIONS + STATS_REQUESTS;

fn matrix(seed: u64) -> ScenarioMatrix {
    ScenarioMatrix::new()
        .architectures(ARCHITECTURES)
        .traffics(TRAFFICS)
        .all_bandwidth_sets()
        .effort(Effort::Quick)
        .seed(seed)
}

/// A response: status code, header block, body.
struct Response {
    status: u16,
    head: String,
    body: String,
}

impl Response {
    fn etag(&self) -> Option<&str> {
        self.head.lines().find_map(|line| {
            line.split_once(':')
                .filter(|(name, _)| name.eq_ignore_ascii_case("etag"))
                .map(|(_, value)| value.trim())
        })
    }

    /// The metric rows of a `/run` response (everything after the summary
    /// line).
    fn rows(&self) -> &str {
        self.body.split_once('\n').map_or("", |(_, rows)| rows)
    }
}

/// Sends one request on a fresh connection and reads the whole response;
/// `Err` describes a transport or framing failure.
fn request(
    address: &str,
    method: &str,
    path: &str,
    header: &str,
    body: &str,
) -> Result<Response, String> {
    let fail =
        |what: &str, error: &dyn std::fmt::Display| format!("{method} {path}: {what}: {error}");
    let mut stream = TcpStream::connect(address).map_err(|e| fail("connect", &e))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {address}\r\n{header}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| fail("write", &e))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| fail("read", &e))?;
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| fail("parse", &"no header/body separator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| fail("parse", &"no status code"))?;
    Ok(Response {
        status,
        head: head.to_string(),
        body: payload.to_string(),
    })
}

/// Status-checked responses of one round.
#[derive(Default)]
struct Tally {
    failures: Vec<String>,
    ok_200: u64,
    not_modified_304: u64,
}

impl Tally {
    /// Counts the response when it has the expected status (200 or 304);
    /// records a failure otherwise.
    fn check(&mut self, response: Result<Response, String>, expect: u16) -> Option<Response> {
        match response {
            Ok(response) if response.status == expect => {
                if expect == 304 {
                    self.not_modified_304 += 1;
                } else {
                    self.ok_200 += 1;
                }
                Some(response)
            }
            Ok(response) => {
                self.failures
                    .push(format!("expected {expect}, got {}", response.status));
                None
            }
            Err(error) => {
                self.failures.push(error);
                None
            }
        }
    }
}

/// Host-time samples of the timed rounds, pooled for the layer metrics.
#[derive(Default)]
struct Samples {
    cold_post_s: Vec<f64>,
    warm_post_s: Vec<f64>,
    singles_pass_s: Vec<f64>,
    single_ms: Vec<f64>,
    revalidate_ms: Vec<f64>,
}

/// See the module documentation.
pub struct ServiceColdWarm {
    specs: Vec<ScenarioSpec>,
    /// The 18-scenario matrix document.
    document: String,
    /// One document per scenario.
    singles: Vec<String>,
    /// Which single document each warm request posts.
    sequence: Vec<usize>,
    rounds: usize,
    samples: Samples,
    /// Metric rows of the last cold response, for the 1-thread comparison.
    cold_rows: String,
}

impl ServiceColdWarm {
    /// Generates the matrix, its documents and the request sequence.
    pub fn new(seed: u64) -> Self {
        let specs = matrix(seed).specs();
        ServiceColdWarm {
            document: render_scenarios(&specs),
            singles: specs
                .iter()
                .map(|spec| render_scenarios(std::slice::from_ref(spec)))
                .collect(),
            sequence: request_sequence(seed, WARM_SINGLES, specs.len()),
            specs,
            rounds: 0,
            samples: Samples::default(),
            cold_rows: String::new(),
        }
    }

    fn store_dir(&self, tag: &str) -> PathBuf {
        PathBuf::from(format!("benchmark/out/store-{}-{tag}", std::process::id()))
    }

    fn points_per_scenario(&self) -> u64 {
        self.specs[0].loads().len() as u64
    }
}

impl Workload for ServiceColdWarm {
    fn start_timed_reps(&mut self) {
        self.samples = Samples::default();
    }

    fn rep(&mut self, tracer: &Tracer) -> RepOutcome {
        self.rounds += 1;
        let dir = self.store_dir(&self.rounds.to_string());
        let _ = std::fs::remove_dir_all(&dir);
        let mut outcome = RepOutcome::default();
        let (store, listener) = outcome.call(tracer, "store:open", || {
            let store = ResultStore::open(&dir).expect("a store opens under benchmark/out");
            let listener = TcpListener::bind("127.0.0.1:0").expect("an ephemeral port binds");
            (store, listener)
        });
        let address = listener
            .local_addr()
            .expect("a bound listener has an address")
            .to_string();

        let total_points = self.specs.len() as u64 * self.points_per_scenario();
        let total_cycles: u64 = self
            .specs
            .iter()
            .map(|spec| spec.config().total_cycles() * spec.loads().len() as u64)
            .sum();
        let mut tally = Tally::default();

        let report = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let started = Instant::now();
                let report = serve(
                    &listener,
                    &ServerOptions {
                        cache: Some(&store),
                        max_requests: Some(REQUESTS_PER_ROUND as u64),
                        quiet: true,
                        ..Default::default()
                    },
                );
                (report, started, Instant::now())
            });

            let cold = outcome.call(tracer, "server:post_matrix_cold", || {
                request(&address, "POST", "/run", "", &self.document)
            });
            outcome.simulated(total_cycles, total_points);
            self.samples.cold_post_s.push(outcome.last_call_s());
            let cold = tally.check(cold, 200);

            let warm = outcome.call(tracer, "server:post_matrix_warm", || {
                request(&address, "POST", "/run", "", &self.document)
            });
            self.samples.warm_post_s.push(outcome.last_call_s());
            let warm = tally.check(warm, 200);

            let mut etags = Vec::with_capacity(WARM_SINGLES);
            let mut pass_s = 0.0;
            for &index in &self.sequence {
                let response = outcome.call(tracer, "server:post_single", || {
                    request(&address, "POST", "/run", "", &self.singles[index])
                });
                pass_s += outcome.last_call_s();
                self.samples.single_ms.push(outcome.last_call_s() * 1e3);
                let tag = tally
                    .check(response, 200)
                    .and_then(|r| r.etag().map(str::to_string));
                etags.push(tag.unwrap_or_default());
            }
            self.samples.singles_pass_s.push(pass_s);

            for (&index, tag) in self.sequence.iter().zip(&etags).take(REVALIDATIONS) {
                let header = format!("If-None-Match: {tag}\r\n");
                let response = outcome.call(tracer, "server:revalidate", || {
                    request(&address, "POST", "/run", &header, &self.singles[index])
                });
                self.samples.revalidate_ms.push(outcome.last_call_s() * 1e3);
                tally.check(response, 304);
            }
            for _ in 0..STATS_REQUESTS {
                let response = outcome.call(tracer, "server:get_stats", || {
                    request(&address, "GET", "/stats", "", "")
                });
                tally.check(response, 200);
            }

            let (report, started, ended) = outcome
                .call(tracer, "server:join", || server.join())
                .expect("the server thread ran");
            tracer.record("server_thread:serve", started, ended);

            // A warm response must be the cold one, byte for byte, and must
            // not have simulated anything.
            match (&cold, &warm) {
                (Some(cold), Some(warm)) => {
                    if cold.rows() != warm.rows() || cold.rows().is_empty() {
                        tally
                            .failures
                            .push("warm rows differ from the cold rows".to_string());
                    }
                    if !warm.body.starts_with(&format!(
                        "{{\"scenarios\":{},\"total_points\":{total_points},\
                         \"unique_points\":{total_points},\"cache_hits\":{total_points},\
                         \"cache_misses\":0,",
                        self.specs.len()
                    )) {
                        tally
                            .failures
                            .push("the warm matrix POST was not served from the store".into());
                    }
                    self.cold_rows = cold.rows().to_string();
                }
                _ => tally
                    .failures
                    .push("cold and warm bytes could not be compared".to_string()),
            }
            report
        });
        let _ = outcome.call(tracer, "store:remove", || std::fs::remove_dir_all(&dir));

        outcome.failures = tally.failures;
        outcome.stats = vec![
            ("status_200".to_string(), tally.ok_200.to_string()),
            ("status_304".to_string(), tally.not_modified_304.to_string()),
        ];
        match report {
            Ok(report) => {
                // Only the cold pass may simulate: every later point is a hit.
                let single_points = WARM_SINGLES as u64 * self.points_per_scenario();
                if report.cache_misses != total_points
                    || report.cache_hits != total_points + single_points
                {
                    outcome.failures.push(format!(
                        "cache counts: {} misses, {} hits",
                        report.cache_misses, report.cache_hits
                    ));
                }
                for (name, value) in [
                    ("cache_hits", report.cache_hits),
                    ("cache_misses", report.cache_misses),
                    ("points_served", report.points),
                ] {
                    outcome.stats.push((name.to_string(), value.to_string()));
                }
            }
            Err(error) => outcome.failures.push(format!("serve: {error}")),
        }
        // Every request, plus the cold == warm comparison.
        outcome.attempted = REQUESTS_PER_ROUND as u64 + 1;
        outcome
    }

    /// The rows a client received must be the rows one thread computes
    /// directly, without server, store or pool.
    fn verify(&mut self) -> (u64, Vec<String>) {
        let direct = with_pool_threads(1, || run_specs(&self.specs)).expect("the matrix resolves");
        let mut sink = JsonlSink::new(Vec::new());
        direct
            .write_metrics(&mut sink)
            .expect("writing to memory cannot fail");
        let rows = String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8");
        let failures = if rows == self.cold_rows {
            Vec::new()
        } else {
            vec!["served rows differ from a direct 1-thread run".to_string()]
        };
        (1, failures)
    }

    fn probe_layers(&mut self, _tracer: &Tracer, layers: &mut Layers) {
        let s = &self.samples;
        let best = |values: &[f64]| fastest(values.iter().copied());
        let points = self.specs.len() as f64 * self.points_per_scenario() as f64;
        layers.insert("bench.server.cold_post_s", best(&s.cold_post_s));
        layers.insert("bench.server.warm_post_ms", best(&s.warm_post_s) * 1e3);
        layers.insert(
            "bench.server.warm_points_per_s",
            points / best(&s.warm_post_s),
        );
        layers.insert(
            "bench.server.warm_req_per_s",
            WARM_SINGLES as f64 / best(&s.singles_pass_s),
        );
        layers.insert(
            "bench.server.warm_latency_p50_ms",
            percentile(&s.single_ms, 50.0),
        );
        layers.insert(
            "bench.server.warm_latency_p99_ms",
            percentile(&s.single_ms, 99.0),
        );
        layers.insert(
            "bench.server.revalidate_p50_ms",
            percentile(&s.revalidate_ms, 50.0),
        );

        // Fill a store directly, then time the warm path without HTTP.
        let dir = self.store_dir("probe");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).expect("a store opens under benchmark/out");
        let filled = run_specs_with_cache(&self.specs, Some(&store)).expect("the matrix resolves");
        let direct_warm_ms = ns_per_call(9, 1, || {
            black_box(run_specs_with_cache(&self.specs, Some(&store)).expect("resolves"));
        }) / 1e6;
        layers.insert(
            "bench.server.http_overhead_ms",
            best(&s.warm_post_s) * 1e3 - direct_warm_ms,
        );

        layers.insert(
            "bench.scenario_io.parse_us",
            ns_per_call(5, 20, || {
                black_box(parse_scenarios(&self.document).expect("own rendering parses"));
            }) / 1e3,
        );
        let render_ns = ns_per_call(5, 20, || {
            black_box(render_scenarios(&self.specs));
        });
        layers.insert(
            "bench.scenario_io.render_mb_per_s",
            self.document.len() as f64 / 1e6 / (render_ns / 1e9),
        );

        self.probe_sim(layers, &filled.scenarios[0]);
        self.probe_store(layers, &filled);
        let _ = std::fs::remove_dir_all(&dir);
        self.probe_exec(layers);
    }
}

impl ServiceColdWarm {
    /// Orchestration costs around the simulation proper.
    fn probe_sim(&self, layers: &mut Layers, result: &pnoc_sim::scenario::ScenarioResult) {
        let spec = &self.specs[0];
        layers.insert(
            "sim.scenario_resolve_us",
            ns_per_call(5, 50, || {
                black_box(spec.resolve().expect("resolves"));
            }) / 1e3,
        );
        let seed = spec.seed;
        layers.insert(
            "sim.matrix_plan_us",
            ns_per_call(5, 5, || {
                let fingerprint = engine_fingerprint();
                for spec in matrix(seed).specs() {
                    let scenario = spec.resolve().expect("resolves");
                    let id = scenario.canonical_id();
                    for (index, load) in spec.loads().into_iter().enumerate() {
                        let seed = derive_point_seed(scenario.config().seed, index);
                        black_box(point_cache_key(&id, seed, load, &fingerprint));
                    }
                }
            }) / 1e3,
        );
        layers.insert(
            "sim.metrics_merge_us",
            ns_per_call(5, 50, || {
                black_box(result.merged_metrics().expect("same kinds merge"));
            }) / 1e3,
        );
        let builder = lookup_architecture("d-hetpnoc").expect("registered");
        let traffic = lookup_traffic_factory("tornado").expect("registered");
        let config = spec.config();
        let shape = PacketShape::new(
            config.bandwidth_set.packet_flits(),
            config.bandwidth_set.flit_bits(),
        );
        let params = builder.default_params();
        layers.insert(
            "sim.system_build_us",
            ns_per_call(5, 20, || {
                let model = traffic.build(&TrafficSpec::new(
                    config.topology,
                    shape,
                    OfferedLoad::new(0.01),
                    seed,
                ));
                black_box(builder.build(config, &params, model));
            }) / 1e3,
        );
    }

    /// The store and its codec, on the matrix's own 54 points.
    fn probe_store(&self, layers: &mut Layers, matrix: &pnoc_sim::scenario::MatrixResult) {
        let points: Vec<&SweepPoint> = matrix
            .scenarios
            .iter()
            .flat_map(|s| &s.result.points)
            .collect();
        let keys: Vec<String> = (0..points.len())
            .map(|i| format!("probe-key-{i}"))
            .collect();
        let dir = self.store_dir("probe-rw");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).expect("a store opens under benchmark/out");
        let per_point =
            |started: Instant| started.elapsed().as_secs_f64() * 1e6 / points.len() as f64;

        let started = Instant::now();
        for (key, point) in keys.iter().zip(&points) {
            store.save(key, point, 0.0).expect("a save succeeds");
        }
        layers.insert("store.save_us", per_point(started));
        let started = Instant::now();
        for key in &keys {
            black_box(store.load(key).expect("a saved point loads"));
        }
        layers.insert("store.load_hit_us", per_point(started));
        let started = Instant::now();
        for key in &keys {
            black_box(store.load(&format!("{key}-absent")));
        }
        layers.insert("store.load_miss_us", per_point(started));
        layers.insert(
            "store.entry_bytes",
            store.total_bytes() as f64 / store.entry_count().max(1) as f64,
        );

        let encoded: Vec<String> = points.iter().map(|p| point_json(p).render()).collect();
        let megabytes = encoded.iter().map(String::len).sum::<usize>() as f64 / 1e6;
        let encode_ns = ns_per_call(3, 1, || {
            for point in &points {
                black_box(point_json(point).render());
            }
        });
        layers.insert("store.encode_mb_per_s", megabytes / (encode_ns / 1e9));
        let decode_ns = ns_per_call(3, 1, || {
            for text in &encoded {
                let value = Json::parse(text).expect("own rendering parses");
                black_box(point_from_json(&value).expect("own encoding decodes"));
            }
        });
        layers.insert("store.decode_mb_per_s", megabytes / (decode_ns / 1e9));

        let started = Instant::now();
        store.compact().expect("compaction succeeds");
        layers.insert("store.compact_ms", started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        store
            .evict_to_budget(store.total_bytes() / 2)
            .expect("eviction succeeds");
        layers.insert("store.evict_ms", started.elapsed().as_secs_f64() * 1e3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The executor: start-up, per-job overhead, and what the pool buys on
    /// the cold matrix.
    fn probe_exec(&self, layers: &mut Layers) {
        layers.insert("exec.pool_startup_s", pnoc_exec::warm_up());
        // Two threads, so that the jobs go through the pool: a one-thread
        // batch is a plain loop on the submitter.
        let jobs = vec![(); 20_000];
        let batch_ns = with_pool_threads(2, || {
            ns_per_call(5, 1, || {
                black_box(pnoc_exec::run_batch(&jobs, |index, ()| index));
            })
        });
        layers.insert(
            "exec.batch_overhead_us_per_job",
            batch_ns / jobs.len() as f64 / 1e3,
        );
        if let Some(speedup) = parallel_speedup("exec.parallel_speedup", || {
            black_box(run_specs(&self.specs).expect("the matrix resolves"));
        }) {
            layers.insert("exec.parallel_speedup", speedup);
        }
    }
}
