//! `repro` — regenerates every table and figure of the d-HetPNoC thesis and
//! runs ad-hoc scenario batches.
//!
//! Usage:
//!
//! ```text
//! repro                      # run everything at paper scale
//! repro --quick              # run everything at reduced scale (smoke test)
//! repro fig3_3_3_4 fig3_6    # run selected experiments; everything named
//!                            # (or everything, when nothing is) runs as ONE
//!                            # deduplicated scenario batch, through the
//!                            # result cache when --cache-dir is given
//! repro --list               # list experiment names
//! repro --json results.json  # additionally dump the reports as JSON
//!
//! repro --scenario d-hetpnoc:tornado:set2
//!                            # run one scenario (ARCH:TRAFFIC[:SET[:EFFORT]],
//!                            # repeatable; SET defaults to set1, EFFORT to
//!                            # the --quick/--paper flag)
//! repro --workload allreduce:64 --metrics out.jsonl
//!                            # run a closed-loop workload (NAME[:SIZE],
//!                            # repeatable, on the d-hetpnoc architecture) to
//!                            # DAG-drain and report flow-completion-time
//!                            # p50/p95/p99 and per-collective makespans
//! repro --faults single-link --workload allreduce:8
//!                            # inject a fault plan (preset name or literal
//!                            # plan text, repeatable) into every --scenario
//!                            # and --workload run; with --matrix it becomes
//!                            # a fault-plan axis crossing every scenario.
//!                            # Scenario shorthands may pin their own plan
//!                            # with a '#faults=PLAN' suffix instead.
//! repro --list-faults        # print the fault-plan presets (with their
//!                            # literal expansions) and the fault-kind grammar
//! repro --list-workloads     # print the workload catalogue
//! repro --list-architectures # print the architecture registry catalogue
//!                            # (with each architecture's parameter count)
//! repro --list-traffic       # print the traffic-pattern registry catalogue
//!
//! repro --describe-arch firefly
//!                            # print an architecture's parameter schema
//!                            # (name, kind, default, bounds, doc)
//! repro --scenario 'firefly{radix=8}:uniform-random'
//!                            # any architecture may carry {key=value,...}
//!                            # parameter overrides, validated against the
//!                            # declared schema
//! repro --arch 'd-hetpnoc{policy=paper-max}' --workload allreduce:64
//!                            # run workloads on an explicit (possibly
//!                            # parameterized) architecture; repeatable
//! repro --quick --matrix --arch firefly --arch-params radix=8,32
//!                            # restrict the default matrix's architecture
//!                            # axis and sweep a parameter axis through the
//!                            # same deduplicated batch engine
//! repro --scenario firefly:uniform --metrics out.jsonl --percentiles
//!                            # stream one metric row per ladder point
//!                            # (latency quantile sketch, per-node delivered
//!                            # bits, windowed throughput, ...) to a JSONL
//!                            # file and print p50/p95/p99 latency columns.
//!                            # --metrics, --percentiles and --batch-json
//!                            # need a scenario batch that runs (--scenario,
//!                            # --workload, --from-scenarios or --matrix, and
//!                            # no --dump-scenarios); otherwise exit 2
//! repro --matrix --quick     # run the default evaluation matrix (all
//!                            # architectures × {tornado, bursty-uniform} ×
//!                            # all bandwidth sets) through the flattened
//!                            # batch engine and write MATRIX_sweep.json
//! repro --matrix=FILE        # same, custom output path
//! repro --dump-scenarios FILE  # write the selected scenario specs as JSON
//!                              # instead of running them (named experiments
//!                              # on the same command line still run)
//! repro --from-scenarios FILE  # load scenario specs from a JSON file and
//!                              # run them as one batch
//!
//! repro --quick --matrix --cache-dir cache/
//!                            # content-addressed result cache: points whose
//!                            # (scenario, seed, load, engine fingerprint) key
//!                            # is already in cache/ are served without
//!                            # simulating; misses are simulated and stored.
//!                            # Caching is OFF unless --cache-dir is given.
//! repro --serve 127.0.0.1:9119 --cache-dir cache/
//!                            # simulation-as-a-service: POST a scenario
//!                            # document (--dump-scenarios format) to /run and
//!                            # stream back one summary line plus the JSONL
//!                            # metric rows; GET /health and /stats also
//!                            # answer. Cached points are answered without
//!                            # invoking the simulation engine.
//! repro --serve-requests N   # with --serve: exit after N connections
//!                            # (smoke tests / CI); an error without --serve
//!
//! repro --threads 4          # force the parallel-sweep worker count
//!                            # (overrides the detected parallelism)
//! ```

use pnoc_bench::experiments::{self, reports_json, ALL_EXPERIMENTS};
use pnoc_bench::runner::{ensure_registered, latency_percentiles_at_saturation};
use pnoc_bench::scenario_io::{matrix_json, parse_scenarios, render_scenarios};
use pnoc_bench::server::{serve, ServerOptions};
use pnoc_sim::metrics::{JsonlSink, MetricValue};
use pnoc_sim::params::ArchParams;
use pnoc_sim::report::{fmt_f, Table};
use pnoc_sim::scenario::{
    run_specs_with_cache, Effort, MatrixResult, PointCache, ScenarioMatrix, ScenarioSpec,
};
use pnoc_store::ResultStore;
use std::io::Write as _;

/// Streams every per-point metric report of the batch to `path` as JSON
/// lines (deterministic order, so two identical runs produce byte-identical
/// files — CI asserts this).
fn write_metrics_file(outcome: &MatrixResult, path: &str) {
    let file = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        std::process::exit(1);
    });
    let writer = std::io::BufWriter::new(file);
    outcome
        .write_metrics(&mut JsonlSink::new(writer))
        .unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
    eprintln!("[repro] wrote {path}");
}

fn write_file(path: &str, contents: &str) {
    let mut file = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        std::process::exit(1);
    });
    file.write_all(contents.as_bytes())
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    })
}

/// The architecture a bare `--workload NAME[:SIZE]` runs on when no
/// `--arch` is given (the paper's proposed architecture).
const WORKLOAD_DEFAULT_ARCHITECTURE: &str = "d-hetpnoc";

/// The default evaluation matrix of `repro --matrix`: every registered
/// architecture (or the `--arch` specs, when given) × the extended
/// permutation/bursty workloads × all three bandwidth sets, crossed with
/// any `--arch-params` axes.
fn default_matrix(
    effort: Effort,
    archs: &[String],
    param_axes: &[(String, Vec<String>)],
    fault_plans: &[String],
) -> ScenarioMatrix {
    ensure_registered();
    let mut matrix = ScenarioMatrix::new()
        .traffics(["tornado", "bursty-uniform"])
        .all_bandwidth_sets()
        .effort(effort);
    matrix = if archs.is_empty() {
        matrix.all_architectures()
    } else {
        matrix.architectures(archs.iter().cloned())
    };
    for (key, values) in param_axes {
        matrix = matrix.arch_params(key, values.iter().cloned());
    }
    if !fault_plans.is_empty() {
        matrix = matrix.fault_plans(fault_plans.iter().cloned());
    }
    matrix
}

/// Prints the fault-plan preset catalogue and the fault-kind grammar
/// (`repro --list-faults`).
fn list_faults() {
    println!("fault-plan presets (use with --faults or a '#faults=' suffix):");
    for name in pnoc_faults::PRESET_PLANS {
        let plan = pnoc_faults::preset_plan(name).expect("catalogue names resolve");
        if plan.is_empty() {
            println!("  {name:<14} (healthy run)");
        } else {
            println!("  {name:<14} {}", plan.render());
        }
    }
    println!();
    println!("fault kinds (literal plans are comma-separated KIND@cONSET[-REPAIR]:TARGET[/SEV]):");
    for kind in pnoc_faults::FaultKind::ALL {
        let severity = if kind.has_severity() {
            ", takes a /severity divisor"
        } else {
            ""
        };
        println!(
            "  {:<20} targets {}{severity}",
            kind.name(),
            match kind {
                pnoc_faults::FaultKind::LinkFail | pnoc_faults::FaultKind::RingStuck => "swN",
                pnoc_faults::FaultKind::WavelengthDegrade =>
                    "class-{low,medium-low,medium-high,high}",
                pnoc_faults::FaultKind::LaserDim => "fabric",
            }
        );
    }
    println!();
    println!("example: repro --quick --faults single-link --workload allreduce:8");
}

/// Prints one architecture's parameter schema (`repro --describe-arch`):
/// one row per declared parameter with its kind, default, bounds and doc.
fn describe_architecture(spec: &str) {
    ensure_registered();
    let exit_2 = |message: String| -> ! {
        eprintln!("{message}");
        std::process::exit(2);
    };
    let (name, overrides) = ArchParams::split_spec(spec).unwrap_or_else(|e| exit_2(e.to_string()));
    let builder =
        pnoc_sim::registry::lookup_architecture(&name).unwrap_or_else(|e| exit_2(e.to_string()));
    let schema = builder.param_schema();
    if let Err(e) = schema.validate(&name, &overrides) {
        exit_2(e.to_string());
    }
    println!(
        "architecture '{}' ({}), {} parameter(s)",
        builder.name(),
        builder.label(),
        schema.len()
    );
    if schema.is_empty() {
        println!("  (no tunable parameters)");
        return;
    }
    let mut table = Table::new(
        format!("Parameters of '{}'", builder.name()),
        &["parameter", "kind", "default", "bounds", "description"],
    );
    for param in schema.specs() {
        table.add_row(&[
            param.name.clone(),
            param.kind.label().to_string(),
            param.default.to_string(),
            param.kind.bounds_label(),
            param.doc.clone(),
        ]);
    }
    println!("{table}");
    // Composing architectures (the `hier` builder) nest other registered
    // architectures behind an enum parameter named `leaf`: describe each
    // admissible leaf's own schema so `--describe-arch hier` documents the
    // whole nested parameter space.
    if let Some(leaf) = schema.get("leaf") {
        if let pnoc_sim::params::ParamKind::Enum { choices } = &leaf.kind {
            println!();
            println!("nested leaf fabrics (each runs at its default parameters):");
            for choice in choices {
                match pnoc_sim::registry::lookup_architecture(choice) {
                    Ok(nested) => {
                        let nested_schema = nested.param_schema();
                        println!(
                            "  leaf '{}' ({}), {} parameter(s)",
                            nested.name(),
                            nested.label(),
                            nested_schema.len()
                        );
                        for param in nested_schema.specs() {
                            println!(
                                "    {} ({}, default {}, {}): {}",
                                param.name,
                                param.kind.label(),
                                param.default,
                                param.kind.bounds_label(),
                                param.doc
                            );
                        }
                    }
                    Err(_) => println!("  leaf '{choice}' (not registered)"),
                }
            }
        }
    }
    println!(
        "use e.g. --scenario '{}{{{}=...}}:uniform-random' to override",
        builder.name(),
        schema.specs()[0].name
    );
}

/// Parses a `--cache-max-bytes` budget: a non-negative integer with an
/// optional `k`/`m`/`g` (or `kb`/`mb`/`gb`) suffix, powers of 1024.
fn parse_byte_budget(text: &str) -> Result<u64, String> {
    let lower = text.trim().to_ascii_lowercase();
    let (digits, multiplier) =
        if let Some(rest) = lower.strip_suffix("kb").or(lower.strip_suffix('k')) {
            (rest, 1024u64)
        } else if let Some(rest) = lower.strip_suffix("mb").or(lower.strip_suffix('m')) {
            (rest, 1024 * 1024)
        } else if let Some(rest) = lower.strip_suffix("gb").or(lower.strip_suffix('g')) {
            (rest, 1024 * 1024 * 1024)
        } else {
            (lower.as_str(), 1)
        };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(multiplier))
        .ok_or_else(|| format!("--cache-max-bytes needs N[k|m|g] bytes, got '{text}'"))
}

/// Parses one `--arch-params KEY=V1,V2,...` axis argument.
fn parse_param_axis(text: &str) -> Result<(String, Vec<String>), String> {
    let (key, values) = text
        .split_once('=')
        .ok_or_else(|| format!("--arch-params needs KEY=V1[,V2,...], got '{text}'"))?;
    let values: Vec<String> = values
        .split(',')
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .collect();
    if key.trim().is_empty() || values.is_empty() {
        return Err(format!(
            "--arch-params needs a non-empty key and at least one value, got '{text}'"
        ));
    }
    Ok((key.trim().to_string(), values))
}

/// Runs a batch of scenario specs through the flattened matrix engine and
/// prints the per-scenario summary table. With `percentiles`, the table
/// gains p50/p95/p99 latency columns read from the streamed per-point
/// metric reports (at each scenario's saturation point). With a `cache`,
/// already-stored points are served without simulating and fresh points are
/// stored back.
fn run_scenario_batch(
    specs: &[ScenarioSpec],
    percentiles: bool,
    cache: Option<&dyn PointCache>,
) -> MatrixResult {
    ensure_registered();
    eprintln!(
        "[repro] running {} scenario(s) through the batch engine ...",
        specs.len()
    );
    let outcome = run_specs_with_cache(specs, cache).unwrap_or_else(|error| {
        eprintln!("{error}");
        std::process::exit(2);
    });
    let mut header = vec![
        "scenario",
        "points",
        "peak BW (Gb/s)",
        "sustainable BW (Gb/s)",
        "EPM@sat (pJ)",
        "latency@sat (cycles)",
    ];
    if percentiles {
        header.extend(["p50 (cyc)", "p95 (cyc)", "p99 (cyc)"]);
    }
    let mut table = Table::new("Scenario batch results", &header);
    for result in &outcome.scenarios {
        let mut row = vec![
            result.spec.id(),
            result.result.points.len().to_string(),
            fmt_f(result.result.peak_bandwidth_gbps(), 1),
            fmt_f(result.result.sustainable_bandwidth_gbps(), 1),
            fmt_f(result.result.packet_energy_at_saturation_pj(), 1),
            fmt_f(result.result.latency_at_saturation(), 1),
        ];
        if percentiles {
            match latency_percentiles_at_saturation(result) {
                Some(ps) => row.extend(ps.iter().map(u64::to_string)),
                None => row.extend(["-".to_string(), "-".to_string(), "-".to_string()]),
            }
        }
        table.add_row(&row);
    }
    println!("{table}");
    print_workload_table(&outcome);
    log_batch(&outcome, cache.is_some());
    outcome
}

/// Logs the work-queue (and, when a cache was attached, the cache) accounting
/// of a finished batch.
fn log_batch(outcome: &MatrixResult, cached: bool) {
    eprintln!(
        "[repro] batch: {} scenario(s), {} point(s) ({} unique after dedup), {} simulated in {:.2}s",
        outcome.scenarios.len(),
        outcome.total_points,
        outcome.unique_points,
        outcome.cache.simulated,
        outcome.wall_clock_seconds
    );
    if cached {
        eprintln!(
            "[repro] cache: {} hit(s), {} miss(es), {} stored",
            outcome.cache.hits, outcome.cache.misses, outcome.cache.stored
        );
    }
}

/// Prints the closed-loop summary for any workload scenarios in the batch:
/// DAG-drain status, makespan, flow-completion-time percentiles and the
/// per-collective makespan breakdown, read from the single point's metric
/// report.
fn print_workload_table(outcome: &MatrixResult) {
    let closed: Vec<_> = outcome
        .scenarios
        .iter()
        .filter(|result| result.spec.workload.is_some())
        .collect();
    if closed.is_empty() {
        return;
    }
    let mut table = Table::new(
        "Closed-loop workload results",
        &[
            "scenario",
            "flows",
            "drained",
            "makespan (cyc)",
            "FCT p50",
            "FCT p95",
            "FCT p99",
            "collectives",
        ],
    );
    for result in &closed {
        let Some(point) = result.result.points.first() else {
            continue;
        };
        let metrics = &point.metrics;
        let fct = metrics.histogram("flow_completion_cycles");
        let percentile = |p: f64| {
            fct.and_then(|sketch| sketch.percentile(p))
                .map_or_else(|| "-".to_string(), |v| v.to_string())
        };
        let collectives = metrics
            .family("collective_makespan_cycles")
            .map(|family| {
                family
                    .iter()
                    .map(|(label, value)| match value {
                        MetricValue::Gauge(span) => format!("{label}={span:.0}"),
                        other => format!("{label}={other:?}"),
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_default();
        let row = vec![
            result.spec.id(),
            metrics
                .counter("flows_total")
                .map_or_else(|| "-".to_string(), |v| v.to_string()),
            if metrics.gauge("workload_drained") == Some(1.0) {
                "yes".to_string()
            } else {
                "NO (hit cycle cap)".to_string()
            },
            metrics
                .gauge("workload_makespan_cycles")
                .map_or_else(|| "-".to_string(), |v| format!("{v:.0}")),
            percentile(50.0),
            percentile(95.0),
            percentile(99.0),
            collectives,
        ];
        table.add_row(&row);
    }
    println!("{table}");
}

/// A catalogue flag: print one listing and exit without running anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Listing {
    Experiments,
    Architectures,
    Faults,
    Traffic,
    Workloads,
    Help,
}

impl Listing {
    fn from_flag(arg: &str) -> Option<Self> {
        match arg {
            "--list" => Some(Listing::Experiments),
            "--list-architectures" => Some(Listing::Architectures),
            "--list-faults" => Some(Listing::Faults),
            "--list-traffic" => Some(Listing::Traffic),
            "--list-workloads" => Some(Listing::Workloads),
            "--help" | "-h" => Some(Listing::Help),
            _ => None,
        }
    }

    fn print(self) {
        match self {
            Listing::Experiments => {
                for name in ALL_EXPERIMENTS {
                    println!("{name}");
                }
            }
            Listing::Architectures => {
                ensure_registered();
                for name in pnoc_sim::registry::registered_architectures() {
                    let params = pnoc_sim::registry::lookup_architecture(&name)
                        .map(|b| b.param_schema().len())
                        .unwrap_or(0);
                    let plural = if params == 1 { "" } else { "s" };
                    println!("{name} ({params} parameter{plural})");
                }
            }
            Listing::Faults => list_faults(),
            Listing::Traffic => {
                for name in pnoc_traffic::factory::registered_traffic_patterns() {
                    println!("{name}");
                }
            }
            Listing::Workloads => {
                for name in pnoc_workload::registry::registered_workloads() {
                    println!("{name}");
                }
            }
            Listing::Help => println!(
                "usage: repro [--quick|--paper] [--json FILE] [--threads N]\n\
                 \x20            [--scenario ARCH[{{k=v,...}}]:TRAFFIC[:SET[:EFFORT]]]...\n\
                 \x20            [--matrix[=FILE]] [--arch SPEC]... [--arch-params K=V1,V2]...\n\
                 \x20            [--workload NAME[:SIZE]]... [--batch-json FILE]\n\
                 \x20            [--faults PLAN]... [--list-faults]\n\
                 \x20            [--metrics FILE] [--percentiles]\n\
                 \x20            [--cache-dir DIR]\n\
                 \x20            [--cache-max-bytes N[k|m|g]] [--cache-compact]\n\
                 \x20            [--serve ADDR] [--serve-requests N]\n\
                 \x20            [--dump-scenarios FILE] [--from-scenarios FILE]\n\
                 \x20            [--describe-arch NAME] [--list-architectures]\n\
                 \x20            [--list-traffic] [--list-workloads] [EXPERIMENT ...]\n\
                 experiments: {}",
                ALL_EXPERIMENTS.join(", ")
            ),
        }
    }
}

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Options {
    /// Set by the first catalogue flag, which also ends parsing.
    listing: Option<Listing>,
    effort: Effort,
    names: Vec<String>,
    json_path: Option<String>,
    /// `--threads N`; 0 keeps the detected parallelism.
    thread_override: usize,
    matrix_path: Option<String>,
    dump_path: Option<String>,
    batch_json_path: Option<String>,
    scenario_args: Vec<String>,
    workload_args: Vec<String>,
    describe_args: Vec<String>,
    arch_args: Vec<String>,
    param_axes: Vec<(String, Vec<String>)>,
    fault_args: Vec<String>,
    from_paths: Vec<String>,
    metrics_path: Option<String>,
    percentiles: bool,
    cache_dir: Option<String>,
    cache_max_bytes: Option<u64>,
    cache_compact: bool,
    serve_addr: Option<String>,
    serve_requests: Option<u64>,
}

/// Every flag that takes a value, with the text that completes its
/// "`FLAG requires ...`" message.
const VALUE_FLAGS: &[(&str, &str)] = &[
    ("--describe-arch", "an architecture name"),
    ("--arch", "NAME[{key=value,...}]"),
    ("--arch-params", "KEY=V1[,V2,...]"),
    ("--faults", "a preset name or plan text (try --list-faults)"),
    ("--json", "a file path"),
    ("--scenario", "ARCH:TRAFFIC[:SET[:EFFORT]]"),
    ("--workload", "NAME[:SIZE] (try --list-workloads)"),
    ("--batch-json", "a file path"),
    ("--dump-scenarios", "a file path"),
    ("--from-scenarios", "a file path"),
    ("--metrics", "a file path"),
    ("--cache-dir", "a directory path"),
    ("--cache-max-bytes", "a byte budget (e.g. 64m)"),
    ("--serve", "a listen address (e.g. 127.0.0.1:9119)"),
    ("--serve-requests", "a positive request count"),
    ("--threads", "a positive worker count"),
];

/// Reads the value of flag `name` when `arg` spells it: `--name=V` carries
/// it inline, a bare `--name` takes the next argument. `None` means `arg` is
/// some other flag, `Some(None)` that the value is missing.
fn flag_value(
    name: &str,
    arg: &str,
    iter: &mut impl Iterator<Item = String>,
) -> Option<Option<String>> {
    let rest = arg.strip_prefix(name)?;
    match rest.strip_prefix('=') {
        Some(value) => Some(Some(value.to_string())),
        None if rest.is_empty() => Some(iter.next()),
        None => None,
    }
}

/// Parses the command line (without the program name). Errors are the
/// message `main` prints before exiting with status 2.
fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut o = Options {
        listing: None,
        effort: Effort::Paper,
        names: Vec::new(),
        json_path: None,
        thread_override: 0,
        matrix_path: None,
        dump_path: None,
        batch_json_path: None,
        scenario_args: Vec::new(),
        workload_args: Vec::new(),
        describe_args: Vec::new(),
        arch_args: Vec::new(),
        param_axes: Vec::new(),
        fault_args: Vec::new(),
        from_paths: Vec::new(),
        metrics_path: None,
        percentiles: false,
        cache_dir: None,
        cache_max_bytes: None,
        cache_compact: false,
        serve_addr: None,
        serve_requests: None,
    };
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let valued = VALUE_FLAGS.iter().find_map(|&(name, requires)| {
            flag_value(name, &arg, &mut iter).map(|value| (name, requires, value))
        });
        if let Some((name, requires, value)) = valued {
            let invalid = || format!("{name} requires {requires}");
            let value = value.ok_or_else(invalid)?;
            let positive = |text: &str| text.parse::<u64>().ok().filter(|&n| n > 0);
            match name {
                "--describe-arch" => o.describe_args.push(value),
                "--arch" => o.arch_args.push(value),
                "--arch-params" => o.param_axes.push(parse_param_axis(&value)?),
                "--faults" => o.fault_args.push(value),
                "--json" => o.json_path = Some(value),
                "--scenario" => o.scenario_args.push(value),
                "--workload" => o.workload_args.push(value),
                "--batch-json" => o.batch_json_path = Some(value),
                "--dump-scenarios" => o.dump_path = Some(value),
                "--from-scenarios" => o.from_paths.push(value),
                "--metrics" => o.metrics_path = Some(value),
                "--cache-dir" => o.cache_dir = Some(value),
                "--cache-max-bytes" => o.cache_max_bytes = Some(parse_byte_budget(&value)?),
                "--serve" => o.serve_addr = Some(value),
                "--serve-requests" => {
                    o.serve_requests = Some(positive(&value).ok_or_else(invalid)?);
                }
                "--threads" => {
                    o.thread_override = positive(&value)
                        .and_then(|n| usize::try_from(n).ok())
                        .ok_or_else(invalid)?;
                }
                _ => unreachable!("'{name}' is listed in VALUE_FLAGS"),
            }
            continue;
        }
        if let Some(listing) = Listing::from_flag(&arg) {
            o.listing = Some(listing);
            break;
        }
        match arg.as_str() {
            "--quick" => o.effort = Effort::Quick,
            "--paper" => o.effort = Effort::Paper,
            "--percentiles" => o.percentiles = true,
            "--cache-compact" => o.cache_compact = true,
            "--matrix" => o.matrix_path = Some("MATRIX_sweep.json".to_string()),
            other => {
                if let Some(path) = other.strip_prefix("--matrix=") {
                    o.matrix_path = Some(path.to_string());
                } else if other.starts_with('-') {
                    return Err(format!("unknown flag '{other}', try --help"));
                } else {
                    o.names.push(other.to_string());
                }
            }
        }
    }
    Ok(o)
}

impl Options {
    /// Whether the experiments were asked for by name or through their
    /// `--json` report (other work on its own runs only what it names).
    fn names_experiments(&self) -> bool {
        !self.names.is_empty() || self.json_path.is_some()
    }

    /// Whether anything besides cache maintenance was asked for: the
    /// experiments, a scenario batch or its dumped specs, or the server.
    fn requests_work(&self) -> bool {
        self.names_experiments()
            || !self.scenario_args.is_empty()
            || !self.workload_args.is_empty()
            || !self.arch_args.is_empty()
            || !self.from_paths.is_empty()
            || self.matrix_path.is_some()
            || self.batch_json_path.is_some()
            || self.dump_path.is_some()
            || self.serve_addr.is_some()
    }

    /// Rejects a flag whose work would never run: `--metrics`,
    /// `--batch-json` and `--percentiles` need a scenario batch that runs,
    /// and `--serve-requests` needs `--serve`.
    fn check_flags_take_effect(&self) -> Result<(), String> {
        let runs_batch = (!self.scenario_args.is_empty()
            || !self.workload_args.is_empty()
            || !self.from_paths.is_empty()
            || self.matrix_path.is_some())
            && self.dump_path.is_none();
        let batch_flags = [
            ("--metrics", self.metrics_path.is_some()),
            ("--batch-json", self.batch_json_path.is_some()),
            ("--percentiles", self.percentiles),
        ];
        if let Some((flag, _)) = batch_flags.iter().find(|&&(_, given)| given && !runs_batch) {
            return Err(format!(
                "{flag} needs a scenario batch that runs (--scenario, --workload, \
                 --from-scenarios or --matrix, without --dump-scenarios)"
            ));
        }
        if self.serve_requests.is_some() && self.serve_addr.is_none() {
            return Err("--serve-requests needs --serve".to_string());
        }
        Ok(())
    }
}

fn main() {
    let options = parse_args(std::env::args().skip(1).collect()).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    let names_experiments = options.names_experiments();
    let requests_work = options.requests_work();
    let flags_take_effect = options.check_flags_take_effect();
    let Options {
        listing,
        effort,
        mut names,
        json_path,
        thread_override,
        matrix_path,
        dump_path,
        batch_json_path,
        scenario_args,
        workload_args,
        describe_args,
        arch_args,
        param_axes,
        fault_args,
        from_paths,
        metrics_path,
        percentiles,
        cache_dir,
        cache_max_bytes,
        cache_compact,
        serve_addr,
        serve_requests,
    } = options;
    if let Some(listing) = listing {
        listing.print();
        return;
    }
    if let Err(message) = flags_take_effect {
        eprintln!("{message}");
        std::process::exit(2);
    }

    // Apply the worker-count override before any parallel sweep runs; 0
    // (no --threads flag) keeps the detected parallelism.
    pnoc_exec::set_worker_override(thread_override);

    if !describe_args.is_empty() {
        for name in &describe_args {
            describe_architecture(name);
        }
        return;
    }

    // The result cache is strictly opt-in: without --cache-dir every point
    // simulates.
    let store: Option<ResultStore> = cache_dir.as_ref().map(|dir| {
        let store = ResultStore::open(dir).unwrap_or_else(|error| {
            eprintln!("cannot open cache directory {dir}: {error}");
            std::process::exit(1);
        });
        eprintln!(
            "[repro] result cache at {dir} ({} entr{})",
            store.entry_count(),
            if store.entry_count() == 1 { "y" } else { "ies" }
        );
        store
    });

    // Cache maintenance runs right after opening, before any lookups:
    // compaction first (drops unverifiable files), then LRU eviction to budget.
    if cache_compact || cache_max_bytes.is_some() {
        let Some(store) = &store else {
            eprintln!("--cache-compact / --cache-max-bytes require --cache-dir");
            std::process::exit(2);
        };
        if cache_compact {
            match store.compact() {
                Ok(report) => {
                    eprintln!(
                        "[repro] cache compacted: {} live entr{}, {} stray file(s) removed",
                        report.live_entries,
                        if report.live_entries == 1 { "y" } else { "ies" },
                        report.removed_files
                    )
                }
                Err(error) => {
                    eprintln!("cache compaction failed: {error}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(budget) = cache_max_bytes {
            match store.evict_to_budget(budget) {
                Ok(report) => eprintln!(
                    "[repro] cache eviction: {} of {} entr{} evicted, {} -> {} bytes \
                     (budget {budget})",
                    report.evicted,
                    report.scanned,
                    if report.scanned == 1 { "y" } else { "ies" },
                    report.bytes_before,
                    report.bytes_after
                ),
                Err(error) => {
                    eprintln!("cache eviction failed: {error}");
                    std::process::exit(1);
                }
            }
        }
        // Maintenance-only invocations stop here instead of falling through
        // to the full experiment suite.
        if !requests_work {
            return;
        }
    }
    let cache: Option<&dyn PointCache> = store.as_ref().map(|s| s as &dyn PointCache);

    if let Some(addr) = &serve_addr {
        let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|error| {
            eprintln!("cannot listen on {addr}: {error}");
            std::process::exit(1);
        });
        let local = listener
            .local_addr()
            .expect("bound listener has an address");
        eprintln!(
            "[repro] serving on http://{local} (POST /run, GET /health, GET /stats){}",
            match serve_requests {
                Some(n) => format!(", exiting after {n} request(s)"),
                None => String::new(),
            }
        );
        let report = serve(
            &listener,
            &ServerOptions {
                cache,
                max_requests: serve_requests,
                quiet: false,
                max_in_flight: 0,
                io_timeout: None,
            },
        )
        .unwrap_or_else(|error| {
            eprintln!("server failed: {error}");
            std::process::exit(1);
        });
        eprintln!(
            "[repro] served {} request(s): {} run(s), {} point(s), \
             {} cache hit(s), {} cache miss(es), {} rejected",
            report.requests,
            report.runs,
            report.points,
            report.cache_hits,
            report.cache_misses,
            report.rejected
        );
        return;
    }

    // --arch and --arch-params only feed the matrix (or a dumped matrix) and
    // the workload batch; reject combinations where they would be silently
    // ignored and the user's sweep would quietly run at defaults.
    let builds_matrix = matrix_path.is_some() || dump_path.is_some();
    if !param_axes.is_empty() && !builds_matrix {
        eprintln!(
            "--arch-params adds a matrix axis; combine it with --matrix or --dump-scenarios \
             (for a single run, use --scenario 'ARCH{{key=value,...}}:TRAFFIC')"
        );
        std::process::exit(2);
    }
    if !arch_args.is_empty() && !builds_matrix && workload_args.is_empty() {
        eprintln!(
            "--arch selects architectures for --workload, --matrix or --dump-scenarios; \
             none of those was given (for a single run, use --scenario)"
        );
        std::process::exit(2);
    }
    if !fault_args.is_empty()
        && !builds_matrix
        && scenario_args.is_empty()
        && workload_args.is_empty()
    {
        eprintln!(
            "--faults injects a fault plan into scenario runs; combine it with --scenario, \
             --workload, --matrix or --dump-scenarios (try --list-faults for the catalogue)"
        );
        std::process::exit(2);
    }

    // Assemble the scenario batch: explicit --scenario shorthands, specs
    // loaded from files, and (with --matrix) the default evaluation matrix.
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    // Crosses one assembled spec with every --faults plan (a spec that pinned
    // its own plan via a '#faults=' suffix keeps it and is not crossed).
    let cross_faults = |specs: &mut Vec<ScenarioSpec>, spec: ScenarioSpec| {
        if fault_args.is_empty() || spec.faults.is_some() {
            specs.push(spec);
        } else {
            for plan in &fault_args {
                specs.push(spec.clone().with_faults(plan.clone()));
            }
        }
    };
    for text in &scenario_args {
        let mut spec = ScenarioSpec::parse_shorthand(text).unwrap_or_else(|error| {
            eprintln!("{error}");
            std::process::exit(2);
        });
        // The shorthand's effort defaults to the CLI-wide flag unless the
        // 4th `:`-separated part pinned it explicitly (a `#faults=` plan's
        // own `:`s do not count).
        let head = text.split_once('#').map_or(text.as_str(), |(head, _)| head);
        if head.split(':').count() < 4 {
            spec = spec.with_effort(effort);
        }
        cross_faults(&mut specs, spec);
    }
    // Workloads run on the --arch spec(s) when given (crossing every
    // workload with every architecture), on d-hetpnoc otherwise.
    let workload_archs: Vec<String> = if arch_args.is_empty() {
        vec![WORKLOAD_DEFAULT_ARCHITECTURE.to_string()]
    } else {
        arch_args.clone()
    };
    for reference in &workload_args {
        for arch in &workload_archs {
            let (name, params) = ArchParams::split_spec(arch).unwrap_or_else(|error| {
                eprintln!("{error}");
                std::process::exit(2);
            });
            cross_faults(
                &mut specs,
                ScenarioSpec::closed_loop(name, reference.clone())
                    .with_arch_params(params)
                    .with_effort(effort),
            );
        }
    }
    for path in &from_paths {
        let loaded = parse_scenarios(&read_file(path)).unwrap_or_else(|error| {
            eprintln!("{path}: {error}");
            std::process::exit(2);
        });
        if loaded.is_empty() {
            eprintln!("{path}: the document holds no scenarios");
            std::process::exit(2);
        }
        eprintln!("[repro] loaded {} scenario(s) from {path}", loaded.len());
        specs.extend(loaded);
    }
    if matrix_path.is_some() {
        specs.extend(default_matrix(effort, &arch_args, &param_axes, &fault_args).specs());
    }

    if let Some(path) = &dump_path {
        // Dump instead of running: write the selected batch (or the default
        // matrix when nothing was selected) and skip the scenario runs.
        // Other explicitly requested work — named experiments, --json
        // reports — still runs below.
        let dumped = if specs.is_empty() {
            default_matrix(effort, &arch_args, &param_axes, &fault_args).specs()
        } else {
            std::mem::take(&mut specs)
        };
        // Every dumped spec must run from the file: one that does not
        // resolve fails here, and nothing is written.
        ensure_registered();
        for spec in &dumped {
            if let Err(error) = spec.resolve() {
                eprintln!("{error}");
                std::process::exit(2);
            }
        }
        write_file(path, &render_scenarios(&dumped));
        eprintln!("[repro] wrote {} scenario spec(s) to {path}", dumped.len());
        if !names_experiments {
            return;
        }
    }

    let ran_scenarios = if specs.is_empty() {
        false
    } else {
        let outcome = run_scenario_batch(&specs, percentiles, cache);
        if let Some(path) = &matrix_path {
            write_file(path, &(matrix_json(&outcome).render() + "\n"));
            eprintln!("[repro] wrote {path}");
        }
        if let Some(path) = &batch_json_path {
            write_file(path, &(matrix_json(&outcome).render() + "\n"));
            eprintln!("[repro] wrote {path}");
        }
        if let Some(path) = &metrics_path {
            write_metrics_file(&outcome, path);
        }
        true
    };

    // A scenario batch on its own runs only what it names; experiments run
    // too when named explicitly or when a --json report was requested.
    if ran_scenarios && !names_experiments {
        return;
    }

    if names.is_empty() {
        names = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    for name in &names {
        if !ALL_EXPERIMENTS.contains(&name.as_str()) {
            eprintln!(
                "unknown experiment '{name}'; valid experiments: {}",
                ALL_EXPERIMENTS.join(", ")
            );
            std::process::exit(2);
        }
    }

    // One batch for everything named: the figures' cells are unioned and
    // each distinct one simulates once (or is served from the cache).
    eprintln!("[repro] running {} ({effort:?}) ...", names.join(", "));
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let (reports, batch) = experiments::run(&names, effort, cache);
    if !batch.scenarios.is_empty() {
        log_batch(&batch, cache.is_some());
    }
    for report in &reports {
        println!("{}", report.render());
    }

    if let Some(path) = json_path {
        write_file(&path, &(reports_json(&reports).render() + "\n"));
        eprintln!("[repro] wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|arg| arg.to_string()).collect())
    }

    #[test]
    fn every_value_flag_accepts_both_spellings() {
        for &(name, _) in VALUE_FLAGS {
            let value = match name {
                "--arch-params" => "radix=8,32",
                "--cache-max-bytes" => "64m",
                "--serve-requests" | "--threads" => "3",
                _ => "some-value",
            };
            let spaced = parse(&[name, value]).unwrap_or_else(|e| panic!("{name} V: {e}"));
            let inline =
                parse(&[&format!("{name}={value}")]).unwrap_or_else(|e| panic!("{name}=V: {e}"));
            assert_eq!(spaced, inline, "{name}");
            assert_ne!(spaced, parse(&[]).expect("empty"), "{name} left no trace");
        }
        let options = parse(&[
            "--json=r.json",
            "--from-scenarios=a",
            "--from-scenarios",
            "b",
        ])
        .expect("parses");
        assert_eq!(options.json_path.as_deref(), Some("r.json"));
        assert_eq!(options.from_paths, ["a", "b"]);
        assert_eq!(
            parse(&["--arch-params=pods=1,4"])
                .expect("parses")
                .param_axes,
            [("pods".to_string(), vec!["1".to_string(), "4".to_string()])]
        );
    }

    #[test]
    fn missing_and_invalid_values_name_the_flag() {
        for &(name, requires) in VALUE_FLAGS {
            assert_eq!(parse(&[name]), Err(format!("{name} requires {requires}")));
        }
        assert_eq!(
            parse(&["--threads", "0"]),
            Err("--threads requires a positive worker count".to_string())
        );
    }

    #[test]
    fn unknown_flags_are_rejected_and_listings_end_parsing() {
        assert_eq!(
            parse(&["--quick", "--bogus"]),
            Err("unknown flag '--bogus', try --help".to_string())
        );
        assert_eq!(
            parse(&["--archx=1"]),
            Err("unknown flag '--archx=1', try --help".to_string())
        );
        let options = parse(&["--quick", "fig3_6", "--list", "--bogus"]).expect("parses");
        assert_eq!(options.listing, Some(Listing::Experiments));
        assert_eq!(options.effort, Effort::Quick);
        assert_eq!(options.names, ["fig3_6"]);
        let options = parse(&["--matrix"]).expect("parses");
        assert_eq!(options.matrix_path.as_deref(), Some("MATRIX_sweep.json"));
    }
}
