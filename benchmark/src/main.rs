//! The program behind `BENCHMARK.json`; see `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1   one run
//! run.sh [--seed N] [--seconds S]                           every workload, untraced then traced
//! run.sh --selfcheck                                        the untraced suite twice, compared
//! run.sh --bless                                            regenerate benchmark/golden/
//! ```
//!
//! Run from the root of the checkout. The last line of a single run's
//! standard output is the result object the driver reads.

mod golden;
mod harness;
mod host;
mod metrics;
mod trace;
mod workloads;

use harness::{fastest, percentile, BestCalls, Better, Summary};
use metrics::{END_TO_END, PER_LAYER};
use pnoc_store::Json;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{Tracer, OUTSIDE_REPS};
use workloads::{Descriptor, Layers, Workload, WORKLOADS};

/// The seed the golden files were blessed with.
const DEFAULT_SEED: u64 = pnoc_sim::scenario::DEFAULT_SEED;
/// Measured seconds per run unless `--seconds` says otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;
/// Fresh processes timed for `setup_s` before the first rep; one more is
/// timed after every rep, so that the samples span the whole run.
const SETUP_PROCESSES_UP_FRONT: usize = 5;
/// A run too short for this many reps still makes them.
const MIN_REPS: usize = 3;
const OUT_DIR: &str = "benchmark/out";

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
    selfcheck: bool,
    setup_only: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        bless: false,
        selfcheck: false,
        setup_only: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value()?.to_string()),
            "--seed" => {
                let text = value()?;
                options.seed = match text.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                }
                .map_err(|_| format!("--seed: '{text}' is not a 64-bit unsigned number"))?;
            }
            "--seconds" => {
                let text = value()?;
                options.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: '{text}' is not a positive number"))?;
            }
            "--trace" => {
                options.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got '{other}'")),
                }
            }
            "--bless" => options.bless = true,
            "--selfcheck" => options.selfcheck = true,
            "--setup-only" => options.setup_only = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(options)
}

fn descriptor(name: &str) -> Result<&'static Descriptor, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })
}

/// Everything between process start and the first rep: registration, the
/// executor pool, the output directory and the workload's inputs.
fn set_up(workload: &Descriptor, seed: u64) -> Box<dyn Workload> {
    pnoc_bench::runner::ensure_registered();
    // One CPU is left to the client thread and the rest of the machine (see
    // README.md, "Noise on this host").
    let threads = host::nproc()
        .saturating_sub(1)
        .clamp(1, workload.max_pool_threads);
    pnoc_exec::set_worker_override(threads);
    pnoc_exec::warm_up();
    std::fs::create_dir_all(OUT_DIR).expect("benchmark/out can be created in the checkout");
    (workload.build)(seed)
}

/// Wall time of one fresh process that sets up and exits. One-time costs
/// (registration, lazy statics, pool start-up) are paid once per process, so
/// only a fresh process pays what a user pays.
fn time_fresh_setup(workload: &Descriptor, seed: u64) -> f64 {
    let exe = std::env::current_exe().expect("the running program has a path");
    let started = Instant::now();
    let status = Command::new(exe)
        .args(["--setup-only", "--workload", workload.name, "--seed"])
        .arg(seed.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .expect("the benchmark can start itself");
    assert!(status.success(), "a set-up-only process failed");
    started.elapsed().as_secs_f64()
}

/// What the warm-up rep, the timed reps and the checks of one run produced.
struct Measured {
    attempted: u64,
    failures: Vec<String>,
    warmup_rep_s: f64,
    /// Host seconds of each timed rep, whole.
    rep_s: Vec<f64>,
    best_calls: BestCalls,
    setup_s: f64,
    /// `VmHWM` when the last timed rep ended.
    peak_rss_mb: f64,
}

/// The warm-up rep, the timed reps and the once-per-run checks.
fn measure(
    workload: &Descriptor,
    instance: &mut dyn Workload,
    options: &Options,
    tracer: &Tracer,
) -> Measured {
    let mut setup_samples: Vec<f64> = (0..SETUP_PROCESSES_UP_FRONT)
        .map(|_| time_fresh_setup(workload, options.seed))
        .collect();

    let warmup_started = Instant::now();
    let reference = instance.rep(tracer);
    let warmup_rep_s = warmup_started.elapsed().as_secs_f64();
    let mut attempted = reference.attempted;
    let mut failures: Vec<String> = reference
        .failures
        .iter()
        .map(|f| format!("warm-up rep: {f}"))
        .collect();
    if options.bless {
        golden::bless(workload.name, options.seed, &reference.stats).expect("golden file writes");
        println!("# blessed benchmark/golden/{}.json", workload.name);
    } else if options.seed == DEFAULT_SEED {
        match golden::load(workload.name) {
            Ok(golden) => {
                let (compared, mismatches) = golden::compare(&golden, &reference.stats);
                attempted += compared;
                failures.extend(mismatches.into_iter().map(|m| format!("golden: {m}")));
            }
            Err(error) => {
                attempted += 1;
                failures.push(error);
            }
        }
    } else {
        println!("# seed is not the golden seed: checking invariants only");
    }

    // The traced run keeps half its time for the layer probes, and records
    // spans on every other rep so that it can report its own overhead.
    let budget = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    instance.start_timed_reps();
    let mut rep_s: Vec<f64> = Vec::new();
    let mut best_calls = BestCalls::default();
    let reps_started = Instant::now();
    loop {
        let best = fastest(rep_s.iter().copied()).min(warmup_rep_s);
        if rep_s.len() >= MIN_REPS && reps_started.elapsed().as_secs_f64() + best > budget {
            break;
        }
        let rep = rep_s.len();
        tracer.set_enabled(options.trace && rep.is_multiple_of(2));
        tracer.set_rep(rep as i32);
        let rep_started = Instant::now();
        let outcome = tracer.span("harness:rep", || instance.rep(tracer));
        rep_s.push(rep_started.elapsed().as_secs_f64());
        best_calls.absorb(&outcome.calls);
        // One more operation per rep: it must repeat the warm-up rep exactly.
        attempted += outcome.attempted + 1;
        failures.extend(outcome.failures.iter().map(|f| format!("rep {rep}: {f}")));
        if outcome.stats != reference.stats {
            failures.push(format!(
                "rep {rep}: simulated statistics differ from the warm-up rep's"
            ));
        }
        setup_samples.push(time_fresh_setup(workload, options.seed));
    }
    tracer.set_enabled(false);
    tracer.set_rep(OUTSIDE_REPS);
    // Read before the checks below: they run on two threads whatever the
    // workload uses, and their memory is not the workload's.
    let peak_rss_mb = host::peak_rss_mb();
    let (checked, problems) = instance.verify();
    attempted += checked;
    failures.extend(problems);
    Measured {
        peak_rss_mb,
        attempted,
        failures,
        warmup_rep_s,
        rep_s,
        best_calls,
        setup_s: percentile(&setup_samples, 50.0),
    }
}

/// The per-layer metrics of a traced run, in `PER_LAYER` order; writes the
/// trace file.
fn layer_metrics(
    workload: &Descriptor,
    header: &str,
    tracer: &Tracer,
    measured: &Measured,
    mut layers: Layers,
) -> Vec<f64> {
    let spans = tracer.spans();
    for (layer, share) in trace::layer_share_pct(&spans) {
        let name = format!("span.{layer}_pct");
        match PER_LAYER.iter().find(|m| m.0 == name) {
            Some(&(metric, _, _)) => {
                layers.insert(metric, share);
            }
            None => {
                println!("# span layer '{layer}': {share:.2} % of rep time (not a declared metric)")
            }
        }
    }
    let best_of = |traced: bool| {
        let reps = measured.rep_s.iter().enumerate();
        fastest(reps.filter_map(|(rep, s)| (rep.is_multiple_of(2) == traced).then_some(*s)))
    };
    layers.insert(
        "harness.trace_overhead_pct",
        (best_of(true) / best_of(false) - 1.0) * 100.0,
    );
    let reps = Summary::of(&measured.rep_s);
    layers.insert("harness.warmup_rep_s", measured.warmup_rep_s);
    layers.insert("harness.rep_iqr_pct", reps.iqr_pct());
    layers.insert("harness.reps", reps.n as f64);

    let trace_path = format!("{OUT_DIR}/trace_{}.jsonl", workload.name);
    trace::write_jsonl(std::path::Path::new(&trace_path), header, &spans)
        .expect("the trace file writes");
    println!("# {} spans written to {trace_path}", spans.len());

    let undeclared: Vec<&&str> = layers
        .keys()
        .filter(|name| !PER_LAYER.iter().any(|m| m.0 == **name))
        .collect();
    assert!(
        undeclared.is_empty(),
        "undeclared layer metrics: {undeclared:?}"
    );
    PER_LAYER
        .iter()
        .map(|(name, _, _)| layers.get(name).copied().unwrap_or(0.0))
        .collect()
}

/// One run of one workload; prints the report and, last, the result object.
fn run_workload(workload: &'static Descriptor, options: &Options) -> ExitCode {
    let started = Instant::now();
    let mut instance = set_up(workload, options.seed);
    if options.setup_only {
        return ExitCode::SUCCESS;
    }
    let header = host::HostHeader {
        workload: workload.name,
        pool_threads: pnoc_exec::worker_override(),
        connections: workload.connections,
        seed: options.seed,
        seconds: options.seconds,
    }
    .render();
    println!("# host {header}");

    let tracer = Tracer::new(false);
    let mut layers = Layers::new();
    if options.trace {
        instance.probe_before_reps(&mut layers);
    }
    let measured = measure(workload, instance.as_mut(), options, &tracer);
    let reps = Summary::of(&measured.rep_s);
    println!(
        "# {}: {} timed reps after a {:.3} s warm-up rep; whole reps: best {:.4} s, \
         median {:.4} s, quartiles {:.4} s and {:.4} s (IQR {:.2} % of the median)",
        workload.name,
        reps.n,
        measured.warmup_rep_s,
        reps.best,
        reps.median,
        reps.q1,
        reps.q3,
        reps.iqr_pct()
    );

    // `(name, unit, good direction, value)` in the order of the tables.
    let metrics: Vec<(&str, &str, Better, f64)> = if options.trace {
        instance.probe_layers(&tracer, &mut layers);
        layers.insert("harness.wall_s", started.elapsed().as_secs_f64());
        let values = layer_metrics(workload, &header, &tracer, &measured, layers);
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit, better), value)| (name, unit, better, value))
            .collect()
    } else {
        let (cycles_per_s, points_per_s) = measured.best_calls.rates();
        let values = [
            measured.setup_s,
            cycles_per_s,
            points_per_s,
            measured.best_calls.rep_s(),
            measured.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| (m.name, m.unit, m.better, value))
            .collect()
    };

    println!(
        "{:<36} {:>8} {:>6} {:>14}",
        "metric", "unit", "better", "value"
    );
    for (name, unit, better, value) in &metrics {
        println!("{name:<36} {unit:>8} {:>6} {value:>14.6}", better.label());
    }
    for failure in &measured.failures {
        println!("# FAILED {failure}");
    }
    let failed = measured.failures.len() as u64;
    println!(
        "# {} operations attempted, {failed} failed",
        measured.attempted
    );
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, _, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        measured.attempted,
        fields.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a process of its own, echoing its report; returns
/// its result object.
fn run_child(workload: &str, options: &Options, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed"])
        .arg(options.seed.to_string())
        .arg("--seconds")
        .arg(options.seconds.to_string())
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null());
    if options.bless {
        command.arg("--bless");
    }
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    if !output.status.success() {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    let last = text.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| format!("{workload}: last line is not a result object: {e:?}"))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload, each in its own process: untraced (end to end), then
/// traced (per layer).
fn run_suite(options: &Options) -> ExitCode {
    let mut failed = false;
    for workload in &WORKLOADS {
        for trace in [false, true] {
            if let Err(error) = run_child(workload.name, options, trace) {
                eprintln!("{error}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The untraced suite twice, in alternating workload order; fails when two
/// runs of the same code disagree by more than a metric's own bound.
fn run_selfcheck(options: &Options) -> ExitCode {
    let mut sets: Vec<Vec<Json>> = Vec::new();
    for reverse in [false, true] {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if reverse {
            order.reverse();
        }
        let mut results = vec![Json::Null; WORKLOADS.len()];
        for index in order {
            match run_child(WORKLOADS[index].name, options, false) {
                Ok(result) => results[index] = result,
                Err(error) => {
                    eprintln!("{error}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(results);
    }
    println!(
        "{:<26} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    let mut exceeded = false;
    for (index, workload) in WORKLOADS.iter().enumerate() {
        for metric in &END_TO_END {
            let first = metric_value(&sets[0][index], metric.name).unwrap_or(f64::NAN);
            let second = metric_value(&sets[1][index], metric.name).unwrap_or(f64::NAN);
            let diff = (first - second).abs() / first.min(second);
            let over = diff.is_nan() || diff > metric.bound;
            exceeded |= over;
            println!(
                "{:<26} {:<18} {first:>14.6} {second:>14.6} {:>9.2} {:>7.1}{}",
                workload.name,
                metric.name,
                diff * 100.0,
                metric.bound * 100.0,
                if over { "  EXCEEDED" } else { "" }
            );
        }
    }
    if exceeded {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("pnoc-benchmark: {error}");
            return ExitCode::from(2);
        }
    };
    if options.selfcheck {
        return run_selfcheck(&options);
    }
    match options.workload.as_deref().map(descriptor) {
        Some(Ok(workload)) => run_workload(workload, &options),
        Some(Err(error)) => {
            eprintln!("pnoc-benchmark: {error}");
            ExitCode::from(2)
        }
        None => run_suite(&options),
    }
}
