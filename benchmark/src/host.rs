//! What the host is: printed beside every number, because a rate or a
//! parallel speed-up means nothing without the cores it was taken on.

use std::process::{Command, Stdio};

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line: the benchmark only
/// runs on Linux.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// First line of a tool's output, or `unknown` when it cannot be run (the
/// driver's checkout is not a git repository; git must not look above it).
fn first_line_of(program: &str, args: &[&str]) -> String {
    let above = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", above)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The header printed above every result and written at the top of every
/// trace file, as the fields of a JSON object.
pub struct HostHeader {
    /// Workload name.
    pub workload: &'static str,
    /// Executor pool threads the workload uses.
    pub pool_threads: usize,
    /// Concurrent client connections the workload opens.
    pub connections: usize,
    /// The run's `--seed`.
    pub seed: u64,
    /// The run's `--seconds`.
    pub seconds: f64,
}

impl HostHeader {
    /// Renders the header as one JSON object on one line.
    pub fn render(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"nproc\":{},\"pool_threads\":{},\"connections\":{},\
             \"seed\":\"{:#x}\",\"seconds\":{},\"effort\":\"quick\",\"commit\":\"{}\",\"rustc\":\"{}\"}}",
            self.workload,
            nproc(),
            self.pool_threads,
            self.connections,
            self.seed,
            self.seconds,
            first_line_of("git", &["rev-parse", "--short", "HEAD"]),
            first_line_of("rustc", &["-V"]),
        )
    }
}
