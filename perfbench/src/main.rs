//! The repository benchmark: seeded socket workloads against the
//! explanation server, with end-to-end metrics (untraced run) or
//! per-layer metrics (traced run).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rank_30k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Progress and notes go to stdout; the last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. A failed
//! correctness check prints that line with `"correct": false` and
//! exits 1; bad arguments exit 2 without a result.

mod check;
mod client;
mod e2e;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::{Command, ExitCode};

/// Set in the child process that measures.
const MEASURING: &str = "PERFBENCH_MEASURING";

/// What one run found.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("{name:<40} {value:>14.4} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// A failed correctness check.
    pub fn problem(&mut self, what: String) {
        println!("FAIL {what}");
        self.problems.push(what);
    }

    pub fn note(&mut self, what: String) {
        println!("  {what}");
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or(format!(
                    "unknown workload {value:?}; known: {}",
                    workload::WORKLOADS.map(|w| w.name).join(", ")
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s > 0)
                        .ok_or(format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// Runs the measurement in a child process whose stderr goes to a log
/// file. On a watchdog incident the server's flight recorder dumps its
/// ring to stderr — over a megabyte per run on the explain mixes — and
/// a stderr pipe that the caller drains only at exit would block the
/// serving threads mid-measurement. The log's own lines, without the
/// dumped request records, are echoed once the child has ended.
fn run_child() -> ExitCode {
    let dir = Path::new(".perfbench-run");
    let log_path = dir.join(format!("stderr-{}.log", std::process::id()));
    let status = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&log_path))
        .and_then(|log| {
            Command::new(std::env::current_exe()?)
                .args(std::env::args_os().skip(1))
                .env(MEASURING, "1")
                .stderr(log)
                .status()
        });
    let log = std::fs::read_to_string(&log_path).unwrap_or_default();
    for line in log
        .lines()
        .filter(|l| !l.starts_with("{\"seq\"") && !l.starts_with("[flight]"))
        .take(50)
    {
        eprintln!("{line}");
    }
    let _ = std::fs::remove_file(&log_path);
    let _ = std::fs::remove_dir(dir);
    match status {
        Ok(status) => ExitCode::from(status.code().map_or(1, |c| c as u8)),
        Err(e) => {
            eprintln!("perfbench: cannot run the measuring process: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if std::env::var_os(MEASURING).is_none() {
        return run_child();
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "workload {} ({}x{} @{}, {:?} mix, {} rps open loop) seed {} for {} s, trace {}, {} threads",
        w.name,
        w.n_users,
        w.n_items,
        w.density,
        w.mix,
        w.rate_rps,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        e2e::nproc()
    );
    let mut report = Report::default();
    let outcome = if args.trace {
        trace::run(w, args.seed, args.seconds, &mut report)
    } else {
        e2e::run(w, args.seed, args.seconds, &mut report)
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report.json());
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
