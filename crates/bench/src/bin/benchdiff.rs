//! `benchdiff` — compare two benchmark reports and gate on regression.
//!
//! ```text
//! benchdiff OLD.json NEW.json [--threshold PCT]
//! ```
//!
//! Reads two reports written by `loadgen` or `repro --json` (both stamp
//! `schema_version` and a `meta` block) and compares every shared
//! performance metric: throughput (`requests_per_sec`, `speedup_*`)
//! must not drop, latency (`latency_ms.*`) must not rise, by more than
//! `--threshold` percent (default 10).
//!
//! Exit codes:
//!
//! * `0` — every shared metric within threshold;
//! * `1` — at least one regression;
//! * `2` — usage error, unreadable report, or incompatible reports
//!   (schema/benchmark/world/thread mismatch): refusing to compare is
//!   not a pass.

use exrec_bench::benchdiff::{compare, Direction};
use serde_json::Value;

fn usage() -> ! {
    eprintln!("usage: benchdiff OLD.json NEW.json [--threshold PCT]");
    std::process::exit(2);
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("[benchdiff] cannot read {path}: {e}");
        std::process::exit(2);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("[benchdiff] {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = 10.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = match args.next().and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("[benchdiff] --threshold needs a number");
                        usage();
                    }
                }
            }
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("[benchdiff] unknown flag {other:?}");
                usage();
            }
            path => paths.push(path.to_owned()),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        usage();
    };

    let old = load(old_path);
    let new = load(new_path);
    let comparison = match compare(&old, &new, threshold) {
        Ok(c) => c,
        Err(reason) => {
            eprintln!("[benchdiff] refusing to compare: {reason}");
            std::process::exit(2);
        }
    };

    println!("benchdiff {old_path} -> {new_path} (threshold {threshold}%)");
    for delta in &comparison.deltas {
        let arrow = match delta.direction {
            Direction::HigherBetter => "higher-better",
            Direction::LowerBetter => "lower-better ",
        };
        println!(
            "  {:<64} {:>12.3} -> {:>12.3}  {:>+7.1}%  [{}]{}",
            delta.path,
            delta.old,
            delta.new,
            delta.change_pct,
            arrow,
            if delta.regressed { "  REGRESSED" } else { "" }
        );
    }
    for path in &comparison.only_old {
        println!("  {path:<64} only in baseline (skipped)");
    }
    for path in &comparison.only_new {
        println!("  {path:<64} only in candidate (skipped)");
    }

    let regressions = comparison.regressions();
    if comparison.deltas.is_empty() {
        eprintln!("[benchdiff] no shared performance metrics found");
        std::process::exit(2);
    }
    if regressions.is_empty() {
        println!(
            "benchdiff OK: {} metrics within {threshold}%",
            comparison.deltas.len()
        );
    } else {
        eprintln!(
            "[benchdiff] FAIL: {} of {} metrics regressed past {threshold}%",
            regressions.len(),
            comparison.deltas.len()
        );
        std::process::exit(1);
    }
}
