//! `repro` — regenerates every table, figure and study of the reproduced
//! survey (Tintarev & Masthoff, ICDE'07 workshops).
//!
//! ```text
//! repro                 # everything
//! repro --table 3       # one of Tables 1-4
//! repro --figure 2      # one of Figures 1-3
//! repro --study E-PERS  # one study (E-PERS, E-SHIFT, E-EFK, E-EFC,
//!                       #  E-TRUST, E-TRA, E-SCR, E-SAT, A-TRADE,
//!                       #  E-MODAL, E-ACC)
//! repro --emulations    # the ten Table 4 live emulations
//! repro --json DIR      # also dump study reports (and telemetry) as
//!                       # JSON into DIR
//! repro --parallel [N]  # fan the full study suite out over N worker
//!                       # threads (default: available parallelism);
//!                       # reports are identical to the sequential run
//! repro --offline-metrics [--quick] [--out PATH]
//!                       # score every explanation interface x aim with
//!                       # the offline quality suite and write a
//!                       # schema-stamped quality_report.json
//!                       # (--quick shrinks worlds and sample counts
//!                       #  for CI smoke runs)
//! ```
//!
//! Studies run under an `exrec-obs` telemetry registry; whenever at
//! least one study ran, the final metrics snapshot (per-study wall
//! clock, per-aim durations, simulated-user throughput) is printed
//! after the reports.

use exrec_bench::{figure1_text, figure2_treemap, figure2_world, figure3_text};
use exrec_eval::StudyReport;
use exrec_obs::Telemetry;
use exrec_registry::tables;

fn print_table(n: u32) {
    let spec = match n {
        1 => tables::table1(),
        2 => tables::table2(),
        3 => tables::table3(),
        4 => tables::table4(),
        _ => {
            eprintln!("no table {n}; tables are 1-4");
            std::process::exit(2);
        }
    };
    println!("{}", spec.render_ascii());
}

fn print_figure(n: u32) {
    match n {
        1 => {
            println!("-- Figure 1: scrutable adaptive hypertext (SASY) --\n");
            println!("{}", figure1_text(0xF1).expect("figure 1 generates"));
        }
        2 => {
            println!("-- Figure 2: treemap visualization of news --\n");
            let world = figure2_world();
            let map = figure2_treemap(&world);
            println!("{}", map.render_ascii(72, 20));
            println!(
                "({} stories; colour=topic, area=popularity, shade=recency; \
                 mean aspect ratio {:.2})",
                map.cells.len(),
                map.mean_aspect()
            );
        }
        3 => {
            println!("-- Figure 3: influence of ratings on a recommendation (LIBRA) --\n");
            println!("{}", figure3_text(0xF3).expect("figure 3 generates"));
        }
        _ => {
            eprintln!("no figure {n}; figures are 1-3");
            std::process::exit(2);
        }
    }
}

const ALL_STUDIES: [&str; 11] = exrec_eval::STUDY_IDS;

fn print_emulations() {
    for emu in exrec_registry::live::all() {
        println!("────────────────────────────────────────────────");
        match (emu.run)(0xACE) {
            Ok(t) => println!("{t}"),
            Err(e) => println!("{} FAILED: {e}", emu.name),
        }
    }
}

/// Runs the offline explanation-quality suite and writes a
/// schema-stamped report.
///
/// The report is a pure function of the config: `meta.threads` is
/// stamped `1` regardless of the worker count so reports produced at
/// different parallelism stay comparable (thread-count independence is
/// covered by the suite's own tests).
fn run_offline_metrics(quick: bool, out: &str, threads: usize) {
    use exrec_eval::quality::QualityConfig;
    use exrec_obs::meta::RunMeta;
    use serde_json::Value;

    let config = if quick {
        QualityConfig::quick()
    } else {
        QualityConfig::default()
    };
    eprintln!(
        "[repro] scoring {} interfaces x {} aims (quick: {quick})",
        exrec_core::interfaces::InterfaceId::ALL.len(),
        exrec_core::aims::Aim::ALL.len(),
    );
    let report = exrec_eval::quality::run(&config, threads);

    println!(
        "-- Offline explanation-quality report ({}) --\n",
        report.world
    );
    println!(
        "{:<16} {:<22} {:>7}   {:<22} {:>7}",
        "aim", "best interface", "score", "static default", "score"
    );
    for aim in &report.aims {
        println!(
            "{:<16} {:<22} {:>7.3}   {:<22} {:>7.3}{}",
            aim.name,
            aim.best_interface,
            aim.score,
            aim.static_default,
            aim.static_score,
            if aim.best_interface != aim.static_default {
                "  *"
            } else {
                ""
            }
        );
    }
    println!("\n(* measured selection differs from the static default)");
    let measured = report.interfaces.iter().filter(|q| q.samples > 0).count();
    println!(
        "{} of {} interfaces measurable under the suite's model pairings",
        measured,
        report.interfaces.len()
    );

    // Stamp the benchmark name and run meta into the report object, so
    // a report names the world and revision that produced it.
    let mut value: Value = serde_json::from_str(&report.to_json()).expect("report round-trips");
    if let Value::Obj(fields) = &mut value {
        let meta = RunMeta::capture(report.world.clone(), 1);
        fields.insert(
            1,
            (
                "benchmark".to_owned(),
                Value::Str("offline_quality".to_owned()),
            ),
        );
        fields.insert(2, ("meta".to_owned(), serde_json::to_value(&meta)));
    }
    let json = serde_json::to_string_pretty(&value).expect("serialize report");
    std::fs::write(out, json).expect("write quality report");
    eprintln!("wrote {out}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_dir: Option<String> = None;
    let mut parallel: Option<usize> = None;
    let mut offline_metrics = false;
    let mut quick = false;
    let mut out = "quality_report.json".to_owned();
    let mut actions: Vec<(String, String)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--offline-metrics" => {
                offline_metrics = true;
                i += 1;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--out" => {
                if i + 1 >= args.len() {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
                out = args[i + 1].clone();
                i += 2;
            }
            "--table" | "--figure" | "--study" => {
                if i + 1 >= args.len() {
                    eprintln!("{} requires an argument", args[i]);
                    std::process::exit(2);
                }
                actions.push((args[i].clone(), args[i + 1].clone()));
                i += 2;
            }
            "--emulations" => {
                actions.push(("--emulations".to_owned(), String::new()));
                i += 1;
            }
            "--json" => {
                if i + 1 >= args.len() {
                    eprintln!("--json requires a directory");
                    std::process::exit(2);
                }
                json_dir = Some(args[i + 1].clone());
                i += 2;
            }
            "--parallel" => {
                // Optional numeric argument; 0 = available parallelism.
                if i + 1 < args.len() {
                    if let Ok(n) = args[i + 1].parse::<usize>() {
                        parallel = Some(n);
                        i += 2;
                        continue;
                    }
                }
                parallel = Some(0);
                i += 1;
            }
            "--all" => {
                i += 1;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    if offline_metrics {
        run_offline_metrics(quick, &out, parallel.unwrap_or(0));
        return;
    }

    let telemetry = Telemetry::default();
    let mut reports: Vec<StudyReport> = Vec::new();
    if actions.is_empty() {
        for t in 1..=4 {
            print_table(t);
        }
        for f in 1..=3 {
            print_figure(f);
        }
        match parallel {
            Some(threads) => {
                // Run the whole suite on the worker pool, then print in
                // canonical order (reports are scheduling-independent).
                reports = exrec_eval::run_all_studies_with_threads(&telemetry, threads);
                for report in &reports {
                    println!("{}", report.render_ascii());
                }
            }
            None => {
                for id in ALL_STUDIES {
                    let report = exrec_eval::run_study_with(&telemetry, id).expect("known id");
                    println!("{}", report.render_ascii());
                    reports.push(report);
                }
            }
        }
        print_emulations();
    } else {
        for (flag, value) in actions {
            match flag.as_str() {
                "--table" => print_table(value.parse().unwrap_or(0)),
                "--figure" => print_figure(value.parse().unwrap_or(0)),
                "--study" => match exrec_eval::run_study_with(&telemetry, &value) {
                    Some(report) => {
                        println!("{}", report.render_ascii());
                        reports.push(report);
                    }
                    None => {
                        eprintln!("unknown study {value}; options: {ALL_STUDIES:?}");
                        std::process::exit(2);
                    }
                },
                "--emulations" => print_emulations(),
                _ => unreachable!(),
            }
        }
    }

    let metrics = telemetry.report();
    if !metrics.is_empty() {
        println!("{}", metrics.render_ascii());
    }

    if let Some(dir) = json_dir {
        std::fs::create_dir_all(&dir).expect("create json dir");
        for report in &reports {
            let path = format!("{dir}/{}.json", report.id);
            std::fs::write(&path, report.to_json()).expect("write report");
            eprintln!("wrote {path}");
        }
        if !metrics.is_empty() {
            let path = format!("{dir}/telemetry.json");
            let json = serde_json::to_string_pretty(&metrics).expect("serialize telemetry");
            std::fs::write(&path, json).expect("write telemetry");
            eprintln!("wrote {path}");
        }
    }
}
