//! `serve` — run the explanation-serving edge.
//!
//! ```text
//! serve [--port P]            bind port (default 8787; 0 = ephemeral)
//!       [--workers N]         worker threads (default 4)
//!       [--queue-bound N]     admission queue capacity (default 64)
//!       [--deadline-ms D]     default per-request deadline (default 2000)
//!       [--idle-ms I]         keep-alive idle reap timeout (default 5000)
//!       [--users N]           synthetic world size (default 2000)
//!       [--items N]           synthetic catalog size (default 300)
//!       [--density F]         synthetic rating density (default 0.05)
//!       [--interface KEY]     default explanation interface
//!       [--pool-threads N]    intra-request batch threads (default: cores)
//!       [--exact]             exact tiled scan instead of the pruned index
//!       [--fault-injection]   honour inject_panic/inject_delay_ms (tests)
//!       [--trace-seed S]      seed the trace id stream (deterministic ids)
//!       [--slo-ms L]          latency objective of the SLO burn rules and of
//!                             the request log (default 250)
//!       [--slo-target F]      target good ratio of the burn rules (default 0.99)
//!       [--debug-endpoints]   serve GET /debug/{profile,requests,world,quality,
//!                             ingest,timeseries,incidents}
//!       [--flight-capacity N] flight-recorder ring size (default 256)
//!       [--ts-interval DUR]   time-series sampling interval and SLO fast-burn
//!                             window (default 5s; accepts e.g. 250ms, 1s, 2m)
//!       [--ts-retention N]    points retained per series (default 120)
//!       [--watch-trip N]      anomalous ticks before an incident opens (default 2)
//!       [--watch-clear N]     normal ticks before an incident closes (default 3)
//!       [--watch-latency-zscore F]  p99 drift sensitivity (default 6.0)
//!       [--watch-error-rate F]      5xx-per-second ceiling (default 1.0)
//!       [--watch-shed-rate F]       sheds-per-second ceiling (default 100.0)
//!       [--watch-incidents N]       incident-log capacity (default 64)
//!       [--quality-sample N]  quality-sample 1-in-N explain requests (default 8; 0 = off)
//!       [--quality-pairs N]   startup scoring pairs per interface (default 16)
//!       [--wal-path PATH]     journal writes to PATH; warm-restart from
//!                             PATH.snap + WAL tail on startup
//!       [--fsync]             fsync the WAL on every append
//! ```
//!
//! Every request bad by the SLO (a 5xx, or slower than `--slo-ms`) has
//! its flight record written to stderr as one JSON line, in the format
//! of the watchdog's flight dumps and of `GET /debug/requests`; its
//! `trace_id` is the response's `x-exrec-trace-id`.
//!
//! Runs until SIGTERM or ctrl-c (SIGINT), then drains gracefully: stops
//! admitting, finishes queued and in-flight requests, closes the
//! listener, and prints the final telemetry report and per-route SLO
//! standing over the last minute of sampler ticks to stderr.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use exrec_core::interfaces::InterfaceId;
use exrec_obs::Telemetry;
use exrec_serve::app::{AppConfig, ExplainApp};
use exrec_serve::server::{self, ServerConfig};

/// Set from the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Installs a minimal SIGINT/SIGTERM handler that flips [`SHUTDOWN`].
///
/// The workspace vendors no `libc`/`signal-hook`, so this binds the C
/// library's `signal(2)` directly; the handler only stores to an
/// atomic, which is async-signal-safe. On non-unix targets this is a
/// no-op and the process runs until killed.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn usage() -> ! {
    eprintln!("usage: serve [--port P] [--workers N] [--queue-bound N] [--deadline-ms D]");
    eprintln!("             [--idle-ms I] [--users N] [--items N] [--density F]");
    eprintln!("             [--interface KEY] [--pool-threads N] [--exact] [--fault-injection]");
    eprintln!("             [--trace-seed S] [--slo-ms L] [--slo-target F]");
    eprintln!("             [--debug-endpoints] [--flight-capacity N]");
    eprintln!("             [--quality-sample N] [--quality-pairs N]");
    eprintln!("             [--wal-path PATH] [--fsync]");
    eprintln!("             [--ts-interval DUR] [--ts-retention N]");
    eprintln!("             [--watch-trip N] [--watch-clear N] [--watch-latency-zscore F]");
    eprintln!("             [--watch-error-rate F] [--watch-shed-rate F] [--watch-incidents N]");
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("[serve] {flag} needs a valid value");
            usage();
        }
    }
}

/// Parses a human duration (`250ms`, `1s`, `2m`; bare digits = seconds)
/// into nanoseconds.
fn parse_duration_ns(flag: &str, value: Option<String>) -> u64 {
    let raw = match value {
        Some(v) => v,
        None => {
            eprintln!("[serve] {flag} needs a duration (e.g. 250ms, 1s, 2m)");
            usage();
        }
    };
    let (digits, unit_ns) = if let Some(d) = raw.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = raw.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = raw.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = raw.strip_suffix('s') {
        (d, 1_000_000_000)
    } else if let Some(d) = raw.strip_suffix('m') {
        (d, 60_000_000_000)
    } else {
        (raw.as_str(), 1_000_000_000)
    };
    match digits.parse::<u64>() {
        Ok(n) if n > 0 => n.saturating_mul(unit_ns),
        _ => {
            eprintln!("[serve] {flag}: {raw:?} is not a positive duration");
            usage();
        }
    }
}

fn main() {
    let mut port: u16 = 8787;
    let mut app_config = AppConfig::default();
    let mut server_config = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => port = parse("--port", args.next()),
            "--trace-seed" => server_config.trace_seed = Some(parse("--trace-seed", args.next())),
            "--slo-ms" => {
                let ms: u64 = parse("--slo-ms", args.next());
                server_config.watch.slo_objective_ns = ms.saturating_mul(1_000_000);
            }
            "--slo-target" => server_config.watch.slo_target = parse("--slo-target", args.next()),
            "--workers" => server_config.workers = parse("--workers", args.next()),
            "--queue-bound" => server_config.queue_bound = parse("--queue-bound", args.next()),
            "--deadline-ms" => {
                server_config.default_deadline_ms = parse("--deadline-ms", args.next())
            }
            "--idle-ms" => server_config.idle_timeout_ms = parse("--idle-ms", args.next()),
            "--users" => app_config.n_users = parse("--users", args.next()),
            "--items" => app_config.n_items = parse("--items", args.next()),
            "--density" => app_config.density = parse("--density", args.next()),
            "--pool-threads" => app_config.pool_threads = parse("--pool-threads", args.next()),
            "--interface" => {
                let key: String = parse("--interface", args.next());
                match InterfaceId::from_key(&key) {
                    Some(id) => app_config.default_interface = id,
                    None => {
                        eprintln!("[serve] unknown interface {key:?}; known keys:");
                        for id in InterfaceId::ALL {
                            eprintln!("  {}", id.key());
                        }
                        std::process::exit(2);
                    }
                }
            }
            "--quality-sample" => {
                app_config.quality_sample_every = parse("--quality-sample", args.next())
            }
            "--quality-pairs" => app_config.quality_pairs = parse("--quality-pairs", args.next()),
            "--wal-path" => {
                let path: String = parse("--wal-path", args.next());
                app_config.wal_path = Some(std::path::PathBuf::from(path));
            }
            "--fsync" => app_config.fsync = true,
            "--exact" => app_config.exact = true,
            "--fault-injection" => app_config.fault_injection = true,
            "--debug-endpoints" => server_config.debug_endpoints = true,
            "--flight-capacity" => {
                server_config.flight_capacity = parse("--flight-capacity", args.next())
            }
            "--ts-interval" => {
                server_config.ts.interval_ns = parse_duration_ns("--ts-interval", args.next())
            }
            "--ts-retention" => server_config.ts.retention = parse("--ts-retention", args.next()),
            "--watch-trip" => server_config.watch.trip_after = parse("--watch-trip", args.next()),
            "--watch-clear" => {
                server_config.watch.clear_after = parse("--watch-clear", args.next())
            }
            "--watch-latency-zscore" => {
                server_config.watch.latency_zscore = parse("--watch-latency-zscore", args.next())
            }
            "--watch-error-rate" => {
                server_config.watch.error_rate_max = parse("--watch-error-rate", args.next())
            }
            "--watch-shed-rate" => {
                server_config.watch.shed_rate_max = parse("--watch-shed-rate", args.next())
            }
            "--watch-incidents" => {
                server_config.watch.incident_capacity = parse("--watch-incidents", args.next())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("[serve] unknown flag {other:?}");
                usage();
            }
        }
    }
    server_config.addr = format!("127.0.0.1:{port}");

    // Anchor the flight zero point before any request arrives so
    // `start_offset_ns` values count from process start.
    exrec_obs::trace::process_start();
    install_signal_handlers();

    // No span subscriber: a request's account is its flight record.
    let telemetry = Telemetry::default();
    eprintln!(
        "[serve] generating world: {} users x {} items @ density {}",
        app_config.n_users, app_config.n_items, app_config.density
    );
    let app = match ExplainApp::try_new(app_config, telemetry.clone()) {
        Ok(app) => app,
        Err(e) => {
            eprintln!("[serve] startup failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "[serve] world ready; default interface {}; neighbour scan {}",
        app.config().default_interface.key(),
        app.scan_mode()
    );
    if let Some(stats) = app.wal_stats() {
        eprintln!(
            "[serve] journal open: {} ({} bytes, {} records replayed{}{})",
            app.wal_path()
                .map(|p| p.display().to_string())
                .unwrap_or_default(),
            stats.size_bytes,
            stats.replayed,
            if app.snapshot_loaded() {
                ", warm-started from snapshot"
            } else {
                ""
            },
            if stats.truncated_bytes > 0 {
                ", torn tail truncated"
            } else {
                ""
            },
        );
    }

    let handle = match server::start(app, server_config.clone(), telemetry.clone()) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("[serve] bind {} failed: {e}", server_config.addr);
            std::process::exit(1);
        }
    };
    // Any panic — including ones the edge catches for worker isolation
    // — records an incident and dumps the black box to stderr before
    // unwinding continues.
    exrec_obs::Watchdog::install_panic_hook(handle.watchdog());
    eprintln!(
        "[serve] listening on {} ({} workers, queue bound {}, deadline {}ms)",
        handle.addr(),
        server_config.workers,
        server_config.queue_bound,
        server_config.default_deadline_ms
    );
    if server_config.debug_endpoints {
        eprintln!(
            "[serve] debug endpoints enabled: /debug/profile /debug/requests /debug/world /debug/quality /debug/ingest /debug/timeseries /debug/incidents"
        );
    }

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("[serve] signal received; draining");
    handle.request_shutdown();
    let slo = handle.slo_snapshot();
    let quality = handle.quality_snapshot();
    match handle.join() {
        Some(Ok(snapshot)) => {
            eprintln!("[serve] journal compacted to {}", snapshot.display());
        }
        Some(Err(e)) => {
            eprintln!("[serve] journal compaction failed (WAL left intact): {e}");
        }
        None => {}
    }
    eprintln!("[serve] drained; final telemetry:");
    eprintln!("{}", telemetry.report().render_ascii());
    if !slo.is_empty() {
        eprintln!("== slo (last minute of ticks at drain) ==");
        for (route, s) in &slo {
            eprintln!(
                "  {route:<24} good {}/{} ratio {:.4} burn {:.2} fast-burn {:.2}{}",
                s.good,
                s.total,
                s.good_ratio,
                s.burn_rate,
                s.fast_burn_rate,
                if s.degraded { "  DEGRADED" } else { "" }
            );
        }
    }
    if quality.samples > 0 {
        eprintln!(
            "== explanation quality (rolling window at drain, 1-in-{} sampled) ==",
            quality.sample_every
        );
        eprintln!(
            "  overall: {} samples, score {:.3}, fidelity {:.3}{}",
            quality.samples,
            quality.mean_score,
            quality.mean_fidelity,
            if quality.sustained_low {
                "  SUSTAINED LOW"
            } else {
                ""
            }
        );
        for s in &quality.interfaces {
            eprintln!(
                "  {:<24} {} samples, score {:.3}, fidelity {:.3}, coverage {:.3}",
                s.name, s.samples, s.score, s.fidelity, s.coverage
            );
        }
    }
}
