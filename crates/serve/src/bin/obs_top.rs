//! `obs_top` — a dependency-free live ops dashboard for a running
//! `serve` edge.
//!
//! ```text
//! obs_top [--addr A]         edge address (default 127.0.0.1:8787)
//!         [--interval-ms N]  poll interval (default 1000)
//!         [--frames N]       stop after N frames (default 0 = forever)
//!         [--once]           render one frame without ANSI clearing
//! ```
//!
//! Each frame polls `GET /healthz`, `GET /debug/timeseries` and
//! `GET /debug/incidents` (the latter two need the edge started with
//! `--debug-endpoints`) and renders an ANSI terminal dashboard:
//! per-route windowed rate/p50/p95/p99 tables with Unicode sparklines
//! of the p99 trend, the hottest counters and gauges, and the incident
//! standing from the anomaly watchdog. Rendering is pure string
//! assembly over the wire bodies, so it is unit-testable without a
//! server.

use std::io::Write;
use std::time::Duration;

use exrec_obs::TsSnapshot;
use exrec_serve::client::Connection;
use exrec_serve::proto::{DebugIncidentsBody, HealthResponse};

/// Eight-level Unicode sparkline glyphs, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Maximum rows shown in the counter and gauge tables.
const MAX_TABLE_ROWS: usize = 10;

fn usage() -> ! {
    eprintln!("usage: obs_top [--addr A] [--interval-ms N] [--frames N] [--once]");
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("[obs_top] {flag} needs a valid value");
            usage();
        }
    }
}

/// How long one poll waits for each answer.
const POLL_TIMEOUT: Duration = Duration::from_secs(5);

/// `GET path` as JSON on a fresh connection, closed after the answer.
fn fetch<T: serde::Deserialize>(addr: &str, path: &str) -> Result<T, String> {
    let get = || {
        let mut conn = Connection::open(addr)?;
        conn.stream().set_read_timeout(Some(POLL_TIMEOUT))?;
        let headers = [("accept", "application/json"), ("connection", "close")];
        conn.send("GET", path, &headers, "")?;
        conn.read_response()
    };
    let response = get().map_err(|e| format!("{path}: {e}"))?;
    if response.status != 200 {
        return Err(format!("{path}: HTTP {}", response.status));
    }
    serde_json::from_str(&response.body).map_err(|e| format!("{path}: {e}"))
}

/// Renders `values` as a fixed-height sparkline, scaled to the series'
/// own min..max (a flat series renders as a run of mid-level blocks).
fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        let v = if v.is_finite() { v } else { 0.0 };
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            let v = if v.is_finite() { v } else { 0.0 };
            let level = if span <= f64::EPSILON {
                3
            } else {
                (((v - lo) / span) * 7.0).round() as usize
            };
            SPARKS[level.min(7)]
        })
        .collect()
}

/// Formats nanoseconds with an adaptive unit (`ns`/`µs`/`ms`/`s`).
fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() || ns < 0.0 {
        return "-".to_string();
    }
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

/// Formats a sampling interval in whole-ish units for the header line.
fn fmt_interval(interval_ns: u64) -> String {
    fmt_ns(interval_ns as f64)
}

/// The full frame: header, route table, counters, gauges, incidents.
fn render(
    addr: &str,
    health: Option<&HealthResponse>,
    ts: Option<&TsSnapshot>,
    incidents: Option<&DebugIncidentsBody>,
) -> String {
    let mut out = String::new();
    match health {
        Some(h) => {
            out.push_str(&format!(
                "obs_top · {addr} · status {} · uptime {}s · queue {}/{} · busy {}/{}\n",
                h.status,
                h.uptime_ms / 1_000,
                h.queue_depth,
                h.queue_capacity,
                h.busy_workers,
                h.workers,
            ));
            if let Some(standing) = &h.incidents {
                out.push_str(&format!(
                    "incidents: {} active · {} opened · {} flight dumps{}\n",
                    standing.active,
                    standing.opened,
                    standing.flight_dumps,
                    standing
                        .last_rule
                        .as_deref()
                        .map(|r| format!(" · last {r}"))
                        .unwrap_or_default(),
                ));
            }
        }
        None => out.push_str(&format!("obs_top · {addr} · /healthz unreachable\n")),
    }
    match ts {
        Some(snap) => {
            out.push_str(&format!(
                "time series: tick {} · interval {} · retention {}\n\n",
                snap.ticks,
                fmt_interval(snap.interval_ns),
                snap.retention,
            ));
            out.push_str(&render_routes(snap));
            out.push_str(&render_counters(snap));
            out.push_str(&render_gauges(snap));
        }
        None => out.push_str("time series unavailable — start the edge with --debug-endpoints\n"),
    }
    if let Some(body) = incidents {
        out.push_str(&render_incidents(body));
    }
    out
}

/// Per-route windowed latency table from `serve.latency_ns.*` series.
fn render_routes(snap: &TsSnapshot) -> String {
    let mut out = String::new();
    let routes: Vec<_> = snap
        .histograms
        .iter()
        .filter_map(|(name, points)| {
            let route = name.strip_prefix("serve.latency_ns.")?;
            points.last().map(|last| (route, points, last))
        })
        .collect();
    if routes.is_empty() {
        return out;
    }
    out.push_str(&format!(
        "{:<22} {:>9} {:>9} {:>9} {:>9}  p99 trend\n",
        "route", "req/s", "p50", "p95", "p99"
    ));
    for (route, points, last) in routes {
        let p99s: Vec<f64> = points.iter().map(|p| p.p99_ns as f64).collect();
        out.push_str(&format!(
            "{:<22} {:>9.1} {:>9} {:>9} {:>9}  {}\n",
            route,
            last.rate_per_sec,
            fmt_ns(last.p50_ns as f64),
            fmt_ns(last.p95_ns as f64),
            fmt_ns(last.p99_ns as f64),
            sparkline(&p99s),
        ));
    }
    out.push('\n');
    out
}

/// Counter-rate table, hottest first, capped at [`MAX_TABLE_ROWS`].
fn render_counters(snap: &TsSnapshot) -> String {
    let mut rows: Vec<_> = snap
        .counters
        .iter()
        .filter_map(|(name, points)| points.last().map(|last| (name, points, last.rate_per_sec)))
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    rows.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(b.0)));
    let total = rows.len();
    let mut out = format!("{:<34} {:>9}  trend\n", "counter", "rate/s");
    for (name, points, rate) in rows.into_iter().take(MAX_TABLE_ROWS) {
        let rates: Vec<f64> = points.iter().map(|p| p.rate_per_sec).collect();
        out.push_str(&format!(
            "{:<34} {:>9.1}  {}\n",
            name,
            rate,
            sparkline(&rates)
        ));
    }
    if total > MAX_TABLE_ROWS {
        out.push_str(&format!("  … {} more\n", total - MAX_TABLE_ROWS));
    }
    out.push('\n');
    out
}

/// Gauge table, alphabetical, capped at [`MAX_TABLE_ROWS`].
fn render_gauges(snap: &TsSnapshot) -> String {
    let rows: Vec<_> = snap
        .gauges
        .iter()
        .filter_map(|(name, points)| points.last().map(|last| (name, points, last.value)))
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    let total = rows.len();
    let mut out = format!("{:<34} {:>9}  trend\n", "gauge", "value");
    for (name, points, value) in rows.into_iter().take(MAX_TABLE_ROWS) {
        let values: Vec<f64> = points.iter().map(|p| p.value).collect();
        out.push_str(&format!(
            "{:<34} {:>9.3}  {}\n",
            name,
            value,
            sparkline(&values)
        ));
    }
    if total > MAX_TABLE_ROWS {
        out.push_str(&format!("  … {} more\n", total - MAX_TABLE_ROWS));
    }
    out.push('\n');
    out
}

/// Incident footer: standing plus the newest few entries.
fn render_incidents(body: &DebugIncidentsBody) -> String {
    let mut out = format!(
        "incident log: {} active · {} opened · {} flight dumps · capacity {}\n",
        body.active, body.opened, body.flight_dumps, body.capacity
    );
    for incident in body.incidents.iter().rev().take(5) {
        let standing = if incident.closed_epoch.is_some() {
            "closed"
        } else {
            "OPEN"
        };
        out.push_str(&format!(
            "  #{:<3} {:<6} {:<28} {} value {:.3} threshold {:.3} @t+{}\n",
            incident.seq,
            standing,
            incident.rule,
            incident.kind,
            incident.value,
            incident.threshold,
            fmt_ns(incident.opened_offset_ns as f64),
        ));
    }
    out
}

fn main() {
    let mut addr = "127.0.0.1:8787".to_string();
    let mut interval_ms: u64 = 1_000;
    let mut frames: u64 = 0;
    let mut once = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse("--addr", args.next()),
            "--interval-ms" => interval_ms = parse("--interval-ms", args.next()),
            "--frames" => frames = parse("--frames", args.next()),
            "--once" => once = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("[obs_top] unknown flag {other:?}");
                usage();
            }
        }
    }
    if once {
        frames = 1;
    }

    let mut frame = 0u64;
    loop {
        let health: Option<HealthResponse> = fetch(&addr, "/healthz").ok();
        let ts: Option<TsSnapshot> = fetch(&addr, "/debug/timeseries").ok();
        let incidents: Option<DebugIncidentsBody> = fetch(&addr, "/debug/incidents").ok();
        let dashboard = render(&addr, health.as_ref(), ts.as_ref(), incidents.as_ref());
        if once {
            print!("{dashboard}");
        } else {
            // Clear screen + home, then the frame, in one write.
            print!("\x1b[2J\x1b[H{dashboard}");
        }
        std::io::stdout().flush().ok();
        frame += 1;
        if frames > 0 && frame >= frames {
            break;
        }
        std::thread::sleep(Duration::from_millis(interval_ms.max(50)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrec_obs::timeseries::{HistPoint, RatePoint, TS_SCHEMA};

    fn snapshot_with_route() -> TsSnapshot {
        let mut snap = TsSnapshot {
            schema: TS_SCHEMA,
            interval_ns: 1_000_000_000,
            retention: 120,
            ticks: 3,
            counters: Default::default(),
            gauges: Default::default(),
            histograms: Default::default(),
        };
        snap.histograms.insert(
            "serve.latency_ns.recommend".to_string(),
            vec![
                HistPoint {
                    epoch: 1,
                    count: 10,
                    rate_per_sec: 10.0,
                    mean_ns: 1_500_000.0,
                    p50_ns: 1_000_000,
                    p95_ns: 4_000_000,
                    p99_ns: 8_000_000,
                },
                HistPoint {
                    epoch: 2,
                    count: 20,
                    rate_per_sec: 20.0,
                    mean_ns: 1_600_000.0,
                    p50_ns: 1_100_000,
                    p95_ns: 4_100_000,
                    p99_ns: 9_000_000,
                },
            ],
        );
        snap.counters.insert(
            "serve.accepted".to_string(),
            vec![RatePoint {
                epoch: 2,
                delta: 20,
                rate_per_sec: 20.0,
            }],
        );
        snap
    }

    #[test]
    fn sparkline_scales_to_series_range() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]), "▄▄▄");
        let ramp = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(ramp, "▁▂▃▄▅▆▇█");
        // Non-finite samples render without panicking.
        assert_eq!(sparkline(&[f64::NAN, 1.0]).chars().count(), 2);
    }

    #[test]
    fn fmt_ns_picks_adaptive_units() {
        assert_eq!(fmt_ns(500.0), "500ns");
        assert_eq!(fmt_ns(1_500.0), "1.5µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.5ms");
        assert_eq!(fmt_ns(3_200_000_000.0), "3.20s");
        assert_eq!(fmt_ns(f64::NAN), "-");
    }

    #[test]
    fn render_shows_routes_counters_and_fallbacks() {
        let snap = snapshot_with_route();
        let frame = render("127.0.0.1:1", None, Some(&snap), None);
        assert!(frame.contains("/healthz unreachable"));
        assert!(frame.contains("recommend"));
        assert!(frame.contains("9.0ms")); // last windowed p99
        assert!(frame.contains("serve.accepted"));
        let dark = render("127.0.0.1:1", None, None, None);
        assert!(dark.contains("--debug-endpoints"));
    }

    #[test]
    fn render_incidents_marks_open_entries() {
        let body = DebugIncidentsBody {
            schema: exrec_obs::watch::WATCH_SCHEMA,
            capacity: 64,
            opened: 2,
            active: 1,
            flight_dumps: 1,
            incidents: vec![exrec_obs::Incident {
                seq: 2,
                rule: "error_rate".to_string(),
                series: "serve.status.5xx".to_string(),
                kind: "above".to_string(),
                opened_epoch: 7,
                opened_offset_ns: 7_000_000_000,
                closed_epoch: None,
                value: 4.2,
                threshold: 1.0,
                detail: "rate 4.2/s over ceiling 1.0".to_string(),
            }],
        };
        let footer = render_incidents(&body);
        assert!(footer.contains("1 active"));
        assert!(footer.contains("OPEN"));
        assert!(footer.contains("error_rate"));
    }
}
