//! Black-box flight recorder: the last N completed requests, always.
//!
//! A [`RequestRecord`] is a served request's whole account: its trace
//! id, route, status, duration and per-phase breakdown. The
//! [`FlightRecorder`] keeps the last N of them in a bounded,
//! lock-striped ring, written by the serving edge for *every* request,
//! so an incident can ask "what were the last 200 requests this process
//! served?".
//!
//! * **Lock-striped ring.** Records round-robin over `stripes`
//!   mutex-guarded deques by sequence number; each stripe holds
//!   `capacity / stripes` records and evicts its oldest on overflow,
//!   so the recorder as a whole retains exactly the last `capacity`
//!   records. Writers contend only one-in-`stripes` of the time.
//! * **Torn-record-free.** A record is assigned its sequence number
//!   atomically and inserted whole under its stripe's lock; readers
//!   ([`FlightRecorder::snapshot`]) merge the stripes and sort by
//!   sequence, so the dump is globally ordered.
//! * **Dumped once per incident.** The recorder dumps nothing by
//!   itself: the watchdog ([`crate::watch::Watchdog`]) dumps the ring to
//!   stderr once per incident it opens, whether a rule tripped or a
//!   caught panic was logged as an event.
//! * **Logged when bad.** [`FlightRecorder::record_logged`] also writes
//!   one record as it lands, in the dump's line format; the serving
//!   edge does this for each request that spent SLO error budget.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// Version of the [`RequestRecord`] JSON shape. Bumped to 2 when the
/// sampled `quality` field was added, to 3 for the write-path `ingest`
/// block, and to 4 when the two cache-probe counters were dropped.
/// Older dumps still parse: missing fields default to `None` and
/// dropped fields are ignored.
pub const RECORD_SCHEMA: u32 = 4;

/// Shape of a [`FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Total records retained. Rounded up to a multiple of `stripes`.
    pub capacity: usize,
    /// Lock stripes; writers contend only within a stripe.
    pub stripes: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            capacity: 256,
            stripes: 8,
        }
    }
}

/// One completed request, as the black box remembers it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Global completion sequence number (assigned by the recorder;
    /// later numbers completed later).
    pub seq: u64,
    /// Hex trace id, empty when the request never got one (e.g. shed
    /// at admission).
    pub trace_id: String,
    /// Route / endpoint name.
    pub route: String,
    /// HTTP status answered.
    pub status: u16,
    /// Outcome class: `ok`, `client_error`, `shed`, `timeout`,
    /// `panic` or `error`.
    pub outcome: String,
    /// Request start, nanoseconds since the process zero point
    /// ([`crate::trace::process_start`]).
    pub start_offset_ns: u64,
    /// Wall time from admission to response, nanoseconds.
    pub duration_ns: u64,
    /// Per-phase breakdown: `;`-joined phase path → nanoseconds (see
    /// [`crate::profile::PhaseCollector`]).
    pub phases: Vec<(String, u64)>,
    /// Sampled explanation-quality score in `[0, 1]`; `None` (JSON
    /// `null`) when the online estimator did not sample this request.
    /// Added in record schema 2; schema-1 dumps parse with `None`.
    pub quality: Option<f64>,
    /// Write-path detail for ingestion routes (`/v1/rate`,
    /// `/v1/rate/batch`); `None` on read routes. Added in record
    /// schema 3; older dumps parse with `None`.
    #[serde(default)]
    pub ingest: Option<IngestRecord>,
}

/// What a write-route request did, as the black box remembers it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IngestRecord {
    /// Rating ops that changed the matrix.
    pub applied: u64,
    /// Nanoseconds spent appending the record to the WAL (0 when the
    /// server runs without a journal).
    pub wal_append_ns: u64,
}

impl RequestRecord {
    /// The outcome class conventionally used for `status`.
    pub fn outcome_of(status: u16) -> &'static str {
        match status {
            429 => "shed",
            504 => "timeout",
            500 => "panic",
            s if s >= 500 => "error",
            s if s >= 400 => "client_error",
            _ => "ok",
        }
    }
}

/// The bounded, lock-striped ring of the last N request records.
#[derive(Debug)]
pub struct FlightRecorder {
    stripes: Vec<Mutex<VecDeque<RequestRecord>>>,
    per_stripe: usize,
    seq: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FlightConfig::default())
    }
}

impl FlightRecorder {
    /// A recorder retaining `config.capacity` records (rounded up to a
    /// stripe multiple).
    pub fn new(config: FlightConfig) -> Self {
        let stripes = config.stripes.max(1);
        let per_stripe = config.capacity.div_ceil(stripes).max(1);
        FlightRecorder {
            stripes: (0..stripes)
                .map(|_| Mutex::new(VecDeque::with_capacity(per_stripe)))
                .collect(),
            per_stripe,
            seq: AtomicU64::new(0),
        }
    }

    /// Total records the ring retains.
    pub fn capacity(&self) -> usize {
        self.per_stripe * self.stripes.len()
    }

    /// Records completed so far (monotonic, not bounded by capacity).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Records currently resident.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one completed request, evicting the stripe's oldest
    /// record when full. The record's `seq` field is assigned here;
    /// returns it.
    pub fn record(&self, record: RequestRecord) -> u64 {
        self.insert(record, None)
    }

    /// [`FlightRecorder::record`], also writing the record (with its
    /// `seq`) to `log` as one JSON line in the [`FlightRecorder::dump`]
    /// format.
    pub fn record_logged(&self, record: RequestRecord, log: &mut dyn Write) -> u64 {
        self.insert(record, Some(log))
    }

    fn insert(&self, mut record: RequestRecord, log: Option<&mut dyn Write>) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        record.seq = seq;
        if let Some(log) = log {
            write_line(log, &record);
        }
        let stripe = &self.stripes[(seq % self.stripes.len() as u64) as usize];
        let mut ring = stripe.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() == self.per_stripe {
            ring.pop_front();
        }
        ring.push_back(record);
        seq
    }

    /// The resident records, oldest first (globally ordered by
    /// completion sequence).
    pub fn snapshot(&self) -> Vec<RequestRecord> {
        let mut records: Vec<RequestRecord> = self
            .stripes
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .iter()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        records.sort_by_key(|r| r.seq);
        records
    }

    /// Dumps the ring to `w` as JSON lines, framed by `reason` markers
    /// — the black-box readout for post-mortems.
    pub fn dump(&self, w: &mut impl Write, reason: &str) {
        let records = self.snapshot();
        let _ = writeln!(
            w,
            "[flight] === dump ({reason}): {} of last {} requests ===",
            records.len(),
            self.capacity()
        );
        for record in &records {
            write_line(w, record);
        }
        let _ = writeln!(w, "[flight] === end dump ({reason}) ===");
    }

    /// [`FlightRecorder::dump`] to stderr.
    pub fn dump_stderr(&self, reason: &str) {
        self.dump(&mut std::io::stderr().lock(), reason);
    }
}

/// Writes `record` as one JSON line in a single write, so lines from
/// concurrent writers to a shared pipe never interleave. Best-effort:
/// a closed pipe loses the line, not the request.
fn write_line(w: &mut (impl Write + ?Sized), record: &RequestRecord) {
    if let Ok(mut line) = serde_json::to_string(record) {
        line.push('\n');
        let _ = w.write_all(line.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    fn record_for(route: &str, status: u16) -> RequestRecord {
        RequestRecord {
            seq: 0,
            trace_id: "abc".to_owned(),
            route: route.to_owned(),
            status,
            outcome: RequestRecord::outcome_of(status).to_owned(),
            start_offset_ns: 1,
            duration_ns: 2,
            phases: vec![("handle".to_owned(), 2)],
            quality: None,
            ingest: None,
        }
    }

    #[test]
    fn outcome_classes() {
        assert_eq!(RequestRecord::outcome_of(200), "ok");
        assert_eq!(RequestRecord::outcome_of(404), "client_error");
        assert_eq!(RequestRecord::outcome_of(429), "shed");
        assert_eq!(RequestRecord::outcome_of(500), "panic");
        assert_eq!(RequestRecord::outcome_of(503), "error");
        assert_eq!(RequestRecord::outcome_of(504), "timeout");
    }

    #[test]
    fn ring_retains_exactly_the_last_capacity_records_in_order() {
        let recorder = FlightRecorder::new(FlightConfig {
            capacity: 16,
            stripes: 4,
        });
        assert_eq!(recorder.capacity(), 16);
        for i in 0..100 {
            let seq = recorder.record(record_for("recommend", 200));
            assert_eq!(seq, i);
        }
        assert_eq!(recorder.recorded(), 100);
        let records = recorder.snapshot();
        assert_eq!(records.len(), 16, "wrapped ring holds capacity records");
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(
            seqs,
            (84..100).collect::<Vec<u64>>(),
            "snapshot is the last N, oldest first"
        );
    }

    #[test]
    fn hammer_no_lost_or_torn_records() {
        let recorder = Arc::new(FlightRecorder::new(FlightConfig {
            capacity: 64,
            stripes: 8,
        }));
        let threads = 8;
        let per_thread = 500u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let recorder = Arc::clone(&recorder);
                scope.spawn(move || {
                    let route = format!("route-{t}");
                    for i in 0..per_thread {
                        let mut rec = record_for(&route, 200);
                        // A writer-specific fingerprint spread across
                        // fields; a torn record would mismatch.
                        rec.duration_ns = t * 10_000 + i;
                        rec.trace_id = format!("{t}-{i}");
                        recorder.record(rec);
                    }
                });
            }
        });
        assert_eq!(recorder.recorded(), threads * per_thread);
        let records = recorder.snapshot();
        assert_eq!(records.len(), 64, "ring stays at capacity under load");
        let mut seen = std::collections::HashSet::new();
        for r in &records {
            assert!(seen.insert(r.seq), "sequence numbers are unique");
            // Fingerprint consistency across fields = not torn.
            let (t, i) = r.trace_id.split_once('-').expect("writer fingerprint");
            let (t, i): (u64, u64) = (t.parse().unwrap(), i.parse().unwrap());
            assert_eq!(
                r.duration_ns,
                t * 10_000 + i,
                "record fields are consistent"
            );
            assert_eq!(r.route, format!("route-{t}"));
        }
        // The retained window is the tail of the global sequence.
        let min_seq = records.iter().map(|r| r.seq).min().unwrap();
        assert_eq!(min_seq, threads * per_thread - 64);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "sorted by completion");
    }

    #[test]
    fn dump_writes_parseable_json_lines() {
        let recorder = FlightRecorder::new(FlightConfig {
            capacity: 4,
            stripes: 2,
        });
        for _ in 0..6 {
            recorder.record(record_for("explain", 504));
        }
        let mut buf = Vec::new();
        recorder.dump(&mut buf, "test");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("=== dump (test)"));
        let parsed: Vec<RequestRecord> = text
            .lines()
            .filter(|l| !l.starts_with("[flight]"))
            .map(|l| serde_json::from_str(l).expect("JSON line"))
            .collect();
        assert_eq!(parsed.len(), 4);
        assert!(parsed.iter().all(|r| r.outcome == "timeout"));
    }

    #[test]
    fn logged_record_is_the_ring_record_as_a_dump_line() {
        let recorder = FlightRecorder::default();
        recorder.record(record_for("recommend", 200));
        let mut log = Vec::new();
        let seq = recorder.record_logged(record_for("explain", 504), &mut log);
        let text = String::from_utf8(log).unwrap();
        assert_eq!(text.lines().count(), 1, "one line per record: {text}");
        let logged: RequestRecord = serde_json::from_str(text.trim_end()).unwrap();
        assert_eq!((logged.seq, seq), (1, 1));
        let ring = recorder.snapshot();
        assert_eq!(ring.len(), 2, "the logged record is in the ring too");
        assert_eq!(
            serde_json::to_string(&ring[1]).unwrap(),
            text.trim_end(),
            "the same bytes a dump would write"
        );
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = record_for("recommend", 200);
        let json = serde_json::to_string(&rec).unwrap();
        assert!(
            json.contains("\"quality\":null"),
            "unsampled records carry a null quality: {json}"
        );
        // A schema-1 line (no quality field at all) still parses.
        let legacy = json.replace(",\"quality\":null", "");
        let back: RequestRecord = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.quality, None);
        let back: RequestRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.route, "recommend");
        assert_eq!(back.phases, vec![("handle".to_owned(), 2)]);
        assert_eq!(back.quality, None);

        let mut sampled = record_for("explain", 200);
        sampled.quality = Some(0.75);
        let json = serde_json::to_string(&sampled).unwrap();
        assert!(json.contains("\"quality\":0.75"), "schema-2 field: {json}");
        let back: RequestRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.quality, Some(0.75));
    }

    #[test]
    fn ingest_field_round_trips_and_legacy_lines_parse() {
        let mut rec = record_for("rate", 200);
        rec.ingest = Some(IngestRecord {
            applied: 3,
            wal_append_ns: 1200,
        });
        let json = serde_json::to_string(&rec).unwrap();
        assert!(
            json.contains("\"ingest\":{\"applied\":3,\"wal_append_ns\":1200}"),
            "schema-3 block: {json}"
        );
        let back: RequestRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.ingest, rec.ingest);

        // A schema-2 line (no ingest field at all) still parses.
        let read_route = record_for("recommend", 200);
        let json = serde_json::to_string(&read_route).unwrap();
        let legacy = json.replace(",\"ingest\":null", "");
        assert!(!legacy.contains("ingest"));
        let back: RequestRecord = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.ingest, None);

        // A schema-3 line (with fields schema 4 dropped) still parses.
        let legacy = json.replace(",\"quality\"", ",\"dropped\":0,\"quality\"");
        assert!(legacy.contains("dropped"));
        let back: RequestRecord = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.route, "recommend");
    }
}
