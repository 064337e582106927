//! Request ids and the process clock.
//!
//! The serving edge gives every request a 128-bit trace id, drawn from a
//! seedable SplitMix64 [`IdSource`] (so tests that fix the seed see the
//! same ids run after run), returns it in the `x-exrec-trace-id`
//! header and stores it in the request's flight record
//! ([`crate::flight::RequestRecord`]). The record is the request's
//! trace: its phases come from the profiler, and the edge writes it to
//! stderr when the request was bad by the SLO.
//!
//! Every start offset in this crate (span events, flight records,
//! incidents, time-series ticks) counts nanoseconds from one process
//! zero point, [`process_start`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The instant the process' monotonic span clock was first read; every
/// `start_offset_ns` is measured from here.
static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// The zero point of span `start_offset_ns` values (lazily initialised
/// on first use; call early in `main` to anchor it at process start).
pub fn process_start() -> Instant {
    *PROCESS_START.get_or_init(Instant::now)
}

/// Nanoseconds between the process zero point and `instant`.
/// Saturates to 0 for instants before the zero point.
pub fn offset_ns_of(instant: Instant) -> u64 {
    instant
        .saturating_duration_since(process_start())
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64
}

/// Nanoseconds since the process zero point, now.
pub fn process_offset_ns() -> u64 {
    offset_ns_of(Instant::now())
}

/// SplitMix64 finalizer; cheap and well distributed.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable source of trace ids: a SplitMix64 stream over an
/// atomic counter, so ids are unique across threads and deterministic
/// for a fixed seed.
#[derive(Debug)]
pub struct IdSource {
    seed: u64,
    next: AtomicU64,
}

impl Default for IdSource {
    /// An entropy-seeded source (wall clock ⊕ allocation address).
    fn default() -> Self {
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let addr = {
            let probe = 0u8;
            std::ptr::addr_of!(probe) as u64
        };
        IdSource::seeded(clock ^ addr.rotate_left(32))
    }
}

impl IdSource {
    /// A source producing the same id stream for the same seed.
    pub fn seeded(seed: u64) -> Self {
        IdSource {
            seed,
            next: AtomicU64::new(0),
        }
    }

    /// The next non-zero 64-bit id.
    pub fn next_id(&self) -> u64 {
        loop {
            let n = self.next.fetch_add(1, Ordering::Relaxed);
            let id = splitmix64(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if id != 0 {
                return id;
            }
        }
    }

    /// The next 128-bit trace id (two draws from the stream).
    pub fn next_trace_id(&self) -> u128 {
        (u128::from(self.next_id()) << 64) | u128::from(self.next_id())
    }
}

/// Formats a 128-bit trace id as 32 lower-case hex characters (the
/// W3C `traceparent` convention, and what `x-exrec-trace-id` carries).
pub fn trace_id_hex(id: u128) -> String {
    format!("{id:032x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_source_is_deterministic_and_collision_free() {
        let a = IdSource::seeded(42);
        let b = IdSource::seeded(42);
        let ids_a: Vec<u64> = (0..100).map(|_| a.next_id()).collect();
        let ids_b: Vec<u64> = (0..100).map(|_| b.next_id()).collect();
        assert_eq!(ids_a, ids_b, "same seed, same stream");
        let mut dedup = ids_a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids_a.len(), "no collisions in a short run");
        let c = IdSource::seeded(43);
        assert_ne!(c.next_id(), ids_a[0], "different seed, different stream");
    }

    #[test]
    fn trace_ids_format_and_parse() {
        let id = IdSource::seeded(7).next_trace_id();
        let hex = trace_id_hex(id);
        assert_eq!(hex.len(), 32);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(u128::from_str_radix(&hex, 16), Ok(id));
        assert_eq!(trace_id_hex(1), format!("{}1", "0".repeat(31)));
    }
}
