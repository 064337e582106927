//! The named workloads and their seeded request streams.
//!
//! Everything a run sends is a pure function of the workload and the
//! `--seed`: the request mix, the users and items each request names,
//! the write values and the open-loop arrival schedule. The world is
//! part of the workload (its shape plus the `AppConfig` default world
//! seed), so runs on different seeds differ in traffic, not in data.
//! The server only ever sees the generated requests.

use std::collections::HashSet;

/// SplitMix64: a tiny, well-mixed generator. The benchmark needs only
/// reproducible draws, not a statistical-grade RNG crate.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed, so that
    /// adding draws to one stream never shifts another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Which traffic a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Plain top-10 `/v1/recommend` for one user, nothing else.
    Rank,
    /// 60% plain rank, 20% explained rank (n=5), 10% `/v1/explain`,
    /// 10% writes (every fifth write a 3-op `/v1/rate/batch`).
    Mixed,
    /// 70% `/v1/explain` over the model-backed interfaces and aim
    /// routing, 30% explained top-10.
    Explain,
}

/// One named workload: a world, a mix and the load put on it.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub n_users: usize,
    pub n_items: usize,
    pub density: f64,
    pub mix: Mix,
    /// Open-loop arrival rate, requests per second.
    pub rate_rps: f64,
    /// Latency limit a response must meet to count toward goodput.
    pub limit_ms: f64,
    /// A run whose generator lag p99 exceeds this is invalid.
    pub lag_bound_ms: f64,
    /// Set-ups timed per run (the median is `setup_s`).
    pub setups: usize,
}

/// The workload table. Rates keep the 2-core reference machine well
/// below its closed-loop capacity (rank_30k about a quarter busy). Each
/// limit is about 3x the unloaded p50 of the slowest read class in the
/// mix, so goodput drops for requests slowed by queueing or stalls, not
/// because a whole request class sits at the limit. Large worlds time
/// two set-ups per run, small ones three.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "rank_30k",
        n_users: 30_000,
        n_items: 500,
        density: 0.1,
        mix: Mix::Rank,
        rate_rps: 35.0,
        limit_ms: 36.0,
        lag_bound_ms: 500.0,
        setups: 2,
    },
    Workload {
        name: "mixed_10k",
        n_users: 10_000,
        n_items: 400,
        density: 0.05,
        mix: Mix::Mixed,
        rate_rps: 120.0,
        limit_ms: 10.0,
        lag_bound_ms: 100.0,
        setups: 3,
    },
    Workload {
        name: "explain_10k",
        n_users: 10_000,
        n_items: 400,
        density: 0.05,
        mix: Mix::Explain,
        rate_rps: 150.0,
        limit_ms: 15.0,
        lag_bound_ms: 100.0,
        setups: 3,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Interfaces that explain from the user-kNN model's own neighbour
/// evidence; `/v1/explain` rotates over them.
pub const MODEL_BACKED: [&str; 6] = [
    "clustered_histogram",
    "histogram",
    "canonical_collaborative",
    "neighbor_count",
    "neighbor_table",
    "complex_graph",
];

/// Aims whose aim-fit selection lands on an interface the served
/// model can feed, so aim-routed requests answer 2xx.
pub const ROUTED_AIMS: [&str; 3] = ["transparency", "trust", "persuasiveness"];

/// One request of a stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    Recommend {
        user: u32,
        n: usize,
        explain: bool,
    },
    Explain {
        user: u32,
        item: u32,
        interface: Option<&'static str>,
        aim: Option<&'static str>,
    },
    Rate {
        user: u32,
        item: u32,
        value: f64,
    },
    RateBatch(Vec<(u32, u32, f64)>),
}

impl Req {
    pub fn is_write(&self) -> bool {
        matches!(self, Req::Rate { .. } | Req::RateBatch(_))
    }

    pub fn path(&self) -> &'static str {
        match self {
            Req::Recommend { .. } => "/v1/recommend",
            Req::Explain { .. } => "/v1/explain",
            Req::Rate { .. } => "/v1/rate",
            Req::RateBatch(_) => "/v1/rate/batch",
        }
    }

    /// The JSON body, in the field spelling of `exrec_serve::proto`.
    pub fn body(&self) -> String {
        match self {
            Req::Recommend { user, n, explain } => {
                format!("{{\"users\":[{user}],\"n\":{n},\"explain\":{explain}}}")
            }
            Req::Explain {
                user,
                item,
                interface,
                aim,
            } => {
                let mut body = format!("{{\"user\":{user},\"item\":{item}");
                if let Some(interface) = interface {
                    body.push_str(&format!(",\"interface\":\"{interface}\""));
                }
                if let Some(aim) = aim {
                    body.push_str(&format!(",\"aim\":\"{aim}\""));
                }
                body.push('}');
                body
            }
            Req::Rate { user, item, value } => {
                format!("{{\"user\":{user},\"item\":{item},\"value\":{value:.1}}}")
            }
            Req::RateBatch(ops) => {
                let ops: Vec<String> = ops
                    .iter()
                    .map(|(user, item, value)| {
                        format!("{{\"user\":{user},\"item\":{item},\"value\":{value:.1}}}")
                    })
                    .collect();
                format!("{{\"ops\":[{}]}}", ops.join(","))
            }
        }
    }

    /// The `(user, item)` pairs a write touches.
    pub fn write_pairs(&self) -> Vec<(u32, u32)> {
        match self {
            Req::Rate { user, item, .. } => vec![(*user, *item)],
            Req::RateBatch(ops) => ops.iter().map(|&(u, i, _)| (u, i)).collect(),
            _ => Vec::new(),
        }
    }
}

/// The seeded source of one run's requests. Every leg of a run draws
/// from the same generator, so no `(user, item)` pair is written twice
/// in a run.
#[derive(Debug)]
pub struct Generator {
    mix: Mix,
    n_users: usize,
    n_items: usize,
    rng: Rng,
    /// The current block of ten request kinds (mixed workload).
    block: Vec<u8>,
    explains: usize,
    writes: usize,
    written: HashSet<(u32, u32)>,
}

impl Generator {
    pub fn new(w: &Workload, seed: u64) -> Self {
        Generator {
            mix: w.mix,
            n_users: w.n_users,
            n_items: w.n_items,
            rng: Rng::new(seed, 1),
            block: Vec::new(),
            explains: 0,
            writes: 0,
            written: HashSet::new(),
        }
    }

    fn user(&mut self) -> u32 {
        self.rng.below(self.n_users) as u32
    }

    fn item(&mut self) -> u32 {
        self.rng.below(self.n_items) as u32
    }

    /// The next request of the workload's mix.
    pub fn next_req(&mut self) -> Req {
        match self.mix {
            Mix::Rank => self.plain(),
            Mix::Explain => {
                if self.rng.below(10) < 7 {
                    self.explain()
                } else {
                    Req::Recommend {
                        user: self.user(),
                        n: 10,
                        explain: true,
                    }
                }
            }
            Mix::Mixed => {
                // Exact shares: each block of ten holds six plain ranks,
                // two explained ranks, one explain and one write, in a
                // seeded order.
                if self.block.is_empty() {
                    self.block = vec![0, 0, 0, 0, 0, 0, 1, 1, 2, 3];
                    for i in (1..self.block.len()).rev() {
                        let j = self.rng.below(i + 1);
                        self.block.swap(i, j);
                    }
                }
                match self.block.pop().expect("block refilled above") {
                    0 => self.plain(),
                    1 => Req::Recommend {
                        user: self.user(),
                        n: 5,
                        explain: true,
                    },
                    2 => self.explain(),
                    _ => self.write(),
                }
            }
        }
    }

    fn plain(&mut self) -> Req {
        Req::Recommend {
            user: self.user(),
            n: 10,
            explain: false,
        }
    }

    /// A single-pair explanation: three in four name a model-backed
    /// interface (rotating), one in four routes by aim.
    fn explain(&mut self) -> Req {
        let k = self.explains;
        self.explains += 1;
        let (interface, aim) = if k % 4 == 3 {
            (None, Some(ROUTED_AIMS[(k / 4) % ROUTED_AIMS.len()]))
        } else {
            (Some(MODEL_BACKED[(k - k / 4) % MODEL_BACKED.len()]), None)
        };
        Req::Explain {
            user: self.user(),
            item: self.item(),
            interface,
            aim,
        }
    }

    /// A whole-star write on a pair this run has not written yet; every
    /// fifth write is a 3-op batch.
    pub fn write(&mut self) -> Req {
        self.writes += 1;
        let ops = if self.writes.is_multiple_of(5) { 3 } else { 1 };
        let mut batch = Vec::with_capacity(ops);
        while batch.len() < ops {
            let pair = (self.user(), self.item());
            if self.written.insert(pair) {
                let value = 1.0 + self.rng.below(5) as f64;
                batch.push((pair.0, pair.1, value));
            }
        }
        if ops == 1 {
            let (user, item, value) = batch[0];
            Req::Rate { user, item, value }
        } else {
            Req::RateBatch(batch)
        }
    }
}

/// Arrival offsets (seconds from the leg's start) for `n` requests at
/// `rate_rps`: request `j` is due at a seeded uniform point of the
/// `j`-th `1/rate` slot. Jitter keeps arrivals independent of the
/// server; one request per slot keeps bursts, and with them the
/// run-to-run spread of the tail, small at the moderate loads used.
pub fn schedule(seed: u64, n: usize, rate_rps: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 2);
    (0..n).map(|j| (j as f64 + rng.unit()) / rate_rps).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(w: &Workload, seed: u64, n: usize) -> Vec<Req> {
        let mut g = Generator::new(w, seed);
        (0..n).map(|_| g.next_req()).collect()
    }

    #[test]
    fn same_seed_same_stream_and_schedule() {
        for w in &WORKLOADS {
            assert_eq!(draw(w, 7, 500), draw(w, 7, 500), "{}", w.name);
        }
        assert_eq!(schedule(7, 200, 60.0), schedule(7, 200, 60.0));
    }

    #[test]
    fn different_seed_different_stream_and_schedule() {
        for w in &WORKLOADS {
            assert_ne!(draw(w, 7, 500), draw(w, 8, 500), "{}", w.name);
        }
        assert_ne!(schedule(7, 200, 60.0), schedule(8, 200, 60.0));
    }

    #[test]
    fn write_pairs_never_repeat() {
        let w = find("mixed_10k").unwrap();
        let mut g = Generator::new(w, 3);
        let mut seen = HashSet::new();
        let mut writes = 0;
        for _ in 0..5_000 {
            let req = g.next_req();
            for pair in req.write_pairs() {
                assert!(seen.insert(pair), "pair {pair:?} written twice");
            }
            writes += req.is_write() as usize;
        }
        // The mixed stream continues into the probe-style direct draws.
        for _ in 0..2_000 {
            for pair in g.write().write_pairs() {
                assert!(seen.insert(pair), "pair {pair:?} written twice");
            }
        }
        assert_eq!(writes, 500, "exactly one write per block of ten");
    }

    #[test]
    fn mixed_shares_are_exact_per_block() {
        let reqs = draw(find("mixed_10k").unwrap(), 11, 1_000);
        let plain = reqs
            .iter()
            .filter(|r| matches!(r, Req::Recommend { explain: false, .. }))
            .count();
        let explained = reqs
            .iter()
            .filter(|r| matches!(r, Req::Recommend { explain: true, .. }))
            .count();
        let explains = reqs
            .iter()
            .filter(|r| matches!(r, Req::Explain { .. }))
            .count();
        assert_eq!((plain, explained, explains), (600, 200, 100));
    }

    #[test]
    fn bodies_parse_as_the_server_protocol() {
        use exrec_serve::proto::{ExplainRequest, RateBatchRequest, RateRequest, RecommendRequest};
        for w in &WORKLOADS {
            let mut g = Generator::new(w, 5);
            for _ in 0..200 {
                let req = g.next_req();
                let body = req.body();
                let ok = match &req {
                    Req::Recommend { .. } => {
                        serde_json::from_str::<RecommendRequest>(&body).is_ok()
                    }
                    Req::Explain { .. } => serde_json::from_str::<ExplainRequest>(&body).is_ok(),
                    Req::Rate { .. } => serde_json::from_str::<RateRequest>(&body).is_ok(),
                    Req::RateBatch(_) => serde_json::from_str::<RateBatchRequest>(&body).is_ok(),
                };
                assert!(ok, "{body}");
            }
        }
    }
}
