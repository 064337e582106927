//! The load generator: keep-alive HTTP/1.1 connections over loopback,
//! an open-loop leg on a seeded schedule and a closed-loop leg.
//!
//! Discipline: at most `nproc` client threads, each holding one
//! persistent keep-alive connection with `TCP_NODELAY` set, each
//! request sent in a single write.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::workload::{Generator, Req};

/// The bytes of one request on the wire.
pub fn wire(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// One answered request: status (`0` for a transport failure) and body.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// A keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Sends one request and reads its whole response.
    pub fn send(&mut self, path: &str, body: &str) -> io::Result<Reply> {
        // Head and body go out in ONE write. Split over two writes on a
        // keep-alive socket, the second segment waits for the server's
        // delayed ACK of the first: on the 2-core reference machine that
        // turned a 0.69 ms `/v1/explain` into 44 ms, so the benchmark
        // would have measured the TCP stack's 40 ms timer, not the server.
        self.writer.write_all(wire(path, body).as_bytes())?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in the headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply { status, body })
    }
}

/// One request's outcome in a leg.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The request, as sent.
    pub req: Req,
    /// How late the generator sent it, against its schedule (open loop).
    pub lag_ms: f64,
    /// Open loop: from the scheduled send time to the last response
    /// byte. Closed loop: from the actual send time.
    pub latency_ms: f64,
    /// When the answer arrived, in seconds from the leg's start.
    pub done_s: f64,
    /// The answer; its body is kept only for requests marked to keep.
    pub reply: Reply,
    /// Why a 2xx body failed its shape check, if it did.
    pub problem: Option<String>,
}

impl Sample {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.reply.status)
    }
}

/// Checks one 2xx body against the request that produced it.
pub type Check<'a> = &'a (dyn Fn(&Req, &[u8]) -> Result<(), String> + Sync);

/// Checks a reply as it arrives, after its latency is taken, and drops
/// its body unless `keep`: bodies held to the end of a leg would count
/// in the process's peak RSS, which is meant to measure the server.
fn finish(req: &Req, mut reply: Reply, check: Check<'_>, keep: bool) -> (Reply, Option<String>) {
    let problem = if (200..300).contains(&reply.status) {
        check(req, &reply.body).err()
    } else {
        None
    };
    if !keep {
        reply.body = Vec::new();
    }
    (reply, problem)
}

/// Sends on a lazily opened connection, reconnecting after a failure.
fn send_on(conn: &mut Option<Conn>, addr: SocketAddr, req: &Req) -> Reply {
    let mut attempt = || -> io::Result<Reply> {
        if conn.is_none() {
            *conn = Some(Conn::connect(addr)?);
        }
        conn.as_mut()
            .expect("connected above")
            .send(req.path(), &req.body())
    };
    match attempt() {
        Ok(reply) => reply,
        Err(_) => {
            *conn = None;
            Reply {
                status: 0,
                body: Vec::new(),
            }
        }
    }
}

/// Open loop: request `j` is due `offsets[j]` seconds after the start,
/// whatever happened to earlier requests. Each of `threads` workers
/// takes the next due request, waits for its time, sends it on its own
/// connection and times it from the due time, so a stall shows up in
/// every request it delays.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Req],
    offsets: &[f64],
    keep: &[bool],
    check: Check<'_>,
    threads: usize,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    // A short lead so the workers are parked before the first due time.
    let start = Instant::now() + Duration::from_millis(20);
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut conn: Option<Conn> = None;
                    let mut out = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= reqs.len() {
                            return out;
                        }
                        let due = start + Duration::from_secs_f64(offsets[j]);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let reply = send_on(&mut conn, addr, &reqs[j]);
                        let done = Instant::now();
                        let (reply, problem) = finish(&reqs[j], reply, check, keep[j]);
                        out.push((
                            j,
                            Sample {
                                req: reqs[j].clone(),
                                lag_ms: ms(sent.saturating_duration_since(due)),
                                latency_ms: ms(done.saturating_duration_since(due)),
                                done_s: done.saturating_duration_since(start).as_secs_f64(),
                                reply,
                                problem,
                            },
                        ));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("open-loop worker panicked"))
            .collect()
    });
    samples.sort_by_key(|(j, _)| *j);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// Closed loop: `threads` callers each send their next request as soon
/// as the previous answer arrives, drawing from the shared generator,
/// for `duration`. Returns the samples and the elapsed seconds.
pub fn closed_loop(
    addr: SocketAddr,
    generator: &Mutex<Generator>,
    check: Check<'_>,
    threads: usize,
    duration: Duration,
) -> (Vec<Sample>, f64) {
    let started = Instant::now();
    let until = started + duration;
    let samples = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(move || {
                    let mut conn: Option<Conn> = None;
                    let mut out = Vec::new();
                    while Instant::now() < until {
                        let req = generator
                            .lock()
                            .expect("generator lock poisoned")
                            .next_req();
                        let sent = Instant::now();
                        let reply = send_on(&mut conn, addr, &req);
                        let (latency_ms, done_s) =
                            (ms(sent.elapsed()), started.elapsed().as_secs_f64());
                        let (reply, problem) = finish(&req, reply, check, false);
                        out.push(Sample {
                            req,
                            lag_ms: 0.0,
                            latency_ms,
                            done_s,
                            reply,
                            problem,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("closed-loop worker panicked"))
            .collect()
    });
    (samples, started.elapsed().as_secs_f64())
}

/// Sends `reqs` one after another on one connection, timing each from
/// its send and keeping every body.
pub fn sequential(addr: SocketAddr, reqs: &[Req], check: Check<'_>) -> Vec<Sample> {
    let mut conn: Option<Conn> = None;
    let started = Instant::now();
    reqs.iter()
        .map(|req| {
            let sent = Instant::now();
            let reply = send_on(&mut conn, addr, req);
            let (latency_ms, done_s) = (ms(sent.elapsed()), started.elapsed().as_secs_f64());
            let (reply, problem) = finish(req, reply, check, true);
            Sample {
                req: req.clone(),
                lag_ms: 0.0,
                latency_ms,
                done_s,
                reply,
                problem,
            }
        })
        .collect()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
