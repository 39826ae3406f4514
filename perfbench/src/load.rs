//! The load generator: open-loop request schedules over keep-alive
//! connections, a blocking client for admin calls, and the per-phase
//! accounting.
//!
//! Open loop: every request has a due time fixed before the phase starts,
//! and is sent at that time whether or not earlier requests were answered
//! (pipelined on its connection). Latency is timed from the due time, so a
//! stall also charges the wait it imposes on every later request; how late
//! the generator itself sent is reported as lateness.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::stats;

/// How long a connection may go without any response bytes while
/// requests are outstanding before they count as timed out.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// Delay between building a schedule and its first due time.
const LEAD: Duration = Duration::from_millis(2);

/// The wire bytes of a keep-alive `POST`.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The wire bytes of a keep-alive `GET`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: keep-alive\r\n\r\n").into_bytes()
}

/// One complete response at the front of `buf`: `(status, total length,
/// body offset)`. `None` while the bytes are incomplete.
pub fn parse_response(buf: &[u8]) -> Option<(u16, usize, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let length: usize = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse().ok())?;
    (buf.len() >= head_end + length).then_some((status, head_end + length, head_end))
}

/// One response as read off the socket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    /// The full response: status line, headers and body.
    pub wire: Vec<u8>,
    pub body_start: usize,
}

impl Response {
    pub fn body(&self) -> &[u8] {
        &self.wire[self.body_start..]
    }

    pub fn body_text(&self) -> &str {
        std::str::from_utf8(self.body()).unwrap_or("")
    }
}

/// A blocking keep-alive client: one request, then its response.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    pub fn call(&mut self, wire: &[u8]) -> io::Result<Response> {
        self.stream.write_all(wire)?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((status, total, body_start)) = parse_response(&self.buf) {
                let wire: Vec<u8> = self.buf.drain(..total).collect();
                return Ok(Response {
                    status,
                    wire,
                    body_start,
                });
            }
            let read = self.stream.read(&mut chunk)?;
            if read == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a full response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..read]);
        }
    }
}

/// One scheduled request's fate. Times are offsets from the phase origin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    pub due: Duration,
    pub sent: Option<Duration>,
    pub done: Option<Duration>,
    /// `None` when no full response arrived (transport error or timeout).
    pub response: Option<Response>,
}

impl Record {
    /// Transport errors, timeouts and 5xx fail; typed 4xx answers do not.
    pub fn failed(&self) -> bool {
        match &self.response {
            Some(response) => response.status >= 500 || self.done.is_none(),
            None => true,
        }
    }

    /// Latency from the due time, ms; infinite for a failed request, which
    /// misses any latency limit.
    pub fn latency_ms(&self) -> f64 {
        match (self.failed(), self.done) {
            (false, Some(done)) => done.saturating_sub(self.due).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }

    /// Latency from the actual send, µs (transport + server time only).
    pub fn socket_us(&self) -> Option<f64> {
        Some(self.done?.saturating_sub(self.sent?).as_secs_f64() * 1e6)
    }
}

/// Due times of `count` requests at a constant `rate` per second.
pub fn constant_rate(count: usize, rate: f64) -> Vec<Duration> {
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// The rate the generator actually offered: requests sent per second
/// between the first and the last send.
pub fn achieved_rate<'a>(records: impl IntoIterator<Item = &'a Record>) -> f64 {
    let sends: Vec<Duration> = records.into_iter().filter_map(|r| r.sent).collect();
    match (sends.iter().min(), sends.iter().max()) {
        (Some(first), Some(last)) if last > first => {
            (sends.len() - 1) as f64 / (*last - *first).as_secs_f64()
        }
        _ => 0.0,
    }
}

/// Send `wires[i]` at `dues[i]` over `conns` keep-alive connections
/// (request `i` on connection `i % conns`), reading responses in between.
/// Connection 0 is driven on the calling thread, the others on one scoped
/// thread each.
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    wires: &[Vec<u8>],
    dues: &[Duration],
) -> Vec<Record> {
    assert_eq!(wires.len(), dues.len());
    let conns = conns.max(1);
    let origin = Instant::now() + LEAD;
    let lanes: Vec<Vec<usize>> = (0..conns)
        .map(|c| (c..wires.len()).step_by(conns).collect())
        .collect();
    let mut records = vec![Record::default(); wires.len()];
    let finished: Vec<Vec<(usize, Record)>> = std::thread::scope(|scope| {
        let others: Vec<_> = lanes[1..]
            .iter()
            .map(|lane| scope.spawn(move || drive(addr, origin, lane, wires, dues)))
            .collect();
        let mut all = vec![drive(addr, origin, &lanes[0], wires, dues)];
        for handle in others {
            all.push(handle.join().expect("a load connection thread panicked"));
        }
        all
    });
    for (index, record) in finished.into_iter().flatten() {
        records[index] = record;
    }
    records
}

fn since(origin: Instant) -> Duration {
    Instant::now().saturating_duration_since(origin)
}

/// Drive one connection through its lane of the schedule.
fn drive(
    addr: SocketAddr,
    origin: Instant,
    lane: &[usize],
    wires: &[Vec<u8>],
    dues: &[Duration],
) -> Vec<(usize, Record)> {
    let mut records: Vec<Record> = lane
        .iter()
        .map(|&i| Record {
            due: dues[i],
            ..Record::default()
        })
        .collect();
    let finish = |records: Vec<Record>| lane.iter().copied().zip(records).collect();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return finish(records);
    };
    let _ = stream.set_nodelay(true);
    std::thread::sleep(origin.saturating_duration_since(Instant::now()));
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let (mut next_send, mut next_recv) = (0usize, 0usize);
    let mut last_progress = Instant::now();
    while next_recv < records.len() {
        let now = since(origin);
        if next_send < records.len() && now >= records[next_send].due {
            if stream.write_all(&wires[lane[next_send]]).is_err() {
                break;
            }
            records[next_send].sent = Some(since(origin));
            next_send += 1;
            continue;
        }
        let until_due = (next_send < records.len()).then(|| records[next_send].due - now);
        if next_recv == next_send {
            // Nothing outstanding: sleep until the next request is due.
            std::thread::sleep(until_due.unwrap_or_default());
            last_progress = Instant::now();
            continue;
        }
        let wait = until_due
            .unwrap_or(Duration::from_millis(20))
            .clamp(Duration::from_micros(20), Duration::from_millis(20));
        if stream.set_read_timeout(Some(wait)).is_err() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(read) => {
                buf.extend_from_slice(&chunk[..read]);
                let done = since(origin);
                while let Some((status, total, body_start)) = parse_response(&buf) {
                    let record = &mut records[next_recv];
                    record.done = Some(done);
                    record.response = Some(Response {
                        status,
                        wire: buf.drain(..total).collect(),
                        body_start,
                    });
                    next_recv += 1;
                }
                last_progress = Instant::now();
            }
            Err(error)
                if matches!(
                    error.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if last_progress.elapsed() > RESPONSE_TIMEOUT {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    finish(records)
}

/// The accounting of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    pub attempted: usize,
    pub failed: usize,
    /// Latency from due time, ms, under the percentile rule (failed
    /// requests count as infinitely late).
    pub latency: Option<stats::Summary>,
    /// Generator lateness (sent − due), ms: median and maximum.
    pub lateness_p50_ms: f64,
    pub lateness_max_ms: f64,
    /// Last response arrival minus last due time, ms (infinite when a
    /// request never completed).
    pub drain_ms: f64,
}

/// Account a phase's records.
pub fn account(records: &[Record]) -> PhaseStats {
    let latencies: Vec<f64> = records.iter().map(Record::latency_ms).collect();
    let lateness: Vec<f64> = records
        .iter()
        .filter_map(|r| Some(r.sent?.saturating_sub(r.due).as_secs_f64() * 1e3))
        .collect();
    let last_due = records.iter().map(|r| r.due).max().unwrap_or_default();
    let drain_ms = if records.iter().all(|r| r.done.is_some()) {
        let last_done = records
            .iter()
            .filter_map(|r| r.done)
            .max()
            .unwrap_or_default();
        last_done.saturating_sub(last_due).as_secs_f64() * 1e3
    } else {
        f64::INFINITY
    };
    PhaseStats {
        attempted: records.len(),
        failed: records.iter().filter(|r| r.failed()).count(),
        latency: stats::summarize(&latencies),
        lateness_p50_ms: if lateness.is_empty() {
            0.0
        } else {
            stats::median(&lateness)
        },
        lateness_max_ms: lateness.iter().copied().fold(0.0, f64::max),
        drain_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn ok(status: u16) -> Option<Response> {
        Some(Response {
            status,
            ..Response::default()
        })
    }

    fn record(due: u64, sent: u64, done: Option<u64>, status: u16) -> Record {
        Record {
            due: ms(due),
            sent: Some(ms(sent)),
            done: done.map(ms),
            response: done.and(ok(status)),
        }
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send() {
        // A 30 ms stall: the generator sent request 1 late, and its latency
        // must include the time it waited to be sent.
        let stalled = record(10, 40, Some(45), 200);
        assert_eq!(stalled.latency_ms(), 35.0);
        assert_eq!(stalled.socket_us(), Some(5000.0));
        let stats = account(&[record(0, 0, Some(4), 200), stalled]);
        assert_eq!(stats.lateness_max_ms, 30.0);
        assert_eq!(stats.lateness_p50_ms, 15.0);
        assert_eq!(stats.drain_ms, 35.0);
    }

    #[test]
    fn failures_count_against_attempts_and_miss_every_limit() {
        let records: Vec<Record> = (0..20)
            .map(|i| match i {
                0 => record(i, i, None, 0),
                1 => record(i, i, Some(i + 1), 503),
                2 => record(i, i, Some(i + 1), 422),
                _ => record(i, i, Some(i + 2), 200),
            })
            .collect();
        let stats = account(&records);
        assert_eq!((stats.attempted, stats.failed), (20, 2));
        assert!(records[0].latency_ms().is_infinite());
        assert!(records[1].latency_ms().is_infinite());
        assert_eq!(records[2].latency_ms(), 1.0);
        assert!(stats.drain_ms.is_infinite());
        assert!(stats.latency.unwrap().max.is_infinite());
    }

    #[test]
    fn constant_rate_due_times() {
        let dues = constant_rate(5, 200.0);
        assert_eq!(dues[0], Duration::ZERO);
        assert_eq!(dues[4], ms(20));
    }

    #[test]
    fn achieved_rate_follows_the_actual_sends() {
        // Due every 5 ms (200/s), but the generator fell behind and sent
        // the last of 5 requests at 40 ms: 4 gaps over 40 ms is 100/s.
        let records: Vec<Record> = (0..5)
            .map(|i| record(5 * i, if i == 4 { 40 } else { 5 * i }, Some(50), 200))
            .collect();
        assert!((achieved_rate(&records) - 100.0).abs() < 1e-9);
        assert_eq!(achieved_rate(&records[..1]), 0.0);
    }

    #[test]
    fn response_framing() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 4";
        assert_eq!(parse_response(wire), Some((200, 40, 38)));
        assert_eq!(parse_response(&wire[..39]), None);
        assert_eq!(parse_response(b"HTTP/1.1 200 OK\r\n"), None);
    }
}
