//! The load generator: raw HTTP/1.1 over keep-alive loopback connections,
//! driven open-loop from a schedule or closed-loop back to back.
//!
//! One thread owns one connection. Requests are pre-encoded bytes, so the
//! generator does no JSON work while it measures. Open-loop requests are
//! pipelined: each is written when it falls due whether or not earlier
//! replies have arrived, and its latency runs from its *due* time, so a
//! stall charges every request queued behind it. How late the generator
//! itself wrote each request is recorded beside the latency.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::sys;

/// Longest wait for one closed-loop reply.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed reply.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// Bytes of the whole reply (head + body).
    pub bytes: usize,
    /// When the reply's last byte had been read.
    pub at: Instant,
}

/// A keep-alive client connection with an incremental reply parser.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    head: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            head: 0,
        })
    }

    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Waits until `deadline` for bytes and appends every complete reply
    /// to `out`. `Ok(false)` means the wait timed out with nothing read.
    pub fn recv_until(&mut self, deadline: Instant, out: &mut VecDeque<Reply>) -> io::Result<bool> {
        let wait = deadline.saturating_duration_since(Instant::now());
        if !sys::wait_readable(self.stream.as_raw_fd(), wait) {
            return Ok(false);
        }
        let mut chunk = [0u8; 1 << 16];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let at = Instant::now();
        self.buf.extend_from_slice(&chunk[..n]);
        while let Some(reply) = self.parse_one(at)? {
            out.push_back(reply);
        }
        if self.head > 0 && self.head * 2 >= self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        Ok(true)
    }

    /// One request, one reply (closed loop); a reply that takes longer
    /// than [`REPLY_TIMEOUT`] is an error, so a wedged server fails the
    /// run instead of hanging it.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.send(request)?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut out = VecDeque::with_capacity(1);
        loop {
            let got = self.recv_until(deadline, &mut out)?;
            if let Some(r) = out.pop_front() {
                return Ok(r);
            }
            if !got && Instant::now() >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"));
            }
        }
    }

    fn parse_one(&mut self, at: Instant) -> io::Result<Option<Reply>> {
        let pending = &self.buf[self.head..];
        let Some(head_len) = pending.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&pending[..head_len])
            .map_err(|_| bad("reply head is not UTF-8"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let body_len: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("reply without Content-Length"))?;
        let total = head_len + 4 + body_len;
        if pending.len() < total {
            return Ok(None);
        }
        let body = pending[head_len + 4..total].to_vec();
        self.head += total;
        Ok(Some(Reply {
            status,
            body,
            bytes: total,
            at,
        }))
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `POST path` with a JSON body, as raw request bytes.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// What happened to one request.
#[derive(Debug)]
pub struct Record {
    /// Index into the request list that was sent.
    pub request: usize,
    /// When the schedule said to send it (closed loop: when it was sent).
    pub due: Instant,
    pub sent: Instant,
    /// `None` when no reply came (transport error or drain timeout).
    pub done: Option<Instant>,
    pub status: u16,
    pub reply_bytes: usize,
    /// Kept only when asked for (the traced run replays them).
    pub body: Option<Vec<u8>>,
}

impl Record {
    pub fn ok(&self) -> bool {
        self.done.is_some() && (200..300).contains(&self.status)
    }

    /// Latency from the due time, ms (`None` without a reply).
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| crate::stats::ms(d - self.due))
    }

    /// How late the generator wrote the request, ms.
    pub fn late_ms(&self) -> f64 {
        crate::stats::ms(self.sent.saturating_duration_since(self.due))
    }
}

/// Everything one connection's generator thread observed.
#[derive(Debug, Default)]
pub struct Run {
    pub records: Vec<Record>,
    /// CPU time the driving thread used.
    pub cpu: Duration,
    /// Most requests written but not yet answered at any moment — the
    /// server-side queue on this connection.
    pub max_outstanding: usize,
    /// The connection broke; unanswered requests count as failed.
    pub transport_error: bool,
}

impl Run {
    pub fn attempted(&self) -> usize {
        self.records.len()
    }

    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| !r.ok()).count()
    }
}

/// An open-loop schedule on one connection: request `i` falls due at
/// `start + offset + i * interval` and sends `requests[(first + i) % len]`.
pub struct Schedule<'a> {
    pub start: Instant,
    pub offset: Duration,
    pub interval: Duration,
    pub count: usize,
    pub requests: &'a [Vec<u8>],
    pub first: usize,
    /// How long after the last due time to wait for outstanding replies.
    pub drain: Duration,
}

impl Schedule<'_> {
    fn due(&self, i: usize) -> Instant {
        self.start + self.offset + self.interval.mul_f64(i as f64)
    }
}

/// Called after every send and every batch of replies with the records so
/// far; returns when it next wants to run (`None`: only on events). Used
/// for samplers that must not add a thread.
pub type Tick<'t> = &'t mut dyn FnMut(&[Record], Instant) -> Option<Instant>;

/// Drives `schedule` on `conn` open-loop and returns what happened.
pub fn open_loop(conn: &mut Conn, schedule: &Schedule, keep_bodies: bool, tick: Tick) -> Run {
    let cpu0 = sys::thread_cpu();
    let mut run = Run {
        records: Vec::with_capacity(schedule.count),
        ..Run::default()
    };
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    let mut replies = VecDeque::new();
    let mut next = 0usize;
    let last_due = schedule.due(schedule.count.saturating_sub(1));
    let mut wake: Option<Instant> = None;
    loop {
        let now = Instant::now();
        while next < schedule.count && schedule.due(next) <= now {
            let request = (schedule.first + next) % schedule.requests.len();
            let sent = Instant::now();
            if conn.send(&schedule.requests[request]).is_err() {
                run.transport_error = true;
            }
            run.records.push(Record {
                request,
                due: schedule.due(next),
                sent,
                done: None,
                status: 0,
                reply_bytes: 0,
                body: None,
            });
            outstanding.push_back(run.records.len() - 1);
            run.max_outstanding = run.max_outstanding.max(outstanding.len());
            next += 1;
            wake = tick(&run.records, Instant::now());
        }
        if run.transport_error {
            break;
        }
        let sending = next < schedule.count;
        if !sending && (outstanding.is_empty() || now >= last_due + schedule.drain) {
            break;
        }
        let mut until = if sending {
            schedule.due(next)
        } else {
            last_due + schedule.drain
        };
        if let Some(w) = wake {
            until = until.min(w.max(now));
        }
        match conn.recv_until(until, &mut replies) {
            Ok(true) => {
                while let Some(reply) = replies.pop_front() {
                    let Some(i) = outstanding.pop_front() else {
                        run.transport_error = true;
                        break;
                    };
                    let rec = &mut run.records[i];
                    rec.done = Some(reply.at);
                    rec.status = reply.status;
                    rec.reply_bytes = reply.bytes;
                    if keep_bodies {
                        rec.body = Some(reply.body);
                    }
                }
                wake = tick(&run.records, Instant::now());
            }
            Ok(false) => {
                if wake.is_some_and(|w| w <= Instant::now()) {
                    wake = tick(&run.records, Instant::now());
                }
            }
            Err(_) => run.transport_error = true,
        }
    }
    run.cpu = sys::thread_cpu() - cpu0;
    run
}

/// Sends requests back to back, each after the previous reply, cycling
/// through `requests` from `first`, until `until` passes (at least one
/// request is always sent) or `limit` requests went out. Latency runs
/// from the send.
pub fn closed_loop(
    conn: &mut Conn,
    requests: &[Vec<u8>],
    first: usize,
    until: Instant,
    limit: usize,
    keep_bodies: bool,
    tick: Tick,
) -> Run {
    let cpu0 = sys::thread_cpu();
    let mut run = Run::default();
    for i in 0..limit {
        if i > 0 && Instant::now() >= until {
            break;
        }
        let request = (first + i) % requests.len();
        let sent = Instant::now();
        let mut rec = Record {
            request,
            due: sent,
            sent,
            done: None,
            status: 0,
            reply_bytes: 0,
            body: None,
        };
        match conn.roundtrip(&requests[request]) {
            Ok(reply) => {
                rec.done = Some(reply.at);
                rec.status = reply.status;
                rec.reply_bytes = reply.bytes;
                if keep_bodies {
                    rec.body = Some(reply.body);
                }
            }
            Err(_) => run.transport_error = true,
        }
        run.records.push(rec);
        run.max_outstanding = 1;
        tick(&run.records, Instant::now());
        if run.transport_error {
            break;
        }
    }
    run.cpu = sys::thread_cpu() - cpu0;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::TcpListener;

    /// A stand-in server that answers every request on one connection,
    /// in order, with the length of its body.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone stream");
            let mut reader = BufReader::new(stream);
            while let Ok(req) = plsh::server::http::read_request(&mut reader, 1 << 20) {
                let body = format!("{{\"n\":{}}}", req.body.len());
                let resp = plsh::server::http::Response::json(200, body);
                if resp.write_to(&mut writer, true).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    /// A backend that answers like the index it wraps, except that its
    /// `stall_at`-th search sleeps for `stall` first.
    struct StallOnce {
        index: plsh::Index,
        calls: std::sync::atomic::AtomicUsize,
        stall_at: usize,
        stall: Duration,
    }

    impl plsh::ServeBackend for StallOnce {
        fn search(&self, req: &plsh::SearchRequest) -> plsh::Result<plsh::SearchResponse> {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.index.search(req)
        }
        fn insert_batch(&self, vs: &[plsh::SparseVector]) -> plsh::Result<Vec<u32>> {
            self.index.add_batch(vs)
        }
        fn delete(&self, id: u32) -> plsh::Result<bool> {
            self.index.delete(id)
        }
        fn health(&self) -> plsh::HealthReport {
            self.index.health()
        }
        fn stats(&self) -> plsh::core::engine::EngineStats {
            self.index.stats()
        }
        fn epoch_info(&self) -> plsh::EpochInfo {
            self.index.epoch_info()
        }
        fn shutdown(&self, deadline: Duration) -> plsh::ShutdownReport {
            self.index.shutdown(deadline)
        }
    }

    #[test]
    fn a_backend_stall_shows_in_later_latencies_not_in_generator_lateness() {
        let params = plsh::PlshParams::builder(16)
            .k(4)
            .m(4)
            .build()
            .expect("valid parameters");
        let index = plsh::Index::builder(params)
            .capacity(64)
            .threads(1)
            .build()
            .expect("build index");
        let doc = plsh::SparseVector::unit(vec![(1, 1.0), (5, 0.5)]).expect("unit vector");
        index.add(doc.clone()).expect("insert");
        let stall = Duration::from_millis(60);
        let backend = std::sync::Arc::new(StallOnce {
            index,
            calls: Default::default(),
            stall_at: 5,
            stall,
        });
        let server =
            plsh::server::serve(backend, "127.0.0.1:0", Default::default()).expect("bind loopback");
        let mut conn = Conn::connect(server.addr()).expect("connect");
        let requests = vec![crate::common::search_request(&doc, None)];
        let schedule = Schedule {
            start: Instant::now() + Duration::from_millis(5),
            offset: Duration::ZERO,
            interval: Duration::from_millis(2),
            count: 40,
            requests: &requests,
            first: 0,
            drain: Duration::from_secs(2),
        };
        let run = open_loop(&mut conn, &schedule, false, &mut |_, _| None);
        drop(conn);
        server.shutdown();
        assert_eq!(run.attempted(), 40);
        assert_eq!(run.failed(), 0);
        let lat: Vec<f64> = run
            .records
            .iter()
            .map(|r| r.latency_ms().expect("answered"))
            .collect();
        // The stalled request and the ones queued behind it (due while the
        // backend slept) all wait; latency from due time keeps that wait.
        assert!(lat[5] >= 55.0, "stalled request: {}", lat[5]);
        assert!(lat[10] >= 40.0, "queued behind the stall: {}", lat[10]);
        assert!(lat[2] < 30.0, "before the stall: {}", lat[2]);
        // Pipelining kept the schedule: the generator was not held up, so
        // the latency is the server's, not the generator's.
        assert!(run.max_outstanding >= 20, "{}", run.max_outstanding);
        let late: Vec<f64> = run.records.iter().map(Record::late_ms).collect();
        assert!(crate::stats::percentile(&late, 99.0) < 20.0);
    }

    #[test]
    fn a_stalled_generator_is_reported_late() {
        let (addr, server) = echo_server();
        let mut conn = Conn::connect(addr).expect("connect");
        let requests = vec![post("/search", "{}")];
        let schedule = Schedule {
            start: Instant::now(),
            offset: Duration::ZERO,
            interval: Duration::from_millis(1),
            count: 50,
            requests: &requests,
            first: 0,
            drain: Duration::from_secs(2),
        };
        // The generator's own thread stalls once (as under CPU pressure);
        // the requests that fell due meanwhile go out late, and their
        // latency still counts from their due time.
        let mut stalled = false;
        let run = open_loop(&mut conn, &schedule, false, &mut |recs, _| {
            if recs.len() == 10 && !stalled {
                stalled = true;
                std::thread::sleep(Duration::from_millis(40));
            }
            None
        });
        drop(conn);
        server.join().expect("echo server thread");
        let late: Vec<f64> = run.records.iter().map(Record::late_ms).collect();
        assert!(crate::stats::percentile(&late, 99.0) >= 25.0, "{late:?}");
        assert!(run.records[12].latency_ms().unwrap() >= 25.0);
    }

    #[test]
    fn closed_loop_times_from_send_and_parses_pipelined_replies() {
        let (addr, server) = echo_server();
        let mut conn = Conn::connect(addr).expect("connect");
        let requests: Vec<Vec<u8>> = (0..5).map(|i| post("/ingest", &"x".repeat(i))).collect();
        let run = closed_loop(
            &mut conn,
            &requests,
            0,
            Instant::now() + Duration::from_secs(5),
            requests.len(),
            true,
            &mut |_, _| None,
        );
        drop(conn);
        server.join().expect("echo server thread");
        assert_eq!(run.attempted(), 5);
        assert_eq!(run.failed(), 0);
        for (i, r) in run.records.iter().enumerate() {
            assert_eq!(r.body.as_deref(), Some(format!("{{\"n\":{i}}}").as_bytes()));
            assert_eq!(r.late_ms(), 0.0);
        }
    }
}
