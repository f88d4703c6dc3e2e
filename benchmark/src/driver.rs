//! The load generator: one thread, two connections, one epoll instance.
//!
//! Connection A ("lifecycle") carries `submit` and `cancel`; connection B
//! ("runtime") carries `report-sample`, `predict`, `query-plan` and
//! `stats`. The daemon answers each connection in order, so mixing the two
//! would park every heartbeat behind every epoch. Each connection
//! pipelines at most [`PIPELINE`] requests.
//!
//! The driver only ever hands the daemon encoded frames; which frame comes
//! next is decided by the seeded [`OpStream`].

use crate::opstream::{elapsed_ms, Op, OpKind, OpStream, PoissonClock, Verdict};
use rush_reactor::{Interest, Poller, ReadBuf, ReadOutcome, WriteBuf};
use rush_serve::binary::{self, Scan};
use rush_serve::protocol::{Decision, Response, StatsReport};
use std::collections::{BTreeSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Requests in flight per connection, at most.
pub const PIPELINE: usize = 16;

/// Longest the driver sleeps in `epoll_wait` while it has nothing due.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// How long warm-up, a drain or the final checks may take before the run
/// is declared wedged.
const STALL_LIMIT: Duration = Duration::from_secs(20);

const LIFECYCLE: usize = 0;
const RUNTIME: usize = 1;

/// One request in flight.
#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u64,
    op: Op,
    due: Instant,
    sent: Instant,
}

struct Conn {
    stream: TcpStream,
    rbuf: ReadBuf,
    wbuf: WriteBuf,
    inflight: VecDeque<Pending>,
    hello_pending: bool,
    want_write: bool,
}

/// One answered op kept by a traced run: enough to rebuild the request,
/// replay the call against a fresh state, and draw the driver's span.
#[derive(Debug, Clone)]
pub struct Captured {
    /// The driver's op number (the request id spans share).
    pub id: u64,
    /// The op as drawn from the stream.
    pub op: Op,
    /// The daemon's reply (`None`: undecodable).
    pub response: Option<Response>,
    /// When the frame was queued for sending.
    pub sent: Instant,
    /// When the reply was read.
    pub replied: Instant,
}

/// Cumulative counts since the connections opened — what the daemon's own
/// `stats` counters must agree with at the end of the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Error replies, wrong variants, refused submits, missing replies.
    pub failed: u64,
    /// `submit` verdicts received.
    pub submits: u64,
    /// ... of which admitted.
    pub admitted: u64,
    /// ... of which deferred.
    pub deferred: u64,
    /// ... of which rejected.
    pub rejected: u64,
    /// `report-sample` acks.
    pub samples: u64,
    /// Acks of a job's last sample.
    pub completed: u64,
    /// `cancel` acks.
    pub cancelled: u64,
    /// `predict` replies whose job can still finish with nonzero utility.
    pub predict_possible: u64,
    /// `predict` replies in total.
    pub predicts: u64,
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Length of the issuing window in seconds.
    pub seconds: f64,
    /// Replies that arrived inside the issuing window.
    pub replies_in_window: u64,
    /// Latency from due time to reply (ms), per [`OpKind::index`]. Runtime
    /// ops are thinned to every [`Driver::sample_every`]-th reply.
    pub latency_ms: [Vec<f64>; 7],
    /// Replies seen per kind, recorded or not.
    pub seen: [u64; 7],
    /// How late each runtime op left, relative to its due time (ms; open
    /// loop only).
    pub late_ms: Vec<f64>,
    /// Duration of socket flushes that had bytes to write (ms), thinned like
    /// the latencies.
    pub write_ms: Vec<f64>,
    /// Flushes that had bytes to write.
    pub flushes: u64,
    /// Daemon-reported epoch wait of each submit (ms).
    pub epoch_wait_ms: Vec<f64>,
    /// Distinct epochs that answered submits.
    pub epochs: BTreeSet<u64>,
}

/// How runtime ops are paced.
pub enum Pacing {
    /// Keep the runtime connection at [`PIPELINE`] in flight.
    Closed,
    /// Poisson arrivals; each op is timed from when it was due.
    Open(PoissonClock),
}

/// The single-threaded, two-connection load generator.
pub struct Driver {
    poller: Poller,
    conns: [Conn; 2],
    binary: bool,
    stream: OpStream,
    pacing: Pacing,
    /// Arrival stamps of lifecycle ops that are due but unsent.
    lifecycle_due: VecDeque<Instant>,
    next_id: u64,
    tally: Tally,
    /// Answered ops, kept only by traced runs.
    capture: Option<Vec<Captured>>,
    capture_cap: usize,
    /// Record the latency of every n-th runtime reply. Memory for samples
    /// must not scale with throughput, or a faster daemon would read as a
    /// `peak_rss_mb` regression.
    sample_every: u64,
}

impl Driver {
    /// Opens both connections (speaking RUSH1 when `binary`) and makes the
    /// stream's warm-up submits due.
    ///
    /// # Errors
    ///
    /// Propagates socket and epoll errors.
    pub fn connect(
        addr: SocketAddr,
        binary: bool,
        stream: OpStream,
        pacing: Pacing,
        sample_every: u64,
    ) -> io::Result<Driver> {
        let poller = Poller::with_capacity(8)?;
        let open = |token: u64| -> io::Result<Conn> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            let mut wbuf = WriteBuf::new();
            if binary {
                wbuf.push(&binary::hello(binary::BINARY_VERSION));
            }
            poller.register(stream.as_raw_fd(), token, Interest::READ)?;
            Ok(Conn {
                stream,
                rbuf: ReadBuf::new(),
                wbuf,
                inflight: VecDeque::with_capacity(PIPELINE),
                hello_pending: binary,
                want_write: false,
            })
        };
        let conns = [open(LIFECYCLE as u64)?, open(RUNTIME as u64)?];
        let now = Instant::now();
        let lifecycle_due = (0..stream.lifecycle_due()).map(|_| now).collect();
        Ok(Driver {
            poller,
            conns,
            binary,
            stream,
            pacing,
            lifecycle_due,
            next_id: 0,
            tally: Tally::default(),
            capture: None,
            capture_cap: 0,
            sample_every: sample_every.max(1),
        })
    }

    /// Starts keeping answered ops, up to `cap` of them.
    pub fn start_capture(&mut self, cap: usize) {
        self.capture_cap = cap;
        self.capture.get_or_insert_with(Vec::new);
    }

    /// Stops capturing and hands back what was kept.
    pub fn take_capture(&mut self) -> Vec<Captured> {
        self.capture_cap = 0;
        self.capture.take().unwrap_or_default()
    }

    /// The op stream (population, pool).
    pub fn stream(&self) -> &OpStream {
        &self.stream
    }

    /// Fills the population to its target, then ages it (reports a random
    /// share of every job's samples), and returns once nothing is in flight.
    ///
    /// # Errors
    ///
    /// Socket errors, or a stall past [`STALL_LIMIT`].
    pub fn warm_up(&mut self) -> io::Result<()> {
        let mut sink = Phase::default();
        self.settle(&mut sink)?;
        self.stream.end_warm_up();
        Ok(())
    }

    /// Runs one timed phase: issues runtime ops for `seconds`, then stops
    /// and waits until every reply is in and the population is restored.
    ///
    /// # Errors
    ///
    /// Socket errors, or a drain that stalls past [`STALL_LIMIT`].
    pub fn run_phase(&mut self, seconds: f64) -> io::Result<Phase> {
        let mut phase = Phase {
            seconds,
            ..Phase::default()
        };
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        if let Pacing::Open(clock) = &mut self.pacing {
            // Re-anchor the schedule: the next op is due one gap from now.
            clock.restart();
        }
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            self.issue_lifecycle(now);
            let next_due = self.issue_runtime(now, start, &mut phase);
            self.flush(&mut phase)?;
            let wake = next_due.map_or(end, |d| d.min(end));
            let timeout = wake
                .saturating_duration_since(Instant::now())
                .min(IDLE_POLL);
            self.poll(timeout, Some(end), &mut phase)?;
        }
        self.settle(&mut phase)?;
        Ok(phase)
    }

    /// Asks the daemon for its counters and the full plan table, then
    /// shuts it down.
    ///
    /// # Errors
    ///
    /// Socket errors, a stall, or a reply of the wrong kind.
    pub fn finish(mut self) -> io::Result<(StatsReport, u64, Tally)> {
        let mut sink = Phase::default();
        let now = Instant::now();
        // One-off ops outside the seeded stream.
        self.send(RUNTIME, Op::new(OpKind::Stats, None), now);
        self.send(RUNTIME, Op::new(OpKind::QueryAll, None), now);
        self.start_capture(2);
        self.settle(&mut sink)?;
        let mut stats = None;
        let mut desired_now = None;
        for c in self.take_capture() {
            match c.response {
                Some(Response::Stats(s)) => stats = Some(s),
                Some(Response::PlanTable { rows, .. }) => {
                    desired_now = Some(rows.iter().map(|r| u64::from(r.desired_now)).sum());
                }
                _ => {}
            }
        }
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "final stats/plan reply missing");
        let (stats, desired_now) = (stats.ok_or_else(bad)?, desired_now.ok_or_else(bad)?);

        // `shutdown` is answered and then the daemon closes the socket.
        let frame = self.frame(&rush_serve::Request::Shutdown { snapshot: false });
        // bound: LIFECYCLE < 2
        let conn = &mut self.conns[LIFECYCLE];
        conn.wbuf.push(&frame);
        let deadline = Instant::now() + STALL_LIMIT;
        loop {
            self.flush(&mut sink)?;
            // bound: LIFECYCLE < 2
            let conn = &mut self.conns[LIFECYCLE];
            match conn.rbuf.fill(&mut conn.stream) {
                Ok(ReadOutcome::Closed) => break,
                Ok(ReadOutcome::Read(_)) if !conn.rbuf.is_empty() && conn.wbuf.is_empty() => break,
                Ok(_) => {}
                Err(_) => break,
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "shutdown not acknowledged",
                ));
            }
            self.poller.wait(Some(Duration::from_millis(5)))?;
        }
        Ok((stats, desired_now, self.tally))
    }

    /// Steps (without drawing runtime ops from the mix) until nothing is in
    /// flight and neither a lifecycle op nor a warm-up sample is due.
    fn settle(&mut self, sink: &mut Phase) -> io::Result<()> {
        let deadline = Instant::now() + STALL_LIMIT;
        loop {
            let now = Instant::now();
            self.issue_lifecycle(now);
            // bound: RUNTIME < 2
            while self.conns[RUNTIME].inflight.len() < PIPELINE {
                let Some(op) = self.stream.next_aging() else {
                    break;
                };
                self.send(RUNTIME, op, now);
            }
            self.flush(sink)?;
            let idle = self
                .conns
                .iter()
                .all(|c| c.inflight.is_empty() && c.wbuf.is_empty());
            if idle && self.stream.lifecycle_due() == 0 && !self.stream.aging_due() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "daemon stopped answering",
                ));
            }
            self.poll(IDLE_POLL, None, sink)?;
        }
    }

    fn issue_lifecycle(&mut self, now: Instant) {
        // bound: LIFECYCLE < 2
        while self.conns[LIFECYCLE].inflight.len() < PIPELINE {
            let Some(op) = self.stream.next_lifecycle() else {
                break;
            };
            let due = self.lifecycle_due.pop_front().unwrap_or(now);
            self.send(LIFECYCLE, op, due);
        }
    }

    /// Issues every runtime op that may go now; returns when the next one
    /// is due (open loop with room in the pipeline only).
    fn issue_runtime(
        &mut self,
        now: Instant,
        start: Instant,
        phase: &mut Phase,
    ) -> Option<Instant> {
        // bound: RUNTIME < 2
        while self.conns[RUNTIME].inflight.len() < PIPELINE {
            let due = match &mut self.pacing {
                Pacing::Closed => now,
                Pacing::Open(clock) => {
                    let now_ns = now.saturating_duration_since(start).as_nanos() as u64;
                    if clock.next_due_ns() > now_ns {
                        return Some(start + Duration::from_nanos(clock.next_due_ns()));
                    }
                    let due_ns = clock.advance();
                    phase.late_ms.push(elapsed_ms(due_ns, now_ns));
                    start + Duration::from_nanos(due_ns)
                }
            };
            let op = self.stream.next_runtime();
            self.send(RUNTIME, op, due);
        }
        None
    }

    fn frame(&self, req: &rush_serve::Request) -> Vec<u8> {
        if self.binary {
            binary::frame_request(req)
        } else {
            let mut line = req.encode().into_bytes();
            line.push(b'\n');
            line
        }
    }

    fn send(&mut self, which: usize, op: Op, due: Instant) {
        let frame = self.frame(&op.request(self.stream.pool()));
        let id = self.next_id;
        self.next_id += 1;
        self.tally.attempted += 1;
        // bound: `which` is LIFECYCLE or RUNTIME
        let conn = &mut self.conns[which];
        conn.wbuf.push(&frame);
        conn.inflight.push_back(Pending {
            id,
            op,
            due,
            sent: Instant::now(),
        });
    }

    /// Writes out whatever is queued on both connections.
    fn flush(&mut self, sink: &mut Phase) -> io::Result<()> {
        for (token, conn) in self.conns.iter_mut().enumerate() {
            if !conn.wbuf.is_empty() {
                let t = Instant::now();
                conn.wbuf.flush_to(&mut conn.stream)?;
                sink.flushes += 1;
                if sink.flushes.is_multiple_of(self.sample_every) {
                    sink.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
            // Write interest only while the socket pushed back.
            let want_write = !conn.wbuf.is_empty();
            if want_write != conn.want_write {
                conn.want_write = want_write;
                let interest = if want_write {
                    Interest::BOTH
                } else {
                    Interest::READ
                };
                self.poller
                    .reregister(conn.stream.as_raw_fd(), token as u64, interest)?;
            }
        }
        Ok(())
    }

    /// Waits for readiness and consumes every reply that arrived.
    fn poll(
        &mut self,
        timeout: Duration,
        window_end: Option<Instant>,
        sink: &mut Phase,
    ) -> io::Result<()> {
        let mut readable = [false; 2];
        for ev in self.poller.wait(Some(timeout))? {
            if let Some(flag) = readable.get_mut(ev.token as usize) {
                *flag = ev.readable || ev.closed;
            }
        }
        for (which, ready) in readable.into_iter().enumerate() {
            if !ready {
                continue;
            }
            loop {
                // bound: `which` enumerates a 2-element array
                let conn = &mut self.conns[which];
                let outcome = conn.rbuf.fill(&mut conn.stream)?;
                let now = Instant::now();
                self.parse(which, now, window_end, sink)?;
                match outcome {
                    ReadOutcome::Read(_) => {}
                    ReadOutcome::WouldBlock => break,
                    ReadOutcome::Closed => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "daemon closed a connection",
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Decodes every complete frame buffered on connection `which`.
    fn parse(
        &mut self,
        which: usize,
        now: Instant,
        window_end: Option<Instant>,
        sink: &mut Phase,
    ) -> io::Result<()> {
        let fatal = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_string());
        loop {
            // bound: `which` is LIFECYCLE or RUNTIME
            let conn = &mut self.conns[which];
            if conn.hello_pending {
                match binary::scan_hello(conn.rbuf.data()) {
                    Ok(Scan::Done { item, consumed }) if item > 0 => {
                        conn.rbuf.consume(consumed);
                        conn.hello_pending = false;
                        continue;
                    }
                    Ok(Scan::Incomplete) => return Ok(()),
                    _ => return Err(fatal("RUSH1 handshake refused")),
                }
            }
            let response = if self.binary {
                match binary::scan_frame(conn.rbuf.data()) {
                    Ok(Scan::Done { item, consumed }) => {
                        let resp = conn.rbuf.data().get(item).map(binary::decode_response);
                        conn.rbuf.consume(consumed);
                        resp.and_then(Result::ok)
                    }
                    Ok(Scan::Incomplete) => return Ok(()),
                    Err(_) => return Err(fatal("unframeable reply")),
                }
            } else {
                let data = conn.rbuf.data();
                let Some(pos) = data.iter().position(|&b| b == b'\n') else {
                    return Ok(());
                };
                let resp = data
                    .get(..pos)
                    .and_then(|line| std::str::from_utf8(line).ok())
                    .and_then(|line| Response::decode(line.trim_end()).ok());
                conn.rbuf.consume(pos + 1);
                resp
            };
            let Some(pending) = conn.inflight.pop_front() else {
                return Err(fatal("reply with nothing in flight"));
            };
            self.account(pending, response, now, window_end, sink);
        }
    }

    /// Books one reply: verdict, tallies, latency, capture, and the
    /// lifecycle ops it makes due.
    fn account(
        &mut self,
        p: Pending,
        response: Option<Response>,
        now: Instant,
        window_end: Option<Instant>,
        sink: &mut Phase,
    ) {
        let verdict = response
            .as_ref()
            .map_or(Verdict::Failed, |r| judge(&p.op, r));
        let t = &mut self.tally;
        match (p.op.kind, verdict) {
            (_, Verdict::Failed) => t.failed += 1,
            (OpKind::Submit, v) => {
                t.submits += 1;
                match v {
                    Verdict::Admitted(_) => t.admitted += 1,
                    Verdict::Deferred(_) => {
                        t.deferred += 1;
                        t.failed += 1;
                    }
                    _ => {
                        t.rejected += 1;
                        t.failed += 1;
                    }
                }
            }
            (OpKind::ReportSample, _) => {
                t.samples += 1;
                t.completed += u64::from(p.op.last_sample);
            }
            (OpKind::Cancel, _) => t.cancelled += 1,
            (OpKind::Predict, _) => {
                t.predicts += 1;
                let possible = matches!(
                    response,
                    Some(Response::Prediction {
                        impossible: false,
                        ..
                    })
                );
                t.predict_possible += u64::from(possible);
            }
            _ => {}
        }
        if let Some(Response::Submitted {
            epoch, waited_us, ..
        }) = &response
        {
            sink.epochs.insert(*epoch);
            sink.epoch_wait_ms.push(*waited_us as f64 / 1e3);
        }
        if window_end.is_some_and(|end| now <= end) {
            sink.replies_in_window += 1;
        }
        // bound: OpKind::index() < 7 == seen.len() == latency_ms.len()
        let seen = &mut sink.seen[p.op.kind.index()];
        *seen += 1;
        if p.op.kind.is_lifecycle() || seen.is_multiple_of(self.sample_every) {
            sink.latency_ms[p.op.kind.index()].push(now.duration_since(p.due).as_secs_f64() * 1e3);
        }
        if let Some(kept) = &mut self.capture {
            if kept.len() < self.capture_cap {
                kept.push(Captured {
                    id: p.id,
                    op: p.op,
                    response,
                    sent: p.sent,
                    replied: now,
                });
            }
        }
        for _ in 0..self.stream.complete(&p.op, verdict) {
            self.lifecycle_due.push_back(now);
        }
    }
}

/// Checks that `resp` is the reply `op` calls for and reduces it to a
/// [`Verdict`]. A `predict` must also satisfy Theorem 3's closed form:
/// `bound == target + task_len`, finite.
pub fn judge(op: &Op, resp: &Response) -> Verdict {
    match (op.kind, resp) {
        (OpKind::Submit, Response::Submitted { job, decision, .. }) => match (decision, job) {
            (Decision::Admit, Some(id)) => Verdict::Admitted(*id),
            (Decision::Defer, Some(id)) => Verdict::Deferred(*id),
            (Decision::Reject, None) => Verdict::Rejected,
            _ => Verdict::Failed,
        },
        (OpKind::Cancel | OpKind::ReportSample, Response::Ack) => Verdict::Done,
        (
            OpKind::Predict,
            Response::Prediction {
                job,
                target,
                task_len,
                bound,
                ..
            },
        ) if Some(*job) == op.job && bound.is_finite() && *bound == *target + *task_len as f64 => {
            Verdict::Done
        }
        (OpKind::QueryJob, Response::PlanTable { rows, .. })
            if rows.len() == 1 && rows.first().map(|r| r.job) == op.job =>
        {
            Verdict::Done
        }
        (OpKind::QueryAll, Response::PlanTable { .. }) | (OpKind::Stats, Response::Stats(_)) => {
            Verdict::Done
        }
        _ => Verdict::Failed,
    }
}
