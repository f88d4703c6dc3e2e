//! `rush-loadgen`: an open-loop Poisson load generator for `rushd`.
//!
//! The generator draws a job mix from [`rush_workload`] (the paper's PUMA
//! templates, priorities, sensitivity classes and budgets), rescales the
//! workload's Poisson arrival slots to wall-clock milliseconds, and drives
//! the daemon **open-loop**: submissions fire at their scheduled times
//! regardless of how fast the daemon answers, which is what exposes epoch
//! batching under bursts.
//!
//! One engine sends it: a single thread multiplexing
//! [`LoadgenConfig::connections`] nonblocking connections on a
//! [`rush_reactor::Poller`], round-robining submissions across them — four
//! connections for a smoke test, thousands to measure how many
//! *concurrent connections* the daemon sustains. It speaks either codec
//! (`binary: true` negotiates the length-prefixed `RUSH1` protocol) and
//! needs epoll: off Linux [`run`] returns the `Unsupported` error
//! `rush_reactor` reports. Latency is recorded per submission
//! (client-observed submit→response and daemon-reported epoch wait) into
//! [`rush_metrics::Histogram`]s; the report carries p50/p99/p999 and the
//! sustained submissions/sec of the run.
//!
//! A submission counts as *planned within its epoch deadline* when the
//! daemon-reported wait is at most `2 × epoch_ms` (the worst legal wait is
//! one full epoch window; the factor 2 absorbs scheduling jitter on loaded
//! CI machines). The run fails loudly if any frame draws a protocol error.
//!
//! The report is one *run* in a document with a `runs` array keyed by
//! `(codec, connections)`, so a sweep (`--append`) accumulates its runs
//! side by side.

use crate::client::Client;
use crate::json::Json;
use crate::protocol::{Decision, JobSubmission};
use crate::ServeError;
use rush_metrics::Histogram;
use rush_sim::cluster::ClusterSpec;
use rush_workload::{generate, Experiment, WorkloadConfig};
use std::path::{Path, PathBuf};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address, e.g. `127.0.0.1:4117`.
    pub addr: String,
    /// Number of jobs to submit.
    pub jobs: usize,
    /// Concurrent nonblocking connections the engine holds open (≥ 1).
    pub connections: usize,
    /// Negotiate the length-prefixed binary codec instead of JSON.
    pub binary: bool,
    /// Mean interarrival time in wall-clock milliseconds.
    pub mean_interarrival_ms: f64,
    /// Workload seed.
    pub seed: u64,
    /// The daemon's epoch window (for the within-deadline criterion).
    pub epoch_ms: u64,
    /// Report one runtime sample per admitted job after the submission
    /// phase (exercises `report-sample` and shrinks plans).
    pub report_samples: bool,
    /// Send `shutdown` (with snapshot) after the run.
    pub shutdown: bool,
    /// Merge this run into an existing report instead of overwriting it
    /// (runs with the same `(codec, connections)` are replaced).
    pub append: bool,
    /// Where to write the JSON report (`None` = don't write).
    pub out: Option<PathBuf>,
}

/// `rush-loadgen`'s defaults: 100 jobs at a 10 ms mean interarrival over
/// 8 JSON connections to `127.0.0.1:4117`, against a 25 ms epoch.
impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:4117".into(),
            jobs: 100,
            connections: 8,
            binary: false,
            mean_interarrival_ms: 10.0,
            seed: 7,
            epoch_ms: 25,
            report_samples: true,
            shutdown: false,
            append: false,
            out: None,
        }
    }
}

impl LoadgenConfig {
    /// The `--quick` preset used by CI's serve-smoke step.
    pub fn quick(addr: String, epoch_ms: u64) -> LoadgenConfig {
        LoadgenConfig {
            addr,
            jobs: 24,
            connections: 4,
            mean_interarrival_ms: 4.0,
            epoch_ms,
            ..Default::default()
        }
    }

    /// The codec label recorded in the report.
    pub fn codec(&self) -> &'static str {
        if self.binary {
            "binary"
        } else {
            "json"
        }
    }
}

/// Aggregated results of one load-generator run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Jobs submitted.
    pub submitted: u64,
    /// Admission verdict counts.
    pub admitted: u64,
    /// Jobs deferred.
    pub deferred: u64,
    /// Jobs rejected.
    pub rejected: u64,
    /// Frames that drew a transport or protocol error.
    pub protocol_errors: u64,
    /// Submissions planned within `2 × epoch_ms`.
    pub within_deadline: u64,
    /// Client-observed submit→response latency (µs).
    pub client_latency_us: Histogram,
    /// Daemon-reported submit→planned epoch wait (µs).
    pub epoch_wait_us: Histogram,
    /// Epochs the daemon closed during the run.
    pub epochs: u64,
    /// Plan-cache hits reported by the daemon.
    pub cache_hits: u64,
    /// Plan-cache misses reported by the daemon.
    pub cache_misses: u64,
    /// Wall-clock duration of the submission phase (first submission sent
    /// to last response drained), in µs.
    pub elapsed_us: u64,
}

impl LoadgenReport {
    /// Fraction of submissions planned within the epoch deadline.
    pub fn within_deadline_frac(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            self.within_deadline as f64 / self.submitted as f64
        }
    }

    /// Sustained submissions per second over the submission phase.
    pub fn submissions_per_sec(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.submitted as f64 / (self.elapsed_us as f64 / 1e6)
        }
    }

    /// The one-line summary `rush-loadgen` prints for a run under `cfg`.
    pub fn summary(&self, cfg: &LoadgenConfig) -> String {
        format!(
            "loadgen: {} submitted over {} conns ({}), {} admitted, {} deferred, \
             {} rejected; p50 {} us, p99 {} us, p999 {} us; {:.0} sub/s; \
             {:.1}% within epoch deadline; {} epochs",
            self.submitted,
            cfg.connections,
            cfg.codec(),
            self.admitted,
            self.deferred,
            self.rejected,
            self.client_latency_us.quantile(0.5),
            self.client_latency_us.quantile(0.99),
            self.client_latency_us.quantile(0.999),
            self.submissions_per_sec(),
            100.0 * self.within_deadline_frac(),
            self.epochs,
        )
    }
}

struct Outcome {
    client_latency_us: Histogram,
    epoch_wait_us: Histogram,
    admitted_ids: Vec<(u64, u64)>,
    deferred: u64,
    rejected: u64,
    protocol_errors: u64,
    within_deadline: u64,
    /// Submission-phase wall time, microseconds (the connect phase is
    /// setup, not offered load, and is excluded).
    drive_us: u64,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            client_latency_us: Histogram::new(),
            epoch_wait_us: Histogram::new(),
            admitted_ids: Vec::new(),
            deferred: 0,
            rejected: 0,
            protocol_errors: 0,
            within_deadline: 0,
            drive_us: 0,
        }
    }

    /// Records one `Submitted` response for the job at `plan[i]`.
    fn record_submitted(
        &mut self,
        sub: &JobSubmission,
        decision: Decision,
        id: Option<u64>,
        waited_us: u64,
        latency_us: u64,
        deadline_us: u64,
    ) {
        self.client_latency_us.record(latency_us);
        self.epoch_wait_us.record(waited_us);
        if waited_us <= deadline_us {
            self.within_deadline += 1;
        }
        match decision {
            Decision::Admit => {
                if let Some(id) = id {
                    let runtime = sub.runtime_hint.unwrap_or(50.0).round() as u64;
                    self.admitted_ids.push((id, runtime.max(1)));
                }
            }
            Decision::Defer => self.deferred += 1,
            Decision::Reject => self.rejected += 1,
        }
    }
}

/// Builds the submission schedule: `(offset_ms, submission)` pairs in
/// arrival order, drawn from the paper's workload generator and rescaled
/// from slots to wall-clock milliseconds.
///
/// # Errors
///
/// [`ServeError::Config`] when the workload cannot be generated.
pub fn schedule(
    jobs: usize,
    mean_interarrival_ms: f64,
    seed: u64,
) -> Result<Vec<(u64, JobSubmission)>, ServeError> {
    let cluster = ClusterSpec::paper_testbed(8)
        .map_err(|e| ServeError::Config(format!("cluster spec: {e}")))?;
    let cfg = WorkloadConfig { jobs, seed, ..WorkloadConfig::default() };
    let exp = Experiment::new(cluster);
    let specs =
        generate(&cfg, &exp).map_err(|e| ServeError::Config(format!("workload: {e}")))?;
    let scale = mean_interarrival_ms / cfg.mean_interarrival;
    Ok(specs
        .into_iter()
        .map(|spec| {
            let tasks = spec.tasks().len() as u64;
            let hint = if tasks == 0 {
                None
            } else {
                Some((spec.total_base_runtime() / tasks as f64).max(1.0))
            };
            let offset_ms = (spec.arrival() as f64 * scale).round() as u64;
            let sub = JobSubmission {
                label: spec.label().to_string(),
                tasks: tasks.max(1),
                runtime_hint: hint,
                utility: *spec.utility(),
                budget: spec.budget(),
                priority: spec.priority().max(1),
            };
            (offset_ms, sub)
        })
        .collect())
}

/// The nonblocking open-loop engine: thousands of concurrent connections
/// multiplexed on one `rush_reactor::Poller`, submissions round-robined
/// across them at their scheduled times.
mod open_loop {
    use super::{LoadgenConfig, Outcome};
    use crate::binary::{self, Scan};
    use crate::protocol::{JobSubmission, Request, Response};
    use crate::ServeError;
    use rush_reactor::{Interest, Poller, ReadBuf, ReadOutcome, WriteBuf, WriteOutcome};
    use std::collections::VecDeque;
    use std::net::TcpStream;
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    /// Poll timeout while idle between arrivals or waiting for responses.
    const IDLE_POLL: Duration = Duration::from_millis(100);
    /// Grace period after the last scheduled arrival before the engine
    /// declares the remaining in-flight submissions lost.
    const DRAIN_GRACE: Duration = Duration::from_secs(60);

    struct Conn {
        stream: TcpStream,
        rbuf: ReadBuf,
        wbuf: WriteBuf,
        /// Waiting for the server's binary hello.
        hello_pending: bool,
        /// In-flight submissions: `(plan index, sent at)`, answered in
        /// FIFO order (the daemon guarantees per-connection ordering).
        pending: VecDeque<(usize, Instant)>,
        interest: Interest,
        dead: bool,
    }

    struct Engine<'a> {
        cfg: &'a LoadgenConfig,
        plan: &'a [(u64, JobSubmission)],
        deadline_us: u64,
        poller: Poller,
        conns: Vec<Conn>,
        out: Outcome,
        /// Responses accounted for (answers, or submissions written off
        /// against dead connections).
        settled: usize,
    }

    /// Runs the schedule; returns its outcome.
    ///
    /// The Poisson clock is re-anchored to the moment the whole fleet is
    /// connected: connecting thousands of sockets takes real time (the
    /// daemon accepts them one listener backlog at a time), and counting
    /// it against the schedule would fire every submission that came due
    /// during setup as one burst — measuring the connect storm, not the
    /// steady state.
    pub(super) fn run(
        cfg: &LoadgenConfig,
        plan: &[(u64, JobSubmission)],
        deadline_us: u64,
    ) -> Result<Outcome, ServeError> {
        let n = cfg.connections;
        let poller = Poller::with_capacity(n)?;
        let mut conns = Vec::with_capacity(n);
        for token in 0..n {
            let stream = TcpStream::connect(&cfg.addr)?;
            stream.set_nodelay(true)?;
            let mut wbuf = WriteBuf::new();
            if cfg.binary {
                wbuf.push(&binary::hello(binary::BINARY_VERSION));
            }
            stream.set_nonblocking(true)?;
            let interest = if wbuf.is_empty() { Interest::READ } else { Interest::BOTH };
            poller.register(stream.as_raw_fd(), token as u64, interest)?;
            conns.push(Conn {
                stream,
                rbuf: ReadBuf::new(),
                wbuf,
                hello_pending: cfg.binary,
                pending: VecDeque::new(),
                interest,
                dead: false,
            });
        }
        let mut engine = Engine {
            cfg,
            plan,
            deadline_us,
            poller,
            conns,
            out: Outcome::new(),
            settled: 0,
        };
        let t0 = Instant::now();
        engine.drive(t0);
        engine.out.drive_us = t0.elapsed().as_micros() as u64;
        Ok(engine.out)
    }

    impl Engine<'_> {
        fn drive(&mut self, start: Instant) {
            let last_offset = self.plan.last().map_or(0, |(ms, _)| *ms);
            let hard_deadline = start + Duration::from_millis(last_offset) + DRAIN_GRACE;
            let mut next_idx = 0usize;
            while self.settled < self.plan.len() {
                // Fire every submission that is due, open-loop.
                let now = Instant::now();
                while let Some(entry) = self.plan.get(next_idx) {
                    let due = start + Duration::from_millis(entry.0);
                    if due > now {
                        break;
                    }
                    self.launch(next_idx % self.conns.len(), next_idx);
                    next_idx += 1;
                }
                if self.settled >= self.plan.len() {
                    break;
                }
                if Instant::now() >= hard_deadline {
                    // Whatever is still unanswered is lost: the run keeps
                    // its counters honest instead of hanging forever.
                    let unsettled = self.plan.len().saturating_sub(self.settled);
                    self.out.protocol_errors += unsettled as u64;
                    break;
                }
                let timeout = if let Some(entry) = self.plan.get(next_idx) {
                    let due = start + Duration::from_millis(entry.0);
                    due.saturating_duration_since(Instant::now()).min(IDLE_POLL)
                } else {
                    IDLE_POLL
                };
                let events: Vec<rush_reactor::Event> = match self.poller.wait(Some(timeout)) {
                    Ok(evs) => evs.to_vec(),
                    Err(_) => break,
                };
                for ev in events {
                    let token = ev.token as usize;
                    if token >= self.conns.len() {
                        continue;
                    }
                    if ev.writable {
                        self.pump(token);
                    }
                    if ev.readable || ev.closed {
                        self.drain_input(token);
                    }
                }
            }
        }

        /// Frames `plan[i]` onto connection `token` and starts its clock.
        /// (Named `launch`, not `submit`, so the deep lint's name-based
        /// call graph cannot confuse it with the blocking
        /// [`crate::client::Client::submit`].)
        fn launch(&mut self, token: usize, i: usize) {
            let Some((_, sub)) = self.plan.get(i) else { return };
            let Some(conn) = self.conns.get_mut(token) else { return };
            if conn.dead {
                self.out.protocol_errors += 1;
                self.settled += 1;
                return;
            }
            let req = Request::Submit(sub.clone());
            let bytes = if self.cfg.binary {
                binary::frame_request(&req)
            } else {
                (req.encode() + "\n").into_bytes()
            };
            conn.wbuf.push(&bytes);
            conn.pending.push_back((i, Instant::now()));
            self.pump(token);
        }

        /// Flushes a connection's write buffer and refreshes its epoll
        /// interest set.
        fn pump(&mut self, token: usize) {
            let Some(conn) = self.conns.get_mut(token) else { return };
            if conn.dead {
                return;
            }
            if !conn.wbuf.is_empty() {
                match conn.wbuf.flush_to(&mut conn.stream) {
                    Ok(WriteOutcome::Flushed | WriteOutcome::Partial) => {}
                    Err(_) => {
                        self.kill(token);
                        return;
                    }
                }
            }
            let want = Interest {
                readable: true,
                writable: !conn.wbuf.is_empty(),
            };
            if want != conn.interest {
                conn.interest = want;
                if self.poller.reregister(conn.stream.as_raw_fd(), token as u64, want).is_err() {
                    self.kill(token);
                }
            }
        }

        /// Reads everything available on a connection and settles the
        /// responses it completes.
        fn drain_input(&mut self, token: usize) {
            loop {
                let Some(conn) = self.conns.get_mut(token) else { return };
                if conn.dead {
                    return;
                }
                let outcome = conn.rbuf.fill(&mut conn.stream);
                let closed = match outcome {
                    Ok(ReadOutcome::Read(_)) => false,
                    Ok(ReadOutcome::WouldBlock) => {
                        self.parse(token);
                        return;
                    }
                    Ok(ReadOutcome::Closed) | Err(_) => true,
                };
                self.parse(token);
                if closed {
                    self.kill(token);
                    return;
                }
            }
        }

        /// Decodes every complete frame currently buffered on `token`.
        fn parse(&mut self, token: usize) {
            loop {
                let Some(conn) = self.conns.get_mut(token) else { return };
                if conn.dead {
                    return;
                }
                if conn.hello_pending {
                    match binary::scan_hello(conn.rbuf.data()) {
                        Ok(Scan::Done { item, consumed }) => {
                            conn.rbuf.consume(consumed);
                            if item == 0 {
                                self.kill(token);
                                return;
                            }
                            conn.hello_pending = false;
                        }
                        Ok(Scan::Incomplete) => return,
                        Err(_) => {
                            self.kill(token);
                            return;
                        }
                    }
                    continue;
                }
                let decoded = if self.cfg.binary {
                    match binary::scan_frame(conn.rbuf.data()) {
                        Ok(Scan::Done { item, consumed }) => {
                            let payload = conn.rbuf.data().get(item).unwrap_or(&[]);
                            let resp = binary::decode_response(payload);
                            conn.rbuf.consume(consumed);
                            resp.ok()
                        }
                        Ok(Scan::Incomplete) => return,
                        Err(_) => {
                            self.kill(token);
                            return;
                        }
                    }
                } else {
                    let data = conn.rbuf.data();
                    let Some(pos) = data.iter().position(|&b| b == b'\n') else { return };
                    let resp = data
                        .get(..pos)
                        .and_then(|line| std::str::from_utf8(line).ok())
                        .and_then(|line| Response::decode(line.trim_end()).ok());
                    conn.rbuf.consume(pos + 1);
                    resp
                };
                let front = self.conns.get_mut(token).and_then(|c| c.pending.pop_front());
                let Some((i, sent)) = front else {
                    // A frame with nothing in flight: protocol confusion.
                    self.kill(token);
                    return;
                };
                self.settled += 1;
                let latency_us = sent.elapsed().as_micros() as u64;
                match decoded {
                    Some(Response::Submitted { job, decision, waited_us, .. }) => {
                        if let Some((_, sub)) = self.plan.get(i) {
                            self.out.record_submitted(
                                sub,
                                decision,
                                job,
                                waited_us,
                                latency_us,
                                self.deadline_us,
                            );
                        }
                    }
                    _ => self.out.protocol_errors += 1,
                }
            }
        }

        /// Tears a connection down and writes off its in-flight
        /// submissions.
        fn kill(&mut self, token: usize) {
            let Some(conn) = self.conns.get_mut(token) else { return };
            if conn.dead {
                return;
            }
            conn.dead = true;
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            let lost = conn.pending.len();
            conn.pending.clear();
            self.out.protocol_errors += lost as u64;
            self.settled += lost;
        }
    }
}

/// Runs the load generator against a live daemon.
///
/// # Errors
///
/// [`ServeError::Config`] when `connections` is zero or the workload
/// cannot be generated, [`ServeError::Io`] when a connection fails (or the
/// platform has no epoll), when the report cannot be written or the final
/// stats/shutdown calls fail.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, ServeError> {
    if cfg.connections == 0 {
        return Err(ServeError::Config("connections must be >= 1".into()));
    }
    let plan = schedule(cfg.jobs, cfg.mean_interarrival_ms, cfg.seed)?;
    let deadline_us = 2 * cfg.epoch_ms * 1000;
    let outcome = open_loop::run(cfg, &plan, deadline_us)?;

    let mut tail = if cfg.binary {
        Client::connect_binary(&cfg.addr)?
    } else {
        Client::connect(&cfg.addr)?
    };
    let mut protocol_errors = outcome.protocol_errors;
    if cfg.report_samples {
        for &(id, runtime) in &outcome.admitted_ids {
            // The job may already have completed or been cancelled; only
            // transport failures count against the run.
            if tail.call(&crate::protocol::Request::ReportSample { job: id, runtime }).is_err() {
                protocol_errors += 1;
            }
        }
    }
    let stats = tail.stats()?;
    if cfg.shutdown {
        tail.shutdown(true)?;
    }

    let report = LoadgenReport {
        submitted: plan.len() as u64,
        admitted: outcome.admitted_ids.len() as u64,
        deferred: outcome.deferred,
        rejected: outcome.rejected,
        protocol_errors,
        within_deadline: outcome.within_deadline,
        client_latency_us: outcome.client_latency_us,
        epoch_wait_us: outcome.epoch_wait_us,
        epochs: stats.epochs,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        elapsed_us: outcome.drive_us,
    };
    if let Some(path) = &cfg.out {
        write_report(cfg, &report, path)?;
    }
    Ok(report)
}

fn hist_json(h: &Histogram) -> Json {
    Json::Obj(vec![
        ("p50_us".to_string(), Json::u64(h.quantile(0.5))),
        ("p99_us".into(), Json::u64(h.quantile(0.99))),
        ("p999_us".into(), Json::u64(h.quantile(0.999))),
        ("mean_us".into(), Json::f64(h.mean())),
        ("max_us".into(), Json::u64(h.max())),
        ("count".into(), Json::u64(h.count())),
    ])
}

/// Renders one run entry of the report document.
fn run_entry(cfg: &LoadgenConfig, r: &LoadgenReport) -> Json {
    Json::Obj(vec![
        ("codec".to_string(), Json::str(cfg.codec())),
        ("connections".into(), Json::u64(cfg.connections as u64)),
        ("jobs".into(), Json::u64(cfg.jobs as u64)),
        ("mean_interarrival_ms".into(), Json::f64(cfg.mean_interarrival_ms)),
        ("epoch_ms".into(), Json::u64(cfg.epoch_ms)),
        ("submitted".into(), Json::u64(r.submitted)),
        ("admitted".into(), Json::u64(r.admitted)),
        ("deferred".into(), Json::u64(r.deferred)),
        ("rejected".into(), Json::u64(r.rejected)),
        ("protocol_errors".into(), Json::u64(r.protocol_errors)),
        ("within_deadline".into(), Json::u64(r.within_deadline)),
        ("within_deadline_frac".into(), Json::f64(r.within_deadline_frac())),
        ("submissions_per_sec".into(), Json::f64(r.submissions_per_sec())),
        ("elapsed_us".into(), Json::u64(r.elapsed_us)),
        ("client_latency".into(), hist_json(&r.client_latency_us)),
        ("epoch_wait".into(), hist_json(&r.epoch_wait_us)),
        ("epochs".into(), Json::u64(r.epochs)),
        ("cache_hits".into(), Json::u64(r.cache_hits)),
        ("cache_misses".into(), Json::u64(r.cache_misses)),
    ])
}

/// The `(codec, connections)` identity of a run entry.
fn run_key(entry: &Json) -> (String, u64) {
    (
        entry.get("codec").and_then(Json::as_str).unwrap_or("").to_string(),
        entry.get("connections").and_then(Json::as_u64).unwrap_or(0),
    )
}

/// Renders the benchmark report document holding exactly this run.
pub fn report_json(cfg: &LoadgenConfig, r: &LoadgenReport) -> String {
    Json::Obj(vec![
        ("bench".to_string(), Json::str("serve_latency")),
        ("runs".into(), Json::Arr(vec![run_entry(cfg, r)])),
    ])
    .encode()
}

/// Writes (or, with `append`, merges) the run into the report file. Runs
/// are keyed by `(codec, connections)`: re-running a sweep step
/// replaces its old entry instead of duplicating it.
///
/// # Errors
///
/// [`ServeError::Io`] when the file cannot be written.
pub fn write_report(
    cfg: &LoadgenConfig,
    r: &LoadgenReport,
    path: &Path,
) -> Result<(), ServeError> {
    let entry = run_entry(cfg, r);
    let mut runs: Vec<Json> = Vec::new();
    if cfg.append {
        // A missing, stale or foreign file simply starts a fresh sweep.
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(doc) = crate::json::parse(&text) {
                if doc.get("bench").and_then(Json::as_str) == Some("serve_latency") {
                    if let Some(existing) = doc.get("runs").and_then(Json::as_arr) {
                        runs.extend(existing.iter().cloned());
                    }
                }
            }
        }
    }
    runs.retain(|old| run_key(old) != run_key(&entry));
    runs.push(entry);
    let doc = Json::Obj(vec![
        ("bench".to_string(), Json::str("serve_latency")),
        ("runs".into(), Json::Arr(runs)),
    ]);
    std::fs::write(path, doc.encode() + "\n")?;
    Ok(())
}
