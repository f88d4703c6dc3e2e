//! The three `rushd` workloads: the daemon started in-process on its
//! reactor frontend, driven over loopback by [`crate::driver`].
//!
//! A traced run additionally captures every answered op and afterwards
//! pushes the captured values through both codecs and replays the op log
//! against a fresh [`ServeState`], timing each public call — that is where
//! the `serve.*`, `planner.*` and `core.*` per-layer numbers come from,
//! with nothing inside the measured crates instrumented.

use crate::driver::{Captured, Driver, Pacing, Phase, Tally};
use crate::metrics::{Metrics, Outcome};
use crate::opstream::{Mix, OpKind, OpStream, PoissonClock, PoolJob, EXECUTOR, MONITOR};
use crate::phases::{ratio, PhaseTotals};
use crate::procstat::{self, ThreadCpu};
use crate::stats;
use crate::trace::Recorder;
use rush_core::RushConfig;
use rush_prob::rng::derive_seed;
use rush_serve::json::Json;
use rush_serve::protocol::{JobSubmission, Request, Response, StatsReport};
use rush_serve::{admission, binary, snapshot, Frontend, ServeConfig, ServeState, ServerHandle};
use rush_sim::cluster::ClusterSpec;
use rush_workload::{generate, Experiment, WorkloadConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// One routine cancel per this many admissions.
const CANCEL_EVERY: u64 = 32;
/// Submissions generated beyond the resident target (the pool wraps).
const POOL_SPARE: usize = 1536;
/// Answered ops a traced run keeps, beyond the warm-up submits.
const CAPTURE_CAP: usize = 100_000;
/// Captured ops pushed through the codecs.
const CODEC_OPS: usize = 50_000;
/// Ops timed per clock read in the codec replay: a single encode is
/// shorter than the clock's own cost.
const CODEC_BATCH: usize = 256;
/// Share of a traced run's seconds spent on each of its stages: an
/// untraced and a traced live phase of equal length, then the replays.
const LIVE_SHARE: f64 = 0.375;
const STATE_REPLAY_SHARE: f64 = 0.20;
const CODEC_REPLAY_SHARE: f64 = 0.05;
/// Submits that must be admitted for the workload to count as realistic.
const MIN_ADMIT_SHARE: f64 = 0.98;

/// One serve workload's settings.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Cluster capacity in containers.
    pub capacity: u32,
    /// Resident jobs held constant.
    pub resident: usize,
    /// Budget as a multiple of the benchmarked solo runtime.
    pub budget_ratio: f64,
    /// RUSH1 binary codec instead of JSON.
    pub binary: bool,
    /// Runtime-connection op mix.
    pub mix: Mix,
    /// Open-loop Poisson rate on the runtime connection (ops/s); `None`
    /// keeps both connections saturated (closed loop).
    pub open_rate: Option<f64>,
    /// Keep the latency of every n-th runtime reply (bounds harness memory
    /// on the workload that answers ~100 k ops/s).
    pub sample_every: u64,
}

impl ServeSpec {
    /// The gated workloads.
    pub const FULL: [ServeSpec; 3] = [
        ServeSpec {
            name: "serve_open_large",
            capacity: 4096,
            resident: 500,
            budget_ratio: 2.0,
            binary: false,
            mix: EXECUTOR,
            open_rate: Some(600.0),
            sample_every: 1,
        },
        ServeSpec {
            name: "serve_closed_large",
            capacity: 4096,
            resident: 500,
            budget_ratio: 2.0,
            binary: true,
            mix: EXECUTOR,
            open_rate: None,
            sample_every: 1,
        },
        ServeSpec {
            name: "serve_closed_reads",
            capacity: 48,
            resident: 8,
            budget_ratio: 4.0,
            binary: false,
            mix: MONITOR,
            open_rate: None,
            sample_every: 8,
        },
    ];

    /// The `--quick` sizing of a workload (numbers not comparable).
    pub fn quick(self) -> ServeSpec {
        ServeSpec {
            resident: self.resident.min(100),
            ..self
        }
    }

    /// The daemon configuration every serve workload runs: what `rush-cli
    /// serve` runs (reactor frontend), one shard and one reactor because
    /// the box has two cores.
    pub fn daemon_config(&self) -> ServeConfig {
        ServeConfig {
            capacity: self.capacity,
            frontend: Frontend::Reactor,
            shards: 1,
            reactors: 1,
            ..ServeConfig::default()
        }
    }

    /// The settings stamped into result files.
    pub fn describe(&self) -> Vec<(String, Json)> {
        let cfg = self.daemon_config();
        vec![
            ("frontend".into(), Json::str(cfg.frontend.to_string())),
            ("shards".into(), Json::u64(cfg.shards as u64)),
            ("reactors".into(), Json::u64(cfg.reactors as u64)),
            ("capacity".into(), Json::u64(u64::from(cfg.capacity))),
            ("epoch_ms".into(), Json::u64(cfg.epoch_ms)),
            (
                "epoch_max_batch".into(),
                Json::u64(cfg.epoch_max_batch as u64),
            ),
            ("ms_per_slot".into(), Json::u64(cfg.ms_per_slot)),
            ("max_inflight".into(), Json::u64(cfg.max_inflight as u64)),
            ("resident_jobs".into(), Json::u64(self.resident as u64)),
            ("budget_ratio".into(), Json::f64(self.budget_ratio)),
            (
                "codec".into(),
                Json::str(if self.binary { "rush1" } else { "json" }),
            ),
            ("mix".into(), Json::str(self.mix.name)),
            (
                "loop".into(),
                Json::str(if self.open_rate.is_some() {
                    "open"
                } else {
                    "closed"
                }),
            ),
            (
                "open_rate_per_s".into(),
                Json::f64(self.open_rate.unwrap_or(0.0)),
            ),
            (
                "pipeline_per_connection".into(),
                Json::u64(crate::driver::PIPELINE as u64),
            ),
            ("cancel_every_admissions".into(), Json::u64(CANCEL_EVERY)),
            ("latency_sample_every".into(), Json::u64(self.sample_every)),
        ]
    }
}

/// Generates the submission pool: the PUMA mix of `rush-workload`, budgets
/// calibrated on the paper testbed, converted to wire submissions the way
/// `rush-loadgen` does it.
fn build_pool(spec: &ServeSpec, seed: u64) -> Result<Vec<PoolJob>, String> {
    let cluster = ClusterSpec::paper_testbed(8).map_err(|e| e.to_string())?;
    let cfg = WorkloadConfig {
        jobs: spec.resident + POOL_SPARE,
        budget_ratio: spec.budget_ratio,
        seed,
        ..WorkloadConfig::default()
    };
    let jobs = generate(&cfg, &Experiment::new(cluster)).map_err(|e| e.to_string())?;
    Ok(jobs
        .iter()
        .map(|spec| {
            let runtimes: Vec<u64> = spec
                .tasks()
                .iter()
                .map(|t| (t.base_runtime().round() as u64).max(1))
                .collect();
            let tasks = runtimes.len().max(1) as u64;
            PoolJob {
                submission: JobSubmission {
                    label: spec.label().to_string(),
                    tasks,
                    runtime_hint: Some((spec.total_base_runtime() / tasks as f64).max(1.0)),
                    utility: *spec.utility(),
                    budget: spec.budget(),
                    priority: spec.priority().max(1),
                },
                runtimes,
            }
        })
        .collect())
}

/// A started daemon with a warmed-up driver attached.
struct Live {
    handle: ServerHandle,
    driver: Driver,
    /// Just before `serve()`: the origin of the daemon's slot clock.
    served_at: Instant,
    generate_ms: f64,
    setup_s: f64,
}

fn set_up(spec: &ServeSpec, seed: u64, capture: bool) -> Result<Live, String> {
    let io = |e: std::io::Error| format!("{}: {e}", spec.name);
    let started = Instant::now();
    let pool = build_pool(spec, seed)?;
    let generate_ms = started.elapsed().as_secs_f64() * 1e3;
    let served_at = Instant::now();
    let handle = rush_serve::serve(spec.daemon_config()).map_err(|e| e.to_string())?;
    let stream = OpStream::new(seed, spec.mix, pool, spec.resident, CANCEL_EVERY);
    let pacing = match spec.open_rate {
        Some(rate) => Pacing::Open(PoissonClock::new(seed, rate)),
        None => Pacing::Closed,
    };
    let mut driver = Driver::connect(
        handle.local_addr(),
        spec.binary,
        stream,
        pacing,
        spec.sample_every,
    )
    .map_err(io)?;
    if capture {
        driver.start_capture(spec.resident + CAPTURE_CAP);
    }
    driver.warm_up().map_err(io)?;
    if driver.stream().resident() != spec.resident {
        return Err(format!(
            "{}: warm-up left {} jobs resident, not {}",
            spec.name,
            driver.stream().resident(),
            spec.resident
        ));
    }
    Ok(Live {
        handle,
        driver,
        served_at,
        generate_ms,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// The daemon's last words: its counters, `Σ desired_now` of the final
/// plan table, and the driver's matching tallies.
struct Final {
    stats: StatsReport,
    desired_now: u64,
    tally: Tally,
}

fn tear_down(spec: &ServeSpec, live: Live) -> Result<Final, String> {
    let (stats, desired_now, tally) = live
        .driver
        .finish()
        .map_err(|e| format!("{}: {e}", spec.name))?;
    live.handle
        .join()
        .map_err(|e| format!("{}: daemon: {e}", spec.name))?;
    Ok(Final {
        stats,
        desired_now,
        tally,
    })
}

/// The output checks every run makes on the daemon's final answers.
fn check_final(spec: &ServeSpec, f: &Final, out: &mut Outcome) {
    let (s, t) = (&f.stats, &f.tally);
    out.attempted += t.attempted;
    out.failed += t.failed;
    let refused = t.deferred + t.rejected;
    if t.failed > refused {
        out.fail(format!(
            "{} replies were errors, undecodable or of the wrong variant",
            t.failed - refused
        ));
    }
    if (t.admitted as f64) < MIN_ADMIT_SHARE * t.submits as f64 {
        out.fail(format!(
            "only {} of {} submits admitted",
            t.admitted, t.submits
        ));
    }
    // A parked job can be unparked (and counted admitted) in the epoch
    // between its verdict and the driver's cancel, so with deferrals the
    // daemon's admitted count may exceed the driver's by at most that many.
    let verdicts = s.admitted + s.deferred + s.rejected;
    let counters_agree = verdicts >= t.submits
        && verdicts <= t.submits + t.deferred
        && s.deferred == t.deferred
        && s.rejected == t.rejected
        && s.samples == t.samples
        && s.completed == t.completed
        && s.cancelled == t.cancelled;
    if !counters_agree {
        out.fail(format!(
            "daemon counters {s:?} disagree with the driver's tallies {t:?}"
        ));
    }
    if f.desired_now > u64::from(spec.capacity) {
        out.fail(format!(
            "final plan hands out {} containers of {}",
            f.desired_now, spec.capacity
        ));
    }
}

/// Median latency of the plan reads (`predict` + `query-plan{job}`).
fn read_latencies(phase: &Phase) -> Vec<f64> {
    // bound: OpKind::index() < 7 == latency_ms.len()
    let mut reads = phase.latency_ms[OpKind::Predict.index()].clone();
    reads.extend_from_slice(&phase.latency_ms[OpKind::QueryJob.index()]);
    reads
}

/// The three gated numbers one phase yields: throughput, median submit
/// latency, median read latency.
fn phase_numbers(phase: &Phase) -> (f64, f64, f64) {
    // bound: OpKind::index() < 7 == latency_ms.len()
    let mut submits = phase.latency_ms[OpKind::Submit.index()].clone();
    (
        phase.replies_in_window as f64 / phase.seconds,
        stats::median(&mut submits),
        stats::median(&mut read_latencies(phase)),
    )
}

/// Runs one serve workload untraced and returns its end-to-end metrics.
///
/// The run's seconds are split evenly over `populations` daemon
/// instances, each warmed up with its own sub-seed's job pool; every
/// metric is the median over them. Replan cost depends on *which* 500
/// jobs are resident (±10 % between pools), so one population per run
/// would make the seed, not the code, the largest source of spread — and
/// the repeated set-ups are what `setup_s` is the median of.
///
/// # Errors
///
/// A description of whatever stopped the run (socket error, wedged daemon).
pub fn run_plain(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    populations: usize,
) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let populations = populations.max(1);
    let (mut setup_s, mut ops_per_s, mut submit_ms, mut read_ms) = (vec![], vec![], vec![], vec![]);
    let (mut possible, mut predicts) = (0, 0);
    for population in 0..populations {
        let mut live = set_up(spec, derive_seed(seed, population as u64), false)?;
        setup_s.push(live.setup_s);
        let phase = live
            .driver
            .run_phase(seconds / populations as f64)
            .map_err(|e| format!("{}: {e}", spec.name))?;
        let fin = tear_down(spec, live)?;
        check_final(spec, &fin, &mut out);
        let (rate, submit, read) = phase_numbers(&phase);
        ops_per_s.push(rate);
        submit_ms.push(submit);
        read_ms.push(read);
        possible += fin.tally.predict_possible;
        predicts += fin.tally.predicts;
    }
    let mut m = Metrics::default();
    m.set("setup_s", stats::median(&mut setup_s));
    m.set("ops_per_s", stats::median(&mut ops_per_s));
    m.set("submit_p50_ms", stats::median(&mut submit_ms));
    m.set("read_p50_ms", stats::median(&mut read_ms));
    m.set("deadline_hit_frac", ratio(possible, predicts));
    m.set("peak_rss_mb", procstat::peak_rss_mb());
    out.metrics = m;
    Ok(out)
}

/// Daemon instances (job populations) an untraced run is split over.
pub const POPULATIONS: usize = 5;

/// CPU seconds each thread burnt between two `/proc` readings, split into
/// the driver (this thread), the reactor and the planner (the thread
/// `serve()` spawns that is not a reactor).
fn cpu_split(before: &[ThreadCpu], after: &[ThreadCpu]) -> (f64, f64, f64) {
    let me = std::process::id();
    let (mut driver, mut reactor, mut planner) = (0.0, 0.0, 0.0);
    for t in after {
        let base = before
            .iter()
            .find(|b| b.tid == t.tid)
            .map_or(0.0, |b| b.cpu_s);
        let used = t.cpu_s - base;
        if t.tid == me {
            driver += used;
        } else if t.name.starts_with("rush-reactor") {
            reactor += used;
        } else {
            planner += used;
        }
    }
    (driver, reactor, planner)
}

fn tail_metrics(m: &mut Metrics, samples: &mut [f64], value: &'static str, pct: &'static str) {
    if let Some(t) = stats::tail(samples) {
        m.set(value, t.value);
        m.set(pct, t.percentile * 100.0);
    }
}

/// What pushing a value set through one codec cost.
#[derive(Debug, Default, Clone, Copy)]
struct CodecCost {
    decode_request_ns: u64,
    encode_response_ns: u64,
    request_bytes: u64,
    response_bytes: u64,
}

impl CodecCost {
    /// Writes the four per-op means under `names` (decode, encode, request
    /// bytes, response bytes).
    fn emit(&self, ops: u64, names: [&'static str; 4], m: &mut Metrics) {
        let [decode, encode, request_bytes, response_bytes] = names;
        m.set(decode, ratio(self.decode_request_ns, ops));
        m.set(encode, ratio(self.encode_response_ns, ops));
        m.set(request_bytes, ratio(self.request_bytes, ops));
        m.set(response_bytes, ratio(self.response_bytes, ops));
    }
}

/// Bytes of the RUSH1 frame carrying `payload` (length prefix included).
fn framed_len(payload: &[u8]) -> u64 {
    let mut frame = Vec::with_capacity(payload.len() + 5);
    binary::frame_into(payload, &mut frame);
    frame.len() as u64
}

/// Pushes captured request/response pairs through both codecs' public
/// encode/decode functions, so JSON-vs-RUSH1 is a per-stage delta on
/// identical content. Returns `false` when a value failed to round-trip.
fn replay_codecs(
    pairs: &[(Request, Response)],
    budget: Duration,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> bool {
    let deadline = Instant::now() + budget;
    let root = rec.open("replay.codecs", Instant::now());
    let mut round_trips = true;
    let (mut json, mut rush1) = (CodecCost::default(), CodecCost::default());
    let mut ops = 0u64;
    for batch in pairs.chunks(CODEC_BATCH) {
        if Instant::now() >= deadline {
            break;
        }
        ops += batch.len() as u64;
        let lines: Vec<String> = batch.iter().map(|(req, _)| req.encode()).collect();
        let payloads: Vec<Vec<u8>> = batch
            .iter()
            .map(|(req, _)| binary::encode_request(req))
            .collect();

        let t0 = Instant::now();
        let from_json: Vec<_> = lines.iter().map(|l| Request::decode(l)).collect();
        let t1 = Instant::now();
        let from_rush1: Vec<_> = payloads.iter().map(|p| binary::decode_request(p)).collect();
        let t2 = Instant::now();
        let to_json: Vec<String> = batch.iter().map(|(_, resp)| resp.encode()).collect();
        let t3 = Instant::now();
        let to_rush1: Vec<Vec<u8>> = batch
            .iter()
            .map(|(_, resp)| binary::encode_response(resp))
            .collect();
        let t4 = Instant::now();

        rec.record("serve.json.decode_request", t0, t1, Some(root), None);
        rec.record("serve.binary.decode_request", t1, t2, Some(root), None);
        rec.record("serve.json.encode_response", t2, t3, Some(root), None);
        rec.record("serve.binary.encode_response", t3, t4, Some(root), None);
        json.decode_request_ns += (t1 - t0).as_nanos() as u64;
        rush1.decode_request_ns += (t2 - t1).as_nanos() as u64;
        json.encode_response_ns += (t3 - t2).as_nanos() as u64;
        rush1.encode_response_ns += (t4 - t3).as_nanos() as u64;
        // A JSON frame is the line plus its newline.
        json.request_bytes += lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        json.response_bytes += to_json.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        rush1.request_bytes += payloads.iter().map(|p| framed_len(p)).sum::<u64>();
        rush1.response_bytes += to_rush1.iter().map(|p| framed_len(p)).sum::<u64>();

        for (i, (req, resp)) in batch.iter().enumerate() {
            round_trips &= from_json.get(i).and_then(|d| d.as_ref().ok()) == Some(req);
            round_trips &= from_rush1.get(i).and_then(|d| d.as_ref().ok()) == Some(req);
            round_trips &= to_json
                .get(i)
                .and_then(|l| Response::decode(l).ok())
                .as_ref()
                == Some(resp);
            round_trips &= to_rush1
                .get(i)
                .and_then(|p| binary::decode_response(p).ok())
                .as_ref()
                == Some(resp);
        }
    }
    rec.close(root, Instant::now());
    json.emit(
        ops,
        [
            "serve.json.decode_request_ns",
            "serve.json.encode_response_ns",
            "serve.json.request_bytes",
            "serve.json.response_bytes",
        ],
        m,
    );
    rush1.emit(
        ops,
        [
            "serve.binary.decode_request_ns",
            "serve.binary.encode_response_ns",
            "serve.binary.request_bytes",
            "serve.binary.response_bytes",
        ],
        m,
    );
    round_trips
}

/// What replaying the op log against a fresh [`ServeState`] measured.
struct StateReplay {
    state: ServeState,
    last_slot: u64,
    /// Σ call time and call count of timed ops, per [`OpKind::index`]
    /// (`QueryAll` is folded into `QueryJob`: both are `rows`).
    call_ns: [u64; 7],
    calls: [u64; 7],
    /// Live-run span the replayed timed ops cover, in seconds.
    covered_s: f64,
    mismatches: u64,
    phases: PhaseTotals,
}

/// The logical slot the daemon stamped on (or would have computed for) a
/// reply: exact where the reply carries it, else derived from the reply's
/// arrival time the way `rushd` derives it.
fn slot_of(c: &Captured, served_at: Instant, ms_per_slot: u64) -> u64 {
    match &c.response {
        Some(Response::PlanTable { now_slot, .. }) => *now_slot,
        Some(Response::Stats(s)) => s.now_slot,
        _ => c.replied.saturating_duration_since(served_at).as_millis() as u64 / ms_per_slot,
    }
}

/// Replays the captured ops, in the order their replies were read, through
/// `submit_epoch` / `report_sample` / `predict` / `rows` / `cancel` /
/// `stats`, timing each call. Warm-up ops (answered before `timed_from`)
/// are replayed but not measured. Stops once `budget` is spent.
fn replay_state(
    spec: &ServeSpec,
    log: &[Captured],
    pool: &[PoolJob],
    served_at: Instant,
    timed_from: Instant,
    budget: Duration,
    rec: &mut Recorder,
) -> Result<StateReplay, String> {
    let cfg = spec.daemon_config();
    let mut r = StateReplay {
        state: ServeState::new(cfg.rush, cfg.capacity).map_err(|e| e.to_string())?,
        last_slot: 0,
        call_ns: [0; 7],
        calls: [0; 7],
        covered_s: 0.0,
        mismatches: 0,
        phases: PhaseTotals::default(),
    };
    let deadline = Instant::now() + budget;
    let root = rec.open("replay.state", Instant::now());
    let mut pending_writes = 0u64;
    let mut replayed = vec![false; log.len()];
    for (i, c) in log.iter().enumerate() {
        // bound: `replayed` has one flag per log entry
        if replayed[i] {
            continue;
        }
        if Instant::now() >= deadline {
            break;
        }
        let slot = slot_of(c, served_at, cfg.ms_per_slot);
        let timed = c.replied >= timed_from;
        let stale = !r.state.planner().is_fresh(slot);
        let kind = if c.op.kind == OpKind::QueryAll {
            OpKind::QueryJob
        } else {
            c.op.kind
        };
        let job = c.op.job.unwrap_or(u64::MAX);
        let (start, end, agrees, replans);
        match c.op.kind {
            OpKind::Submit => {
                // One epoch answered a run of consecutive submits; replay
                // them as the one `submit_epoch` call the daemon made.
                let epoch_of = |c: &Captured| match &c.response {
                    Some(Response::Submitted { epoch, .. }) => Some(*epoch),
                    _ => None,
                };
                let epoch = epoch_of(c);
                let mut batch = vec![i];
                if epoch.is_some() {
                    for (k, later) in log.iter().enumerate().skip(i + 1) {
                        if later.op.kind != OpKind::Submit {
                            continue;
                        }
                        if epoch_of(later) != epoch {
                            break;
                        }
                        batch.push(k);
                    }
                }
                let subs: Vec<JobSubmission> = batch
                    .iter()
                    .filter_map(|&k| log.get(k))
                    .filter_map(|c| pool.get(c.op.pool))
                    .map(|p| p.submission.clone())
                    .collect();
                pending_writes += subs.len() as u64;
                start = Instant::now();
                let verdicts = r
                    .state
                    .submit_epoch(subs, slot)
                    .map_err(|e| e.to_string())?;
                end = Instant::now();
                let mut same = true;
                for (&k, v) in batch.iter().zip(&verdicts) {
                    // bound: batch indices come from enumerating `log`
                    replayed[k] = true;
                    same &= matches!(
                        &log[k].response,
                        Some(Response::Submitted { job, decision, defer_reason, .. })
                            if *job == v.job && *decision == v.decision && *defer_reason == v.defer_reason
                    );
                }
                agrees = same;
                replans = 1 + u64::from(stale);
            }
            OpKind::ReportSample => {
                pending_writes += 1;
                start = Instant::now();
                let res = r.state.report_sample(job, c.op.runtime);
                end = Instant::now();
                agrees = res.is_ok() == matches!(c.response, Some(Response::Ack));
                replans = 0;
            }
            OpKind::Cancel => {
                pending_writes += 1;
                start = Instant::now();
                let res = r.state.cancel(job);
                end = Instant::now();
                agrees = res.is_ok() == matches!(c.response, Some(Response::Ack));
                replans = 0;
            }
            OpKind::Predict => {
                start = Instant::now();
                let res = r.state.predict(job, slot);
                end = Instant::now();
                agrees = match (&res, &c.response) {
                    (
                        Ok((t, len, b, done, imp)),
                        Some(Response::Prediction {
                            target,
                            task_len,
                            bound,
                            planned_completion,
                            impossible,
                            ..
                        }),
                    ) => {
                        (t, len, b, done, imp)
                            == (target, task_len, bound, planned_completion, impossible)
                    }
                    (Err(_), Some(Response::Error(_))) => true,
                    _ => false,
                };
                replans = u64::from(stale && res.is_ok());
            }
            OpKind::QueryJob | OpKind::QueryAll => {
                start = Instant::now();
                let res = r.state.rows(slot, c.op.job);
                end = Instant::now();
                agrees = match (&res, &c.response) {
                    (Ok(rows), Some(Response::PlanTable { rows: live, .. })) => rows == live,
                    (Err(_), Some(Response::Error(_))) => true,
                    _ => false,
                };
                replans = u64::from(stale && res.is_ok());
            }
            OpKind::Stats => {
                start = Instant::now();
                let stats = r.state.stats(slot);
                end = Instant::now();
                agrees = matches!(&c.response, Some(Response::Stats(live)) if *live == stats);
                replans = 0;
            }
        }
        r.last_slot = slot;
        if replans > 0 {
            r.phases.replans += replans;
            r.phases.dirty += pending_writes;
            pending_writes = 0;
            r.phases.sample(r.state.planner());
        }
        if timed {
            // bound: OpKind::index() < 7 == call_ns.len() == calls.len()
            r.call_ns[kind.index()] += (end - start).as_nanos() as u64;
            r.calls[kind.index()] += 1;
            r.covered_s = c
                .replied
                .saturating_duration_since(timed_from)
                .as_secs_f64();
            r.mismatches += u64::from(!agrees);
            rec.record(state_span(kind), start, end, Some(root), Some(c.id));
        }
    }
    rec.close(root, Instant::now());
    Ok(r)
}

fn state_span(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Submit => "serve.state.submit_epoch",
        OpKind::Cancel => "serve.state.cancel",
        OpKind::ReportSample => "serve.state.report_sample",
        OpKind::Predict => "serve.state.predict",
        OpKind::QueryJob | OpKind::QueryAll => "serve.state.rows",
        OpKind::Stats => "serve.state.stats",
    }
}

/// Times `estimate_eta` + `probe` for each pool submission against the
/// reservation set of the replayed state, rebuilt from its public surface
/// the way `ServeState` builds it before an epoch.
fn probe_admission(r: &StateReplay, pool: &[PoolJob], rec: &mut Recorder, m: &mut Metrics) {
    let config: RushConfig = *r.state.config();
    let budgets: std::collections::BTreeMap<u64, Option<u64>> = r
        .state
        .jobs()
        .map(|(id, j)| (id, j.submission.budget))
        .collect();
    let planner = r.state.planner();
    let reservations: Vec<(f64, u64)> = planner
        .planned()
        .filter_map(|(id, entry)| {
            let record = planner.job(id)?;
            let age = r.last_slot.saturating_sub(record.arrived_slot) as f64;
            let budget = budgets.get(&id.0).copied().flatten();
            let deadline =
                (admission::admission_deadline(&config, budget) - age).clamp(1.0, config.horizon);
            Some((deadline, entry.eta))
        })
        .collect();
    let start = Instant::now();
    let mut probed = 0u64;
    for p in pool {
        let sub = &p.submission;
        if let Ok((eta, _)) =
            admission::estimate_eta(&config, &[], sub.runtime_hint, sub.tasks as usize)
        {
            std::hint::black_box(admission::probe(
                &config,
                r.state.capacity(),
                &reservations,
                sub,
                eta,
            ));
            probed += 1;
        }
    }
    let end = Instant::now();
    rec.record("serve.admission.probe_pool", start, end, None, None);
    m.set(
        "serve.admission.probe_us",
        ratio((end - start).as_nanos() as u64, probed) / 1e3,
    );
}

/// Encodes the replayed state as a snapshot, decodes it and re-encodes the
/// result. Returns `false` unless the two encodings are identical.
fn snapshot_round_trip(
    spec: &ServeSpec,
    r: &StateReplay,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> bool {
    let cfg = spec.daemon_config();
    let t0 = Instant::now();
    let text = snapshot::encode(&r.state, r.last_slot);
    let t1 = Instant::now();
    let decoded = snapshot::decode(&text, cfg.rush, cfg.capacity);
    let t2 = Instant::now();
    rec.record("serve.snapshot.encode", t0, t1, None, None);
    rec.record("serve.snapshot.decode", t1, t2, None, None);
    m.set("serve.snapshot.encode_ms", (t1 - t0).as_secs_f64() * 1e3);
    m.set("serve.snapshot.decode_ms", (t2 - t1).as_secs_f64() * 1e3);
    m.set("serve.snapshot.bytes", text.len() as f64);
    matches!(decoded, Ok((state, slot)) if snapshot::encode(&state, slot) == text)
}

/// Runs one serve workload traced and returns its per-layer metrics.
///
/// The run's seconds are split between an untraced live phase, a traced
/// live phase of the same length on a second daemon set up from the same
/// seed (same pool, same op stream — their ratio is the tracing overhead),
/// and the replays.
///
/// # Errors
///
/// A description of whatever stopped the run.
pub fn run_traced(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    trace_path: &Path,
) -> Result<Outcome, String> {
    let io = |e: std::io::Error| format!("{}: {e}", spec.name);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut m = Metrics::default();
    let mut live = set_up(spec, seed, false)?;
    let plain = live.driver.run_phase(seconds * LIVE_SHARE).map_err(io)?;
    check_final(spec, &tear_down(spec, live)?, &mut out);

    let mut live = set_up(spec, seed, true)?;
    let mut rec = Recorder::new(live.served_at);
    m.set("workload.generate_ms", live.generate_ms);

    let cpu_before = procstat::thread_cpu();
    let traced_from = Instant::now();
    let mut traced = live.driver.run_phase(seconds * LIVE_SHARE).map_err(io)?;
    let traced_wall_s = traced_from.elapsed().as_secs_f64();
    let cpu_after = procstat::thread_cpu();
    let log = live.driver.take_capture();
    let pool = live.driver.stream().pool().to_vec();
    let served_at = live.served_at;
    let fin = tear_down(spec, live)?;
    check_final(spec, &fin, &mut out);

    // serve.server: what the live daemon reported or visibly did.
    let submits = traced.epoch_wait_ms.len() as f64;
    m.set(
        "serve.server.epoch_wait_p50_ms",
        stats::median(&mut traced.epoch_wait_ms),
    );
    m.set("serve.server.epochs", traced.epochs.len() as f64);
    m.set(
        "serve.server.batch_mean",
        if traced.epochs.is_empty() {
            0.0
        } else {
            submits / traced.epochs.len() as f64
        },
    );
    // bound: OpKind::index() < 7 == latency_ms.len()
    m.set(
        "serve.server.hop_p50_us",
        stats::median(&mut traced.latency_ms[OpKind::Stats.index()].clone()) * 1e3,
    );
    let (driver_cpu, reactor_cpu, planner_cpu) = cpu_split(&cpu_before, &cpu_after);
    m.set("serve.server.reactor_cpu_frac", reactor_cpu / traced_wall_s);
    m.set("planner.thread_cpu_frac", planner_cpu / traced_wall_s);
    m.set(
        "planner.cache_hit_frac",
        ratio(
            fin.stats.cache_hits,
            fin.stats.cache_hits + fin.stats.cache_misses,
        ),
    );

    // driver: the harness itself.
    m.set("driver.cpu_frac", driver_cpu / traced_wall_s);
    traced.late_ms.sort_by(f64::total_cmp);
    m.set(
        "driver.late_p99_ms",
        stats::quantile_sorted(&traced.late_ms, 0.99).unwrap_or(0.0),
    );
    m.set(
        "driver.late_max_ms",
        traced.late_ms.last().copied().unwrap_or(0.0),
    );
    // bound: OpKind::index() < 7 == latency_ms.len()
    let mut submit_ms = traced.latency_ms[OpKind::Submit.index()].clone();
    let mut read_ms = read_latencies(&traced);
    m.set("driver.submit_samples", submit_ms.len() as f64);
    m.set("driver.read_samples", read_ms.len() as f64);
    tail_metrics(
        &mut m,
        &mut submit_ms,
        "driver.submit_tail_ms",
        "driver.submit_tail_pct",
    );
    tail_metrics(
        &mut m,
        &mut read_ms,
        "driver.read_tail_ms",
        "driver.read_tail_pct",
    );
    m.set("driver.write_p50_ms", stats::median(&mut traced.write_ms));
    tail_metrics(
        &mut m,
        &mut traced.write_ms,
        "driver.write_tail_ms",
        "driver.write_tail_pct",
    );
    let (with_trace, without) = (phase_numbers(&traced), phase_numbers(&plain));
    // The workload's primary metric: submit latency at a fixed rate, or
    // throughput when the loop is closed.
    let overhead = if spec.open_rate.is_some() {
        with_trace.1 / without.1 - 1.0
    } else {
        1.0 - with_trace.0 / without.0
    };
    m.set(
        "driver.trace_overhead_frac",
        if overhead.is_finite() { overhead } else { 0.0 },
    );

    // The driver's send→reply spans, one per captured timed op.
    for c in log.iter().filter(|c| c.replied >= traced_from) {
        rec.record(c.op.kind.span_name(), c.sent, c.replied, None, Some(c.id));
    }

    // Replays: codecs on identical content, then the state machine.
    let pairs: Vec<(Request, Response)> = log
        .iter()
        .filter(|c| c.replied >= traced_from)
        .filter_map(|c| Some((c.op.request(&pool), c.response.clone()?)))
        .take(CODEC_OPS)
        .collect();
    if !replay_codecs(
        &pairs,
        Duration::from_secs_f64(seconds * CODEC_REPLAY_SHARE),
        &mut rec,
        &mut m,
    ) {
        out.fail("a captured request or response did not round-trip through a codec");
    }
    let budget = Duration::from_secs_f64(seconds * STATE_REPLAY_SHARE);
    let mut replay = replay_state(spec, &log, &pool, served_at, traced_from, budget, &mut rec)?;
    let state_names = [
        (OpKind::Submit, "serve.state.submit_epoch_us"),
        (OpKind::ReportSample, "serve.state.report_sample_us"),
        (OpKind::Predict, "serve.state.predict_us"),
        (OpKind::QueryJob, "serve.state.rows_us"),
        (OpKind::Cancel, "serve.state.cancel_us"),
        (OpKind::Stats, "serve.state.stats_us"),
    ];
    for (kind, name) in state_names {
        // bound: OpKind::index() < 7 == call_ns.len() == calls.len()
        m.set(
            name,
            ratio(replay.call_ns[kind.index()], replay.calls[kind.index()]) / 1e3,
        );
    }
    let busy_s = replay.call_ns.iter().sum::<u64>() as f64 / 1e9;
    m.set(
        "serve.state.busy_frac",
        if replay.covered_s > 0.0 {
            busy_s / replay.covered_s
        } else {
            0.0
        },
    );
    m.set("serve.state.replay_mismatch", replay.mismatches as f64);
    replay.phases.emit(&mut m);
    probe_admission(&replay, &pool, &mut rec, &mut m);
    if !snapshot_round_trip(spec, &replay, &mut rec, &mut m) {
        out.fail("snapshot decode(encode(state)) did not re-encode identically");
    }

    out.notes.push(format!(
        "reconcile: serve.state.busy_frac {:.3} vs planner.thread_cpu_frac {:.3}; submit_p50 {:.2} ms vs \
         daemon-reported wait {:.2} (stamped after its epoch's submit_epoch, {:.2} ms) + hop {:.2} ms",
        m.get("serve.state.busy_frac"),
        m.get("planner.thread_cpu_frac"),
        with_trace.1,
        m.get("serve.server.epoch_wait_p50_ms"),
        m.get("serve.state.submit_epoch_us") / 1e3,
        m.get("serve.server.hop_p50_us") / 1e3,
    ));
    let header = vec![
        ("workload".to_string(), Json::str(spec.name)),
        ("seed".to_string(), Json::u64(seed)),
    ];
    rec.write_json(trace_path, header).map_err(io)?;
    out.tabulate(rec.spans(), &replay.phases.rows());
    out.metrics = m;
    Ok(out)
}
