//! The `rushd` TCP daemon.
//!
//! Concurrency model: [`ServeConfig::reactors`] nonblocking epoll event
//! loops (see [`crate::reactor_frontend`]) feeding **one planner thread per
//! shard** over `mpsc` channels. The event loops only parse and frame — all
//! scheduling state lives on the planner threads, so there are no locks
//! around scheduler state anywhere in the daemon.
//!
//! A connection speaks either codec, sniffed from its first byte: `R`
//! opens the [`crate::binary`] `RUSH1` handshake, anything else is treated
//! as newline-delimited JSON.
//!
//! **Epoch batching (group commit).** `submit` requests are not planned
//! individually: an epoch closes as soon as the planner finds its channel
//! empty with submissions pending, so the batch is whatever queued while
//! the planner was busy — a lone submission to an idle planner is planned
//! at once, and batches grow only under load. Two bounds cap an epoch:
//! `epoch_max_batch` pending submissions, and `epoch_ms`, the *maximum*
//! wait of the oldest one, which fires only when the channel never
//! drains. Closing runs one admission sweep for the whole batch; the
//! replan its admissions need is paid by the next read or the next
//! epoch's opening plan (the delta path patches the previous onion
//! layering and mapping, so the unchanged residents are nearly free).
//! Every waiting client then receives its verdict, stamped with the
//! microseconds it waited; the planner records that wait in a
//! [`rush_metrics::Histogram`] that [`ServerHandle::join`] returns (`rushd`
//! prints its count and quantiles on exit).
//! Non-submit requests never wait for an epoch. The planner thread is the
//! only epoch clock: with submissions pending it never sleeps, and it
//! re-checks the deadline after **every** channel turn, so a steady
//! stream of immediate requests cannot starve a pending batch.
//!
//! **Time.** The daemon quantizes its wall clock into logical slots:
//! `now_slot = base_slot + elapsed_ms / ms_per_slot`. Plans are a pure
//! function of (state, slot), which is what makes the snapshot/restore
//! guarantee testable: a daemon restored from a snapshot starts its clock
//! at the snapshot's slot.
//!
//! **Shards.** With [`ServeConfig::shards`] `> 1` the daemon runs one
//! planner thread per shard, each owning an independent [`ServeState`]
//! over a static [`even_split`] slice of the capacity. The reactors route
//! submissions by label hash ([`shard_of_label`] — same-label jobs share a
//! shard, so epoch batching stays effective) and per-job requests by wire
//! id. Wire ids encode the owner: `wire = local * shards + shard`, the
//! identity when `shards == 1`. Cluster-wide requests (full plan table,
//! stats, set-capacity, shutdown) are broadcast and merged in shard order.
//! Nothing moves capacity between shards: a shard rejects a job its
//! neighbour has room for. Each shard snapshots to a file of its own, and
//! a restart under another shard count is refused (see [`serve`]).

use crate::protocol::{ErrorCode, JobSubmission, Request, Response, WireError};
use crate::snapshot;
use crate::state::ServeState;
use crate::ServeError;
use rush_core::cluster::ClusterModel;
use rush_core::RushConfig;
use rush_metrics::Histogram;
use std::fmt;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The connection frontend the daemon runs. There is exactly one — the
/// epoll reactor — and nothing selects it; the type, the
/// [`ServeConfig::frontend`] field and the `Display` impl remain only
/// because `benchmark/` names them and is frozen between benchmark PRs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frontend {
    /// [`ServeConfig::reactors`] nonblocking epoll event loops, each
    /// multiplexing its share of the connections (see
    /// [`crate::reactor_frontend`]).
    Reactor,
}

impl fmt::Display for Frontend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("reactor")
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (0 = ephemeral port).
    pub addr: String,
    /// Cluster capacity in containers.
    pub capacity: u32,
    /// Close an epoch once this many submissions are pending, even if more
    /// are queued behind them.
    pub epoch_max_batch: usize,
    /// The most milliseconds the oldest pending submission waits. An epoch
    /// normally closes sooner, as soon as the planner is free; this bound
    /// fires only when the planner's channel never drains.
    pub epoch_ms: u64,
    /// Wall-clock milliseconds per logical slot.
    pub ms_per_slot: u64,
    /// Snapshot file: written on graceful shutdown, restored on startup
    /// when present. With more than one shard, shard `i` uses the path
    /// suffixed `.shard<i>`.
    pub snapshot_path: Option<PathBuf>,
    /// Planner shards (threads), `1` by default. More shards split the
    /// capacity evenly and plan label-hash partitions of the jobs
    /// independently.
    pub shards: usize,
    /// Always [`Frontend::Reactor`]; see [`Frontend`] for why the field
    /// exists.
    pub frontend: Frontend,
    /// Reactor event-loop threads. Each accepts from the shared listener
    /// and owns the connections it accepted.
    pub reactors: usize,
    /// Reactor backpressure: per-connection cap on requests handed to the
    /// planner whose responses have not yet been serialized. A connection
    /// at the cap stops being read until replies drain.
    pub max_inflight: usize,
    /// Reactor backpressure: hard cap in bytes on a connection's pending
    /// write buffer. A peer that lets us buffer more than this is evicted.
    pub max_write_buffer: usize,
    /// Reactor backpressure: a connection whose write buffer has stayed
    /// non-empty this many milliseconds is a slow reader and is evicted.
    pub slow_reader_ms: u64,
    /// The scheduling pipeline's parameters.
    pub rush: RushConfig,
    /// An optional typed model of the container supply. When set, the
    /// daemon runs revocation-aware admission: a time-sensitive job that
    /// fails Theorem 2 at the current (revocation-depressed) capacity is
    /// parked as `awaiting-restock` when the model predicts the deficit
    /// heals inside the job's deadline. Requires `shards == 1` (a shard's
    /// capacity slice cannot observe the cluster-wide deficit) and a
    /// provisioned total equal to `capacity`.
    pub cluster: Option<ClusterModel>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            capacity: 16,
            epoch_max_batch: 32,
            epoch_ms: 25,
            ms_per_slot: 1000,
            snapshot_path: None,
            shards: 1,
            frontend: Frontend::Reactor,
            reactors: 1,
            max_inflight: 64,
            max_write_buffer: 4 * 1024 * 1024,
            slow_reader_ms: 10_000,
            rush: RushConfig::default(),
            cluster: None,
        }
    }
}

/// One planner reply headed back to a reactor connection.
pub(crate) struct Completion {
    /// Token of the connection that issued the request.
    pub(crate) conn: u64,
    /// Per-connection sequence number of the request (responses are
    /// emitted in sequence order, so pipelined requests stay ordered).
    pub(crate) seq: u64,
    /// Shard that produced the reply (for wire-id translation and for
    /// slotting broadcast parts).
    pub(crate) shard: usize,
    /// The reply itself, still carrying shard-local job ids.
    pub(crate) resp: Response,
}

/// The planner → reactor hand-off, in a module of its own so the mutex is
/// out of reach of both ends: the guard never leaves a method, so it
/// cannot be held across the eventfd write or a second lock. A poisoned
/// lock drops the push / yields nothing.
mod handoff {
    use super::Completion;
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    pub(crate) struct CompletionQueue(Arc<Mutex<VecDeque<Completion>>>);

    impl CompletionQueue {
        pub(crate) fn push(&self, completion: Completion) {
            if let Ok(mut queue) = self.0.lock() {
                queue.push_back(completion);
            }
        }

        pub(crate) fn take_all(&self) -> VecDeque<Completion> {
            self.0.lock().map(|mut queue| std::mem::take(&mut *queue)).unwrap_or_default()
        }
    }
}
pub(crate) use handoff::CompletionQueue;

/// Where a planner reply goes: onto the owning reactor's completion
/// queue, followed by a wake of its event loop. `send` never blocks the
/// planner.
pub(crate) struct ReplySink {
    pub(crate) queue: CompletionQueue,
    pub(crate) waker: Arc<rush_reactor::Waker>,
    pub(crate) conn: u64,
    pub(crate) seq: u64,
    pub(crate) shard: usize,
}

impl ReplySink {
    /// Delivers one response. Delivery failures (a vanished peer) are
    /// dropped — the planner does not care whether anyone is listening.
    pub(crate) fn send(self, resp: Response) {
        self.queue.push(Completion { conn: self.conn, seq: self.seq, shard: self.shard, resp });
        // A failed wake is survivable — the reactor also drains its
        // completion queue on every loop turn.
        let _ = self.waker.wake();
    }
}

/// What the reactors send the planner.
pub(crate) enum PlannerMsg {
    /// A submission waiting for its epoch.
    Submit {
        /// The submission.
        sub: JobSubmission,
        /// When the reactor enqueued it (starts the epoch clock).
        enqueued: Instant,
        /// Where the verdict goes.
        reply: ReplySink,
    },
    /// Anything else — answered immediately.
    Immediate {
        /// The request, with job ids already shard-localized.
        req: Request,
        /// Where the answer goes.
        reply: ReplySink,
    },
}

/// A running daemon. Dropping the handle does *not* stop the daemon; send
/// a `shutdown` request (or use [`crate::Client::shutdown`]) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    planners: Vec<thread::JoinHandle<Result<Histogram, ServeError>>>,
    frontend: Vec<thread::JoinHandle<()>>,
    wakers: Vec<Arc<rush_reactor::Waker>>,
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the daemon to finish (it finishes when a client sends
    /// `shutdown`). Returns the submit-wait histogram (µs), merged across
    /// planner shards.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when a planner exited on an internal error or a
    /// daemon thread panicked.
    #[expect(clippy::disallowed_methods, reason = "the caller's thread waits for the daemon; never on an event loop")]
    pub fn join(self) -> Result<Histogram, ServeError> {
        let mut merged = Histogram::new();
        let mut first_err = None;
        for p in self.planners {
            match p.join() {
                Ok(Ok(hist)) => merged.merge(&hist),
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err = first_err
                        .or_else(|| Some(ServeError::Config("planner thread panicked".into())));
                }
            }
        }
        // The planners exit first and flip the stop flag; the reactors
        // notice on the wake below.
        self.stop.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            let _ = waker.wake();
        }
        let mut frontend_panic = false;
        for t in self.frontend {
            frontend_panic |= t.join().is_err();
        }
        if frontend_panic {
            first_err =
                first_err.or_else(|| Some(ServeError::Config("frontend thread panicked".into())));
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(merged),
        }
    }
}

/// `base` with `.shard<shard>` appended to the whole file name.
fn shard_suffixed(base: &Path, shard: usize) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(format!(".shard{shard}"));
    PathBuf::from(os)
}

/// The snapshot file of every shard, in shard order: `base` itself for a
/// single-shard daemon, `base` suffixed `.shard<i>` otherwise.
///
/// A restart must find the layout its own shard count writes, or none of
/// it. Restoring shard 0 of a two-shard layout under four shards would
/// renumber every job (the wire-id stride changes), and a one-shard
/// daemon would not see `.shard<i>` files at all and silently start empty.
///
/// # Errors
///
/// [`ServeError::Snapshot`], naming the file, when only some of the
/// expected files exist, or when a file another shard count writes exists
/// (`base.shard0` under one shard; `base` or `base.shard<shards>` under
/// several).
fn snapshot_paths(base: &Path, shards: usize) -> Result<Vec<PathBuf>, ServeError> {
    let paths: Vec<PathBuf> = if shards == 1 {
        vec![base.to_path_buf()]
    } else {
        (0..shards).map(|i| shard_suffixed(base, i)).collect()
    };
    let foreign = if shards == 1 {
        vec![shard_suffixed(base, 0)]
    } else {
        vec![base.to_path_buf(), shard_suffixed(base, shards)]
    };
    if let Some(p) = foreign.iter().find(|p| p.exists()) {
        return Err(ServeError::Snapshot(format!(
            "{} was written under another shard count than {shards}",
            p.display()
        )));
    }
    if paths.iter().any(|p| p.exists()) {
        if let Some(p) = paths.iter().find(|p| !p.exists()) {
            return Err(ServeError::Snapshot(format!(
                "{} is missing: the other shards' snapshots were written under another \
                 shard count than {shards}",
                p.display()
            )));
        }
    }
    Ok(paths)
}

/// Starts the daemon: binds `config.addr`, restores the snapshot(s) if
/// present, and spawns one planner thread per shard plus
/// [`ServeConfig::reactors`] epoll event loops.
///
/// # Errors
///
/// [`ServeError::Io`] when the bind fails or the platform has no epoll
/// (`Unsupported`, off Linux), [`ServeError::Snapshot`] when a
/// present snapshot is malformed or mismatched, or the snapshot files were
/// written under another shard count, [`ServeError::Planner`] /
/// [`ServeError::Config`] for invalid configuration.
pub fn serve(config: ServeConfig) -> Result<ServerHandle, ServeError> {
    if config.epoch_max_batch == 0 {
        return Err(ServeError::Config("epoch_max_batch must be >= 1".into()));
    }
    if config.ms_per_slot == 0 {
        return Err(ServeError::Config("ms_per_slot must be >= 1".into()));
    }
    if config.shards == 0 {
        return Err(ServeError::Config("shards must be >= 1".into()));
    }
    if config.reactors == 0 {
        return Err(ServeError::Config("reactors must be >= 1".into()));
    }
    if config.max_inflight == 0 {
        return Err(ServeError::Config("max_inflight must be >= 1".into()));
    }
    if config.capacity == 0 {
        return Err(ServeError::Config("capacity must be >= 1".into()));
    }
    if config.capacity < config.shards as u32 {
        return Err(ServeError::Config(format!(
            "capacity {} cannot be split across {} planner shards",
            config.capacity, config.shards
        )));
    }
    if let Some(model) = &config.cluster {
        if config.shards != 1 {
            return Err(ServeError::Config(
                "a cluster model requires a single planner shard: a shard's capacity \
                 slice cannot observe the cluster-wide deficit"
                    .into(),
            ));
        }
        model.validate().map_err(|e| ServeError::Config(format!("cluster model: {e}")))?;
        // `capacity > total` (serving more than is provisioned) is
        // rejected per shard by `with_cluster_model`; `capacity < total`
        // is legitimate — a daemon restarted mid-outage.
    }

    let paths = match &config.snapshot_path {
        Some(base) => snapshot_paths(base, config.shards)?.into_iter().map(Some).collect(),
        None => vec![None; config.shards],
    };
    let slices = even_split(config.capacity, config.shards);
    let mut shard_states = Vec::with_capacity(config.shards);
    for (path, slice) in paths.into_iter().zip(slices) {
        let (state, base_slot) = match &path {
            Some(p) if p.exists() => snapshot::read(p, config.rush, slice)?,
            _ => (ServeState::new(config.rush, slice)?, 0),
        };
        // The operator's model wins over a snapshot-restored one: the
        // snapshot records what was attached at write time, the config
        // says what is provisioned now.
        let state = match &config.cluster {
            Some(model) => state.with_cluster_model(model.clone())?,
            None => state,
        };
        shard_states.push((state, base_slot, path, slice));
    }

    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let stop = Arc::new(AtomicBool::new(false));
    let mut planners = Vec::with_capacity(config.shards);
    let mut txs = Vec::with_capacity(config.shards);
    for (state, base_slot, path, slice) in shard_states {
        let (tx, rx) = mpsc::channel::<PlannerMsg>();
        let shard = txs.len();
        txs.push(tx);
        let stop = Arc::clone(&stop);
        // Each planner sees a shard-local view of the config: its slice
        // of the capacity and its own snapshot file.
        let shard_config =
            ServeConfig { capacity: slice, snapshot_path: path, ..config.clone() };
        planners.push(thread::spawn(move || {
            planner_loop(shard_config, shard, state, base_slot, &rx, &stop)
        }));
    }

    let (frontend, wakers) =
        crate::reactor_frontend::spawn(listener, txs, &config, Arc::clone(&stop))?;

    Ok(ServerHandle { addr, planners, frontend, wakers, stop })
}

/// The logical slot clock.
fn now_slot(base_slot: u64, started: Instant, ms_per_slot: u64) -> u64 {
    base_slot + started.elapsed().as_millis() as u64 / ms_per_slot
}

#[allow(clippy::needless_pass_by_value)]
fn planner_loop(
    config: ServeConfig,
    shard: usize,
    mut state: ServeState,
    base_slot: u64,
    rx: &Receiver<PlannerMsg>,
    stop: &AtomicBool,
) -> Result<Histogram, ServeError> {
    let started = Instant::now();
    let mut waits = Histogram::new();
    let mut pending: Vec<(JobSubmission, Instant, ReplySink)> = Vec::new();
    let epoch_window = Duration::from_millis(config.epoch_ms);
    let idle_tick = Duration::from_millis(200);

    loop {
        // Group commit: with submissions pending the planner never sleeps.
        // An empty channel means nothing queued behind the batch, so the
        // epoch closes now with whatever arrived while the planner was busy.
        #[expect(clippy::disallowed_methods, reason = "the planner thread's idle wait; reactors only ever `send` to it")]
        let msg = if pending.is_empty() {
            rx.recv_timeout(idle_tick)
        } else {
            match rx.try_recv() {
                Ok(msg) => Ok(msg),
                Err(TryRecvError::Empty) => {
                    close_epoch(&config, &mut state, base_slot, started, &mut pending, &mut waits)?;
                    continue;
                }
                Err(TryRecvError::Disconnected) => return Ok(waits),
            }
        };
        match msg {
            Ok(PlannerMsg::Submit { sub, enqueued, reply }) => {
                pending.push((sub, enqueued, reply));
                if pending.len() >= config.epoch_max_batch {
                    close_epoch(&config, &mut state, base_slot, started, &mut pending, &mut waits)?;
                }
            }
            Ok(PlannerMsg::Immediate { req, reply }) => {
                if matches!(req, Request::Shutdown { .. }) {
                    // Flush the pending epoch so no submitter is stranded,
                    // then snapshot and exit.
                    close_epoch(&config, &mut state, base_slot, started, &mut pending, &mut waits)?;
                    let slot = now_slot(base_slot, started, config.ms_per_slot);
                    let wants_snapshot = matches!(req, Request::Shutdown { snapshot: true });
                    let written = match (&config.snapshot_path, wants_snapshot) {
                        (Some(p), true) => snapshot::write(p, &state, slot).is_ok(),
                        _ => false,
                    };
                    reply.send(Response::ShuttingDown { snapshot_written: written });
                    stop.store(true, Ordering::SeqCst);
                    return Ok(waits);
                }
                let slot = now_slot(base_slot, started, config.ms_per_slot);
                reply.send(answer_immediate(&mut state, req, slot, shard, config.shards));
            }
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    return Ok(waits);
                }
            }
            Err(RecvTimeoutError::Disconnected) => return Ok(waits),
        }
        // Enforce the epoch deadline after *every* turn: a channel that
        // never drains (a steady stream of immediate requests) never
        // triggers the idle close above, and must not starve the batch.
        if pending.first().is_some_and(|(_, oldest, _)| oldest.elapsed() >= epoch_window) {
            close_epoch(&config, &mut state, base_slot, started, &mut pending, &mut waits)?;
        }
    }
}

/// Closes one planning epoch: one admission sweep over every pending
/// submission, then replies to all of them.
fn close_epoch(
    config: &ServeConfig,
    state: &mut ServeState,
    base_slot: u64,
    started: Instant,
    pending: &mut Vec<(JobSubmission, Instant, ReplySink)>,
    waits: &mut Histogram,
) -> Result<(), ServeError> {
    if pending.is_empty() {
        return Ok(());
    }
    let batch = std::mem::take(pending);
    let slot = now_slot(base_slot, started, config.ms_per_slot);
    let subs = batch.iter().map(|(sub, _, _)| sub.clone()).collect();
    let verdicts = state.submit_epoch(subs, slot)?;
    let epoch = state.counters().epochs;
    for ((_, enqueued, reply), v) in batch.into_iter().zip(verdicts) {
        let waited_us = enqueued.elapsed().as_micros() as u64;
        waits.record(waited_us);
        reply.send(Response::Submitted {
            job: v.job,
            decision: v.decision,
            epoch,
            waited_us,
            defer_reason: v.defer_reason,
        });
    }
    Ok(())
}

/// Answers a non-submit request against the state. `shard` / `shards`
/// locate this planner inside the daemon so a broadcast `set-capacity`
/// can compute its own slice of the new total.
#[deny(clippy::wildcard_enum_match_arm)]
fn answer_immediate(
    state: &mut ServeState,
    req: Request,
    slot: u64,
    shard: usize,
    shards: usize,
) -> Response {
    match req {
        Request::ReportSample { job, runtime } => match state.report_sample(job, runtime) {
            Ok(_) => Response::Ack,
            Err(e) => Response::Error(e),
        },
        Request::QueryPlan { job } => match state.rows(slot, job) {
            Ok(rows) => Response::PlanTable {
                now_slot: slot,
                epoch: state.counters().epochs,
                rows,
            },
            Err(e) => Response::Error(e),
        },
        Request::Predict { job } => match state.predict(job, slot) {
            Ok((target, task_len, bound, planned_completion, impossible)) => {
                Response::Prediction { job, target, task_len, bound, planned_completion, impossible }
            }
            Err(e) => Response::Error(e),
        },
        Request::Cancel { job } => match state.cancel(job) {
            Ok(()) => Response::Ack,
            Err(e) => Response::Error(e),
        },
        Request::Stats => Response::Stats(state.stats(slot)),
        Request::SetCapacity { capacity } => {
            // Validated identically on every shard *before* any state
            // changes: a broadcast is not atomic, so a capacity that only
            // some shards could absorb must be refused by all of them.
            if capacity < shards as u32 {
                return Response::Error(WireError {
                    code: ErrorCode::BadField,
                    message: format!(
                        "capacity: {capacity} cannot be split across {shards} planner shards"
                    ),
                });
            }
            // `even_split` returns exactly `shards` slices; a missing
            // one would be an internal routing bug, not a client error.
            let Some(&slice) = even_split(capacity, shards).get(shard) else {
                return Response::error(ErrorCode::Internal, "shard index out of range");
            };
            match state.set_capacity(slice) {
                // Each shard reports its slice; the broadcast merge sums
                // them back to the cluster-wide total.
                Ok(()) => Response::CapacitySet { capacity: slice },
                Err(e) => Response::Error(e),
            }
        }
        // Submit and Shutdown are routed before this function.
        Request::Submit(_) | Request::Shutdown { .. } => {
            Response::error(ErrorCode::Internal, "request routed to the wrong handler")
        }
    }
}

// ----------------------------------------------------------------------
// Routing: a submission's shard is a pure hash of its label, and the
// wire-id codec `wire = local * shards + shard` (identity with one shard)
// makes every wire id name its owner without a shared table.
// ----------------------------------------------------------------------

/// Deterministic shard assignment: FNV-1a over the label bytes, reduced
/// modulo the shard count. Pure — the same label always lands on the same
/// shard, across processes and runs — so same-label jobs share a planner.
#[must_use]
pub fn shard_of_label(label: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h.checked_rem(shards as u64).map_or(0, |r| r as usize)
}

/// An even split of `total` containers into `shards` slices: the first
/// `total % shards` slices get one extra container. Requires
/// `total >= shards` so every slice stays positive.
#[must_use]
pub fn even_split(total: u32, shards: usize) -> Vec<u32> {
    let n = shards as u32;
    let base = total.checked_div(n).unwrap_or(0);
    let extra = total.checked_rem(n).unwrap_or(0);
    (0..n).map(|i| base.saturating_add(u32::from(i < extra))).collect()
}

fn wire_shard(job: u64, shards: usize) -> usize {
    (job % shards as u64) as usize
}

fn wire_to_local(job: u64, shards: usize) -> u64 {
    job / shards as u64
}

fn local_to_wire(job: u64, shard: usize, shards: usize) -> u64 {
    job * shards as u64 + shard as u64
}

/// Rewrites the shard-local job ids of a planner reply to wire ids.
#[deny(clippy::wildcard_enum_match_arm)]
pub(crate) fn encode_response(mut resp: Response, shard: usize, shards: usize) -> Response {
    match &mut resp {
        Response::Submitted { job, .. } => {
            *job = job.map(|j| local_to_wire(j, shard, shards));
        }
        Response::PlanTable { rows, .. } => {
            for row in rows {
                row.job = local_to_wire(row.job, shard, shards);
            }
        }
        Response::Prediction { job, .. } => *job = local_to_wire(*job, shard, shards),
        // No job ids to rewrite; enumerated so a new carrying variant
        // fails to compile here instead of silently passing through.
        Response::Ack
        | Response::Stats(_)
        | Response::CapacitySet { .. }
        | Response::ShuttingDown { .. }
        | Response::Error(_) => {}
    }
    resp
}

/// Where one decoded request goes, with wire job ids already rewritten to
/// shard-local ids.
pub(crate) enum Routed {
    /// An epoch-batched submission for one shard.
    Submit {
        /// Label-hash shard that owns the submission.
        shard: usize,
        /// The submission itself.
        sub: JobSubmission,
    },
    /// An immediately-answered request for one shard.
    Single {
        /// The wire id's owner shard.
        shard: usize,
        /// The request, with job ids localized.
        req: Request,
    },
    /// A cluster-wide request: ask every shard, merge in shard order.
    Broadcast {
        /// The request, forwarded verbatim to each shard.
        req: Request,
    },
}

/// Routes one decoded request: picks the owning shard(s) and localizes
/// wire job ids.
#[deny(clippy::wildcard_enum_match_arm)]
pub(crate) fn route(req: Request, shards: usize) -> Routed {
    match req {
        Request::Submit(sub) => {
            Routed::Submit { shard: shard_of_label(&sub.label, shards), sub }
        }
        Request::ReportSample { job, runtime } => Routed::Single {
            shard: wire_shard(job, shards),
            req: Request::ReportSample { job: wire_to_local(job, shards), runtime },
        },
        Request::QueryPlan { job: Some(job) } => Routed::Single {
            shard: wire_shard(job, shards),
            req: Request::QueryPlan { job: Some(wire_to_local(job, shards)) },
        },
        Request::Predict { job } => Routed::Single {
            shard: wire_shard(job, shards),
            req: Request::Predict { job: wire_to_local(job, shards) },
        },
        Request::Cancel { job } => Routed::Single {
            shard: wire_shard(job, shards),
            req: Request::Cancel { job: wire_to_local(job, shards) },
        },
        Request::QueryPlan { job: None }
        | Request::Stats
        | Request::SetCapacity { .. }
        | Request::Shutdown { .. } => Routed::Broadcast { req },
    }
}

/// Folds one shard's reply into the running broadcast merge: plan tables
/// concatenate (ids already translated per shard), stats sum their
/// counters, shutdown acknowledgments AND their snapshot flags. The first
/// error reply wins — callers must fold in shard order so "first" is
/// deterministic.
pub(crate) fn merge_pair(merged: Option<Response>, resp: Response) -> Response {
    match (merged, resp) {
        (None, r) => r,
        (Some(e @ Response::Error(_)), _) => e,
        (Some(_), e @ Response::Error(_)) => e,
        (
            Some(Response::PlanTable { now_slot, epoch, mut rows }),
            Response::PlanTable { now_slot: ns, epoch: ep, rows: more },
        ) => {
            rows.extend(more);
            Response::PlanTable {
                now_slot: now_slot.max(ns),
                epoch: epoch + ep,
                rows,
            }
        }
        (Some(Response::Stats(mut a)), Response::Stats(b)) => {
            a.active_jobs += b.active_jobs;
            a.deferred_jobs += b.deferred_jobs;
            a.epochs += b.epochs;
            a.admitted += b.admitted;
            a.deferred += b.deferred;
            a.rejected += b.rejected;
            a.cancelled += b.cancelled;
            a.completed += b.completed;
            a.samples += b.samples;
            a.cache_hits += b.cache_hits;
            a.cache_misses += b.cache_misses;
            a.now_slot = a.now_slot.max(b.now_slot);
            Response::Stats(a)
        }
        // Each shard resized its slice; the cluster-wide total is the sum.
        (Some(Response::CapacitySet { capacity }), Response::CapacitySet { capacity: c }) => {
            Response::CapacitySet { capacity: capacity + c }
        }
        (
            Some(Response::ShuttingDown { snapshot_written }),
            Response::ShuttingDown { snapshot_written: w },
        ) => Response::ShuttingDown { snapshot_written: snapshot_written && w },
        // Mixed reply kinds (a shard racing shutdown): keep the first.
        (Some(first), _) => first,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::StatsReport;
    use rush_utility::TimeUtility;

    fn config(epoch_max_batch: usize, epoch_ms: u64) -> ServeConfig {
        ServeConfig {
            capacity: 64,
            epoch_max_batch,
            epoch_ms,
            ms_per_slot: 3_600_000,
            ..ServeConfig::default()
        }
    }

    /// One planner's inbox, filled on the test thread before
    /// [`planner_loop`] runs there, so what the planner finds queued does
    /// not depend on thread timing.
    struct Inbox {
        tx: mpsc::Sender<PlannerMsg>,
        rx: Receiver<PlannerMsg>,
        queue: CompletionQueue,
        waker: Arc<rush_reactor::Waker>,
        next_seq: u64,
    }

    impl Inbox {
        fn new() -> Inbox {
            let (tx, rx) = mpsc::channel();
            let waker = Arc::new(rush_reactor::Waker::new().expect("eventfd"));
            Inbox { tx, rx, queue: CompletionQueue::default(), waker, next_seq: 0 }
        }

        fn sink(&mut self) -> ReplySink {
            self.next_seq += 1;
            ReplySink {
                queue: self.queue.clone(),
                waker: Arc::clone(&self.waker),
                conn: 0,
                seq: self.next_seq,
                shard: 0,
            }
        }

        fn submit(&mut self, label: &str, enqueued: Instant) {
            let sub = JobSubmission {
                label: label.into(),
                tasks: 4,
                runtime_hint: Some(20.0),
                utility: TimeUtility::constant(1.0).expect("valid"),
                budget: None,
                priority: 1,
            };
            let reply = self.sink();
            self.tx.send(PlannerMsg::Submit { sub, enqueued, reply }).expect("queued");
        }

        fn immediate(&mut self, req: Request) {
            let reply = self.sink();
            self.tx.send(PlannerMsg::Immediate { req, reply }).expect("queued");
        }

        /// Queues `shutdown`, runs the planner over the whole inbox and
        /// returns every reply in the order the planner sent it.
        fn run(mut self, config: ServeConfig) -> Vec<Response> {
            self.immediate(Request::Shutdown { snapshot: false });
            self.planner(config);
            self.queue.take_all().into_iter().map(|c| c.resp).collect()
        }

        fn planner(&self, config: ServeConfig) {
            let state = ServeState::new(config.rush, config.capacity).expect("state");
            planner_loop(config, 0, state, 0, &self.rx, &AtomicBool::new(false)).expect("planner");
        }
    }

    #[test]
    fn shard_of_label_is_deterministic_and_in_range() {
        for shards in 1..=8usize {
            for label in ["etl", "train-7", "", "a very long label with spaces"] {
                let s = shard_of_label(label, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of_label(label, shards), "pure function");
            }
        }
        assert_eq!(shard_of_label("anything", 1), 0);
    }

    /// `(epoch, waited_us)` of every verdict among `replies`, in order.
    fn verdicts(replies: &[Response]) -> Vec<(u64, u64)> {
        replies
            .iter()
            .filter_map(|r| match r {
                Response::Submitted { epoch, waited_us, .. } => Some((*epoch, *waited_us)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn queued_submissions_share_one_epoch() {
        let mut inbox = Inbox::new();
        for i in 0..5 {
            inbox.submit(&format!("q{i}"), Instant::now());
        }
        let verdicts = verdicts(&inbox.run(config(8, 60_000)));
        assert_eq!(verdicts.len(), 5);
        assert!(verdicts.iter().all(|&(epoch, _)| epoch == 1), "{verdicts:?}");
    }

    #[test]
    fn a_backlog_is_cut_at_the_batch_size() {
        let batch = 3;
        let mut inbox = Inbox::new();
        for i in 0..2 * batch + 1 {
            inbox.submit(&format!("q{i}"), Instant::now());
        }
        let epochs: Vec<u64> =
            verdicts(&inbox.run(config(batch, 60_000))).iter().map(|&(e, _)| e).collect();
        assert_eq!(epochs, [1, 1, 1, 2, 2, 2, 3]);
    }

    /// Nothing but an idle close can answer the submission before the
    /// shutdown: `shutdown` is sent only once the verdict is out (or after
    /// ten seconds, which the wait assertion then rejects).
    #[test]
    fn a_lone_submission_does_not_wait_for_the_timer() {
        let epoch_ms = 60_000;
        let mut inbox = Inbox::new();
        inbox.submit("lone", Instant::now());
        let shutdown = inbox.sink();
        let (tx, queue, waker) = (inbox.tx.clone(), inbox.queue.clone(), Arc::clone(&inbox.waker));
        let closer = thread::spawn(move || {
            let mut poller = rush_reactor::Poller::with_capacity(1).expect("epoll");
            poller.register(waker.fd(), 0, rush_reactor::Interest::READ).expect("register");
            let give_up = Instant::now() + Duration::from_secs(10);
            let mut before_shutdown = Vec::new();
            while before_shutdown.is_empty() && Instant::now() < give_up {
                poller.wait(Some(give_up.saturating_duration_since(Instant::now()))).expect("wait");
                waker.drain();
                before_shutdown.extend(queue.take_all().into_iter().map(|c| c.resp));
            }
            tx.send(PlannerMsg::Immediate {
                req: Request::Shutdown { snapshot: false },
                reply: shutdown,
            })
            .expect("queued");
            before_shutdown
        });
        inbox.planner(config(1000, epoch_ms));
        let before_shutdown = closer.join().expect("closer");
        let verdicts = verdicts(&before_shutdown);
        assert_eq!(verdicts.len(), 1, "answered before shutdown: {before_shutdown:?}");
        let (epoch, waited_us) = verdicts[0];
        assert_eq!(epoch, 1);
        assert!(waited_us < 1_000_000, "waited {waited_us} us of a {epoch_ms} ms window");
    }

    /// A submission whose window has run out is closed by the timer on its
    /// own turn, ahead of the immediate requests queued behind it — a
    /// channel that never drains does not starve it until `shutdown`.
    #[test]
    fn the_timer_closes_a_batch_behind_a_stream_of_immediates() {
        let epoch_ms = 5;
        let mut inbox = Inbox::new();
        let due = Instant::now().checked_sub(Duration::from_millis(epoch_ms)).expect("clock");
        inbox.submit("due", due);
        for _ in 0..64 {
            inbox.immediate(Request::Stats);
        }
        let replies = inbox.run(config(1000, epoch_ms));
        assert!(
            matches!(replies.first(), Some(Response::Submitted { epoch: 1, waited_us, .. })
                if *waited_us >= epoch_ms * 1000),
            "the verdict must come first: {:?}",
            replies.first()
        );
        let stats: Vec<&StatsReport> = replies
            .iter()
            .filter_map(|r| match r {
                Response::Stats(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(stats.len(), 64);
        assert!(stats.iter().all(|s| s.epochs == 1));
    }
}
