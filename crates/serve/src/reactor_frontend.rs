//! The nonblocking epoll frontend for `rushd` — the only frontend.
//!
//! [`ServeConfig::reactors`](crate::ServeConfig::reactors) event-loop
//! threads share the listening socket (each holds a `try_clone`d handle
//! registered level-triggered in its own [`rush_reactor::Poller`]) and own
//! the connections they accept: a connection's reads, parsing, planner
//! dispatch and writes all happen on its accepting reactor thread, so
//! per-connection state needs no synchronization.
//!
//! **Request flow.** Each connection sniffs its codec from the first byte
//! (`R` opens the binary `RUSH1` handshake, anything else is newline
//! JSON), then runs a parse → route → complete state machine. Requests
//! get per-connection sequence numbers; responses are emitted strictly in
//! sequence order, so pipelined clients observe request order. Planner
//! replies return through a completion queue (one per reactor) drained
//! after an eventfd wake — the planner thread never blocks on a slow
//! connection.
//!
//! **Broadcasts.** Cluster-wide requests fan out to every planner shard;
//! the parts accumulate in a per-request slot and are merged in shard
//! order with `server::merge_pair`, so "first error wins" is deterministic.
//!
//! **Backpressure.** Three bounds protect the daemon from slow or
//! hostile peers: a per-connection cap on in-flight requests (reads pause
//! until replies drain), a hard byte cap on the pending write buffer
//! (overflow evicts), and a slow-reader timer (a write buffer that stays
//! non-empty for `slow_reader_ms` evicts).
//!
//! **No clock.** Epoch deadlines belong to the planner threads (see
//! [`crate::server`]); the timer wheel here serves slow-reader eviction
//! only.
//!
//! Off Linux there is no epoll: `spawn` returns the
//! [`std::io::ErrorKind::Unsupported`] error `rush_reactor` reports.

use crate::binary::{self, Scan};
use crate::protocol::{ErrorCode, Request, Response, WireError};
use crate::server::{
    encode_response, merge_pair, route, Completion, CompletionQueue, PlannerMsg, ReplySink, Routed,
    ServeConfig,
};
use crate::ServeError;
use rush_reactor::{Event, Interest, Poller, ReadBuf, ReadOutcome, TimerId, TimerWheel, Waker};
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Poller token of the shared listener.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the reactor's eventfd waker.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN: u64 = 2;

/// Cap on fill/parse rounds per readable event, so one firehose
/// connection cannot monopolize the loop (level-triggered epoll
/// re-reports whatever is left).
const READ_ROUNDS: usize = 4;

/// What [`spawn`] hands back: the reactor threads' join handles plus one
/// waker per reactor, so [`crate::ServerHandle::join`] can interrupt
/// `epoll_wait` at shutdown.
pub(crate) type ReactorHandles = (Vec<thread::JoinHandle<()>>, Vec<Arc<Waker>>);

/// Spawns the reactor threads.
pub(crate) fn spawn(
    listener: TcpListener,
    txs: Vec<Sender<PlannerMsg>>,
    config: &ServeConfig,
    stop: Arc<AtomicBool>,
) -> Result<ReactorHandles, ServeError> {
    let txs = Arc::new(txs);
    let mut handles = Vec::with_capacity(config.reactors);
    let mut wakers = Vec::with_capacity(config.reactors);
    for i in 0..config.reactors {
        let listener = listener.try_clone()?;
        let waker = Arc::new(Waker::new()?);
        let mut reactor = Reactor::new(
            listener,
            Arc::clone(&txs),
            config.clone(),
            Arc::clone(&waker),
            Arc::clone(&stop),
        )?;
        wakers.push(waker);
        let handle = thread::Builder::new()
            .name(format!("rush-reactor-{i}"))
            .spawn(move || reactor.run())
            .map_err(ServeError::Io)?;
        handles.push(handle);
    }
    Ok((handles, wakers))
}

/// Codec state of one connection.
enum Codec {
    /// Nothing read yet; the first byte picks the codec.
    Sniff,
    /// Saw the magic's first byte; collecting the 6-byte client hello.
    Hello,
    /// Newline-delimited JSON frames.
    Json,
    /// Length-prefixed binary frames (handshake done).
    Binary,
}

/// A broadcast request waiting for every shard's part.
struct BroadcastSlot {
    parts: Vec<Option<Response>>,
    remaining: usize,
}

/// What one parser step produced.
enum Step {
    /// Need more bytes.
    Wait,
    /// Made progress (state change or skipped frame); parse again.
    Again,
    /// One complete frame, decoded or not (decode errors become
    /// structured error responses; the connection survives).
    Request(Result<Request, WireError>),
    /// Unrecoverable framing error: report it, then close.
    FatalFrame(WireError),
    /// The connection is beyond saving (corrupt handshake, oversized
    /// unterminated line).
    EvictNow,
}

/// Per-connection state. Owned by exactly one reactor thread.
struct Conn {
    stream: TcpStream,
    codec: Codec,
    rbuf: ReadBuf,
    wbuf: rush_reactor::WriteBuf,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence number to serialize — responses are emitted in
    /// request order regardless of completion order.
    next_write_seq: u64,
    /// Completed responses waiting for their turn in the sequence.
    ready: BTreeMap<u64, Response>,
    /// Broadcast accumulators keyed by sequence number.
    broadcasts: BTreeMap<u64, BroadcastSlot>,
    /// Requests dispatched (or locally failed) whose responses have
    /// not yet been serialized.
    inflight: usize,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Flush the write buffer, then close.
    closing: bool,
    /// Peer sent EOF; answer what is pending, then close.
    read_closed: bool,
    /// When the write buffer last transitioned empty → non-empty.
    write_since: Option<Instant>,
    /// Pending slow-reader eviction timer.
    slow_timer: Option<TimerId>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            codec: Codec::Sniff,
            rbuf: ReadBuf::new(),
            wbuf: rush_reactor::WriteBuf::new(),
            next_seq: 0,
            next_write_seq: 0,
            ready: BTreeMap::new(),
            broadcasts: BTreeMap::new(),
            inflight: 0,
            interest: Interest::READ,
            closing: false,
            read_closed: false,
            write_since: None,
            slow_timer: None,
        }
    }

    /// Allocates the next request sequence number and counts it
    /// in-flight.
    fn begin_request(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight += 1;
        seq
    }

    /// Runs one parser step against the read buffer.
    fn step(&mut self) -> Step {
        match self.codec {
            Codec::Sniff => match self.rbuf.data().first() {
                None => Step::Wait,
                // bound: MAGIC is a non-empty const (b"RUSH1")
                Some(&b) if b == binary::MAGIC[0] => {
                    self.codec = Codec::Hello;
                    Step::Again
                }
                Some(_) => {
                    self.codec = Codec::Json;
                    Step::Again
                }
            },
            Codec::Hello => match binary::scan_hello(self.rbuf.data()) {
                Ok(Scan::Incomplete) => Step::Wait,
                Ok(Scan::Done { item, consumed }) => {
                    self.rbuf.consume(consumed);
                    let agreed = binary::negotiate(item);
                    self.wbuf.push(&binary::hello(agreed));
                    self.codec = Codec::Binary;
                    if agreed == 0 {
                        // No common protocol version: flush the zero
                        // hello, then close.
                        self.closing = true;
                        Step::Wait
                    } else {
                        Step::Again
                    }
                }
                Err(_) => Step::EvictNow,
            },
            Codec::Json => {
                let data = self.rbuf.data();
                match data.iter().position(|&b| b == b'\n') {
                    None if data.len() > binary::MAX_FRAME_LEN => Step::EvictNow,
                    None => Step::Wait,
                    Some(pos) => {
                        let line = String::from_utf8_lossy(data.get(..pos).unwrap_or_default())
                            .trim()
                            .to_string();
                        self.rbuf.consume(pos + 1);
                        if line.is_empty() {
                            Step::Again
                        } else {
                            Step::Request(Request::decode(&line))
                        }
                    }
                }
            }
            Codec::Binary => match binary::scan_frame(self.rbuf.data()) {
                Ok(Scan::Incomplete) => Step::Wait,
                Ok(Scan::Done { item, consumed }) => {
                    let decoded = binary::decode_request(self.rbuf.data().get(item).unwrap_or(&[]));
                    self.rbuf.consume(consumed);
                    Step::Request(decoded)
                }
                Err(e) => Step::FatalFrame(e),
            },
        }
    }
}

/// One event-loop thread.
pub(crate) struct Reactor {
    poller: Poller,
    listener: TcpListener,
    txs: Arc<Vec<Sender<PlannerMsg>>>,
    config: ServeConfig,
    waker: Arc<Waker>,
    completions: CompletionQueue,
    stop: Arc<AtomicBool>,
    timers: TimerWheel,
    conns: BTreeMap<u64, Conn>,
    next_token: u64,
}

impl Reactor {
    fn new(
        listener: TcpListener,
        txs: Arc<Vec<Sender<PlannerMsg>>>,
        config: ServeConfig,
        waker: Arc<Waker>,
        stop: Arc<AtomicBool>,
    ) -> Result<Reactor, ServeError> {
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(waker.fd(), TOKEN_WAKER, Interest::READ)?;
        Ok(Reactor {
            poller,
            listener,
            txs,
            config,
            waker,
            completions: CompletionQueue::default(),
            stop,
            timers: TimerWheel::new(),
            conns: BTreeMap::new(),
            next_token: FIRST_CONN,
        })
    }

    /// The event loop: wait, dispatch, drain completions, fire timers.
    pub(crate) fn run(&mut self) {
        let idle = Duration::from_millis(200);
        // Once the stop flag is up, the loop keeps running for a short
        // grace window so in-flight requests (e.g. the other shards'
        // parts of the shutdown broadcast itself) can complete and
        // their responses reach the wire before the final flush.
        let mut drain_until: Option<Instant> = None;
        loop {
            if self.stop.load(Ordering::SeqCst) {
                let now = Instant::now();
                let deadline =
                    *drain_until.get_or_insert(now + Duration::from_millis(500));
                let inflight =
                    self.conns.values().any(|c| c.inflight > 0 || !c.wbuf.is_empty());
                if !inflight || now >= deadline {
                    self.drain_completions();
                    self.final_flush();
                    return;
                }
            }
            let now = Instant::now();
            let mut timeout = self
                .timers
                .next_deadline()
                .map_or(idle, |d| d.saturating_duration_since(now).min(idle));
            if drain_until.is_some() {
                timeout = timeout.min(Duration::from_millis(10));
            }
            let events: Vec<Event> = match self.poller.wait(Some(timeout)) {
                Ok(evs) => evs.to_vec(),
                // The poller retries EINTR itself; any surviving
                // error means the epoll fd is gone. Bail out rather
                // than spin.
                Err(_) => return,
            };
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_all(),
                    TOKEN_WAKER => {
                        self.waker.drain();
                    }
                    token => self.handle_conn_event(token, ev),
                }
            }
            self.drain_completions();
            self.fire_timers();
        }
    }

    /// Accepts until the listener would block. Level-triggered: if
    /// another reactor won a pending connection, accept just returns
    /// `WouldBlock`.
    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Transient accept errors (peer reset mid-handshake)
                // must not kill the reactor.
                Err(_) => break,
            }
        }
    }

    fn handle_conn_event(&mut self, token: u64, ev: &Event) {
        if !self.conns.contains_key(&token) {
            return;
        }
        if ev.closed {
            self.evict(token);
            return;
        }
        if ev.readable {
            self.conn_readable(token);
        }
        if ev.writable {
            self.pump_writes(token);
        }
    }

    /// Reads and parses as much as backpressure allows.
    fn conn_readable(&mut self, token: u64) {
        for _ in 0..READ_ROUNDS {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.closing || conn.inflight >= self.config.max_inflight {
                break;
            }
            match conn.rbuf.fill(&mut conn.stream) {
                Ok(ReadOutcome::WouldBlock) => {
                    if !self.process_input(token) {
                        return;
                    }
                    break;
                }
                Ok(ReadOutcome::Closed) => {
                    if !self.process_input(token) {
                        return;
                    }
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.read_closed = true;
                    }
                    break;
                }
                Ok(ReadOutcome::Read(_)) => {
                    if !self.process_input(token) {
                        return;
                    }
                }
                Err(_) => {
                    self.evict(token);
                    return;
                }
            }
        }
        self.pump_writes(token);
    }

    /// Parses buffered bytes into requests until the buffer runs dry
    /// or the in-flight cap pauses the connection. Returns `false`
    /// when the connection was evicted.
    fn process_input(&mut self, token: u64) -> bool {
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(&token) else { return false };
                if conn.closing || conn.inflight >= self.config.max_inflight {
                    return true;
                }
                conn.step()
            };
            match step {
                Step::Wait => return true,
                Step::Again => {}
                Step::Request(decoded) => self.dispatch_request(token, decoded),
                Step::FatalFrame(e) => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        let seq = conn.begin_request();
                        conn.ready.insert(seq, Response::Error(e));
                        conn.closing = true;
                    }
                    self.emit_ready(token);
                    return self.conns.contains_key(&token);
                }
                Step::EvictNow => {
                    self.evict(token);
                    return false;
                }
            }
        }
    }

    /// A completion sink pointing back at this reactor.
    fn sink(&self, conn: u64, seq: u64, shard: usize) -> ReplySink {
        ReplySink {
            queue: self.completions.clone(),
            waker: Arc::clone(&self.waker),
            conn,
            seq,
            shard,
        }
    }

    /// Assigns a sequence number and routes one request to its
    /// planner shard(s), or completes it locally on a decode error.
    fn dispatch_request(&mut self, token: u64, decoded: Result<Request, WireError>) {
        let shards = self.txs.len();
        let seq = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            conn.begin_request()
        };
        let req = match decoded {
            Err(e) => {
                self.complete(token, seq, Response::Error(e));
                return;
            }
            Ok(req) => req,
        };
        match route(req, shards) {
            Routed::Submit { shard, sub } => {
                let msg = PlannerMsg::Submit {
                    sub,
                    enqueued: Instant::now(),
                    reply: self.sink(token, seq, shard),
                };
                match self.txs.get(shard) {
                    Some(tx) if tx.send(msg).is_ok() => {}
                    _ => self.complete(token, seq, shutting_down()),
                }
            }
            Routed::Single { shard, req } => {
                let msg = PlannerMsg::Immediate { req, reply: self.sink(token, seq, shard) };
                match self.txs.get(shard) {
                    Some(tx) if tx.send(msg).is_ok() => {}
                    _ => self.complete(token, seq, shutting_down()),
                }
            }
            Routed::Broadcast { req } => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.broadcasts.insert(
                        seq,
                        BroadcastSlot {
                            parts: (0..shards).map(|_| None).collect(),
                            remaining: shards,
                        },
                    );
                }
                for shard in 0..shards {
                    let msg = PlannerMsg::Immediate {
                        req: req.clone(),
                        reply: self.sink(token, seq, shard),
                    };
                    match self.txs.get(shard) {
                        Some(tx) if tx.send(msg).is_ok() => {}
                        _ => self.deliver(Completion {
                            conn: token,
                            seq,
                            shard,
                            resp: shutting_down(),
                        }),
                    }
                }
            }
        }
    }

    /// Completes a request locally (decode error, dead planner).
    fn complete(&mut self, token: u64, seq: u64, resp: Response) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.ready.insert(seq, resp);
        }
        self.emit_ready(token);
    }

    /// Moves every completion out of the shared queue and into its
    /// connection.
    fn drain_completions(&mut self) {
        for c in self.completions.take_all() {
            self.deliver(c);
        }
    }

    /// Lands one planner reply: translates wire ids, folds broadcast
    /// parts (merging in shard order once all arrive), then emits any
    /// responses that are next in sequence.
    fn deliver(&mut self, c: Completion) {
        let shards = self.txs.len();
        let resp = encode_response(c.resp, c.shard, shards);
        let token = c.conn;
        {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.broadcasts.contains_key(&c.seq) {
                let done = match conn.broadcasts.get_mut(&c.seq) {
                    Some(slot) => {
                        if let Some(part) = slot.parts.get_mut(c.shard) {
                            if part.is_none() {
                                *part = Some(resp);
                                slot.remaining = slot.remaining.saturating_sub(1);
                            }
                        }
                        slot.remaining == 0
                    }
                    None => false,
                };
                if !done {
                    return;
                }
                if let Some(slot) = conn.broadcasts.remove(&c.seq) {
                    let mut merged = None;
                    for part in slot.parts.into_iter().flatten() {
                        merged = Some(merge_pair(merged, part));
                    }
                    conn.ready.insert(
                        c.seq,
                        merged.unwrap_or_else(|| {
                            Response::error(ErrorCode::Internal, "no planner shards")
                        }),
                    );
                }
            } else {
                conn.ready.insert(c.seq, resp);
            }
        }
        self.emit_ready(token);
        // A drained reply may unpause parsing of already-buffered
        // requests.
        if self.process_input(token) {
            self.update_interest(token);
        }
    }

    /// Serializes every response that is next in sequence, enforces
    /// the write-buffer cap, then pumps the socket.
    fn emit_ready(&mut self, token: u64) {
        let cap = self.config.max_write_buffer.max(1);
        let overflow = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            while let Some(resp) = conn.ready.remove(&conn.next_write_seq) {
                if matches!(resp, Response::ShuttingDown { .. }) {
                    conn.closing = true;
                }
                match conn.codec {
                    Codec::Binary => conn.wbuf.push(&binary::frame_response(&resp)),
                    _ => conn.wbuf.push((resp.encode() + "\n").as_bytes()),
                }
                conn.next_write_seq += 1;
                conn.inflight = conn.inflight.saturating_sub(1);
            }
            conn.wbuf.len() > cap
        };
        if overflow {
            // The peer let responses pile past the hard cap: evict
            // rather than buffer without bound.
            self.evict(token);
            return;
        }
        self.pump_writes(token);
    }

    /// Flushes the write buffer as far as the socket allows, manages
    /// the slow-reader timer, closes finished connections, and keeps
    /// poller interest in sync.
    fn pump_writes(&mut self, token: u64) {
        let slow = Duration::from_millis(self.config.slow_reader_ms.max(1));
        let mut evict = false;
        let mut schedule_at: Option<Instant> = None;
        let mut cancel: Option<TimerId> = None;
        {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if !conn.wbuf.is_empty() && conn.wbuf.flush_to(&mut conn.stream).is_err() {
                evict = true;
            }
            if !evict {
                if conn.wbuf.is_empty() {
                    conn.write_since = None;
                    cancel = conn.slow_timer.take();
                    let drained = conn.inflight == 0
                        && conn.ready.is_empty()
                        && conn.broadcasts.is_empty();
                    if conn.closing || (conn.read_closed && drained) {
                        evict = true;
                    }
                } else if conn.write_since.is_none() {
                    let now = Instant::now();
                    conn.write_since = Some(now);
                    schedule_at = Some(now + slow);
                }
            }
        }
        if let Some(id) = cancel {
            self.timers.unschedule(id);
        }
        if evict {
            self.evict(token);
            return;
        }
        if let Some(at) = schedule_at {
            let id = self.timers.schedule(at, token);
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.slow_timer = Some(id);
            }
        }
        self.update_interest(token);
    }

    /// Reregisters the connection when its desired interest changed:
    /// reads pause at the in-flight cap, writes arm only while the
    /// buffer is non-empty.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let want = Interest {
            readable: !conn.closing
                && !conn.read_closed
                && conn.inflight < self.config.max_inflight,
            writable: !conn.wbuf.is_empty(),
        };
        if want != conn.interest
            && self.poller.reregister(conn.stream.as_raw_fd(), token, want).is_ok()
        {
            conn.interest = want;
        }
    }

    /// Drops one connection: poller deregistration, timer cleanup,
    /// socket close (on drop). Pending completions for it are
    /// discarded when they arrive.
    fn evict(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            if let Some(id) = conn.slow_timer {
                self.timers.unschedule(id);
            }
        }
    }

    /// Handles expired timers: slow-reader evictions (a timer's token is
    /// its connection's).
    fn fire_timers(&mut self) {
        let now = Instant::now();
        let slow = Duration::from_millis(self.config.slow_reader_ms.max(1));
        for tok in self.timers.expired(now) {
            let verdict = self.conns.get(&tok).map(|conn| {
                conn.write_since
                    .map(|since| now.saturating_duration_since(since) >= slow)
                    .unwrap_or(false)
            });
            match verdict {
                // Still stuck past the deadline: a slow reader.
                Some(true) => self.evict(tok),
                // Writes drained and refilled since; re-arm from the
                // new stall start.
                Some(false) => {
                    if let Some(conn) = self.conns.get_mut(&tok) {
                        conn.slow_timer =
                            conn.write_since.map(|since| self.timers.schedule(since + slow, tok));
                    }
                }
                None => {}
            }
        }
    }

    /// Best-effort blocking flush of every connection at shutdown, so
    /// the `shutdown` requester receives its acknowledgment even if
    /// the final nonblocking write was partial.
    fn final_flush(&mut self) {
        for conn in self.conns.values_mut() {
            if conn.wbuf.is_empty() {
                continue;
            }
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn.stream.set_write_timeout(Some(Duration::from_millis(250)));
            let _ = conn.wbuf.flush_to(&mut conn.stream);
        }
    }
}

/// The canned "planner channel is gone" reply.
fn shutting_down() -> Response {
    Response::error(ErrorCode::Shutdown, "daemon is shutting down")
}
