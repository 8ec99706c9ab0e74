//! The readiness-driven connection engine behind [`crate::TxcachedServer::bind`].
//!
//! The thread-per-connection model from the first networked PR spends one
//! OS thread (and its stack) per client; at the connection counts the paper
//! assumes for a shared cache tier that neither scales nor schedules well.
//! This module replaces it for TCP with the classic single-reactor /
//! worker-pool shape:
//!
//! * **One reactor thread** owns a level-triggered [`poll::Poller`] watching
//!   the (nonblocking) listener, every (nonblocking) client socket, and a
//!   wake pipe. It does all socket I/O: accepts, reads into per-connection
//!   receive buffers, carves complete frames out of them, and writes queued
//!   response frames back out.
//! * **A small worker pool** (sized to the machine, capped low — the cache
//!   node's shards, not the workers, are the concurrency) executes decoded
//!   requests via [`crate::server::apply_request`] and hands the encoded
//!   response frame back to the reactor over a completion channel, nudging
//!   it through the wake pipe. Responses therefore leave in *completion*
//!   order, not arrival order — legal since protocol v4's correlation ids.
//!
//! ## Ordering within a connection
//!
//! Every decoded request goes onto one job channel shared by all workers,
//! so two requests of one connection may run at once: they may *apply* to
//! the node out of arrival order, not only complete out of order. A
//! pipelined `Put` followed by an `InvalidationBatch` can therefore reach
//! the node batch first. That is safe today for two reasons only. The
//! client never has two `InvalidationBatch`es in flight on one connection,
//! because `RemoteCluster::broadcast` awaits each one. And a `Put` that
//! lands after an invalidation it should have met is caught by the node's
//! history scan (§4.2's insert race, counted as a late-insert truncation)
//! or, once that history is pruned, rejected by the history floor. ROADMAP.md
//! (open item 1) plans one contract instead: a connection's requests apply
//! in arrival order, and different connections run in parallel.
//!
//! ## Buffer reuse
//!
//! Each connection keeps one growable receive buffer that survives across
//! readiness events; frames are parsed out of it in place and only the
//! consumed prefix is dropped. Each complete frame becomes a single
//! refcounted [`bytes::Bytes`] allocation whose payload slices flow through
//! [`wire::Request::decode_shared`] into the cache without further copies.
//! Outbound frames accumulate in a per-connection transmit buffer drained
//! by writability events.
//!
//! ## Backpressure
//!
//! Two watermarks bound a misbehaving peer instead of letting it balloon
//! server memory: a connection whose transmit buffer passes
//! [`TX_HIGH_WATER`] or with more than [`MAX_CONN_IN_FLIGHT`] undispatched
//! requests stops being read (its `EPOLLIN` interest is dropped) until the
//! pressure drains. Accept-side, fd exhaustion (`EMFILE`/`ENFILE`) parks
//! the listener's interest for [`ACCEPT_BACKOFF`] instead of hot-looping
//! the accept syscall — existing connections keep being served, and
//! accepting resumes once descriptors free up.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use poll::{Events, Interest, Poller};
use wire::{Request, Transport, MAX_FRAME_BYTES, SEQ_BYTES};

use obs::Trace;

use crate::server::{error_frame, Shared};
use crate::telemetry;

/// Token of the listening socket in the poller.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token of the reactor's wake pipe.
const TOKEN_WAKE: u64 = u64::MAX - 1;
/// Transmit-buffer size past which a connection stops being read.
const TX_HIGH_WATER: usize = 1 << 20;
/// Transmit-buffer size below which reading resumes.
const TX_LOW_WATER: usize = 64 << 10;
/// Most requests one connection may have queued or executing before its
/// reads pause.
const MAX_CONN_IN_FLIGHT: usize = 1024;
/// How long to stop accepting after fd exhaustion.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);
/// Reactor-wide scratch size for draining readable sockets.
const READ_CHUNK: usize = 64 << 10;
/// Upper bound on reactor worker threads; the node's shards carry the
/// parallelism, the workers only need to keep them fed.
const MAX_WORKERS: usize = 4;

/// A decoded request traveling reactor → worker, with the arrival instant
/// captured at parse time (`None` when metrics are off) so queue wait shows
/// up in the span trail the worker resumes from it.
type Job = (u64, u64, Request, Option<std::time::Instant>);
/// An encoded response frame traveling worker → reactor.
type Done = (u64, Vec<u8>);

/// Join/wake handle for a running event loop, owned by the server.
pub(crate) struct EventLoopHandle {
    wake_tx: UnixStream,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl EventLoopHandle {
    /// Unblocks the reactor (which observes the server's shutdown flag and
    /// tears every connection down) and joins all threads. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        let _ = (&self.wake_tx).write_all(&[1]);
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Starts the reactor and worker threads for a bound listener.
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<Shared>,
) -> std::io::Result<EventLoopHandle> {
    listener.set_nonblocking(true)?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;

    let (job_tx, job_rx) = unbounded::<Job>();
    let (done_tx, done_rx) = unbounded::<Done>();

    let worker_count = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(MAX_WORKERS);
    let mut workers = Vec::with_capacity(worker_count);
    for i in 0..worker_count {
        let job_rx = job_rx.clone();
        let done_tx = done_tx.clone();
        let worker_shared = Arc::clone(&shared);
        let worker_wake = wake_tx.try_clone()?;
        workers.push(
            std::thread::Builder::new()
                .name(format!("txcached-worker-{i}"))
                .spawn(move || worker_loop(&job_rx, &done_tx, &worker_shared, &worker_wake))?,
        );
    }

    let reactor = std::thread::Builder::new()
        .name("txcached-reactor".to_string())
        .spawn(move || {
            let mut reactor = match Reactor::new(listener, wake_rx, shared, job_tx, done_rx) {
                Ok(reactor) => reactor,
                Err(_) => return,
            };
            reactor.run();
        })?;

    Ok(EventLoopHandle {
        wake_tx,
        reactor: Some(reactor),
        workers,
    })
}

fn worker_loop(job_rx: &Receiver<Job>, done_tx: &Sender<Done>, shared: &Shared, wake: &UnixStream) {
    let mut wake = wake;
    while let Ok((conn_id, seq, request, arrived)) = job_rx.recv() {
        if shared.obs.enabled {
            shared.obs.queue_depth.dec();
        }
        let trace = arrived.map(|t0| {
            let mut t = Trace::resume(seq, t0);
            t.span("queued");
            t
        });
        let response = telemetry::apply_timed(shared, request, trace);
        let frame = encode_response_frame(seq, &response);
        if done_tx.send((conn_id, frame)).is_err() {
            break;
        }
        // Nudge the reactor out of epoll_wait; an error means the reactor
        // is gone, which the next recv observes.
        let _ = wake.write_all(&[0]);
    }
}

/// Encodes a complete wire frame — length prefix, correlation id, body.
fn encode_response_frame(seq: u64, response: &wire::Response) -> Vec<u8> {
    let body = response.encode();
    let mut frame = Vec::with_capacity(4 + SEQ_BYTES + body.len());
    frame.extend_from_slice(&((SEQ_BYTES + body.len()) as u32).to_le_bytes());
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// One multiplexed client connection.
struct Conn {
    stream: TcpStream,
    /// Received-but-unparsed bytes; complete frames are carved off the
    /// front, the remainder waits for the next readable event.
    rx: Vec<u8>,
    /// Encoded-but-unsent response frames; `tx_pos` marks how much of the
    /// front has already been written.
    tx: Vec<u8>,
    tx_pos: usize,
    /// Requests dispatched to workers whose responses are not yet queued.
    in_flight: usize,
    /// The peer half-closed (EOF read); finish in-flight work, flush, then
    /// close.
    closing: bool,
    /// What the poller is currently asked to report, to skip redundant
    /// `epoll_ctl` calls.
    interest: Interest,
}

impl Conn {
    fn tx_backlog(&self) -> usize {
        self.tx.len() - self.tx_pos
    }

    /// The interest this connection's state wants from the poller.
    fn desired_interest(&self) -> Interest {
        let paused = self.tx_backlog() >= TX_HIGH_WATER || self.in_flight >= MAX_CONN_IN_FLIGHT;
        let read = !self.closing && (!paused || self.tx_backlog() < TX_LOW_WATER);
        match (read, self.tx_backlog() > 0) {
            (true, true) => Interest::BOTH,
            (true, false) => Interest::READ,
            (false, true) => Interest::WRITE,
            (false, false) => Interest::NONE,
        }
    }
}

struct Reactor {
    poller: Poller,
    events: Events,
    listener: TcpListener,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    job_tx: Sender<Job>,
    done_rx: Receiver<Done>,
    conns: HashMap<u64, Conn>,
    /// While set, the listener is out of the interest set (fd exhaustion);
    /// accepting resumes at the deadline.
    accept_paused_until: Option<Instant>,
    scratch: Vec<u8>,
}

impl Reactor {
    fn new(
        listener: TcpListener,
        wake_rx: UnixStream,
        shared: Arc<Shared>,
        job_tx: Sender<Job>,
        done_rx: Receiver<Done>,
    ) -> std::io::Result<Reactor> {
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        Ok(Reactor {
            poller,
            events: Events::with_capacity(256),
            listener,
            wake_rx,
            shared,
            job_tx,
            done_rx,
            conns: HashMap::new(),
            accept_paused_until: None,
            scratch: vec![0u8; READ_CHUNK],
        })
    }

    fn run(&mut self) {
        // The flag is checked before every wait, i.e. after each round's
        // events — wake byte included — are drained. Checking only after
        // `wait` returns loses a wake-up: shutdown can set the flag and
        // write its byte just after that check, `drain_wake` swallows the
        // byte, and the next `wait` (no timeout) never returns.
        while !self.shared.shutting_down.load(Ordering::SeqCst) {
            let timeout = self
                .accept_paused_until
                .map(|deadline| deadline.saturating_duration_since(Instant::now()));
            if self.poller.wait(&mut self.events, timeout).is_err() {
                break;
            }
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            if let Some(deadline) = self.accept_paused_until {
                if Instant::now() >= deadline {
                    self.accept_paused_until = None;
                    // Descriptors may have freed up; rejoin the interest
                    // set and drain the backlog.
                    if self
                        .poller
                        .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
                        .is_ok()
                    {
                        self.accept_ready();
                    }
                }
            }
            let ready: Vec<poll::Event> = self.events.iter().collect();
            for event in ready {
                match event.token {
                    TOKEN_WAKE => self.drain_wake(),
                    TOKEN_LISTENER => self.accept_ready(),
                    conn_id => self.conn_ready(conn_id, event),
                }
            }
            self.drain_completions();
        }
        self.teardown();
    }

    fn drain_wake(&mut self) {
        loop {
            match self.wake_rx.read(&mut self.scratch) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn accept_ready(&mut self) {
        if self.accept_paused_until.is_some() {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.shutting_down.load(Ordering::SeqCst) {
                        // Raced with shutdown (e.g. the listener closer's
                        // throwaway connect): drop without counting.
                        continue;
                    }
                    self.admit(stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_fd_exhaustion(&e) => {
                    // Out of descriptors: stop asking about the listener so
                    // the reactor doesn't spin on a backlog it cannot
                    // accept, and retry after a beat. Existing connections
                    // keep being served meanwhile.
                    let _ = self.poller.deregister(self.listener.as_raw_fd());
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    break;
                }
                // Transient per-connection accept failures (ECONNABORTED
                // and friends): just move on to the next pending one.
                Err(_) => {}
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let conn_id = self
            .shared
            .counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        if self
            .poller
            .register(stream.as_raw_fd(), conn_id, Interest::READ)
            .is_err()
        {
            self.shared
                .counters
                .connections_accepted
                .fetch_sub(1, Ordering::Relaxed);
            return;
        }
        if let Ok(closer) = stream.closer() {
            self.shared.open_conns.lock().insert(conn_id, closer);
        }
        self.conns.insert(
            conn_id,
            Conn {
                stream,
                rx: Vec::new(),
                tx: Vec::new(),
                tx_pos: 0,
                in_flight: 0,
                closing: false,
                interest: Interest::READ,
            },
        );
    }

    fn conn_ready(&mut self, conn_id: u64, event: poll::Event) {
        if !self.conns.contains_key(&conn_id) {
            return;
        }
        let mut dead = false;
        if event.is_readable() {
            dead = !self.read_and_dispatch(conn_id);
        }
        if !dead && event.is_writable() {
            dead = !self.flush(conn_id);
        }
        if dead {
            self.close_conn(conn_id);
        } else {
            self.settle(conn_id);
        }
    }

    /// Drains the socket into the receive buffer and dispatches every
    /// complete frame. Returns false if the connection must die now.
    fn read_and_dispatch(&mut self, conn_id: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return false;
        };
        loop {
            // Respect backpressure mid-drain too: a paused connection
            // leaves its bytes in the kernel buffer (level-triggering
            // re-reports them later).
            if conn.tx_backlog() >= TX_HIGH_WATER || conn.in_flight >= MAX_CONN_IN_FLIGHT {
                self.shared.obs.backpressure_pauses.bump();
                break;
            }
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    conn.rx.extend_from_slice(&self.scratch[..n]);
                    self.shared.counters.bytes_in.add(n as u64);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        self.parse_and_dispatch(conn_id)
    }

    /// Carves complete frames off the receive buffer, decoding and
    /// dispatching each. Returns false on a frame-level violation (the
    /// stream can no longer be trusted to be at a boundary).
    fn parse_and_dispatch(&mut self, conn_id: u64) -> bool {
        let mut consumed = 0;
        loop {
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                return false;
            };
            let avail = &conn.rx[consumed..];
            if avail.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
            if !(SEQ_BYTES..=MAX_FRAME_BYTES).contains(&len) {
                // Oversize or too short to carry a correlation id: the
                // framing itself is broken, close.
                conn.rx.drain(..consumed);
                return false;
            }
            if avail.len() < 4 + len {
                break;
            }
            // One allocation per frame; the decoder hands out refcounted
            // slices of it from here on.
            let body = Bytes::from(avail[4..4 + len].to_vec());
            consumed += 4 + len;
            let seq = u64::from_le_bytes(body[..SEQ_BYTES].try_into().expect("checked above"));
            let payload = body.slice(SEQ_BYTES..);
            match Request::decode_shared(&payload) {
                Ok(request) => {
                    conn.in_flight += 1;
                    self.shared.counters.requests.bump();
                    let arrived = self.shared.obs.trace_start();
                    if arrived.is_some() {
                        self.shared.obs.queue_depth.inc();
                    }
                    if self.job_tx.send((conn_id, seq, request, arrived)).is_err() {
                        return false;
                    }
                }
                Err(e) => {
                    // Body-level decode error: the stream is still at a
                    // frame boundary, answer and keep serving (same
                    // contract as the threaded path).
                    self.shared.counters.protocol_errors.bump();
                    let frame = encode_response_frame(seq, &error_frame(&e));
                    conn.tx.extend_from_slice(&frame);
                }
            }
        }
        if consumed > 0 {
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.rx.drain(..consumed);
            }
        }
        self.flush(conn_id)
    }

    /// Writes as much of the transmit buffer as the socket accepts.
    /// Returns false if the connection must die now.
    fn flush(&mut self, conn_id: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return false;
        };
        while conn.tx_pos < conn.tx.len() {
            match conn.stream.write(&conn.tx[conn.tx_pos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.tx_pos += n;
                    self.shared.counters.bytes_out.add(n as u64);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if conn.tx_pos == conn.tx.len() {
            conn.tx.clear();
            conn.tx_pos = 0;
        } else if conn.tx_pos > TX_LOW_WATER {
            // Compact occasionally so a slow reader doesn't pin the whole
            // history of its responses in memory.
            conn.tx.drain(..conn.tx_pos);
            conn.tx_pos = 0;
        }
        true
    }

    /// Reconciles a connection's poller interest with its state, closing it
    /// if it has fully drained after a half-close.
    fn settle(&mut self, conn_id: u64) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        if conn.closing && conn.in_flight == 0 && conn.tx_backlog() == 0 {
            self.close_conn(conn_id);
            return;
        }
        let desired = conn.desired_interest();
        if desired != conn.interest {
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, conn_id, desired).is_ok() {
                conn.interest = desired;
            }
        }
    }

    /// Queues completed responses onto their connections and flushes.
    fn drain_completions(&mut self) {
        let completions: Vec<Done> = self.done_rx.try_iter().collect();
        for (conn_id, frame) in completions {
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                // The connection died while the request executed; its
                // response has nowhere to go.
                continue;
            };
            conn.in_flight -= 1;
            conn.tx.extend_from_slice(&frame);
            if self.flush(conn_id) {
                self.settle(conn_id);
            } else {
                self.close_conn(conn_id);
            }
        }
    }

    fn close_conn(&mut self, conn_id: u64) {
        let Some(conn) = self.conns.remove(&conn_id) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.shared.open_conns.lock().remove(&conn_id);
        self.shared.counters.connections_closed.bump();
    }

    fn teardown(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for conn_id in ids {
            // Best-effort final flush so responses already computed reach
            // clients that are still reading.
            let _ = self.flush(conn_id);
            self.close_conn(conn_id);
        }
        // Dropping `job_tx` (with the reactor) disconnects the workers,
        // which exit on their next recv.
    }
}

fn is_fd_exhaustion(e: &std::io::Error) -> bool {
    // EMFILE (24): per-process limit. ENFILE (23): system-wide table full.
    matches!(e.raw_os_error(), Some(23) | Some(24))
}
