//! A deterministic in-process network with seeded fault injection.
//!
//! [`SimNet`] plays the role of the operating system's network stack for
//! chaos tests: servers bind [`SimListener`]s under string addresses,
//! clients connect through the net (it implements [`Connector`]), and every
//! connection is a pair of [`SimConn`] endpoints joined by two directed
//! in-memory pipes. Because the whole network lives in one process, the
//! full client/server/invalidation path — `RemoteCluster` on one side,
//! `TxcachedServer` on the other — runs under injected faults with no
//! sockets, no ports, and no timing flakiness.
//!
//! ## Fault model
//!
//! Faults are injected at *frame* granularity (the 4-byte length prefix is
//! parsed as bytes are written), mirroring what a lossy fabric or a
//! crashing peer can do to the protocol:
//!
//! * **drop** — the frame never arrives; the reader times out (the client
//!   treats the connection as failed, §4's degrade-to-miss model);
//! * **duplicate** — the frame arrives twice (protocol v2's sequence
//!   numbers make the second copy a detectable desync);
//! * **delay/reorder** — the frame is held back behind frames sent after
//!   it (released deterministically, never blocking forever);
//! * **reset** — both directions of the connection fail, as a crashed peer
//!   or an RST would;
//! * **partition** — scripted per-address blackholes ([`SimNet::partition`]
//!   / [`SimNet::heal`]), with [`SimNet::sever`] to kill live connections
//!   instantly; reconnects are refused until healed.
//!
//! ## Determinism
//!
//! Every random decision comes from a per-pipe splitmix64 generator seeded
//! from `(net seed, address, connection index, direction)`, and every
//! decision is made at *write* time — which frames exist on a pipe depends
//! only on what the two endpoints said, never on thread scheduling. Two
//! runs with the same seed and the same (deterministic, lock-step) workload
//! therefore produce the same fault schedule bit for bit;
//! [`SimNet::fault_digest`] hashes the schedule so tests can assert exactly
//! that. The chaos harness prints the seed and honours `CHAOS_SEED`, so any
//! failure replays from one environment variable.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::transport::{Closer, Connector, Listener, Transport};

/// Per-frame fault probabilities, in parts per 1024 (so fault decisions
/// stay in cheap, portable integer arithmetic). A frame suffers at most one
/// fault.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Chance a frame is silently dropped.
    pub drop_per_1024: u32,
    /// Chance a frame is delivered twice.
    pub dup_per_1024: u32,
    /// Chance a frame is held back behind 1–3 later frames.
    pub delay_per_1024: u32,
    /// Chance the connection is reset at this frame.
    pub reset_per_1024: u32,
    /// Upper bound on bytes handed out per `read` call. Values below a
    /// frame's size force the framing layer through its partial-read
    /// resumption path; 0 means unlimited.
    pub max_read_chunk: usize,
}

impl ChaosConfig {
    /// No faults at all: a perfectly healthy in-process network.
    #[must_use]
    pub fn healthy() -> ChaosConfig {
        ChaosConfig {
            drop_per_1024: 0,
            dup_per_1024: 0,
            delay_per_1024: 0,
            reset_per_1024: 0,
            max_read_chunk: 0,
        }
    }

    /// A moderate mix of every fault kind, suitable for bounded test
    /// sweeps: most frames arrive, but drops, duplicates, reorderings, and
    /// the occasional reset all fire on runs of a few hundred frames.
    #[must_use]
    pub fn stormy() -> ChaosConfig {
        ChaosConfig {
            drop_per_1024: 12,
            dup_per_1024: 16,
            delay_per_1024: 24,
            reset_per_1024: 6,
            max_read_chunk: 7,
        }
    }
}

/// What the chaos layer decided to do with one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Delivered normally.
    Deliver,
    /// Silently discarded.
    Drop,
    /// Delivered twice.
    Duplicate,
    /// Held back behind `n` later frames.
    Delay(u8),
    /// Connection reset at this frame.
    Reset,
    /// Discarded because the address was partitioned.
    PartitionDrop,
}

/// Aggregate counts of injected faults across the whole net.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Frames delivered unharmed.
    pub delivered: u64,
    /// Frames dropped by random chaos.
    pub dropped: u64,
    /// Frames duplicated.
    pub duplicated: u64,
    /// Frames delayed/reordered.
    pub delayed: u64,
    /// Connections reset by random chaos.
    pub resets: u64,
    /// Frames blackholed by a scripted partition.
    pub partition_drops: u64,
}

impl FaultCounts {
    /// Total number of injected faults (everything except clean delivery).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.resets + self.partition_drops
    }
}

/// Deterministic splitmix64; tiny, seedable, and dependency-free. Shared
/// with the chaos harness so every seeded decision in a run — transport
/// faults here, workload choices there — uses one generator whose
/// constants can never silently diverge.
#[derive(Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds a generator.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly-ish distributed value below `n` (`n = 0` yields 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The FNV-1a offset basis — the seed value for [`fnv1a`] digests.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `bytes` into an FNV-1a digest (used for the fault-schedule and
/// history digests the reproducibility tests compare).
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// One queued item on a directed pipe.
#[derive(Debug)]
enum Segment {
    /// Frame bytes (length prefix included).
    Data(Vec<u8>),
    /// The connection was reset at this point in the stream.
    Reset,
}

/// One direction of a connection: a queue of delivered segments plus the
/// chaos machinery that decides each written frame's fate.
#[derive(Debug)]
struct PipeState {
    /// Bytes written but not yet forming a complete frame.
    partial: Vec<u8>,
    /// Segments visible to the reader, oldest first. The front `Data`
    /// segment may be partially consumed (`cursor` bytes already read).
    visible: VecDeque<Segment>,
    cursor: usize,
    /// Delayed frames: `(release_after_sent, bytes)`; promoted once the
    /// pipe's send counter passes the release mark, or when the reader
    /// would otherwise block (so a delay can never deadlock the run).
    pending: VecDeque<(u64, Vec<u8>)>,
    /// Complete frames written so far (drives delay release).
    sent_frames: u64,
    /// Writer-side failure: writes fail once set.
    write_broken: bool,
    /// Set by [`Closer`]s and by dropping an endpoint: reads drain what is
    /// buffered and then report EOF; writes fail.
    closed: bool,
    rng: SplitMix64,
    /// Which address this pipe belongs to (so [`SimNet::sever`] can find
    /// it).
    addr_tag: u64,
    /// This pipe's fault decisions in order, folded into a digest.
    fault_digest: u64,
}

impl PipeState {
    fn new(seed: u64, addr_tag: u64) -> PipeState {
        PipeState {
            partial: Vec::new(),
            visible: VecDeque::new(),
            cursor: 0,
            pending: VecDeque::new(),
            sent_frames: 0,
            write_broken: false,
            closed: false,
            rng: SplitMix64::new(seed),
            addr_tag,
            fault_digest: FNV_OFFSET,
        }
    }

    fn record(&mut self, action: FaultAction, counts: &mut FaultCounts) {
        let code: u8 = match action {
            FaultAction::Deliver => 0,
            FaultAction::Drop => 1,
            FaultAction::Duplicate => 2,
            FaultAction::Delay(n) => 0x10 | n,
            FaultAction::Reset => 3,
            FaultAction::PartitionDrop => 4,
        };
        let frame = self.sent_frames;
        fnv1a(&mut self.fault_digest, &[code]);
        fnv1a(&mut self.fault_digest, &frame.to_le_bytes());
        match action {
            FaultAction::Deliver => counts.delivered += 1,
            FaultAction::Drop => counts.dropped += 1,
            FaultAction::Duplicate => counts.duplicated += 1,
            FaultAction::Delay(_) => counts.delayed += 1,
            FaultAction::Reset => counts.resets += 1,
            FaultAction::PartitionDrop => counts.partition_drops += 1,
        }
    }

    /// Moves pending frames whose release mark has passed (or, with
    /// `force`, the earliest one) into the visible queue.
    fn promote_pending(&mut self, force: bool) -> bool {
        let mut promoted = false;
        while let Some((release, _)) = self.pending.front() {
            if *release <= self.sent_frames || force {
                let (_, bytes) = self.pending.pop_front().expect("front exists");
                self.visible.push_back(Segment::Data(bytes));
                promoted = true;
                if force {
                    break;
                }
            } else {
                break;
            }
        }
        promoted
    }
}

/// A directed pipe: state plus the condvar readers park on.
#[derive(Debug)]
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

impl Pipe {
    fn new(seed: u64, addr_tag: u64) -> Pipe {
        Pipe {
            state: Mutex::new(PipeState::new(seed, addr_tag)),
            readable: Condvar::new(),
        }
    }

    fn close(&self) {
        self.state.lock().expect("pipe lock").closed = true;
        self.readable.notify_all();
    }

    fn inject_reset(&self) {
        let mut state = self.state.lock().expect("pipe lock");
        state.write_broken = true;
        state.visible.push_back(Segment::Reset);
        drop(state);
        self.readable.notify_all();
    }
}

/// Per-address shared state (partition flag, connection counter).
#[derive(Debug, Default)]
struct AddrState {
    partitioned: AtomicBool,
    accepted: AtomicU64,
}

#[derive(Debug)]
struct ListenerState {
    /// Server-side endpoints waiting to be accepted.
    backlog: Mutex<VecDeque<SimConn>>,
    arrived: Condvar,
    closed: AtomicBool,
    addr: Arc<AddrState>,
}

#[derive(Debug)]
struct NetInner {
    seed: u64,
    chaos: ChaosConfig,
    listeners: Mutex<HashMap<String, Arc<ListenerState>>>,
    counts: Mutex<FaultCounts>,
    /// Every pipe ever created, in creation order, for digests and sever.
    pipes: Mutex<Vec<Arc<Pipe>>>,
}

/// A deterministic in-process network; cheap to clone (shared state).
///
/// Implements [`Connector`], so a `RemoteCluster` can dial straight through
/// it. See the module docs for the fault model.
#[derive(Debug, Clone)]
pub struct SimNet {
    inner: Arc<NetInner>,
}

impl SimNet {
    /// A chaos-free net (useful for exercising the transport abstraction
    /// itself, and as the base for scripted partition scenarios).
    #[must_use]
    pub fn new(seed: u64) -> SimNet {
        SimNet::with_chaos(seed, ChaosConfig::healthy())
    }

    /// A net whose pipes inject faults with the given probabilities,
    /// deterministically derived from `seed`.
    #[must_use]
    pub fn with_chaos(seed: u64, chaos: ChaosConfig) -> SimNet {
        SimNet {
            inner: Arc::new(NetInner {
                seed,
                chaos,
                listeners: Mutex::new(HashMap::new()),
                counts: Mutex::new(FaultCounts::default()),
                pipes: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The seed the net was built with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// Binds a listener under `addr`. Binding the same address twice
    /// replaces the old listener (its pending accepts fail).
    #[must_use]
    pub fn bind(&self, addr: &str) -> SimListener {
        let state = Arc::new(ListenerState {
            backlog: Mutex::new(VecDeque::new()),
            arrived: Condvar::new(),
            closed: AtomicBool::new(false),
            addr: Arc::new(AddrState::default()),
        });
        if let Some(old) = self
            .inner
            .listeners
            .lock()
            .expect("listener registry")
            .insert(addr.to_string(), Arc::clone(&state))
        {
            old.closed.store(true, Ordering::SeqCst);
            old.arrived.notify_all();
        }
        SimListener {
            net: self.clone(),
            addr: addr.to_string(),
            state,
        }
    }

    /// Starts blackholing `addr`: frames on live connections are dropped
    /// in both directions and new connections are refused, until
    /// [`SimNet::heal`]. Already-buffered frames still drain.
    pub fn partition(&self, addr: &str) {
        if let Some(listener) = self.listener(addr) {
            listener.addr.partitioned.store(true, Ordering::SeqCst);
        }
    }

    /// Ends a partition started with [`SimNet::partition`].
    pub fn heal(&self, addr: &str) {
        if let Some(listener) = self.listener(addr) {
            listener.addr.partitioned.store(false, Ordering::SeqCst);
        }
    }

    /// Resets every live connection to `addr` immediately (both
    /// directions), as a crashing node would. Usually paired with
    /// [`SimNet::partition`] so reconnect attempts fail until healed.
    pub fn sever(&self, addr: &str) {
        let tag = SimNet::hash_addr(addr);
        let pipes: Vec<Arc<Pipe>> = self
            .inner
            .pipes
            .lock()
            .expect("pipe registry")
            .iter()
            .filter(|p| p.state.lock().expect("pipe lock").addr_tag == tag)
            .cloned()
            .collect();
        for pipe in pipes {
            pipe.inject_reset();
        }
    }

    /// Aggregate fault counts so far.
    #[must_use]
    pub fn fault_counts(&self) -> FaultCounts {
        *self.inner.counts.lock().expect("counts lock")
    }

    /// A digest of the complete fault schedule: every pipe's decisions in
    /// order, combined in pipe-creation order. Equal digests mean equal
    /// schedules, bit for bit.
    #[must_use]
    pub fn fault_digest(&self) -> u64 {
        let pipes = self.inner.pipes.lock().expect("pipe registry");
        let mut digest = FNV_OFFSET;
        for pipe in pipes.iter() {
            let state = pipe.state.lock().expect("pipe lock");
            fnv1a(&mut digest, &state.fault_digest.to_le_bytes());
            fnv1a(&mut digest, &state.sent_frames.to_le_bytes());
        }
        digest
    }

    fn listener(&self, addr: &str) -> Option<Arc<ListenerState>> {
        self.inner
            .listeners
            .lock()
            .expect("listener registry")
            .get(addr)
            .cloned()
    }

    fn hash_addr(addr: &str) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, addr.as_bytes());
        h
    }

    /// Establishes a connection to `addr`, producing the client endpoint
    /// and queueing the server endpoint on the listener's backlog.
    fn dial(&self, addr: &str) -> std::io::Result<SimConn> {
        let Some(listener) = self.listener(addr) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                format!("no sim listener bound at {addr}"),
            ));
        };
        if listener.closed.load(Ordering::SeqCst) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                format!("sim listener at {addr} is closed"),
            ));
        }
        if listener.addr.partitioned.load(Ordering::SeqCst) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                format!("sim address {addr} is partitioned"),
            ));
        }
        let conn_index = listener.addr.accepted.fetch_add(1, Ordering::SeqCst);
        let tag = SimNet::hash_addr(addr);
        let base = self
            .inner
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(tag)
            .wrapping_add(conn_index.wrapping_mul(0x517C_C1B7_2722_0A95));
        let c2s = Arc::new(Pipe::new(base ^ 0x5EED, tag));
        let s2c = Arc::new(Pipe::new(base ^ 0xFACE, tag));
        {
            let mut pipes = self.inner.pipes.lock().expect("pipe registry");
            pipes.push(Arc::clone(&c2s));
            pipes.push(Arc::clone(&s2c));
        }
        let client = SimConn {
            net: self.clone(),
            addr_state: Arc::clone(&listener.addr),
            label: format!("{addr}#{conn_index}/client"),
            tx: Arc::clone(&c2s),
            rx: Arc::clone(&s2c),
            timeout: Mutex::new(None),
        };
        let server = SimConn {
            net: self.clone(),
            addr_state: Arc::clone(&listener.addr),
            label: format!("{addr}#{conn_index}/server"),
            tx: s2c,
            rx: c2s,
            timeout: Mutex::new(None),
        };
        let mut backlog = listener.backlog.lock().expect("backlog lock");
        backlog.push_back(server);
        drop(backlog);
        listener.arrived.notify_one();
        Ok(client)
    }
}

impl Connector for SimNet {
    type Conn = SimConn;

    fn connect(&self, addr: &str, _connect_timeout: Duration) -> std::io::Result<SimConn> {
        self.dial(addr)
    }
}

/// The listening end of a [`SimNet`] address.
#[derive(Debug)]
pub struct SimListener {
    net: SimNet,
    addr: String,
    state: Arc<ListenerState>,
}

impl Listener for SimListener {
    type Conn = SimConn;

    fn accept(&self) -> std::io::Result<SimConn> {
        let mut backlog = self.state.backlog.lock().expect("backlog lock");
        loop {
            if let Some(conn) = backlog.pop_front() {
                return Ok(conn);
            }
            if self.state.closed.load(Ordering::SeqCst) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::NotConnected,
                    "sim listener closed",
                ));
            }
            backlog = self.state.arrived.wait(backlog).expect("backlog condvar");
        }
    }

    fn local_label(&self) -> String {
        format!("sim://{}", self.addr)
    }

    fn closer(&self) -> std::io::Result<Closer> {
        let state = Arc::clone(&self.state);
        Ok(Closer::new(move || {
            state.closed.store(true, Ordering::SeqCst);
            state.arrived.notify_all();
        }))
    }
}

impl SimListener {
    /// The address the listener is bound to (for building client address
    /// lists).
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The net the listener belongs to.
    #[must_use]
    pub fn net(&self) -> &SimNet {
        &self.net
    }
}

/// One endpoint of a simulated connection.
pub struct SimConn {
    net: SimNet,
    addr_state: Arc<AddrState>,
    label: String,
    /// The pipe this endpoint writes to.
    tx: Arc<Pipe>,
    /// The pipe this endpoint reads from.
    rx: Arc<Pipe>,
    timeout: Mutex<Option<Duration>>,
}

impl std::fmt::Debug for SimConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConn")
            .field("label", &self.label)
            .finish()
    }
}

impl Drop for SimConn {
    fn drop(&mut self) {
        // The peer sees EOF once this endpoint is gone, like a closed
        // socket (closing rx as well unblocks any reader racing the drop).
        self.tx.close();
        self.rx.close();
    }
}

/// How long a reader waits on an empty pipe before releasing a delayed
/// frame. The window exists for determinism: a writer mid-burst (same
/// thread, microseconds between frames) always beats it, so delayed frames
/// interleave with later frames in write order, never by reader timing.
const QUIET_PROMOTE_WINDOW: Duration = Duration::from_millis(10);

impl Read for SimConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let chunk_cap = self.net.inner.chaos.max_read_chunk;
        let timeout = *self.timeout.lock().expect("timeout lock");
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        let mut state = self.rx.state.lock().expect("pipe lock");
        loop {
            state.promote_pending(false);
            match state.visible.front() {
                Some(Segment::Reset) => {
                    state.visible.pop_front();
                    state.cursor = 0;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        "sim connection reset",
                    ));
                }
                Some(Segment::Data(bytes)) => {
                    let cursor = state.cursor;
                    let cap = if chunk_cap == 0 {
                        buf.len()
                    } else {
                        buf.len().min(chunk_cap)
                    };
                    let n = (bytes.len() - cursor).min(cap);
                    buf[..n].copy_from_slice(&bytes[cursor..cursor + n]);
                    let done = cursor + n == bytes.len();
                    if done {
                        state.visible.pop_front();
                        state.cursor = 0;
                    } else {
                        state.cursor = cursor + n;
                    }
                    return Ok(n);
                }
                None => {
                    // Once the buffered stream is drained, a reset pipe
                    // keeps reporting the reset.
                    if state.write_broken {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::ConnectionReset,
                            "sim connection reset",
                        ));
                    }
                    if state.closed {
                        // The writer is gone: whatever is still pending is
                        // all that will ever arrive.
                        if state.promote_pending(true) {
                            continue;
                        }
                        return Ok(0);
                    }
                    let now = std::time::Instant::now();
                    if deadline.is_some_and(|d| now >= d) {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "sim read timed out",
                        ));
                    }
                    // With a delayed frame pending, wait only a quiet
                    // window: if the writer is mid-burst its next frame
                    // arrives first (deterministic write-order interleave);
                    // if the pipe is truly quiet — the peer is lockstep
                    // blocked on us — release the frame instead of
                    // deadlocking the run.
                    let wait_for = if state.pending.is_empty() {
                        deadline.map(|d| d - now)
                    } else {
                        Some(match deadline {
                            Some(d) => QUIET_PROMOTE_WINDOW.min(d - now),
                            None => QUIET_PROMOTE_WINDOW,
                        })
                    };
                    let had_pending = !state.pending.is_empty();
                    state = match wait_for {
                        None => self.rx.readable.wait(state).expect("pipe condvar"),
                        Some(dur) => {
                            let (guard, result) = self
                                .rx
                                .readable
                                .wait_timeout(state, dur)
                                .expect("pipe condvar");
                            let mut guard = guard;
                            if result.timed_out() && had_pending && guard.visible.is_empty() {
                                guard.promote_pending(true);
                            }
                            guard
                        }
                    };
                }
            }
        }
    }
}

impl Write for SimConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let chaos = self.net.inner.chaos;
        let partitioned = self.addr_state.partitioned.load(Ordering::SeqCst);
        let mut state = self.tx.state.lock().expect("pipe lock");
        // Writes on a dead pipe are still *accepted* and their frames still
        // consume chaos decisions — only delivery is suppressed. This keeps
        // the fault schedule a pure function of what each endpoint wrote:
        // whether a peer's write raced the connection's death (an inherently
        // timing-dependent event) can no longer shift the schedule. The
        // exception is the chaos reset triggered by this very call, which
        // surfaces synchronously so the writer learns of it
        // deterministically; death is otherwise observed on the read side
        // (reset markers, EOF, timeouts).
        let dead = state.closed || state.write_broken;
        state.partial.extend_from_slice(buf);

        // Carve complete frames off the partial buffer and decide each
        // one's fate. Anything that is not yet a full frame waits for more
        // bytes.
        let mut reset = false;
        loop {
            if state.partial.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes([
                state.partial[0],
                state.partial[1],
                state.partial[2],
                state.partial[3],
            ]) as usize;
            if state.partial.len() < 4 + len {
                break;
            }
            let frame: Vec<u8> = state.partial.drain(..4 + len).collect();
            state.sent_frames += 1;
            // Every frame consumes exactly one chaos decision, even when a
            // partition overrides it: the rng stream position then depends
            // only on how many frames this endpoint wrote, so a late write
            // racing a scripted partition toggle cannot shift the schedule
            // of every frame after it.
            let decided = decide(&mut state.rng, chaos);
            let action = if partitioned {
                FaultAction::PartitionDrop
            } else {
                decided
            };
            {
                let mut counts = self.net.inner.counts.lock().expect("counts lock");
                state.record(action, &mut counts);
            }
            match action {
                FaultAction::Deliver => {
                    if !dead {
                        state.visible.push_back(Segment::Data(frame));
                    }
                }
                FaultAction::Drop | FaultAction::PartitionDrop => {}
                FaultAction::Duplicate => {
                    if !dead {
                        state.visible.push_back(Segment::Data(frame.clone()));
                        state.visible.push_back(Segment::Data(frame));
                    }
                }
                FaultAction::Delay(n) => {
                    if !dead {
                        let release = state.sent_frames + u64::from(n);
                        state.pending.push_back((release, frame));
                    }
                }
                FaultAction::Reset => {
                    reset = true;
                    break;
                }
            }
            if !dead {
                state.promote_pending(false);
            }
        }
        drop(state);
        self.tx.readable.notify_all();
        if reset && !dead {
            // A reset severs both directions, like an RST.
            self.tx.inject_reset();
            self.rx.inject_reset();
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "sim connection reset by chaos",
            ));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn decide(rng: &mut SplitMix64, chaos: ChaosConfig) -> FaultAction {
    let roll = (rng.next_u64() & 0x3FF) as u32; // 0..1024
    let mut threshold = chaos.drop_per_1024;
    if roll < threshold {
        return FaultAction::Drop;
    }
    threshold += chaos.dup_per_1024;
    if roll < threshold {
        return FaultAction::Duplicate;
    }
    threshold += chaos.delay_per_1024;
    if roll < threshold {
        let n = (rng.next_u64() % 3 + 1) as u8;
        return FaultAction::Delay(n);
    }
    threshold += chaos.reset_per_1024;
    if roll < threshold {
        return FaultAction::Reset;
    }
    FaultAction::Deliver
}

impl Transport for SimConn {
    fn closer(&self) -> std::io::Result<Closer> {
        let tx = Arc::clone(&self.tx);
        let rx = Arc::clone(&self.rx);
        Ok(Closer::new(move || {
            tx.close();
            rx.close();
        }))
    }

    fn set_io_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        *self.timeout.lock().expect("timeout lock") = timeout;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn healthy_net_delivers_frames_in_order() {
        let net = SimNet::new(1);
        let listener = net.bind("node-a");
        let mut client = net.dial("node-a").unwrap();
        let mut server = listener.accept().unwrap();
        client.write_all(&frame(b"one")).unwrap();
        client.write_all(&frame(b"two")).unwrap();
        let mut buf = [0u8; 64];
        let mut got = Vec::new();
        while got.len() < 14 {
            let n = server.read(&mut buf).unwrap();
            got.extend_from_slice(&buf[..n]);
        }
        let mut expected = frame(b"one");
        expected.extend_from_slice(&frame(b"two"));
        assert_eq!(got, expected);
        assert_eq!(net.fault_counts().injected(), 0);
        assert_eq!(net.fault_counts().delivered, 2);
    }

    #[test]
    fn connect_to_unbound_address_is_refused() {
        let net = SimNet::new(1);
        assert!(net.dial("nowhere").is_err());
    }

    #[test]
    fn partition_refuses_connects_and_drops_frames() {
        let net = SimNet::new(2);
        let listener = net.bind("node-a");
        let mut client = net.dial("node-a").unwrap();
        let mut server = listener.accept().unwrap();
        net.partition("node-a");
        assert!(net.dial("node-a").is_err());
        client.write_all(&frame(b"lost")).unwrap();
        server
            .set_io_timeout(Some(Duration::from_millis(5)))
            .unwrap();
        let mut buf = [0u8; 16];
        assert!(server.read(&mut buf).is_err(), "frame must be blackholed");
        assert_eq!(net.fault_counts().partition_drops, 1);
        net.heal("node-a");
        assert!(net.dial("node-a").is_ok());
    }

    #[test]
    fn sever_resets_live_connections() {
        let net = SimNet::new(3);
        let listener = net.bind("node-a");
        let mut client = net.dial("node-a").unwrap();
        let _server = listener.accept().unwrap();
        net.sever("node-a");
        let mut buf = [0u8; 4];
        let err = client.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        // Writes on the severed pipe are accepted (for fault-schedule
        // determinism) but never delivered; the next read still reports
        // the reset.
        assert!(client.write_all(&frame(b"x")).is_ok());
        let err = client.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn identical_seeds_produce_identical_fault_schedules() {
        let run = |seed: u64| {
            let net = SimNet::with_chaos(seed, ChaosConfig::stormy());
            let listener = net.bind("node-a");
            let mut client = net.dial("node-a").unwrap();
            let _server = listener.accept().unwrap();
            for i in 0..200u32 {
                // Ignore write errors: chaos resets are part of the run.
                if client.write_all(&frame(&i.to_le_bytes())).is_err() {
                    break;
                }
            }
            (net.fault_digest(), net.fault_counts())
        };
        assert_eq!(run(0xC0FFEE), run(0xC0FFEE));
        assert_ne!(run(0xC0FFEE).0, run(0xBEEF).0, "different seeds differ");
    }

    #[test]
    fn stormy_chaos_actually_injects_faults() {
        let net = SimNet::with_chaos(7, ChaosConfig::stormy());
        let listener = net.bind("node-a");
        let mut client = net.dial("node-a").unwrap();
        let _server = listener.accept().unwrap();
        for i in 0..500u32 {
            if client.write_all(&frame(&i.to_le_bytes())).is_err() {
                // Reconnect after a chaos reset and keep going.
                client = net.dial("node-a").unwrap();
                let _ = listener.accept().unwrap();
            }
        }
        let counts = net.fault_counts();
        assert!(
            counts.injected() > 0,
            "expected injected faults: {counts:?}"
        );
        assert!(counts.delivered > 0, "most frames still arrive: {counts:?}");
    }

    #[test]
    fn delayed_frames_are_released_not_lost() {
        let chaos = ChaosConfig {
            drop_per_1024: 0,
            dup_per_1024: 0,
            delay_per_1024: 1024, // delay every frame
            reset_per_1024: 0,
            max_read_chunk: 0,
        };
        let net = SimNet::with_chaos(9, chaos);
        let listener = net.bind("node-a");
        let mut client = net.dial("node-a").unwrap();
        let mut server = listener.accept().unwrap();
        client.write_all(&frame(b"held")).unwrap();
        // The reader forces the release instead of deadlocking.
        let mut got = Vec::new();
        let mut buf = [0u8; 16];
        while got.len() < frame(b"held").len() {
            let n = server.read(&mut buf).unwrap();
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, frame(b"held"));
        assert_eq!(net.fault_counts().delayed, 1);
    }
}
