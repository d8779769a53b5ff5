//! The evented transport core: one epoll readiness loop owns every
//! socket; compute stays on the bounded worker pool.
//!
//! Each connection is an explicit state machine
//! (`Head → Body → Busy → Flushing → Head`): the loop reads
//! nonblockingly and feeds the resumable head parser
//! ([`crate::http::parse_head`]); a complete request is handed to the
//! worker pool as a [`RequestJob`]. The worker renders its response
//! (`json → gzip → ResponseWriter`), which hands each whole frame to
//! an [`OutBuf`] — a bounded byte buffer guarded by the
//! `hyperline_util::sync` seam — instead of the socket. The loop drains
//! OutBufs into sockets as `EPOLLOUT` readiness allows, so a slow
//! reader backpressures the worker through the buffer bound without
//! ever blocking the event loop.
//!
//! Wake protocol (the invariant that makes hand-off lossless): **a
//! nonempty OutBuf always has either `EPOLLOUT` armed or a flush
//! completion pending.** A worker posts [`Completion::Flush`] only on
//! an empty→nonempty transition (observed under the OutBuf lock), the
//! loop arms `EPOLLOUT` whenever a drain leaves bytes behind, and
//! [`Completion::Done`] triggers the final drain. Completions ride a
//! self-pipe [`crate::sys::Waker`], so a worker finishing mid-`epoll_wait`
//! wakes the loop immediately.
//!
//! The loop owns lifecycle time and the live connections (its map is
//! the only list of them). One lazily invalidated timer heap holds five
//! kinds of timer. A connection holds at most one of three: *Idle*
//! (keep-alive gap, `read_timeout`), *Request* (cumulative head+body
//! budget from the first head byte, `head_timeout` — the slow-loris
//! defense), and *Flush* (no socket progress while streaming,
//! `write_timeout`); arming bumps its generation so stale heap entries
//! fire as no-ops. A *Deadline* is a request deadline a worker posted:
//! it fires even after its connection closed, and as a no-op once its
//! request finished. *Drain* is the server's drain instant, at which the
//! loop closes every connection still open.

use crate::http::{self, ParseError, ParsedHead};
use crate::json::Json;
use crate::metrics::GaugeGuard;
use crate::pool::WorkerPool;
use crate::server::ServerState;
use crate::sync::atomic::{AtomicU32, Ordering};
use crate::sync::{Arc, Condvar, Mutex};
use crate::sys;
use hyperline_util::cancel::{Deadline, DeadlineTimer};
use hyperline_util::failpoint;
use hyperline_util::FxHashMap;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Listener readiness token (never collides with connection tokens,
/// which count up from zero).
const LISTENER: u64 = u64::MAX;
/// Self-pipe readiness token.
const WAKER: u64 = u64::MAX - 1;
/// Readiness events drained per `epoll_wait`.
const MAX_EVENTS: usize = 1024;
/// Socket read granularity.
const READ_CHUNK: usize = 16 * 1024;
/// Response bytes buffered per connection before the worker blocks
/// (the backpressure bound between compute and a slow reader).
const OUT_BUF_CAP: usize = 256 * 1024;
/// Idle poll bound so stop requests and a begun drain are noticed
/// promptly even with no timers armed.
const MAX_POLL: Duration = Duration::from_millis(500);

/// Stop requests from [`crate::server::ServerHandle`], read once per
/// loop turn: keep serving, stop once the drain has finished, or stop
/// now.
pub(crate) const RUN: u32 = 0;
pub(crate) const STOP_AFTER_DRAIN: u32 = 1;
pub(crate) const STOP_NOW: u32 = 2;

/// What a [`OutBuf::drain_with`] pass left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOutcome {
    /// Everything buffered was delivered.
    Empty,
    /// The sink stopped accepting bytes (`EAGAIN`); bytes remain.
    Pending,
    /// The sink failed; the buffer is closed with this error kind.
    Error(io::ErrorKind),
}

struct OutState {
    buf: VecDeque<u8>,
    closed: Option<io::ErrorKind>,
}

/// The bounded hand-off buffer between a worker thread's blocking
/// response writes and the event loop's nonblocking socket drains.
///
/// Producers call [`OutBuf::write_bounded`] (blocking, bounded by the
/// capacity and a stall timeout); the single consumer calls
/// [`OutBuf::drain_with`]. Built entirely on the `hyperline_util::sync`
/// seam so the sched model checker can explore the hand-off —
/// `drain_with` is generic over its sink for exactly that reason.
pub struct OutBuf {
    state: Mutex<OutState>,
    space: Condvar,
    cap: usize,
}

impl OutBuf {
    /// A buffer with the production capacity.
    pub fn new() -> OutBuf {
        OutBuf::with_capacity(OUT_BUF_CAP)
    }

    /// A buffer with an explicit capacity (tests and the sched model
    /// shrink it to force the blocking path).
    pub fn with_capacity(cap: usize) -> OutBuf {
        OutBuf {
            state: Mutex::new(OutState {
                buf: VecDeque::new(),
                closed: None,
            }),
            space: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Appends as much of `data` as capacity allows, blocking while the
    /// buffer is full. Returns `(bytes_taken, buffer_was_empty)`; the
    /// `was_empty` edge is what obliges the producer to post a flush
    /// completion (the wake-protocol invariant). Fails with the stored
    /// error once closed, or `TimedOut` when no space frees up within
    /// `timeout` (booked as a write stall by the caller's error path).
    pub fn write_bounded(&self, data: &[u8], timeout: Duration) -> io::Result<(usize, bool)> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(kind) = st.closed {
                return Err(io::Error::new(kind, "connection closed"));
            }
            let room = self.cap.saturating_sub(st.buf.len());
            if room > 0 {
                let was_empty = st.buf.is_empty();
                let take = room.min(data.len());
                st.buf.extend(&data[..take]);
                return Ok((take, was_empty));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "response write stalled",
                ));
            }
            let (guard, _) = self
                .space
                .wait_timeout(st, remaining)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
    }

    /// Drains buffered bytes through `sink` until the buffer empties,
    /// the sink reports `WouldBlock`, or it fails. Returns whether any
    /// bytes moved plus the terminal [`DrainOutcome`]; progress and
    /// errors both wake blocked producers. The sink must not block —
    /// the lock is held across calls (the event loop's sockets are
    /// nonblocking).
    pub fn drain_with<F: FnMut(&[u8]) -> io::Result<usize>>(
        &self,
        mut sink: F,
    ) -> (bool, DrainOutcome) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let mut progress = false;
        let outcome = loop {
            if st.buf.is_empty() {
                break DrainOutcome::Empty;
            }
            let chunk = st.buf.as_slices().0;
            debug_assert!(!chunk.is_empty());
            let chunk_len = chunk.len();
            match sink(chunk) {
                Ok(0) => {
                    st.closed.get_or_insert(io::ErrorKind::WriteZero);
                    break DrainOutcome::Error(io::ErrorKind::WriteZero);
                }
                Ok(n) => {
                    st.buf.drain(..n.min(chunk_len));
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break DrainOutcome::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    let kind = e.kind();
                    st.closed.get_or_insert(kind);
                    break DrainOutcome::Error(kind);
                }
            }
        };
        if progress || matches!(outcome, DrainOutcome::Error(_)) {
            self.space.notify_all();
        }
        (progress, outcome)
    }

    /// Marks the buffer closed with `kind` (first close wins) and wakes
    /// every blocked producer so no worker waits on a dead connection.
    pub fn close(&self, kind: io::ErrorKind) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.closed.get_or_insert(kind);
        self.space.notify_all();
    }

    /// Whether nothing is buffered (the loop's `EPOLLOUT` decision).
    pub fn is_empty(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .buf
            .is_empty()
    }

    /// Loop-side unbounded append for loop-generated responses (interim
    /// `100 Continue`, parse rejections, overload 503s) — small, and
    /// the loop must never block on its own capacity rule.
    pub(crate) fn append(&self, bytes: &[u8]) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.buf.extend(bytes);
    }
}

impl Default for OutBuf {
    fn default() -> Self {
        OutBuf::new()
    }
}

/// What a worker reports back to the event loop.
pub(crate) enum Completion {
    /// `conn`'s OutBuf went empty→nonempty: start draining it.
    Flush(u64),
    /// The request on `conn` finished. `flush: true` streams out the
    /// remaining buffer then honors `keep_alive`; `flush: false` closes
    /// immediately (the worker's write path already failed and
    /// classified the error — flushing a half-written body would only
    /// double-book the stall).
    Done {
        /// Connection token.
        conn: u64,
        /// Whether the connection may serve another request.
        keep_alive: bool,
        /// Whether remaining buffered bytes should still be delivered.
        flush: bool,
    },
    /// A request deadline for the timer heap (see
    /// [`RequestJob::start_deadline`]).
    Deadline(DeadlineTimer),
}

/// The worker→loop completion channel: a mutex-guarded batch plus the
/// self-pipe waker that interrupts `epoll_wait`.
pub(crate) struct Completions {
    queue: Mutex<Vec<Completion>>,
    waker: Arc<sys::Waker>,
}

impl Completions {
    pub(crate) fn new(waker: Arc<sys::Waker>) -> Completions {
        Completions {
            queue: Mutex::new(Vec::new()),
            waker,
        }
    }

    pub(crate) fn push(&self, completion: Completion) {
        {
            let mut queue = self.queue.lock().unwrap_or_else(|p| p.into_inner());
            queue.push(completion);
        }
        // Wake after the push is visible: the loop drains the pipe
        // before taking the batch, so the completion cannot be missed.
        self.waker.wake();
    }

    pub(crate) fn take(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

/// One parsed request travelling from the event loop to a worker. The
/// worker answers through [`RequestJob::writer`] and must end with
/// [`RequestJob::complete`]; if it never does (worker panic, job
/// dropped on queue overflow handling), `Drop` posts a no-flush `Done`
/// so the connection can never leak in the `Busy` state.
pub(crate) struct RequestJob {
    pub(crate) conn: u64,
    pub(crate) request: http::Request,
    pub(crate) queued: Instant,
    out: Arc<OutBuf>,
    completions: Arc<Completions>,
    write_timeout: Duration,
    done: bool,
}

impl RequestJob {
    /// The worker's response sink: blocking bounded writes into the
    /// connection's OutBuf, posting the flush wake on every
    /// empty→nonempty edge.
    pub(crate) fn writer(&self) -> OutWriter {
        OutWriter {
            out: Arc::clone(&self.out),
            completions: Arc::clone(&self.completions),
            conn: self.conn,
            timeout: self.write_timeout,
        }
    }

    /// Starts this request's deadline, `budget` from now. The loop's
    /// timer heap fires it; the returned handle must live until the
    /// response is written.
    pub(crate) fn start_deadline(&self, budget: Duration) -> Deadline {
        let deadline = Deadline::new(Instant::now() + budget);
        self.completions
            .push(Completion::Deadline(deadline.timer()));
        deadline
    }

    /// Reports the request finished; consumes the job so `Drop` stays
    /// quiet.
    pub(crate) fn complete(mut self, keep_alive: bool, flush: bool) {
        self.done = true;
        self.completions.push(Completion::Done {
            conn: self.conn,
            keep_alive,
            flush,
        });
    }
}

impl Drop for RequestJob {
    fn drop(&mut self) {
        if !self.done {
            // Safety net: a worker panic (the pool catches the unwind)
            // must not strand the connection in `Busy` forever.
            self.completions.push(Completion::Done {
                conn: self.conn,
                keep_alive: false,
                flush: false,
            });
        }
    }
}

/// The `impl Write` a worker's [`crate::http::ResponseWriter`] hands
/// its frames to: each write is a bounded OutBuf append, with the flush
/// completion posted on the empty→nonempty edge per the wake-protocol
/// invariant. This is the `socket.write` failpoint's seam.
pub(crate) struct OutWriter {
    out: Arc<OutBuf>,
    completions: Arc<Completions>,
    conn: u64,
    timeout: Duration,
}

impl Write for OutWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let data = match failpoint::check("socket.write") {
            Some(failpoint::Fault::Err) => return Err(failpoint::io_error("socket.write")),
            // Injected short write: take half, so `write_all` retries.
            Some(failpoint::Fault::Short) if data.len() > 1 => &data[..data.len() / 2],
            _ => data,
        };
        let (taken, was_empty) = self.out.write_bounded(data, self.timeout)?;
        if was_empty {
            self.completions.push(Completion::Flush(self.conn));
        }
        Ok(taken)
    }

    fn flush(&mut self) -> io::Result<()> {
        // Delivery is the loop's job; the final drain rides `Done`.
        Ok(())
    }
}

/// Where a connection is in its request cycle.
enum Phase {
    /// Accumulating head bytes for the incremental parser.
    Head,
    /// Head parsed; accumulating `need` body bytes.
    Body {
        /// The parsed head, carried until the body completes.
        head: ParsedHead,
        /// Body bytes still owed by the client.
        need: usize,
    },
    /// A worker owns the request; the loop only pumps the OutBuf.
    Busy,
    /// Worker done; draining the remaining buffer, then `keep_alive`
    /// decides between another `Head` cycle and close.
    Flushing {
        /// Whether the connection survives the flush.
        keep_alive: bool,
    },
}

impl Phase {
    fn reading(&self) -> bool {
        matches!(self, Phase::Head | Phase::Body { .. })
    }
}

/// A connection's timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    Idle,
    Request,
    Flush,
}

enum Timer {
    /// Fires only if `gen` is still the connection's generation —
    /// arming or disarming bumps it, lazily invalidating whatever is in
    /// the heap.
    Conn {
        token: u64,
        gen: u64,
        kind: TimerKind,
    },
    /// A request deadline, independent of its connection.
    Deadline(DeadlineTimer),
    /// The drain instant.
    Drain,
}

/// Heap entry, ordered soonest-first (`BinaryHeap` is a max-heap, so
/// the comparison is reversed).
struct TimerEntry {
    at: Instant,
    timer: Timer,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at)
    }
}

/// Where the loop stands with the server's drain.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Drain {
    /// No drain seen yet.
    Off,
    /// The drain instant is in the heap; closes until then are graceful.
    Armed,
    /// Every connection closed, gracefully or at the instant.
    Done,
}

struct Conn {
    stream: TcpStream,
    phase: Phase,
    /// Unparsed inbound bytes (head fragments, early body, pipelined
    /// requests).
    in_buf: Vec<u8>,
    out: Arc<OutBuf>,
    /// Current timer generation; heap entries with an older one are
    /// stale.
    timer_gen: u64,
    /// Interest mask currently registered with epoll.
    interest: u32,
}

/// The readiness loop: owns the listener, every connection socket, the
/// timer heap, and the completion channel from the worker pool.
pub(crate) struct EventLoop {
    epoll: sys::Epoll,
    waker: Arc<sys::Waker>,
    listener: TcpListener,
    state: Arc<ServerState>,
    pool: Option<WorkerPool<RequestJob>>,
    completions: Arc<Completions>,
    conns: FxHashMap<u64, Conn>,
    timers: BinaryHeap<TimerEntry>,
    next_token: u64,
    read_timeout: Duration,
    drain: Drain,
    stop: Arc<AtomicU32>,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        state: Arc<ServerState>,
        waker: Arc<sys::Waker>,
        completions: Arc<Completions>,
        pool: WorkerPool<RequestJob>,
        read_timeout: Duration,
        stop: Arc<AtomicU32>,
    ) -> io::Result<EventLoop> {
        let epoll = sys::Epoll::new()?;
        listener.set_nonblocking(true)?;
        epoll.add(listener.as_raw_fd(), LISTENER, sys::EPOLLIN)?;
        epoll.add(waker.read_fd(), WAKER, sys::EPOLLIN)?;
        Ok(EventLoop {
            epoll,
            waker,
            listener,
            state,
            pool: Some(pool),
            completions,
            conns: FxHashMap::default(),
            timers: BinaryHeap::new(),
            next_token: 0,
            read_timeout,
            drain: Drain::Off,
            stop,
        })
    }

    fn run(&mut self) {
        let mut events = vec![sys::EpollEvent::zeroed(); MAX_EVENTS];
        loop {
            self.fire_timers();
            self.process_completions();
            self.poll_drain();
            // ordering: pairs with the Release store in
            // `ServerHandle::stop`; seeing the request must also see
            // every write the stopping thread made before it (the drain
            // instant included).
            match self.stop.load(Ordering::Acquire) {
                STOP_NOW => break,
                STOP_AFTER_DRAIN if self.drain == Drain::Done => break,
                _ => {}
            }
            let timeout = self.next_timeout();
            if failpoint::check("epoll.wait").is_some() {
                // Injected spurious/failed wait: the loop must degrade
                // to a short sleep and keep serving, never wedge.
                self.state
                    .metrics
                    .event_loop_wakeups
                    .fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let fired = match self.epoll.wait(&mut events, Some(timeout)) {
                Ok(n) => n,
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            };
            self.state
                .metrics
                .event_loop_wakeups
                .fetch_add(1, Ordering::Relaxed);
            for event in &events[..fired] {
                // Copy out of the (packed) event before using.
                let mask = event.events;
                let token = event.data;
                match token {
                    LISTENER => self.accept_ready(),
                    WAKER => self.waker.drain(),
                    _ => self.dispatch_conn(token, mask),
                }
            }
            self.process_completions();
        }
        self.teardown();
    }

    fn dispatch_conn(&mut self, token: u64, mask: u32) {
        if mask & sys::EPOLLERR != 0 {
            self.close_conn(token, io::ErrorKind::ConnectionReset);
            return;
        }
        let reading = self
            .conns
            .get(&token)
            .is_some_and(|conn| conn.phase.reading());
        if mask & sys::EPOLLHUP != 0 && !reading {
            // Peer gone both ways while we compute or flush: nothing we
            // buffer can be delivered, and `EPOLLHUP` re-reports every
            // wait — close now rather than spin.
            self.close_conn(token, io::ErrorKind::ConnectionReset);
            return;
        }
        if mask & sys::EPOLLOUT != 0 {
            self.pump(token);
        }
        if mask & (sys::EPOLLIN | sys::EPOLLHUP) != 0 {
            self.handle_readable(token);
        }
    }

    // ---- timers ----------------------------------------------------

    fn next_timeout(&self) -> Duration {
        match self.timers.peek() {
            Some(entry) => entry
                .at
                .saturating_duration_since(Instant::now())
                .min(MAX_POLL),
            None => MAX_POLL,
        }
    }

    fn arm_timer(&mut self, token: u64, kind: TimerKind, budget: Duration) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.timer_gen += 1;
        let gen = conn.timer_gen;
        self.timers.push(TimerEntry {
            at: Instant::now() + budget,
            timer: Timer::Conn { token, gen, kind },
        });
    }

    fn disarm_timer(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.timer_gen += 1;
        }
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        while self.timers.peek().is_some_and(|entry| entry.at <= now) {
            let Some(entry) = self.timers.pop() else {
                return;
            };
            match entry.timer {
                Timer::Conn { token, gen, kind } => {
                    let live = self
                        .conns
                        .get(&token)
                        .is_some_and(|conn| conn.timer_gen == gen);
                    if !live {
                        continue; // stale: re-armed, disarmed, or conn gone
                    }
                    let metrics = &self.state.metrics;
                    let counter = match kind {
                        // Keep-alive gap expired with no request in sight.
                        TimerKind::Idle => None,
                        // Cumulative head+body budget blown: a slow-loris
                        // client loses its connection, quietly (answering
                        // would reward the drip with more socket time).
                        TimerKind::Request => Some(&metrics.slow_loris_closes),
                        // No socket progress while flushing a finished
                        // response: dead or pathologically slow reader.
                        TimerKind::Flush => Some(&metrics.write_stalls),
                    };
                    if let Some(counter) = counter {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                    self.close_conn(token, io::ErrorKind::TimedOut);
                }
                // Fired even when the connection is gone: the request's
                // compute may still be running for nobody.
                Timer::Deadline(deadline) => {
                    if deadline.fire() {
                        self.state
                            .metrics
                            .deadlines_fired
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                Timer::Drain => self.abort_stragglers(),
            }
        }
    }

    // ---- drain -----------------------------------------------------

    /// Arms the drain instant on the first turn that sees a drain begun,
    /// and marks the drain done once no connection is left. New
    /// connections are shed from the moment the drain begins, so the
    /// set only shrinks.
    fn poll_drain(&mut self) {
        if self.drain == Drain::Off {
            let Some(at) = self.state.drain_at() else {
                return;
            };
            self.timers.push(TimerEntry {
                at,
                timer: Timer::Drain,
            });
            self.drain = Drain::Armed;
        }
        if self.drain == Drain::Armed && self.conns.is_empty() {
            self.drain = Drain::Done;
        }
    }

    /// The drain instant: closes every connection still open, counted
    /// as aborted rather than drained.
    fn abort_stragglers(&mut self) {
        if self.drain != Drain::Armed {
            return;
        }
        self.drain = Drain::Done;
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        self.state
            .metrics
            .aborted_connections
            .fetch_add(tokens.len() as u64, Ordering::Relaxed);
        for token in tokens {
            self.close_conn(token, io::ErrorKind::ConnectionAborted);
        }
    }

    // ---- accept ----------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            if failpoint::check("socket.accept").is_some() {
                // Injected accept failure: abandon this round; level-
                // triggered epoll re-reports the pending backlog.
                return;
            }
            match sys::accept_nonblocking(&self.listener) {
                Ok(Some(stream)) => self.register_conn(stream),
                Ok(None) => return,
                // Transient accept errors (EMFILE and friends): give
                // up this round, same as the old `incoming()` loop
                // skipping `Err` entries.
                Err(_) => return,
            }
        }
    }

    fn register_conn(&mut self, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if self.state.is_draining() {
            // Draining: stop taking work; tell clients when to come
            // back.
            self.state
                .metrics
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
            shed(&mut stream, "server draining, retry later");
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .epoll
            .add(stream.as_raw_fd(), token, sys::EPOLLIN)
            .is_err()
        {
            return;
        }
        self.state
            .metrics
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        self.state
            .metrics
            .event_loop_connections
            .fetch_add(1, Ordering::Relaxed);
        self.conns.insert(
            token,
            Conn {
                stream,
                phase: Phase::Head,
                in_buf: Vec::new(),
                out: Arc::new(OutBuf::new()),
                timer_gen: 0,
                interest: sys::EPOLLIN,
            },
        );
        self.arm_timer(token, TimerKind::Idle, self.read_timeout);
    }

    // ---- reads and the request state machine -----------------------

    fn handle_readable(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !conn.phase.reading() {
                self.update_interest(token);
                return;
            }
            let mut chunk = [0u8; READ_CHUNK];
            let result = match failpoint::check("socket.read") {
                Some(_) => Err(failpoint::io_error("socket.read")),
                None => (&conn.stream).read(&mut chunk),
            };
            match result {
                Ok(0) => {
                    self.read_closed(token);
                    return;
                }
                Ok(n) => {
                    let first_head_byte =
                        conn.in_buf.is_empty() && matches!(conn.phase, Phase::Head);
                    conn.in_buf.extend_from_slice(&chunk[..n]);
                    if first_head_byte {
                        // First byte of a new request head arms the
                        // cumulative slow-loris budget.
                        let budget = self.state.head_timeout;
                        self.arm_timer(token, TimerKind::Request, budget);
                    }
                    self.advance(token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.update_interest(token);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.read_failed(token);
                    return;
                }
            }
        }
    }

    /// Clean EOF from the peer, classified by where the request stood.
    fn read_closed(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match &conn.phase {
            // Between requests: a quiet keep-alive close.
            Phase::Head if conn.in_buf.is_empty() => {
                self.close_conn(token, io::ErrorKind::ConnectionAborted);
            }
            // Mid-head: the request never completed.
            Phase::Head => {
                self.state
                    .metrics
                    .bad_requests
                    .fetch_add(1, Ordering::Relaxed);
                self.reject(token, 400, "connection closed mid-headers");
            }
            // Mid-body: the request never completed — the same bucket
            // the cumulative head deadline books.
            Phase::Body { .. } => {
                self.state
                    .metrics
                    .slow_loris_closes
                    .fetch_add(1, Ordering::Relaxed);
                self.close_conn(token, io::ErrorKind::UnexpectedEof);
            }
            _ => self.close_conn(token, io::ErrorKind::ConnectionAborted),
        }
    }

    /// Socket read error (peer reset, injected fault).
    fn read_failed(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mid_request = !conn.in_buf.is_empty() || !matches!(conn.phase, Phase::Head);
        if mid_request {
            self.state
                .metrics
                .slow_loris_closes
                .fetch_add(1, Ordering::Relaxed);
        }
        self.close_conn(token, io::ErrorKind::ConnectionReset);
    }

    /// Drives the `Head → Body → Busy` machine over whatever `in_buf`
    /// holds; loops so a pipelined buffer can cross phases in one call.
    fn advance(&mut self, token: u64) {
        enum Action {
            Wait,
            Continue100,
            Enqueue(http::Request),
            Reject(ParseError),
        }
        loop {
            let action = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                match &conn.phase {
                    Phase::Head => {
                        if conn.in_buf.is_empty() {
                            Action::Wait
                        } else {
                            match http::parse_head(&conn.in_buf) {
                                Ok(None) => Action::Wait,
                                Ok(Some((head, consumed))) => {
                                    conn.in_buf.drain(..consumed);
                                    let interim = head.expect_continue;
                                    let need = head.body_len;
                                    conn.phase = Phase::Body { head, need };
                                    if interim {
                                        Action::Continue100
                                    } else {
                                        continue;
                                    }
                                }
                                Err(err) => Action::Reject(err),
                            }
                        }
                    }
                    Phase::Body { need, .. } if conn.in_buf.len() >= *need => {
                        match std::mem::replace(&mut conn.phase, Phase::Busy) {
                            Phase::Body { mut head, need } => {
                                head.request.body = conn.in_buf.drain(..need).collect();
                                Action::Enqueue(head.request)
                            }
                            other => {
                                conn.phase = other;
                                Action::Wait
                            }
                        }
                    }
                    _ => Action::Wait,
                }
            };
            match action {
                Action::Wait => return,
                Action::Continue100 => {
                    // The client is holding its body back until invited.
                    if let Some(conn) = self.conns.get(&token) {
                        conn.out.append(b"HTTP/1.1 100 Continue\r\n\r\n");
                    }
                    self.pump(token);
                }
                Action::Enqueue(request) => {
                    self.enqueue(token, request);
                    return;
                }
                Action::Reject(err) => {
                    self.handle_parse_error(token, err);
                    return;
                }
            }
        }
    }

    fn handle_parse_error(&mut self, token: u64, err: ParseError) {
        let (status, message) = match err {
            ParseError::Malformed(message) => (400, message),
            ParseError::Rejected { status, message } => (status, message),
        };
        self.state
            .metrics
            .bad_requests
            .fetch_add(1, Ordering::Relaxed);
        self.reject(token, status, &message);
    }

    /// Answers an error response from the loop itself and flushes to
    /// close. Any buffered inbound bytes are dropped — after a parse
    /// error the stream position is unknowable, so the connection never
    /// serves another request.
    fn reject(&mut self, token: u64, status: u16, message: &str) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.in_buf.clear();
        conn.out.append(&error_response(status, message));
        self.start_flush(token, false);
    }

    // ---- dispatch to the worker pool -------------------------------

    fn enqueue(&mut self, token: u64, request: http::Request) {
        // The worker's own deadlines take over from here.
        self.disarm_timer(token);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.phase = Phase::Busy;
        let job = RequestJob {
            conn: token,
            request,
            queued: Instant::now(),
            out: Arc::clone(&conn.out),
            completions: Arc::clone(&self.completions),
            write_timeout: self.state.write_timeout,
            done: false,
        };
        let Some(pool) = self.pool.as_ref() else {
            return;
        };
        // Gauge up before the push: a worker may pop (and decrement)
        // the instant the push lands, and the gauge must never dip
        // negative.
        self.state
            .metrics
            .queue_depth
            .fetch_add(1, Ordering::Relaxed);
        match pool.queue().try_push(job) {
            Ok(()) => self.update_interest(token),
            Err(mut job) => {
                // Shed load: immediate 503, never queue. Mark the job
                // done by hand — its Drop safety net would otherwise
                // post a spurious close for this very connection.
                job.done = true;
                drop(job);
                self.state
                    .metrics
                    .queue_depth
                    .fetch_sub(1, Ordering::Relaxed);
                self.state
                    .metrics
                    .connections_rejected
                    .fetch_add(1, Ordering::Relaxed);
                self.reject(token, 503, "server overloaded, retry later");
            }
        }
    }

    fn process_completions(&mut self) {
        for completion in self.completions.take() {
            match completion {
                Completion::Flush(token) => self.pump(token),
                Completion::Done {
                    conn,
                    keep_alive,
                    flush,
                } => self.finish_request(conn, keep_alive, flush),
                Completion::Deadline(deadline) => self.timers.push(TimerEntry {
                    at: deadline.at(),
                    timer: Timer::Deadline(deadline),
                }),
            }
        }
    }

    fn finish_request(&mut self, token: u64, keep_alive: bool, flush: bool) {
        // A connection closed while its worker ran is gone from the map,
        // and tokens never repeat: only that request's Busy connection
        // can be waiting for this Done.
        let busy = self
            .conns
            .get(&token)
            .is_some_and(|conn| matches!(conn.phase, Phase::Busy));
        if !busy {
            return;
        }
        if !flush {
            // The worker's write path failed and already classified the
            // error; delivering a half-written body helps no one.
            self.close_conn(token, io::ErrorKind::ConnectionAborted);
            return;
        }
        self.start_flush(token, keep_alive);
    }

    fn start_flush(&mut self, token: u64, keep_alive: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.phase = Phase::Flushing { keep_alive };
        let budget = self.state.write_timeout;
        self.arm_timer(token, TimerKind::Flush, budget);
        self.pump(token);
    }

    // ---- writes ----------------------------------------------------

    /// Drains the connection's OutBuf into its socket as far as
    /// readiness allows, then resolves what the drain outcome means for
    /// the phase: a finished flush completes the response cycle, a
    /// partial one arms `EPOLLOUT` (and refreshes the stall timer on
    /// progress), an error closes.
    fn pump(&mut self, token: u64) {
        let (progress, outcome) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let out = Arc::clone(&conn.out);
            let mut sink = &conn.stream;
            out.drain_with(|bytes| sink.write(bytes))
        };
        match outcome {
            DrainOutcome::Empty => {
                let keep = match self.conns.get(&token).map(|conn| &conn.phase) {
                    Some(Phase::Flushing { keep_alive }) => Some(*keep_alive),
                    Some(_) => None,
                    None => return,
                };
                match keep {
                    Some(true) => self.finish_keep_alive(token),
                    Some(false) => self.close_conn(token, io::ErrorKind::ConnectionAborted),
                    None => self.update_interest(token),
                }
            }
            DrainOutcome::Pending => {
                self.state
                    .metrics
                    .eagain_yields
                    .fetch_add(1, Ordering::Relaxed);
                let flushing = self
                    .conns
                    .get(&token)
                    .is_some_and(|conn| matches!(conn.phase, Phase::Flushing { .. }));
                if progress && flushing {
                    // Socket progress resets the stall clock — only a
                    // reader making *no* progress for the whole budget
                    // is a stall.
                    let budget = self.state.write_timeout;
                    self.arm_timer(token, TimerKind::Flush, budget);
                }
                self.update_interest(token);
            }
            DrainOutcome::Error(kind) => {
                let busy = self
                    .conns
                    .get(&token)
                    .is_some_and(|conn| matches!(conn.phase, Phase::Busy));
                // While a worker owns the request its next write sees
                // the stored error and classifies it; after `Done`
                // nobody else will, so the loop books client aborts.
                if !busy
                    && matches!(
                        kind,
                        io::ErrorKind::BrokenPipe
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::ConnectionAborted
                    )
                {
                    self.state
                        .metrics
                        .client_aborts
                        .fetch_add(1, Ordering::Relaxed);
                }
                self.close_conn(token, kind);
            }
        }
    }

    /// A keep-alive response fully delivered: back to `Head`, with the
    /// timer matching whether a pipelined request is already buffered.
    fn finish_keep_alive(&mut self, token: u64) {
        let pipelined = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.phase = Phase::Head;
            !conn.in_buf.is_empty()
        };
        if pipelined {
            // Bytes of the next head already arrived: its cumulative
            // budget starts now.
            let budget = self.state.head_timeout;
            self.arm_timer(token, TimerKind::Request, budget);
        } else {
            self.arm_timer(token, TimerKind::Idle, self.read_timeout);
        }
        self.update_interest(token);
        if pipelined {
            self.advance(token);
        }
    }

    // ---- interest and close ----------------------------------------

    /// Reconciles the epoll interest mask with the phase (`EPOLLIN`
    /// while reading) and the OutBuf (`EPOLLOUT` while bytes wait);
    /// issues `EPOLL_CTL_MOD` only on change.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut want = 0u32;
        if conn.phase.reading() {
            want |= sys::EPOLLIN;
        }
        if !conn.out.is_empty() {
            want |= sys::EPOLLOUT;
        }
        if want != conn.interest
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Removes and closes one connection. Dropping the stream closes its
    /// only fd, which also removes it from the epoll set; the OutBuf
    /// closes with `kind` to wake any blocked worker. A close after a
    /// drain began and before its instant counts as drained.
    fn close_conn(&mut self, token: u64, kind: io::ErrorKind) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        conn.out.close(kind);
        if self.drain != Drain::Done && self.state.is_draining() {
            self.state
                .metrics
                .drained_connections
                .fetch_add(1, Ordering::Relaxed);
        }
        self.state
            .metrics
            .event_loop_connections
            .fetch_sub(1, Ordering::Relaxed);
    }

    /// Orderly stop: close every connection **before** joining the pool
    /// — closing wakes workers blocked on OutBuf space, so the join can
    /// never deadlock against a worker waiting for a drain that will
    /// not come. With no timer left to fire them, the pending request
    /// deadlines fire now: their responses can no longer be delivered,
    /// so the join need not wait out those computes.
    fn teardown(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token, io::ErrorKind::ConnectionAborted);
        }
        self.process_completions();
        for entry in self.timers.drain() {
            if let Timer::Deadline(deadline) = entry.timer {
                deadline.fire();
            }
        }
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
    }
}

/// An error response the loop answers itself: parse rejections, and
/// overload and drain sheds, whose `503` carries `Retry-After: 1`.
fn error_response(status: u16, message: &str) -> Vec<u8> {
    let body = Json::obj().set("error", message).render();
    let length = body.len().to_string();
    let mut headers = vec![("content-length", length.as_str())];
    if status == 503 {
        headers.push(("retry-after", "1"));
    }
    let mut response = Vec::new();
    let _ = http::write_response_head(
        &mut response,
        status,
        http::CONTENT_TYPE_JSON,
        false,
        &headers,
    );
    response.extend_from_slice(body.as_bytes());
    response
}

/// Sheds a connection before it is registered: `503` with a
/// `Retry-After` hint, written straight to the socket. The socket is
/// nonblocking, as `accept4` returns it, so the loop never waits here:
/// the tiny 503 fits the socket buffer, and the read below stops at
/// `WouldBlock`.
fn shed(stream: &mut TcpStream, message: &str) {
    let _ = stream.write_all(&error_response(503, message));
    // The client almost certainly sent its request head already; closing
    // with those bytes unread makes the kernel answer RST, which can
    // discard the 503 before the client reads it. Drain what is already
    // buffered, bounded, so the close is a clean FIN and the 503 survives.
    let mut sink = [0u8; 4096];
    for _ in 0..16 {
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => continue,
            _ => break,
        }
    }
}

/// Starts the worker pool and the event-loop thread; returns the join
/// handle and the waker [`crate::server::ServerHandle`] uses to
/// interrupt `epoll_wait` after a stop request.
pub(crate) fn spawn_event_loop(
    listener: TcpListener,
    state: Arc<ServerState>,
    threads: usize,
    queue_depth: usize,
    read_timeout: Duration,
    stop: Arc<AtomicU32>,
) -> (std::thread::JoinHandle<()>, Arc<sys::Waker>) {
    let waker = Arc::new(sys::Waker::new().expect("failed to create event-loop waker"));
    let completions = Arc::new(Completions::new(Arc::clone(&waker)));
    let pool_state = Arc::clone(&state);
    let pool = WorkerPool::start(threads, queue_depth, move |job: RequestJob| {
        // The queue-depth gauge and wait histogram bracket the bounded
        // queue: enqueued in the event loop, resolved here.
        pool_state
            .metrics
            .queue_depth
            .fetch_sub(1, Ordering::Relaxed);
        let waited = job.queued.elapsed();
        pool_state.metrics.queue_wait.record_micros(waited);
        let _busy = GaugeGuard::enter(&pool_state.metrics.busy_workers);
        crate::server::handle_request(&pool_state, job, waited);
    });
    let loop_waker = Arc::clone(&waker);
    let handle = std::thread::Builder::new()
        .name("hyperline-event-loop".to_string())
        .spawn(move || {
            let mut event_loop = EventLoop::new(
                listener,
                state,
                loop_waker,
                completions,
                pool,
                read_timeout,
                stop,
            )
            .expect("failed to create epoll instance");
            event_loop.run();
        })
        .expect("failed to spawn event-loop thread");
    (handle, waker)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_buf_reports_empty_edge_and_respects_cap() {
        let out = OutBuf::with_capacity(4);
        let (taken, was_empty) = out
            .write_bounded(b"abcdef", Duration::from_secs(1))
            .unwrap();
        assert_eq!(taken, 4, "capacity bounds a single write");
        assert!(was_empty, "first write sees the empty buffer");
        let err = out
            .write_bounded(b"x", Duration::from_millis(10))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "full buffer stalls");
        let mut sink = Vec::new();
        let (progress, outcome) = out.drain_with(|bytes| {
            sink.extend_from_slice(bytes);
            Ok(bytes.len())
        });
        assert!(progress);
        assert_eq!(outcome, DrainOutcome::Empty);
        assert_eq!(&sink, b"abcd");
        let (taken, was_empty) = out.write_bounded(b"ef", Duration::from_secs(1)).unwrap();
        assert_eq!(
            (taken, was_empty),
            (2, true),
            "drained buffer is empty again"
        );
    }

    #[test]
    fn out_buf_drain_reports_pending_and_error() {
        let out = OutBuf::new();
        out.write_bounded(b"hello", Duration::from_secs(1)).unwrap();
        let (progress, outcome) = out.drain_with(|bytes| {
            assert_eq!(bytes, b"hello");
            Err(io::Error::new(io::ErrorKind::WouldBlock, "eagain"))
        });
        assert!(!progress);
        assert_eq!(outcome, DrainOutcome::Pending);
        assert!(!out.is_empty(), "pending drain leaves bytes buffered");
        let mut fed = 0usize;
        let (progress, outcome) = out.drain_with(|bytes| {
            if fed == 0 {
                fed = 2;
                Ok(2)
            } else {
                assert_eq!(bytes, b"llo");
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
        });
        assert!(progress, "partial progress before the failure counts");
        assert_eq!(outcome, DrainOutcome::Error(io::ErrorKind::BrokenPipe));
        let err = out.write_bounded(b"x", Duration::from_secs(1)).unwrap_err();
        assert_eq!(
            err.kind(),
            io::ErrorKind::BrokenPipe,
            "a failed drain closes the buffer for producers"
        );
    }

    #[test]
    fn out_buf_close_wakes_blocked_writer() {
        let out = Arc::new(OutBuf::with_capacity(2));
        out.write_bounded(b"ab", Duration::from_secs(1)).unwrap();
        let blocked = Arc::clone(&out);
        let writer = std::thread::spawn(move || {
            blocked
                .write_bounded(b"c", Duration::from_secs(30))
                .unwrap_err()
                .kind()
        });
        // Give the writer a moment to block, then close underneath it.
        std::thread::sleep(Duration::from_millis(20));
        out.close(io::ErrorKind::ConnectionReset);
        let kind = writer.join().expect("writer thread");
        assert_eq!(kind, io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn drop_without_complete_posts_a_close() {
        let waker = Arc::new(sys::Waker::new().unwrap());
        let completions = Arc::new(Completions::new(waker));
        let job = RequestJob {
            conn: 9,
            request: http::Request {
                method: "GET".to_string(),
                path: "/".to_string(),
                query: Vec::new(),
                headers: Vec::new(),
                body: Vec::new(),
                http10: false,
            },
            queued: Instant::now(),
            out: Arc::new(OutBuf::new()),
            completions: Arc::clone(&completions),
            write_timeout: Duration::from_secs(1),
            done: false,
        };
        drop(job);
        let batch = completions.take();
        assert_eq!(batch.len(), 1);
        assert!(matches!(
            batch[0],
            Completion::Done {
                conn: 9,
                keep_alive: false,
                flush: false
            }
        ));
    }
}
