//! The socket front-end: a non-blocking accept/read/decode/write loop
//! interleaved with [`QueryEngine::step`].
//!
//! One thread owns everything — the listener, every connection's buffers,
//! and the engine.  A poll cycle services sockets *between* engine steps,
//! so a long chunk never stalls `accept` for longer than one chunk's work.
//! Backpressure is per-connection: each connection has a bounded outbound
//! queue, and when a client stops draining replies the server stops
//! *decoding that connection's requests* (bytes stay in its inbound
//! buffer, the socket's own flow control eventually pushes back on the
//! client) while every other connection and the engine proceed.
//!
//! A cycle with nothing else to do does not go idle while a reply sits
//! behind a full send buffer: it waits on that socket with one bounded
//! blocking write of at most 256 KiB (the *idle wait*), so a large `Done`
//! frame drains at socket speed instead of one send buffer per
//! [`IDLE_INTERVAL`] sleep.  The wait runs only after a cycle that
//! accepted, read, wrote, decoded and stepped nothing, so it never holds
//! the engine while the engine has work, and blocked connections take
//! turns at it.  Its bound is the socket's write timeout,
//! [`IDLE_INTERVAL`], which the kernel rounds up to its timer tick: a
//! 200 µs timeout waits about one tick (4 ms at `HZ=250`; 4.5–10 ms
//! measured on a 2-vCPU VM with that setting).  A client that stops
//! reading therefore costs one such wait, after which the wait skips it
//! until it drains again; a slow but live reader holds one cycle for at
//! most one timeout per kernel buffer the 256 KiB slice fills.
//!
//! Protocol violations are connection-scoped by the same principle: a
//! malformed frame gets a best-effort [`Frame::ProtocolError`] reply and
//! tears down that connection only — the listener, the other connections,
//! and the engine all survive.

use crate::wire::{
    decode_frame, encode_done, encode_frame, Frame, SubmitSpec, DEFAULT_MAX_PAYLOAD, WIRE_VERSION,
};
use rdx_core::budget::MemoryBudget;
use rdx_core::error::RdxError;
use rdx_core::strategy::QuerySpec;
use rdx_serve::{
    QueryEngine, QueryOutcome, RelationId, ServerRequest, TenantId, TicketId, TicketStatus,
};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::Duration;

/// A non-blocking listening socket, TCP or unix-domain.
#[derive(Debug)]
pub enum NetListener {
    /// A TCP listener (loopback or otherwise).
    Tcp(TcpListener),
    /// A unix-domain socket listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl NetListener {
    /// Binds a TCP listener (pass port 0 for an ephemeral port) and
    /// switches it to non-blocking mode.
    pub fn bind_tcp(addr: &str) -> io::Result<NetListener> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(NetListener::Tcp(listener))
    }

    /// Binds a unix-domain listener at `path` and switches it to
    /// non-blocking mode.  The caller owns the path (it must not exist).
    #[cfg(unix)]
    pub fn bind_unix(path: &Path) -> io::Result<NetListener> {
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(NetListener::Unix(listener))
    }

    /// The bound TCP address, for handing an ephemeral port to clients.
    /// `None` for unix listeners.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            NetListener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            NetListener::Unix(_) => None,
        }
    }

    /// Accepts one pending connection, or `None` when nothing is pending.
    fn accept(&self) -> io::Result<Option<NetStream>> {
        match self {
            NetListener::Tcp(l) => match l.accept() {
                Ok((stream, _)) => Ok(Some(NetStream::Tcp(stream))),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            #[cfg(unix)]
            NetListener::Unix(l) => match l.accept() {
                Ok((stream, _)) => Ok(Some(NetStream::Unix(stream))),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// One connected byte stream, TCP or unix-domain — the transport under
/// both the server's connections and the blocking [`crate::NetClient`].
#[derive(Debug)]
pub enum NetStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl NetStream {
    /// Connects to a TCP server (blocking mode — callers that poll flip
    /// it with [`NetStream::set_nonblocking`]).
    pub fn connect_tcp(addr: SocketAddr) -> io::Result<NetStream> {
        Ok(NetStream::Tcp(TcpStream::connect(addr)?))
    }

    /// Connects to a unix-domain server.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> io::Result<NetStream> {
        Ok(NetStream::Unix(UnixStream::connect(path)?))
    }

    /// Switches the stream between blocking and non-blocking mode.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            NetStream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Bounds how long a blocking-mode write waits for send-buffer space
    /// (`SO_SNDTIMEO`); `None` waits indefinitely.  A write that times out
    /// having sent nothing fails with `WouldBlock` or `TimedOut`; one that
    /// sent part of its buffer returns the part.  Non-blocking writes are
    /// unaffected.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_write_timeout(timeout),
            #[cfg(unix)]
            NetStream::Unix(s) => s.set_write_timeout(timeout),
        }
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            NetStream::Unix(s) => s.flush(),
        }
    }
}

/// How long an idle cycle waits.  [`NetServer::serve`] sleeps this long
/// after a cycle that did nothing, and a cycle whose only pending work is a
/// reply behind a full send buffer blocks on that socket with this as its
/// write timeout (rounded up by the kernel to its timer tick) instead of
/// going idle.
pub const IDLE_INTERVAL: Duration = Duration::from_micros(200);

/// The most bytes one idle wait writes: once a slow reader starts to drain,
/// this caps how long it can hold the cycle.
const WAIT_SLICE: usize = 256 * 1024;

/// Tuning knobs for the poll loop.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Per-frame payload cap handed to the decoder — a hostile length
    /// field is refused before any buffer grows to meet it.
    pub max_payload: u32,
    /// Bound on a connection's queued outbound frames.  At the bound the
    /// server stops decoding that connection's requests until the client
    /// drains replies — backpressure that never blocks the engine.
    pub outbound_limit: usize,
    /// Engine steps per poll cycle: the knob trading socket latency
    /// against query throughput.
    pub steps_per_cycle: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_payload: DEFAULT_MAX_PAYLOAD,
            outbound_limit: 64,
            steps_per_cycle: 4,
        }
    }
}

/// Cumulative counters for one server's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections closed (all causes: client EOF, protocol teardown,
    /// socket errors).
    pub closed: u64,
    /// Frames decoded from clients.
    pub frames_in: u64,
    /// Frames queued to clients.
    pub frames_out: u64,
    /// Malformed-input events (each also tears its connection down).
    pub decode_errors: u64,
    /// Times a connection's request decoding paused because its outbound
    /// queue hit [`NetConfig::outbound_limit`].
    pub backpressure_pauses: u64,
    /// Idle waits: times a cycle with nothing else to do blocked on a
    /// connection's full send buffer instead of returning idle.
    pub write_waits: u64,
}

/// Per-connection state: buffered bytes in, queued frames out, and the
/// session facts (tenant, issued tickets) the protocol scopes per
/// connection.
struct Conn {
    stream: NetStream,
    inbound: Vec<u8>,
    outbound: VecDeque<Vec<u8>>,
    /// Bytes of `outbound.front()` already written (partial writes).
    write_pos: usize,
    /// Interned tenant from this connection's `Hello`, billed on every
    /// subsequent `Submit`.
    tenant: Option<TenantId>,
    /// Tickets issued to this connection: raw wire number → engine handle.
    /// Tickets are connection-scoped — polling another client's ticket is
    /// `UnknownTicket` by construction.
    tickets: HashMap<u64, TicketId>,
    /// Tear down once the outbound queue drains (EOF seen, or a protocol
    /// error reply is on its way out).
    close_after_flush: bool,
    /// Set while this connection is holding off decoding at the outbound
    /// bound, so one pause is counted once, not once per poll cycle.
    paused: bool,
    /// Set when an idle wait on this connection timed out without writing
    /// a byte: its reader has stopped, so idle waits skip it until a
    /// non-blocking write moves bytes again.
    stalled: bool,
}

impl Conn {
    fn new(stream: NetStream) -> Conn {
        Conn {
            stream,
            inbound: Vec::new(),
            outbound: VecDeque::new(),
            write_pos: 0,
            tenant: None,
            tickets: HashMap::new(),
            close_after_flush: false,
            paused: false,
            stalled: false,
        }
    }
}

/// What one cycle's socket servicing did to a connection.
enum ConnFate {
    Keep,
    Close,
}

/// The engine's socket front-end: owns a [`QueryEngine`], a listener, and
/// every connection, and multiplexes them from one thread.
///
/// ```no_run
/// use rdx_net::{NetConfig, NetListener, NetServer};
/// use rdx_serve::{QueryEngine, ServeConfig};
///
/// let engine = QueryEngine::new(ServeConfig::default());
/// let listener = NetListener::bind_tcp("127.0.0.1:0").unwrap();
/// let mut server = NetServer::new(listener, engine, NetConfig::default());
/// // register relations via server.engine_mut(), hand out the address...
/// let stats = server.serve();
/// # let _ = stats;
/// ```
pub struct NetServer {
    listener: NetListener,
    engine: QueryEngine,
    config: NetConfig,
    conns: Vec<Conn>,
    stats: NetStats,
    /// `serve` runs until the server has seen at least one client and then
    /// drained back to zero connections with an idle engine.
    seen_any: bool,
    /// Where the next idle wait starts looking for a blocked connection,
    /// so a stalled reader cannot take every wait.
    wait_next: usize,
}

impl NetServer {
    /// Wraps `engine` behind `listener`.
    pub fn new(listener: NetListener, engine: QueryEngine, config: NetConfig) -> NetServer {
        NetServer {
            listener,
            engine,
            config,
            conns: Vec::new(),
            stats: NetStats::default(),
            seen_any: false,
            wait_next: 0,
        }
    }

    /// The engine, for registering relations (and inspecting stats)
    /// before/after serving.
    pub fn engine_mut(&mut self) -> &mut QueryEngine {
        &mut self.engine
    }

    /// The engine, read-only.
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// The bound TCP address (for ephemeral ports); `None` on unix.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.listener.tcp_addr()
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Live connection count.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Runs one cycle: accept pending connections, flush writes, read and
    /// decode requests (respecting per-connection backpressure), then run
    /// up to [`NetConfig::steps_per_cycle`] engine steps.  Replies queued
    /// by this cycle are first written at the start of the next one.
    ///
    /// If all of that did nothing but a reply is stuck behind a full send
    /// buffer, the cycle waits on that socket: one blocking write of at
    /// most 256 KiB of the reply, with [`IDLE_INTERVAL`] as the socket's
    /// write timeout.  Blocked connections take turns at the wait, and one
    /// whose wait timed out without writing a byte is skipped until it
    /// drains again.
    ///
    /// Returns `true` when the cycle did any work: a connection opened or
    /// closed, socket bytes moved (the wait's included), a frame was
    /// handled, or the engine progressed.  `false` means none of that
    /// happened — nothing was pending, or the only pending replies sit
    /// behind send buffers whose readers have stopped (the wait timed out
    /// on one, or all were skipped) — and the caller may sleep for
    /// [`IDLE_INTERVAL`].
    pub fn poll_cycle(&mut self) -> bool {
        let mut progressed = false;

        // Accept everything pending.  Each new socket goes non-blocking so
        // it can never stall the loop; its write timeout bounds the idle
        // wait, the one write made in blocking mode.
        while let Ok(Some(stream)) = self.listener.accept() {
            let ready = stream
                .set_nonblocking(true)
                .and_then(|()| stream.set_write_timeout(Some(IDLE_INTERVAL)));
            if ready.is_ok() {
                self.conns.push(Conn::new(stream));
                self.stats.accepted += 1;
                self.seen_any = true;
                progressed = true;
            }
        }

        // Service each connection: writes first (draining replies is what
        // releases backpressure), then reads.
        let mut idx = 0;
        while idx < self.conns.len() {
            let fate = self.service_conn(idx, &mut progressed);
            match fate {
                ConnFate::Keep => idx += 1,
                ConnFate::Close => {
                    self.close(idx);
                    progressed = true;
                }
            }
        }

        // Engine work, bounded so sockets are re-serviced between bursts.
        for _ in 0..self.config.steps_per_cycle {
            match self.engine.step() {
                rdx_serve::EngineStep::Idle => break,
                rdx_serve::EngineStep::Waiting => {
                    // Parked retries advance on the step clock; count it
                    // as progress so serve() keeps stepping instead of
                    // sleeping the backoff away one cycle at a time.
                    progressed = true;
                }
                _ => progressed = true,
            }
        }

        if !progressed {
            progressed = self.wait_for_write();
        }
        progressed
    }

    /// Serves until at least one client has connected and then *all*
    /// clients have disconnected with the engine drained — the natural
    /// shape for tests and batch front-ends.  Long-running deployments
    /// call [`NetServer::poll_cycle`] in their own loop instead.  Borrows
    /// rather than consumes, so the caller can inspect the engine (stats,
    /// traces, tenant accounting) after the run.
    pub fn serve(&mut self) -> NetStats {
        loop {
            let progressed = self.poll_cycle();
            if self.seen_any && self.conns.is_empty() && self.engine.is_idle() {
                return self.stats;
            }
            if !progressed {
                std::thread::sleep(IDLE_INTERVAL);
            }
        }
    }

    /// Removes connection `idx`, cancelling and draining its outstanding
    /// tickets so nothing stays parked in the engine forever.
    fn close(&mut self, idx: usize) {
        let conn = self.conns.swap_remove(idx);
        for (_, ticket) in conn.tickets {
            self.engine.cancel(ticket);
            let _ = self.engine.take_outcome(ticket);
        }
        self.stats.closed += 1;
    }

    /// The idle wait.  Picks the next connection (in turn) whose queued
    /// reply is stuck — after a cycle that did nothing, any non-empty
    /// outbound queue is one whose last write would have blocked — and
    /// writes up to [`WAIT_SLICE`] bytes of its front frame in blocking
    /// mode, so the write returns as soon as the client has drained room
    /// rather than one blind sleep later.  The socket's write timeout
    /// ([`IDLE_INTERVAL`], set at accept) bounds the wait on a reader that
    /// has stopped, and such a reader is skipped by later waits until it
    /// drains again.  Returns `true` when bytes moved (or the connection
    /// had to be closed); a write error leaves the queue as it was for the
    /// next cycle's non-blocking write to retry or close.
    fn wait_for_write(&mut self) -> bool {
        let n = self.conns.len();
        let Some(idx) = (0..n)
            .map(|k| (self.wait_next + k) % n)
            .find(|&i| !self.conns[i].outbound.is_empty() && !self.conns[i].stalled)
        else {
            return false;
        };
        self.wait_next = idx + 1;
        self.stats.write_waits += 1;
        let conn = &mut self.conns[idx];
        let Some(front) = conn.outbound.front() else {
            return false;
        };
        let end = front.len().min(conn.write_pos + WAIT_SLICE);
        if conn.stream.set_nonblocking(false).is_err() {
            return false;
        }
        let written = conn.stream.write(&front[conn.write_pos..end]);
        let frame_len = front.len();
        if conn.stream.set_nonblocking(true).is_err() {
            // A socket left in blocking mode could stall every later
            // cycle on its read: drop the connection instead.
            self.close(idx);
            return true;
        }
        match written {
            Ok(moved) if moved > 0 => {
                conn.write_pos += moved;
                if conn.write_pos == frame_len {
                    conn.outbound.pop_front();
                    conn.write_pos = 0;
                }
                true
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                conn.stalled = true;
                false
            }
            _ => false,
        }
    }

    fn service_conn(&mut self, idx: usize, progressed: &mut bool) -> ConnFate {
        // --- flush queued replies (partial writes resume at write_pos) ---
        loop {
            let conn = &mut self.conns[idx];
            let Some(front) = conn.outbound.front() else {
                break;
            };
            match conn.stream.write(&front[conn.write_pos..]) {
                Ok(0) => return ConnFate::Close,
                Ok(n) => {
                    *progressed = true;
                    conn.stalled = false;
                    conn.write_pos += n;
                    if conn.write_pos == front.len() {
                        conn.outbound.pop_front();
                        conn.write_pos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ConnFate::Close,
            }
        }
        if self.conns[idx].outbound.is_empty() && self.conns[idx].close_after_flush {
            return ConnFate::Close;
        }

        // --- read whatever the socket has ---
        let mut buf = [0u8; 4096];
        loop {
            let conn = &mut self.conns[idx];
            if conn.close_after_flush {
                break; // tearing down: ignore further input
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // EOF: finish flushing replies, then close.
                    conn.close_after_flush = true;
                    if conn.outbound.is_empty() {
                        return ConnFate::Close;
                    }
                    break;
                }
                Ok(n) => {
                    *progressed = true;
                    conn.inbound.extend_from_slice(&buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ConnFate::Close,
            }
        }

        // --- decode + handle, while the outbound queue has room ---
        loop {
            let conn = &mut self.conns[idx];
            if conn.close_after_flush {
                break;
            }
            if conn.outbound.len() >= self.config.outbound_limit {
                if !conn.paused {
                    conn.paused = true;
                    self.stats.backpressure_pauses += 1;
                }
                break;
            }
            conn.paused = false;
            match decode_frame(&conn.inbound, self.config.max_payload) {
                Ok(None) => break,
                Ok(Some((frame, consumed))) => {
                    conn.inbound.drain(..consumed);
                    self.stats.frames_in += 1;
                    *progressed = true;
                    self.handle_frame(idx, frame);
                }
                Err(err) => {
                    // Protocol violation: best-effort notice, then tear
                    // down this connection only.
                    self.stats.decode_errors += 1;
                    *progressed = true;
                    self.enqueue(
                        idx,
                        &Frame::ProtocolError {
                            detail: err.to_string(),
                        },
                    );
                    self.conns[idx].close_after_flush = true;
                    break;
                }
            }
        }
        ConnFate::Keep
    }

    fn enqueue(&mut self, idx: usize, frame: &Frame) {
        let mut bytes = Vec::new();
        encode_frame(frame, &mut bytes);
        self.enqueue_bytes(idx, bytes);
    }

    /// Queues one already-encoded frame.
    fn enqueue_bytes(&mut self, idx: usize, bytes: Vec<u8>) {
        self.conns[idx].outbound.push_back(bytes);
        self.stats.frames_out += 1;
    }

    fn handle_frame(&mut self, idx: usize, frame: Frame) {
        match frame {
            Frame::Hello { tenant } => {
                let id = tenant.map(|name| self.engine.tenant_id(&name));
                self.conns[idx].tenant = id;
                self.enqueue(
                    idx,
                    &Frame::HelloOk {
                        version: WIRE_VERSION,
                        tenant: id.map(|t| t.raw()),
                    },
                );
            }
            Frame::Submit(spec) => self.handle_submit(idx, spec),
            Frame::Poll { ticket } => self.handle_poll(idx, ticket),
            Frame::Cancel { ticket } => {
                let cancelled = match self.conns[idx].tickets.get(&ticket) {
                    Some(&tid) => self.engine.cancel(tid),
                    None => false,
                };
                self.enqueue(idx, &Frame::CancelResult { ticket, cancelled });
            }
            // A client echoing server frames is a protocol violation of
            // the same severity as unparseable bytes.
            _ => {
                self.stats.decode_errors += 1;
                self.enqueue(
                    idx,
                    &Frame::ProtocolError {
                        detail: "server-to-client frame sent by client".into(),
                    },
                );
                self.conns[idx].close_after_flush = true;
            }
        }
    }

    fn handle_submit(&mut self, idx: usize, spec: SubmitSpec) {
        // A zero budget can never become a valid `MemoryBudget` value, so
        // it is refused before a ticket exists; `NO_TICKET` marks the
        // rejection as pre-admission.  Every other validation failure
        // (unknown relation, too many columns, below-one-row budget…)
        // flows through the engine and surfaces on the ticket, exactly as
        // it does in-process.
        let budget = match spec.budget_bytes {
            Some(bytes) => match MemoryBudget::try_bytes(bytes as usize) {
                Ok(b) => Some(b),
                Err(e) => {
                    self.enqueue(
                        idx,
                        &Frame::Rejected {
                            ticket: NO_TICKET,
                            error: RdxError::Budget(e),
                        },
                    );
                    return;
                }
            },
            None => None,
        };
        let mut request = ServerRequest::new(
            RelationId::from_raw(spec.larger),
            RelationId::from_raw(spec.smaller),
            QuerySpec {
                project_larger: spec.project_larger as usize,
                project_smaller: spec.project_smaller as usize,
            },
        )
        .with_priority(spec.priority);
        if let Some(b) = budget {
            request = request.with_budget_hint(b);
        }
        if let Some(t) = spec.threads {
            request = request.with_threads(t as usize);
        }
        if let Some(codes) = spec.codes {
            request = request.with_codes(codes);
        }
        if let Some(d) = spec.deadline_ns {
            request = request.with_deadline(d);
        }
        if let Some(t) = self.conns[idx].tenant {
            request = request.with_tenant(t);
        }
        let ticket = self.engine.submit(request);
        let raw = ticket.raw();
        self.conns[idx].tickets.insert(raw, ticket);
        self.enqueue(idx, &Frame::Submitted { ticket: raw });
    }

    fn handle_poll(&mut self, idx: usize, ticket: u64) {
        let Some(&tid) = self.conns[idx].tickets.get(&ticket) else {
            self.enqueue(
                idx,
                &Frame::Rejected {
                    ticket,
                    error: RdxError::UnknownTicket { ticket },
                },
            );
            return;
        };
        match self.engine.status(tid) {
            Some(TicketStatus::Queued { position }) => self.enqueue(
                idx,
                &Frame::Queued {
                    ticket,
                    position: position as u64,
                },
            ),
            Some(TicketStatus::Running { chunks, rows }) => self.enqueue(
                idx,
                &Frame::Chunk {
                    ticket,
                    chunks: chunks as u64,
                    rows: rows as u64,
                },
            ),
            Some(TicketStatus::Finished) => {
                // Consume the parked outcome; the ticket is spent.
                let outcome = self.engine.take_outcome(tid);
                self.conns[idx].tickets.remove(&ticket);
                match outcome {
                    Some(QueryOutcome {
                        outcome: Ok(result),
                        ..
                    }) => {
                        // Encoded straight from the result's columns: one
                        // copy of each value, into an exactly sized frame.
                        let mut bytes = Vec::new();
                        encode_done(
                            ticket,
                            result.stats.rows as u64,
                            result.stats.chunks as u64,
                            result.stats.cache_hit,
                            result.stats.share_bytes as u64,
                            result.result.columns().iter().map(|c| c.as_slice()),
                            &mut bytes,
                        );
                        self.enqueue_bytes(idx, bytes);
                    }
                    Some(QueryOutcome {
                        outcome: Err(error),
                        ..
                    }) => self.enqueue(idx, &Frame::Rejected { ticket, error }),
                    None => self.enqueue(
                        idx,
                        &Frame::Rejected {
                            ticket,
                            error: RdxError::UnknownTicket { ticket },
                        },
                    ),
                }
            }
            None => self.enqueue(
                idx,
                &Frame::Rejected {
                    ticket,
                    error: RdxError::UnknownTicket { ticket },
                },
            ),
        }
    }
}

/// The sentinel ticket number on a [`Frame::Rejected`] for a submit that
/// was refused before a ticket could be issued (only a zero-byte budget,
/// which no `MemoryBudget` value can represent).  Real tickets count up
/// from zero and can never reach it.
pub const NO_TICKET: u64 = u64::MAX;
