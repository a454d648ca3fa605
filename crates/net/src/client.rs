//! A minimal blocking client for the wire protocol — enough to drive a
//! server from tests, examples, and other processes without pulling in
//! any async machinery.

use crate::server::NetStream;
use crate::wire::{
    decode_frame, encode_frame, frame_len, Frame, SubmitSpec, WireError, WireReport,
};
use rdx_core::error::RdxError;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

/// Largest read the client issues while it waits for a frame header.
const READ_CHUNK: usize = 4096;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// The server sent bytes that do not decode.
    Wire(WireError),
    /// The server answered with a frame the call did not expect, or sent
    /// [`Frame::ProtocolError`] (the connection is about to be closed).
    Protocol(String),
    /// The server closed the connection.
    Disconnected,
    /// The server refused the request with a typed engine error.
    Rejected(RdxError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "undecodable server bytes: {e}"),
            ClientError::Protocol(d) => write!(f, "protocol violation: {d}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Rejected(e) => write!(f, "request rejected: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            ClientError::Rejected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A blocking connection to a [`crate::NetServer`].
///
/// One request/reply at a time: each helper sends its frame and blocks on
/// the matching reply.  [`NetClient::wait`] layers a poll loop on top to
/// block until a ticket finishes.
pub struct NetClient {
    stream: NetStream,
    inbound: Vec<u8>,
    max_payload: u32,
    /// Delay between polls inside [`NetClient::wait`].
    poll_interval: Duration,
}

impl NetClient {
    /// Connects over TCP.
    pub fn connect_tcp(addr: SocketAddr) -> Result<NetClient, ClientError> {
        Ok(NetClient::new(NetStream::connect_tcp(addr)?))
    }

    /// Connects over a unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> Result<NetClient, ClientError> {
        Ok(NetClient::new(NetStream::connect_unix(path)?))
    }

    /// Wraps an already-connected (blocking-mode) stream.
    pub fn new(stream: NetStream) -> NetClient {
        NetClient {
            stream,
            inbound: Vec::new(),
            max_payload: crate::wire::DEFAULT_MAX_PAYLOAD,
            poll_interval: Duration::from_micros(200),
        }
    }

    /// Sends one frame.
    pub fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        let mut bytes = Vec::new();
        encode_frame(frame, &mut bytes);
        self.stream.write_all(&bytes)?;
        Ok(())
    }

    /// Blocks until the next complete frame arrives.
    ///
    /// Until a frame's header is in hand the client reads up to 4 KiB at a
    /// time; once it is, the buffer is grown once to the frame's exact size
    /// and the rest of the body is read straight into it — no staging copy,
    /// no regrowth per doubling.  The decoder has checked the header by
    /// then, so a hostile length is refused before the buffer grows to meet
    /// it.
    pub fn recv(&mut self) -> Result<Frame, ClientError> {
        loop {
            if let Some((frame, consumed)) = decode_frame(&self.inbound, self.max_payload)? {
                self.inbound.drain(..consumed);
                return Ok(frame);
            }
            let len = self.inbound.len();
            let read = match frame_len(&self.inbound) {
                Some(total) => {
                    let rest = total - len;
                    self.inbound.reserve_exact(rest);
                    (&mut self.stream)
                        .take(rest as u64)
                        .read_to_end(&mut self.inbound)
                }
                None => {
                    // Fewer than HEADER_LEN bytes are buffered.
                    self.inbound.resize(READ_CHUNK, 0);
                    let read = self.stream.read(&mut self.inbound[len..]);
                    self.inbound.truncate(len + read.as_ref().map_or(0, |&n| n));
                    read
                }
            };
            match read {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Receives, turning a server-side [`Frame::ProtocolError`] into the
    /// typed client error every helper reports it as.
    fn recv_expected(&mut self) -> Result<Frame, ClientError> {
        match self.recv()? {
            Frame::ProtocolError { detail } => Err(ClientError::Protocol(detail)),
            frame => Ok(frame),
        }
    }

    /// Opens the session, optionally naming the tenant every subsequent
    /// submit is billed to.  Returns the server's wire version and the
    /// interned raw tenant id.
    pub fn hello(&mut self, tenant: Option<&str>) -> Result<(u8, Option<u32>), ClientError> {
        self.send(&Frame::Hello {
            tenant: tenant.map(str::to_owned),
        })?;
        match self.recv_expected()? {
            Frame::HelloOk { version, tenant } => Ok((version, tenant)),
            other => Err(ClientError::Protocol(format!(
                "expected HelloOk, got {other:?}"
            ))),
        }
    }

    /// Submits one query, returning its ticket.  A pre-ticket refusal
    /// (zero-byte budget) surfaces as [`ClientError::Rejected`].
    pub fn submit(&mut self, spec: SubmitSpec) -> Result<u64, ClientError> {
        self.send(&Frame::Submit(spec))?;
        match self.recv_expected()? {
            Frame::Submitted { ticket } => Ok(ticket),
            Frame::Rejected { error, .. } => Err(ClientError::Rejected(error)),
            other => Err(ClientError::Protocol(format!(
                "expected Submitted, got {other:?}"
            ))),
        }
    }

    /// Polls a ticket once, returning the raw status frame (`Queued`,
    /// `Chunk`, `Done`, or `Rejected`).
    pub fn poll(&mut self, ticket: u64) -> Result<Frame, ClientError> {
        self.send(&Frame::Poll { ticket })?;
        match self.recv_expected()? {
            frame @ (Frame::Queued { .. }
            | Frame::Chunk { .. }
            | Frame::Done { .. }
            | Frame::Rejected { .. }) => Ok(frame),
            other => Err(ClientError::Protocol(format!(
                "expected a status frame, got {other:?}"
            ))),
        }
    }

    /// Cancels a ticket; `false` means it had already finished (or was
    /// never this connection's).
    pub fn cancel(&mut self, ticket: u64) -> Result<bool, ClientError> {
        self.send(&Frame::Cancel { ticket })?;
        match self.recv_expected()? {
            Frame::CancelResult { cancelled, .. } => Ok(cancelled),
            other => Err(ClientError::Protocol(format!(
                "expected CancelResult, got {other:?}"
            ))),
        }
    }

    /// Polls until the ticket finishes: the completion report on success,
    /// the typed engine error on refusal — the same `Result` shape the
    /// in-process `run` returns.
    pub fn wait(&mut self, ticket: u64) -> Result<Result<WireReport, RdxError>, ClientError> {
        loop {
            match self.poll(ticket)? {
                Frame::Done { report, .. } => return Ok(Ok(report)),
                Frame::Rejected { error, .. } => return Ok(Err(error)),
                _ => std::thread::sleep(self.poll_interval),
            }
        }
    }
}
