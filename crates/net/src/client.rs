//! The blocking client: connect, pipelined submit, iterate responses.

use crate::codec;
use crate::wire::{
    self, read_line_bounded, read_server_frame, LineRead, NetError, ServerFrame, MAX_LINE_BYTES,
    MAX_PROTOCOL_VERSION, PROTOCOL_V2, PROTOCOL_VERSION,
};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use vmplace_model::{AllocRequest, AllocResponse};
use vmplace_service::trace_io::write_request;

/// A blocking connection to a `vmplace-net` server.
///
/// Requests are **pipelined**: [`Client::submit`] only buffers the frame,
/// so a caller can queue an entire trace before reading the first
/// response; the server streams responses back in submission order.
/// [`Client::recv_response`] (or the [`Client::responses`] iterator)
/// flushes pending writes and blocks for the next frame.
///
/// [`Client::connect`] requests the highest wire version this build
/// speaks ([`MAX_PROTOCOL_VERSION`], the v2 binary framing) and
/// transparently accepts whatever the server negotiates down to;
/// [`Client::connect_with`] requests a chosen version (`1` pins the v1
/// text framing). After the text handshake the connection is driven in
/// the negotiated framing, and every response is identical
/// field-for-field whichever version carried it
/// ([`Client::wire_version`] reports the outcome).
///
/// ```no_run
/// use vmplace_net::Client;
/// # fn main() -> Result<(), vmplace_net::NetError> {
/// let mut client = Client::connect("127.0.0.1:7070")?;
/// # let trace: Vec<vmplace_model::AllocRequest> = vec![];
/// let responses = client.replay(&trace)?; // pipelined, id-sorted
/// # Ok(()) }
/// ```
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Solver requests submitted but not yet answered.
    pending: usize,
    /// Negotiated wire version (1 = text, 2 = binary).
    wire: u32,
    scratch: String,
    bin_scratch: Vec<u8>,
}

impl Client {
    /// Connects requesting [`MAX_PROTOCOL_VERSION`] (v2, binary) and
    /// performs the handshake; a v1-only server negotiates it down to
    /// text. A server that is shutting down answers the handshake with
    /// `draining`, surfaced as [`NetError::Draining`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, NetError> {
        Client::connect_with(addr, MAX_PROTOCOL_VERSION)
    }

    /// Connects requesting wire version `wire` (1 or 2) and accepts
    /// whatever the server negotiates down to. Requesting
    /// [`PROTOCOL_V2`] against a v1-only server transparently yields a
    /// working v1 text connection.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, wire: u32) -> Result<Client, NetError> {
        if !(1..=MAX_PROTOCOL_VERSION).contains(&wire) {
            return Err(NetError::Protocol(format!(
                "unsupported wire version {wire} (this build speaks 1..={MAX_PROTOCOL_VERSION})"
            )));
        }
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client {
            reader,
            writer: BufWriter::new(stream),
            pending: 0,
            wire: PROTOCOL_VERSION,
            scratch: String::new(),
            bin_scratch: Vec::new(),
        };
        writeln!(client.writer, "{} {}", wire::MAGIC, wire).map_err(NetError::from)?;
        client.writer.flush().map_err(NetError::from)?;

        let greeting = match read_line_bounded(&mut client.reader, MAX_LINE_BYTES)? {
            LineRead::Line(l) => l,
            LineRead::Eof => return Err(NetError::Closed),
            _ => return Err(NetError::Protocol("unreadable greeting".into())),
        };
        let mut words = greeting.split_whitespace();
        match (words.next(), words.next(), words.next()) {
            (Some(wire::MAGIC), Some(version), Some("ready")) => {
                // The server's greeting names the negotiated version; it
                // can only be ≤ what we asked for.
                let negotiated: u32 = version
                    .parse()
                    .map_err(|_| NetError::Protocol(format!("bad greeting `{greeting}`")))?;
                if !(1..=wire).contains(&negotiated) {
                    return Err(NetError::Protocol(format!(
                        "server negotiated unsupported version {negotiated}"
                    )));
                }
                client.wire = negotiated;
                Ok(client)
            }
            (Some(wire::MAGIC), Some(_), Some("draining")) => Err(NetError::Draining),
            (Some("error"), code, _) => Err(NetError::Remote {
                code: code.unwrap_or("").to_string(),
                message: greeting
                    .splitn(3, char::is_whitespace)
                    .nth(2)
                    .unwrap_or("")
                    .to_string(),
            }),
            _ => Err(NetError::Protocol(format!("bad greeting `{greeting}`"))),
        }
    }

    /// The wire version this connection negotiated (1 = text, 2 =
    /// binary).
    pub fn wire_version(&self) -> u32 {
        self.wire
    }

    /// Queues one request frame (buffered; no syscall until a flush).
    /// Stream ids must stay below [`wire::MAX_STREAM_ID`].
    pub fn submit(&mut self, request: &AllocRequest) -> Result<(), NetError> {
        if self.wire >= PROTOCOL_V2 {
            self.bin_scratch.clear();
            codec::encode_request(&mut self.bin_scratch, request);
            self.writer
                .write_all(&self.bin_scratch)
                .map_err(NetError::from)?;
        } else {
            self.scratch.clear();
            write_request(&mut self.scratch, request);
            self.writer
                .write_all(self.scratch.as_bytes())
                .map_err(NetError::from)?;
        }
        self.pending += 1;
        Ok(())
    }

    /// Flushes buffered request frames to the socket.
    pub fn flush(&mut self) -> Result<(), NetError> {
        self.writer.flush().map_err(NetError::from)
    }

    /// Solver requests submitted but not yet answered.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Blocks for the next server frame in the negotiated framing.
    fn read_frame(&mut self) -> Result<ServerFrame, NetError> {
        if self.wire < PROTOCOL_V2 {
            return read_server_frame(&mut self.reader);
        }
        let mut head = [0u8; codec::HEADER_LEN];
        if let Err(e) = self.reader.read_exact(&mut head) {
            return match e.kind() {
                std::io::ErrorKind::UnexpectedEof => Err(NetError::Closed),
                _ => Err(NetError::from(e)),
            };
        }
        let (kind, len) = codec::parse_header(&head);
        if len > codec::MAX_FRAME_BYTES {
            return Err(NetError::Protocol(format!(
                "server frame of {len} bytes exceeds {}",
                codec::MAX_FRAME_BYTES
            )));
        }
        let mut body = vec![0u8; len as usize];
        self.reader.read_exact(&mut body).map_err(NetError::from)?;
        codec::decode_server_frame(kind, &body).map_err(|e| NetError::Protocol(e.to_string()))
    }

    /// Flushes, then blocks for the next response frame. A structured
    /// `error` frame from the server is surfaced as [`NetError::Remote`]
    /// (after which the server closes the connection).
    pub fn recv_response(&mut self) -> Result<AllocResponse, NetError> {
        self.flush()?;
        match self.read_frame()? {
            ServerFrame::Response(r) => {
                self.pending = self.pending.saturating_sub(1);
                Ok(*r)
            }
            ServerFrame::Error { code, message } => Err(NetError::Remote { code, message }),
            ServerFrame::Bye => Err(NetError::Closed),
            ServerFrame::Pong(_) => Err(NetError::Protocol("unsolicited pong".into())),
            ServerFrame::Stats(_) => Err(NetError::Protocol("unsolicited stats".into())),
        }
    }

    /// A blocking iterator over the responses to every pending request,
    /// in submission order. Stops after the last pending response (or
    /// yields one final `Err` and fuses on failure).
    pub fn responses(&mut self) -> Responses<'_> {
        Responses {
            remaining: self.pending,
            client: self,
            failed: false,
        }
    }

    /// Round-trip liveness probe. Pongs are **in-band**: the reply takes
    /// its place in the response stream, so with pending requests the
    /// pong arrives after their responses (call with `pending() == 0`
    /// for a pure latency probe).
    pub fn ping(&mut self, token: &str) -> Result<(), NetError> {
        debug_assert!(
            self.pending == 0,
            "ping with pending responses would misread the stream"
        );
        if self.wire >= PROTOCOL_V2 {
            self.bin_scratch.clear();
            codec::encode_ping(&mut self.bin_scratch, token);
            self.writer
                .write_all(&self.bin_scratch)
                .map_err(NetError::from)?;
        } else {
            writeln!(self.writer, "ping {token}").map_err(NetError::from)?;
        }
        self.flush()?;
        match self.read_frame()? {
            ServerFrame::Pong(t) if t == token => Ok(()),
            ServerFrame::Pong(t) => Err(NetError::Protocol(format!(
                "pong token mismatch: sent `{token}`, got `{t}`"
            ))),
            ServerFrame::Error { code, message } => Err(NetError::Remote { code, message }),
            _ => Err(NetError::Protocol("expected pong".into())),
        }
    }

    /// Fetches the server's live metrics snapshot as a single-line JSON
    /// string (counters, gauges, latency histograms and derived ratios
    /// from the server's [`vmplace_obs::Registry`]). Like pongs, the
    /// reply is **in-band**: call with `pending() == 0` so the snapshot
    /// frame is the next frame on the stream.
    pub fn stats(&mut self) -> Result<String, NetError> {
        debug_assert!(
            self.pending == 0,
            "stats with pending responses would misread the stream"
        );
        if self.wire >= PROTOCOL_V2 {
            self.bin_scratch.clear();
            codec::encode_stats(&mut self.bin_scratch);
            self.writer
                .write_all(&self.bin_scratch)
                .map_err(NetError::from)?;
        } else {
            self.writer.write_all(b"stats\n").map_err(NetError::from)?;
        }
        self.flush()?;
        match self.read_frame()? {
            ServerFrame::Stats(json) => Ok(json),
            ServerFrame::Error { code, message } => Err(NetError::Remote { code, message }),
            _ => Err(NetError::Protocol("expected stats".into())),
        }
    }

    /// Pipelined replay: submits the whole trace, then collects every
    /// response and returns them sorted by request id (the submission
    /// stream order of the trace).
    pub fn replay(&mut self, trace: &[AllocRequest]) -> Result<Vec<AllocResponse>, NetError> {
        for request in trace {
            self.submit(request)?;
        }
        let mut out = Vec::with_capacity(trace.len());
        for response in self.responses() {
            out.push(response?);
        }
        out.sort_by_key(|r| r.id);
        Ok(out)
    }

    /// Asks the server to drain and exit, then reads this connection's
    /// stream to its `bye`, returning any responses that were still in
    /// flight. Consumes the client.
    pub fn shutdown_server(mut self) -> Result<Vec<AllocResponse>, NetError> {
        if self.wire >= PROTOCOL_V2 {
            self.bin_scratch.clear();
            codec::encode_shutdown(&mut self.bin_scratch);
            let frame = std::mem::take(&mut self.bin_scratch);
            self.writer.write_all(&frame).map_err(NetError::from)?;
        } else {
            self.writer
                .write_all(b"shutdown\n")
                .map_err(NetError::from)?;
        }
        self.flush()?;
        let mut leftovers = Vec::new();
        loop {
            match self.read_frame() {
                Ok(ServerFrame::Response(r)) => leftovers.push(*r),
                Ok(ServerFrame::Pong(_)) | Ok(ServerFrame::Stats(_)) => {}
                Ok(ServerFrame::Bye) | Err(NetError::Closed) => return Ok(leftovers),
                Ok(ServerFrame::Error { code, message }) => {
                    return Err(NetError::Remote { code, message })
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Iterator returned by [`Client::responses`].
pub struct Responses<'a> {
    client: &'a mut Client,
    remaining: usize,
    failed: bool,
}

impl Iterator for Responses<'_> {
    type Item = Result<AllocResponse, NetError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match self.client.recv_response() {
            Ok(r) => Some(Ok(r)),
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.failed {
            (0, Some(0))
        } else {
            (self.remaining, Some(self.remaining))
        }
    }
}
