//! The `vmplace-net` wire protocol: framing, limits, encode/decode.
//!
//! Line-oriented text over TCP, extending the request framing of
//! [`vmplace_service::trace_io`] (every solver request travels as exactly
//! the `request … end` block a trace file would hold) with connection
//! control frames and response frames. See `crates/net/README.md` for
//! the full grammar, versioning and error-code reference.
//!
//! ## Client → server
//!
//! ```text
//! vmplace-net 1                 # hello: protocol version, first line
//! request <id> <stream> <new|delta|resolve> [budget_ms=N|budget_us=N] [policy=P]
//! …body…                        # exactly trace_io's block body
//! end
//! ping [token]
//! stats                         # ask for a live metrics snapshot
//! shutdown                      # ask the server to drain and exit
//! ```
//!
//! ## Server → client
//!
//! ```text
//! vmplace-net 1 ready           # greeting (or `draining` when shutting down)
//! response <id> <stream> <outcome> <probes> <wall_us> [cached] [repaired=M] [retry-after-ms=N]
//! winner <label>                # optional
//! detail <message>              # optional (rejections)
//! minyield <f64>                # optional ┐
//! yields <f64…>                 #          ├ present iff a solution exists
//! nodes <h…>                    # optional ┘ ('-' = unplaced)
//! end
//! pong [token]
//! stats <json>                  # one-line metrics snapshot (reply to `stats`)
//! error <code> <message>        # structured protocol error, then close
//! bye                           # clean end of the response stream
//! ```
//!
//! Floating-point values are serialised with Rust's shortest round-trip
//! `Display`, so responses decode **bit-for-bit** — the loopback
//! differential suite pins server-mediated replays to in-process ones
//! exactly.

use std::io::{BufRead, Read};
use std::time::Duration;
use vmplace_model::{AllocResponse, Placement, RequestOutcome, Solution};

/// The line-oriented text protocol version (the v1 this module
/// implements). The hello/greeting carries the version; servers answer
/// `min(client version, server maximum)` for known versions and
/// `error bad-version …` for unknown ones.
pub const PROTOCOL_VERSION: u32 = 1;

/// The length-prefixed binary protocol version (see [`crate::codec`]).
/// After a `vmplace-net 2 ready` greeting both directions switch to
/// binary frames; the handshake itself stays text in every version.
pub const PROTOCOL_V2: u32 = 2;

/// Highest protocol version this build can speak.
pub const MAX_PROTOCOL_VERSION: u32 = PROTOCOL_V2;

/// Magic word opening the hello and greeting lines.
pub const MAGIC: &str = "vmplace-net";

/// Longest accepted wire line, in bytes (64 KiB). A line that exceeds it
/// is answered with `error frame-too-large` and the connection closes —
/// the parser never buffers unbounded input.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Most body lines accepted in one `request … end` block. Bounds the
/// total frame at roughly `MAX_BODY_LINES × MAX_LINE_BYTES`.
pub const MAX_BODY_LINES: usize = 65_536;

/// Client stream ids must fit below this bound (2^40): the server packs
/// `(connection, stream)` into one 64-bit stream id to keep different
/// connections' streams separate inside the shared pool.
pub const MAX_STREAM_ID: u64 = 1 << 40;

/// Machine-readable error codes carried by `error` frames.
pub mod codes {
    /// The hello line was missing or spoke an unsupported version.
    pub const BAD_VERSION: &str = "bad-version";
    /// A frame failed to parse (bad header, bad body, bad number…).
    pub const BAD_FRAME: &str = "bad-frame";
    /// A line was not valid UTF-8.
    pub const BAD_UTF8: &str = "bad-utf8";
    /// A line or request block exceeded the protocol limits.
    pub const FRAME_TOO_LARGE: &str = "frame-too-large";
    /// The top-level verb is not part of the protocol.
    pub const UNKNOWN_VERB: &str = "unknown-verb";
    /// The server is shutting down and no longer accepts work.
    pub const DRAINING: &str = "draining";
    /// The server is out of capacity to even accept the connection
    /// (file-descriptor exhaustion). The message carries a
    /// `retry-after-ms=N` hint, mirroring the `overloaded` response
    /// outcome's retry contract.
    pub const OVERLOADED: &str = "overloaded";
}

/// Errors surfaced by the client (and by the server's internal reader).
#[derive(Debug)]
pub enum NetError {
    /// Transport-level I/O failure.
    Io(std::io::Error),
    /// The peer sent a structured `error <code> <message>` frame.
    Remote {
        /// One of [`codes`].
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered the connection attempt with `draining`.
    Draining,
    /// The peer violated the protocol (unparseable frame).
    Protocol(String),
    /// The connection closed before the expected frame arrived.
    Closed,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Remote { code, message } => write!(f, "remote error [{code}]: {message}"),
            NetError::Draining => write!(f, "server is draining (shutting down)"),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NetError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Outcome of one bounded line read.
pub enum LineRead {
    /// A complete line (without its trailing newline), valid UTF-8.
    Line(String),
    /// End of stream before any byte of a new line.
    Eof,
    /// The line exceeded `max` bytes; the connection is desynchronised.
    TooLong,
    /// The line held invalid UTF-8.
    BadUtf8,
}

/// Reads one `\n`-terminated line without ever buffering more than
/// `max + 1` bytes — oversized input is reported, not accumulated.
/// Trailing `\r` is stripped so `telnet`-style peers work.
pub fn read_line_bounded<R: BufRead>(reader: &mut R, max: usize) -> std::io::Result<LineRead> {
    let mut buf = Vec::new();
    let n = reader.take(max as u64 + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if n > max {
        return Ok(LineRead::TooLong);
    }
    // An unterminated final line (EOF without newline) is accepted as-is.
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(LineRead::Line(s)),
        Err(_) => Ok(LineRead::BadUtf8),
    }
}

/// Appends `values` space-separated, each formatted straight into `out`.
fn fmt_f64s(out: &mut String, values: &[f64]) {
    use std::fmt::Write as _;
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{v}");
    }
}

/// Serialises one response frame (`response … end`).
pub fn write_response(out: &mut String, resp: &AllocResponse) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "response {} {} {} {} {}",
        resp.id,
        resp.stream,
        resp.outcome.wire_name(),
        resp.probes,
        resp.wall.as_micros()
    );
    if resp.cached {
        out.push_str(" cached");
    }
    // Only repair-path responses carry the attribute, so clients that
    // never send a repaired policy never see it (version tolerance).
    if let Some(m) = resp.migrations {
        let _ = write!(out, " repaired={m}");
    }
    // Likewise only shed responses carry a retry hint. A sub-millisecond
    // hint rounds up: `retry-after-ms=0` would read as "retry now".
    if let Some(after) = resp.retry_after {
        let _ = write!(out, " retry-after-ms={}", after.as_millis().max(1));
    }
    out.push('\n');
    if let Some(winner) = &resp.winner {
        let _ = writeln!(out, "winner {winner}");
    }
    if let Some(error) = &resp.error {
        // Rejection details are single-line by construction (model error
        // Displays); defensively flatten any newline.
        let _ = writeln!(out, "detail {}", error.replace('\n', " "));
    }
    if let Some(sol) = &resp.solution {
        let _ = writeln!(out, "minyield {}", sol.min_yield);
        out.push_str("yields ");
        fmt_f64s(out, &sol.yields);
        out.push('\n');
        out.push_str("nodes");
        for j in 0..sol.placement.len() {
            match sol.placement.node_of(j) {
                Some(h) => {
                    let _ = write!(out, " {h}");
                }
                None => out.push_str(" -"),
            }
        }
        out.push('\n');
    }
    out.push_str("end\n");
}

/// A parsed server → client frame.
#[derive(Debug)]
pub enum ServerFrame {
    /// A solver response.
    Response(Box<AllocResponse>),
    /// Reply to `ping`.
    Pong(String),
    /// Reply to `stats`: the server's live metrics snapshot as one line
    /// of JSON (see `vmplace_obs::Snapshot::to_json` for the shape).
    Stats(String),
    /// Structured protocol error.
    Error {
        /// One of [`codes`].
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// Clean end of the response stream.
    Bye,
}

/// Reads and parses the next server frame from `reader`.
pub fn read_server_frame<R: BufRead>(reader: &mut R) -> Result<ServerFrame, NetError> {
    let header = loop {
        match read_line_bounded(reader, MAX_LINE_BYTES)? {
            LineRead::Eof => return Err(NetError::Closed),
            LineRead::TooLong => return Err(NetError::Protocol("oversized frame line".into())),
            LineRead::BadUtf8 => return Err(NetError::Protocol("invalid UTF-8".into())),
            LineRead::Line(l) if l.trim().is_empty() => continue,
            LineRead::Line(l) => break l,
        }
    };
    let (verb, rest) = header
        .trim()
        .split_once(char::is_whitespace)
        .unwrap_or((header.trim(), ""));
    match verb {
        "pong" => Ok(ServerFrame::Pong(rest.trim().to_string())),
        "stats" => Ok(ServerFrame::Stats(rest.trim().to_string())),
        "bye" => Ok(ServerFrame::Bye),
        "error" => {
            let (code, message) = rest
                .trim()
                .split_once(char::is_whitespace)
                .unwrap_or((rest, ""));
            Ok(ServerFrame::Error {
                code: code.to_string(),
                message: message.trim().to_string(),
            })
        }
        "response" => parse_response(rest, reader).map(|r| ServerFrame::Response(Box::new(r))),
        other => Err(NetError::Protocol(format!("unknown server verb `{other}`"))),
    }
}

fn parse_response<R: BufRead>(
    header_rest: &str,
    reader: &mut R,
) -> Result<AllocResponse, NetError> {
    let bad = |what: &str| NetError::Protocol(format!("response frame: {what}"));
    let mut words = header_rest.split_whitespace();
    let (Some(id), Some(stream), Some(outcome), Some(probes), Some(wall_us)) = (
        words.next(),
        words.next(),
        words.next(),
        words.next(),
        words.next(),
    ) else {
        return Err(bad("short header"));
    };
    let id: u64 = id.parse().map_err(|_| bad("bad id"))?;
    let stream: u64 = stream.parse().map_err(|_| bad("bad stream"))?;
    let outcome = RequestOutcome::from_wire(outcome).ok_or_else(|| bad("bad outcome"))?;
    let probes: u64 = probes.parse().map_err(|_| bad("bad probes"))?;
    let wall_us: u64 = wall_us.parse().map_err(|_| bad("bad wall"))?;
    let mut cached = false;
    let mut migrations = None;
    let mut retry_after = None;
    for extra in words {
        if let Some(m) = extra.strip_prefix("repaired=") {
            migrations = Some(m.parse().map_err(|_| bad("bad migration count"))?);
            continue;
        }
        if let Some(ms) = extra.strip_prefix("retry-after-ms=") {
            let ms: u64 = ms.parse().map_err(|_| bad("bad retry-after"))?;
            retry_after = Some(Duration::from_millis(ms));
            continue;
        }
        match extra {
            "cached" => cached = true,
            other => return Err(bad(&format!("unknown response attribute `{other}`"))),
        }
    }

    let mut winner = None;
    let mut error = None;
    let mut min_yield: Option<f64> = None;
    let mut yields: Option<Vec<f64>> = None;
    let mut nodes: Option<Vec<Option<usize>>> = None;
    loop {
        let line = match read_line_bounded(reader, MAX_LINE_BYTES)? {
            LineRead::Eof => return Err(NetError::Closed),
            LineRead::TooLong => return Err(bad("oversized body line")),
            LineRead::BadUtf8 => return Err(bad("invalid UTF-8 in body")),
            LineRead::Line(l) => l,
        };
        let trimmed = line.trim();
        if trimmed == "end" {
            break;
        }
        let (word, rest) = trimmed
            .split_once(char::is_whitespace)
            .unwrap_or((trimmed, ""));
        match word {
            "winner" => winner = Some(rest.to_string()),
            "detail" => error = Some(rest.to_string()),
            "minyield" => min_yield = Some(rest.trim().parse().map_err(|_| bad("bad minyield"))?),
            "yields" => {
                let parsed: Result<Vec<f64>, _> = rest.split_whitespace().map(str::parse).collect();
                yields = Some(parsed.map_err(|_| bad("bad yields"))?);
            }
            "nodes" => {
                let parsed: Result<Vec<Option<usize>>, NetError> = rest
                    .split_whitespace()
                    .map(|w| {
                        if w == "-" {
                            Ok(None)
                        } else {
                            w.parse().map(Some).map_err(|_| bad("bad node index"))
                        }
                    })
                    .collect();
                nodes = Some(parsed?);
            }
            other => return Err(bad(&format!("unknown body line `{other}`"))),
        }
    }

    let solution = match (min_yield, yields, nodes) {
        (Some(min_yield), Some(yields), Some(nodes)) => {
            if yields.len() != nodes.len() {
                return Err(bad("yields/nodes length mismatch"));
            }
            Some(Solution {
                placement: Placement::from_assignment(nodes),
                yields,
                min_yield,
            })
        }
        (None, None, None) => None,
        _ => {
            return Err(bad(
                "partial solution (minyield/yields/nodes must travel together)",
            ))
        }
    };
    Ok(AllocResponse {
        id,
        stream,
        outcome,
        solution,
        winner,
        probes,
        wall: Duration::from_micros(wall_us),
        error,
        cached,
        migrations,
        retry_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn roundtrip(resp: &AllocResponse) -> AllocResponse {
        let mut text = String::new();
        write_response(&mut text, resp);
        let mut reader = BufReader::new(text.as_bytes());
        match read_server_frame(&mut reader).expect("parse") {
            ServerFrame::Response(r) => *r,
            other => panic!("expected response, got {other:?}"),
        }
    }

    #[test]
    fn response_roundtrip_is_bit_exact() {
        let resp = AllocResponse {
            id: 42,
            stream: 7,
            outcome: RequestOutcome::Solved,
            solution: Some(Solution {
                placement: Placement::from_assignment(vec![Some(1), Some(0), None]),
                yields: vec![0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE],
                min_yield: 1.0 / 3.0,
            }),
            winner: Some("FF/MAX_DESC/NAT".into()),
            probes: 99,
            wall: Duration::from_micros(12345),
            error: None,
            cached: true,
            migrations: None,
            retry_after: None,
        };
        let back = roundtrip(&resp);
        assert_eq!(back.id, 42);
        assert_eq!(back.stream, 7);
        assert_eq!(back.outcome, RequestOutcome::Solved);
        assert!(back.cached);
        assert_eq!(back.migrations, None);
        assert_eq!(back.probes, 99);
        assert_eq!(back.wall, Duration::from_micros(12345));
        assert_eq!(back.winner.as_deref(), Some("FF/MAX_DESC/NAT"));
        let (a, b) = (resp.solution.unwrap(), back.solution.unwrap());
        assert_eq!(a.min_yield.to_bits(), b.min_yield.to_bits());
        for (x, y) in a.yields.iter().zip(&b.yields) {
            assert_eq!(x.to_bits(), y.to_bits(), "yield bits");
        }
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn solved_response_frame_bytes_are_pinned() {
        // Shortest round-trip decimals, integral values without a
        // fraction, an unplaced service and every optional attribute a
        // solved frame can carry: the exact bytes v1 clients parse.
        let resp = AllocResponse {
            id: 42,
            stream: 7,
            outcome: RequestOutcome::Solved,
            solution: Some(Solution {
                placement: Placement::from_assignment(vec![Some(1), Some(0), None, Some(12)]),
                yields: vec![0.1 + 0.2, 1.0 / 3.0, 1e-7, 1.0],
                min_yield: 1e-7,
            }),
            winner: Some("FF/MAX_DESC/NAT".into()),
            probes: 99,
            wall: Duration::from_micros(12345),
            error: None,
            cached: true,
            migrations: Some(2),
            retry_after: None,
        };
        let mut text = String::new();
        write_response(&mut text, &resp);
        assert_eq!(
            text,
            "response 42 7 solved 99 12345 cached repaired=2\n\
             winner FF/MAX_DESC/NAT\n\
             minyield 0.0000001\n\
             yields 0.30000000000000004 0.3333333333333333 0.0000001 1\n\
             nodes 1 0 - 12\n\
             end\n"
        );
    }

    #[test]
    fn rejection_roundtrip_keeps_detail() {
        let resp = AllocResponse::rejected(3, 1, "delta before New".into());
        let back = roundtrip(&resp);
        assert_eq!(back.outcome, RequestOutcome::Rejected);
        assert_eq!(back.error.as_deref(), Some("delta before New"));
        assert!(back.solution.is_none());
        assert!(!back.cached);
    }

    #[test]
    fn control_frames_parse() {
        let mut r = BufReader::new(&b"pong hello\nbye\nerror bad-frame line 3: nope\n"[..]);
        assert!(matches!(
            read_server_frame(&mut r).unwrap(),
            ServerFrame::Pong(t) if t == "hello"
        ));
        assert!(matches!(
            read_server_frame(&mut r).unwrap(),
            ServerFrame::Bye
        ));
        match read_server_frame(&mut r).unwrap() {
            ServerFrame::Error { code, message } => {
                assert_eq!(code, "bad-frame");
                assert_eq!(message, "line 3: nope");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(read_server_frame(&mut r), Err(NetError::Closed)));
    }

    #[test]
    fn stats_frame_parses_with_its_json_payload() {
        let mut r = BufReader::new(&b"stats {\"counters\":{\"net.requests\":3}}\nbye\n"[..]);
        match read_server_frame(&mut r).unwrap() {
            ServerFrame::Stats(json) => {
                assert_eq!(json, "{\"counters\":{\"net.requests\":3}}");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            read_server_frame(&mut r).unwrap(),
            ServerFrame::Bye
        ));
    }

    #[test]
    fn bounded_reader_flags_oversize_and_bad_utf8() {
        let long = [b'x'; 100];
        let mut r = BufReader::new(&long[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 10).unwrap(),
            LineRead::TooLong
        ));
        let mut r = BufReader::new(&b"\xff\xfe\n"[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 10).unwrap(),
            LineRead::BadUtf8
        ));
        let mut r = BufReader::new(&b"ok\r\n"[..]);
        match read_line_bounded(&mut r, 10).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "ok"),
            _ => panic!(),
        }
    }

    #[test]
    fn repaired_attribute_roundtrips() {
        let mut resp = AllocResponse::rejected(3, 1, "x".into());
        resp.outcome = RequestOutcome::Solved;
        resp.error = None;
        resp.migrations = Some(2);
        let mut text = String::new();
        write_response(&mut text, &resp);
        assert!(text.contains(" repaired=2"), "{text}");
        let back = roundtrip(&resp);
        assert_eq!(back.migrations, Some(2));
    }

    #[test]
    fn failure_outcomes_and_retry_hint_roundtrip() {
        let resp = AllocResponse::overloaded(8, 2, Duration::from_millis(250));
        let mut text = String::new();
        write_response(&mut text, &resp);
        assert!(text.contains(" retry-after-ms=250"), "{text}");
        let back = roundtrip(&resp);
        assert_eq!(back.outcome, RequestOutcome::Overloaded);
        assert_eq!(back.retry_after, Some(Duration::from_millis(250)));
        assert!(back.error.is_some());

        // Sub-millisecond hints round up instead of advertising zero.
        let tiny = AllocResponse::overloaded(9, 2, Duration::from_micros(3));
        let mut text = String::new();
        write_response(&mut text, &tiny);
        assert!(text.contains(" retry-after-ms=1"), "{text}");

        let back = roundtrip(&AllocResponse::failed(10, 2, "worker panicked".into()));
        assert_eq!(back.outcome, RequestOutcome::Failed);
        assert_eq!(back.error.as_deref(), Some("worker panicked"));
        assert_eq!(back.retry_after, None);

        let back = roundtrip(&AllocResponse::stale_stream(11, 2));
        assert_eq!(back.outcome, RequestOutcome::StaleStream);
        assert!(back.error.is_some());
    }

    #[test]
    fn partial_solutions_are_rejected() {
        let text = "response 0 0 solved 1 1\nyields 0.5\nend\n";
        let mut r = BufReader::new(text.as_bytes());
        assert!(matches!(
            read_server_frame(&mut r),
            Err(NetError::Protocol(_))
        ));
    }
}
