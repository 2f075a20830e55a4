//! Network front-end for the allocation service.
//!
//! The paper's allocator decides placements for a hosting platform; a
//! deployment serves those decisions to cluster managers over the wire.
//! This crate is that front door: a dependency-free (`std::net`) TCP
//! [`Server`] speaking two negotiated wire versions — the v1 text
//! protocol (the request framing of [`vmplace_service::trace_io`]
//! extended with connection control frames) and the v2 length-prefixed
//! binary framing of [`codec`] — routing requests into the resident
//! [`vmplace_service::SolverPool`], plus a blocking, pipelining
//! [`Client`]. Connection sockets are driven by a few `poll(2)`-based
//! event-loop threads multiplexing all sockets.
//!
//! Properties the integration suite (`tests/integration_net.rs`) pins:
//!
//! * **Bit-for-bit transparency** — replaying a trace through a loopback
//!   server yields exactly the responses of an in-process pool replay
//!   (and of the one-shot reference path): yields, placements, winners,
//!   probes and outcomes, at any worker count, with the response cache
//!   on or off. Floats travel as shortest round-trip decimals.
//! * **Ordering** — each connection's responses arrive in its submission
//!   order, however many workers and streams are interleaved behind it.
//! * **Hardening** — oversized frames, invalid UTF-8 and unknown verbs
//!   get a structured `error <code> …` frame, never a panic or a hung
//!   connection, and never disturb other connections.
//! * **Graceful lifecycle** — `--port 0` binds an ephemeral port;
//!   [`Server::shutdown`] drains in-flight requests, answers new
//!   connections with a `draining` greeting, and is idempotent.
//!
//! See `crates/net/README.md` for the frame grammar, versioning and
//! error codes; the `serve_*` workloads of `benchmark/` measure the
//! loopback path end to end.

#![warn(missing_docs)]

mod client;
pub mod codec;
mod event;
mod retry;
mod server;
pub mod wire;

pub use client::{Client, Responses};
pub use retry::{replay_resilient, replay_resilient_with, RetryPolicy};
pub use server::{render_stats, Server, ServerConfig};
pub use wire::NetError;
