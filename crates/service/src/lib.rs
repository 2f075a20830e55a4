//! The long-lived allocation service: a resident solver pool with
//! stream-affine routing.
//!
//! The paper's allocator is a one-shot solve; a hosting platform invokes
//! it continuously as services arrive, depart and change their demands.
//! Re-paying the per-invocation setup — roster construction, packing
//! scratch, simplex assembly, a cold binary search from `[0, 1]` — on
//! every request dominates the useful work long before the solver itself
//! does. This crate restructures the solve path into a service:
//!
//! ```text
//!   AllocRequest stream
//!         │
//!   SolverPool::submit — stream-affine routing (stream % workers),
//!         │              admission, one FIFO channel per worker
//!   ┌─────┴─────┐
//!   ▼           ▼
//! Worker 0 … Worker W   — resident threads, each owning an
//!   │           │         EngineHandle (roster + SolveCtx with
//!   │           │         long-lived packing workspaces), one record
//!   │           │         per stream (instance, last solution,
//!   │           │         stored answer) and, for the exact path, a
//!   │           │         persistent MilpSolver
//!   └─────┬─────┘
//!         ▼
//!   AllocResponse per request (winner, probes, wall, outcome)
//! ```
//!
//! * **Streams** are independent chains of requests against one evolving
//!   instance (`New` → `Delta`* → `Resolve`*). All requests of a stream
//!   go to the same worker in submission order, so per-stream warm state
//!   (the current instance and the last solution, whose yield seeds the
//!   next solve's binary searches) never crosses threads — results are
//!   **bit-for-bit identical** for 1 and N workers on unbudgeted traces.
//! * **One record per stream**: a worker keeps each stream in one place —
//!   live (instance, last solution, stored answer) or stale — and one
//!   private forget point drops the stored answer and the exact path's
//!   built `YieldLp` + [`vmplace_lp::MilpSolver`] on every mutation, so
//!   whatever a worker holds belongs to the stream's current instance.
//! * **Deadlines** plumb all the way down: a request budget becomes the
//!   engine's probe-boundary cutoff, the MILP tree's node-loop cutoff and
//!   the simplex iteration-loop cutoff — a timed-out request still
//!   surfaces the best feasible incumbent found in time.
//! * **Response cache**: identical re-solves (`Resolve` on an unchanged
//!   instance, same budget class and warm hint) are answered from the
//!   stream's stored answer — bit-for-bit equal to solving, marked
//!   `cached` (see [Response cache](#response-cache)).
//! * **Completion sink**: [`SolverPool::with_sink`] delivers responses
//!   through a callback as they finish instead of a collect step — the
//!   submission mode the `vmplace-net` TCP front-end builds on.
//!
//! [`replay_oneshot`] is the reference path: the same request semantics
//! executed with a fresh solver per request and fully re-validated
//! instances — what a caller without this crate would do. The
//! differential test suite pins `SolverPool` replays to it bit-for-bit;
//! the service bench measures the amortisation gap against it.
//!
//! # Response policies
//!
//! Every request carries a [`vmplace_model::ResponsePolicy`] naming the
//! answer contract the caller wants:
//!
//! * **`Exact`** (the default) — the full portfolio solve. Responses are
//!   bit-for-bit identical to [`replay_oneshot`] on unbudgeted traces,
//!   for any worker count, cache on or off. Old clients that predate the
//!   policy field get this implicitly.
//! * **`Repaired { tolerance, max_migrations }`** — the service may keep
//!   the stream's current placement and *patch* it instead of re-solving
//!   (see [`repair`] for the algorithm and its state machine). A repaired
//!   answer is accepted only when its achieved yield is provably within
//!   `tolerance` of an admissible upper bound on the optimum — hence
//!   within `tolerance` of whatever the exact path would have achieved —
//!   and it never moves more than `max_migrations` already-placed
//!   services. When the repair cannot meet either bound, the request
//!   **falls back** to the full `Exact` solve transparently; the response
//!   then carries no `migrations` count and a portfolio winner label
//!   instead of [`REPAIR_WINNER`].
//!
//! Policies are part of the cache key: a `Repaired` hit never answers an
//! `Exact` request and vice versa (see below).
//!
//! # Response cache
//!
//! Service traffic re-asks the same question: a `Resolve` against an
//! instance that has not changed since the stream's last solve
//! (health-check refreshes, periodic reconciliation loops, several
//! tenants of one dashboard). The engines are deterministic, so re-running
//! such a solve reproduces the previous response bit for bit; with
//! [`ServiceConfig::response_cache`] on (the default) the worker skips the
//! solve and echoes the stored answer instead, marked
//! [`cached`](vmplace_model::AllocResponse::cached).
//!
//! A cached answer must be **provably identical** to what the uncached
//! path would have produced. Each stream's record holds at most one
//! stored answer — its latest resolve — and the worker forgets it on
//! every mutation of the stream (`New`, an applied delta, a discard, a
//! retirement, panic recovery; a *rejected* delta changes nothing and
//! keeps it), so a stored answer always belongs to the current instance.
//! On top of that, a hit needs a key equal to the stored one:
//!
//! * the **budget class** (the request's effective wall-clock budget, to
//!   the microsecond; budgeted and unbudgeted solves never share an
//!   answer);
//! * the **response policy** — `Exact` and `Repaired` answers are
//!   different contracts, so a `Repaired` answer never answers an `Exact`
//!   request (nor the reverse), and two `Repaired` policies with
//!   different tolerances or migration budgets never alias. A `Repaired`
//!   answer is also pinned to the **base placement** it repaired from:
//!   the stream's placement can change without a mutation (an
//!   interleaved `Exact` resolve may land on a different placement), and
//!   the repair result is a function of it;
//! * the **warm hint** the stored solve used: the engine's probe sequence
//!   (and thus its probe count and, when the optimum sits near a window
//!   edge, its result) depends on the hint, so a hit is served only when
//!   the hint the new request *would* use is bit-identical to the hint the
//!   stored solve *did* use. Hintless engines (greedy, RRNZ, the MILP)
//!   key on no hint.
//!
//! The hint guard makes hits depend on the hint chain settling. A solve
//! seeded with its own result reproduces itself when every portfolio
//! member is monotone in the yield, and then a burst of identical
//! re-solves hits from the second or third request on. Members are not
//! always monotone, though: a re-seeded solve can land on another yield,
//! so the chain can take many re-solves to settle, or never settle (on
//! the `serve_cached` benchmark workload, seed 3 misses 1023 times
//! against 480 on seed 1). Every such miss is a real solve, so answers
//! stay exact; only the hit rate suffers.
//!
//! Timed-out answers are never stored: a budget expiry is a wall-clock
//! race, not a deterministic function of the request. Nor are the
//! service's transient verdicts (`failed`, `overloaded`,
//! `stale-stream`).

#![deny(missing_docs)]

pub mod fault;
mod metrics;
mod pool;
mod reference;
pub mod repair;
pub mod trace_io;
mod worker;

pub use fault::{FaultPlan, INJECTED_FAULT_MARKER};
pub use pool::{ResponseSink, SolverPool};
pub use reference::replay_oneshot;
pub use repair::{try_repair, yield_upper_bound, Repair};
pub use worker::{OverloadControl, ServiceAlgo, ServiceConfig, Worker, REPAIR_WINNER};
