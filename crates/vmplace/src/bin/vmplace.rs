//! `vmplace` — command-line solver.
//!
//! ```text
//! vmplace solve  <instance.txt> [--algo light|hvp|vp|greedy|rrnz|milp] [--plan]
//!                [--threads N] [--budget-ms MS] [--report]
//! vmplace replay <trace.txt> [--algo …] [--workers N] [--no-warm] [--no-order]
//!                [--no-cache] [--oneshot] [--budget-ms MS] [--policy P] [--quiet]
//!                [--queue-depth N] [--faults SPEC]
//! vmplace replay --gen [--streams S] [--requests R] [--seed K] [--hosts N]
//!                [--services J] [--cov C] [--slack S] [--burst B] [--emit]
//!                [--shape spike|flash|churn] [--workers N] …
//! vmplace serve  [--port P | --addr A] [--algo …] [--workers N] [--no-warm]
//!                [--no-order] [--no-cache] [--budget-ms MS]
//!                [--queue-depth N] [--faults SPEC] [--wire v2|v1]
//!                [--event-threads N] [--metrics-interval SECS]
//! vmplace client <addr> [<trace.txt>|--gen] [--quiet] [--shutdown] [--ping]
//!                [--stats] [--retries N] [--wire v2|v1] […--gen opts]
//! vmplace top    <addr> [--wire v2|v1]
//! vmplace gen    [--hosts 64] [--services 100] [--cov 0.5] [--slack 0.5] [--seed 0]
//! vmplace example
//! ```
//!
//! `solve` reads an instance in the text format of `vmplace_model::io`,
//! maximises the minimum yield and prints per-service allocations.
//! `--threads` sets the portfolio engine's worker count (default: all
//! cores / `VMPLACE_THREADS`), `--budget-ms` bounds the wall-clock spent
//! — including the `--algo milp` branch & bound, which returns its best
//! incumbent in time — and `--report` prints per-member engine telemetry.
//!
//! `replay` drives a request trace (`vmplace_service::trace_io` format,
//! or `--gen` for a generated one; add `--emit` to print it instead of
//! running) through the resident solver pool and reports per-request and
//! amortised latency; `--oneshot` uses the independent one-shot reference
//! path instead, `--no-warm` disables warm-start seeding and `--no-order`
//! the telemetry roster ordering. `--policy` stamps a response policy
//! (`exact`, `repaired`, or `repaired:<tol>:<maxmig>`) onto every
//! follow-up request of the trace — `repaired` lets the service patch the
//! previous placement instead of re-solving when it can prove the yield
//! stays within the tolerance (see `vmplace_service::repair`).
//!
//! `serve` binds the allocation service's TCP front-end (`--port 0`
//! picks an ephemeral port and reports it) and runs until a client sends
//! the `shutdown` frame; `--queue-depth` bounds each worker's queue
//! (overload answers `overloaded` with a `retry-after-ms` hint instead
//! of queueing forever) and `--faults` injects a deterministic
//! `FaultPlan` (e.g. `panic=5,drop=20,seed=7`) for chaos testing.
//! `client` connects to a running server and drives a trace through
//! it — the network twin of `replay`, with `--shutdown` to stop the
//! server afterwards, `--ping` for a liveness round-trip, `--stats` to
//! print the server's live metrics snapshot as one line of JSON, and
//! `--retries N` for the resilient replay (reconnect with backoff,
//! resubmit unanswered streams, honor retry hints; the up-front
//! `--ping`/`--shutdown` connection retries refusals too).
//!
//! `serve --metrics-interval SECS` prints the same JSON snapshot to
//! stderr every `SECS` seconds while the server runs, and `top <addr>`
//! asks a running server for one snapshot over the wire and renders a
//! human summary (request/connection counters, queue depth, shed and
//! panic counts, cache hit ratio, latency quantiles).
//!
//! `--wire` names the wire generation a `serve`, `client` or `top`
//! speaks: `v2` (binary, the default) or `v1` (text). A client's request
//! is negotiated down against a server pinned to `v1`, so either side
//! alone can pin text.
//!
//! `gen` prints a generated §4-style instance (pipe it to a file, edit
//! it, solve it). `example` prints the paper's Figure 1 instance.
//!
//! Every subcommand rejects a `--flag` its usage does not list (exit 2).

use vmplace::prelude::*;
use vmplace::service::trace_io;
use vmplace_model::io::{read_instance, write_instance};

fn usage() -> ! {
    eprintln!(
        "usage:\n  vmplace solve <instance.txt> [--algo light|hvp|vp|greedy|rrnz|milp] [--plan]\n  \
         \x20              [--threads N] [--budget-ms MS] [--report]\n  \
         vmplace replay <trace.txt>|--gen [--algo A] [--workers N] [--no-warm] [--no-order]\n  \
         \x20              [--no-cache] [--oneshot] [--budget-ms MS] [--quiet]\n  \
         \x20              [--queue-depth N] [--faults SPEC]\n  \
         \x20              [--policy exact|repaired|repaired:<tol>:<maxmig>]\n  \
         \x20              (--gen also: [--streams S] [--requests R] [--seed K] [--hosts N]\n  \
         \x20               [--services J] [--cov C] [--slack S] [--burst B]\n  \
         \x20               [--shape spike|flash|churn] [--emit])\n  \
         vmplace serve [--port P | --addr A] [--algo A] [--workers N] [--no-warm]\n  \
         \x20              [--no-order] [--no-cache] [--budget-ms MS]\n  \
         \x20              [--queue-depth N] [--faults SPEC] [--wire v2|v1]\n  \
         \x20              [--event-threads N] [--metrics-interval SECS]\n  \
         vmplace client <addr> [<trace.txt>|--gen] [--quiet] [--shutdown] [--ping] [--stats]\n  \
         \x20              [--retries N] [--wire v2|v1] (--gen and --policy opts as for replay)\n  \
         vmplace top <addr> [--wire v2|v1]\n  \
         vmplace gen [--hosts N] [--services J] [--cov C] [--slack S] [--seed K]\n  \
         vmplace example"
    );
    std::process::exit(2);
}

fn flag_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Flags as the usage text lists them: the name, and whether it takes a
/// value.
type Flags = &'static [(&'static str, bool)];

/// `trace_from_args`: a generated trace's shape and the policy stamp.
const TRACE_FLAGS: Flags = &[
    ("--gen", false),
    ("--streams", true),
    ("--requests", true),
    ("--seed", true),
    ("--hosts", true),
    ("--services", true),
    ("--cov", true),
    ("--slack", true),
    ("--burst", true),
    ("--shape", true),
    ("--policy", true),
];

/// `service_config_from_args`.
const SERVICE_FLAGS: Flags = &[
    ("--algo", true),
    ("--workers", true),
    ("--no-warm", false),
    ("--no-order", false),
    ("--no-cache", false),
    ("--budget-ms", true),
    ("--queue-depth", true),
    ("--faults", true),
];

const WIRE_FLAGS: Flags = &[("--wire", true)];

/// The flags `cmd` accepts, or `None` for an unknown subcommand.
fn accepted_flags(cmd: &str) -> Option<Vec<Flags>> {
    Some(match cmd {
        "solve" => vec![&[
            ("--algo", true),
            ("--plan", false),
            ("--threads", true),
            ("--budget-ms", true),
            ("--report", false),
        ]],
        "replay" => vec![
            TRACE_FLAGS,
            SERVICE_FLAGS,
            &[("--oneshot", false), ("--quiet", false), ("--emit", false)],
        ],
        "serve" => vec![
            SERVICE_FLAGS,
            WIRE_FLAGS,
            &[
                ("--port", true),
                ("--addr", true),
                ("--event-threads", true),
                ("--metrics-interval", true),
            ],
        ],
        "client" => vec![
            TRACE_FLAGS,
            WIRE_FLAGS,
            &[
                ("--quiet", false),
                ("--shutdown", false),
                ("--ping", false),
                ("--stats", false),
                ("--retries", true),
            ],
        ],
        "top" => vec![WIRE_FLAGS],
        "gen" => vec![&[
            ("--hosts", true),
            ("--services", true),
            ("--cov", true),
            ("--slack", true),
            ("--seed", true),
        ]],
        "example" => vec![],
        _ => return None,
    })
}

/// The first `--flag` after the subcommand that no list in `accepted`
/// declares; a declared flag's value is skipped, never read as a flag.
fn unknown_flag<'a>(args: &'a [String], accepted: &[Flags]) -> Option<&'a str> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            continue;
        }
        match accepted
            .iter()
            .copied()
            .flatten()
            .find(|(name, _)| name == arg)
        {
            Some((_, true)) => {
                rest.next();
            }
            Some((_, false)) => {}
            None => return Some(arg),
        }
    }
    None
}

/// The wire version `--wire v2|v1` names — the highest this build speaks
/// when absent. A server takes it as its ceiling, a client as its
/// request; the handshake negotiates down to the lower of the two.
fn wire_from_args(args: &[String]) -> u32 {
    match flag_value(args, "--wire").as_deref() {
        None => vmplace::net::wire::MAX_PROTOCOL_VERSION,
        Some("v2") => vmplace::net::wire::PROTOCOL_V2,
        Some("v1") => 1,
        Some(spec) => {
            eprintln!("error: bad --wire `{spec}` (use v2|v1)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(cmd) = args.first() {
        if let Some(accepted) = accepted_flags(cmd) {
            if let Some(flag) = unknown_flag(&args, &accepted) {
                eprintln!("error: `vmplace {cmd}` does not accept `{flag}`");
                std::process::exit(2);
            }
        }
    }
    match args.first().map(String::as_str) {
        Some("solve") => cmd_solve(&args),
        Some("replay") => cmd_replay(&args),
        Some("serve") => cmd_serve(&args),
        Some("client") => cmd_client(&args),
        Some("top") => cmd_top(&args),
        Some("gen") => cmd_gen(&args),
        Some("example") => {
            let nodes = vec![Node::multicore(4, 0.8, 1.0), Node::multicore(2, 1.0, 0.5)];
            let services = vec![Service::new(
                vec![0.5, 0.5],
                vec![1.0, 0.5],
                vec![0.5, 0.0],
                vec![1.0, 0.0],
            )];
            let inst = ProblemInstance::new(nodes, services).unwrap();
            print!("{}", write_instance(&inst));
        }
        _ => usage(),
    }
}

fn cmd_solve(args: &[String]) {
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let instance = match read_instance(&text) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    if let Some(n) = flag_value(args, "--threads").and_then(|v| v.parse().ok()) {
        vmplace::par::set_threads_override(n);
    }
    let algo = flag_value(args, "--algo").unwrap_or_else(|| "light".to_string());
    let mut ctx = SolveCtx::new();
    if let Some(ms) = flag_value(args, "--budget-ms").and_then(|v| v.parse::<u64>().ok()) {
        // Every path honours the budget — the MILP plumbs it into its
        // node loop and per-node simplex iterations and returns its best
        // incumbent found in time.
        ctx = ctx.with_budget(std::time::Duration::from_millis(ms));
    }
    let solution = match algo.as_str() {
        "light" => MetaVp::metahvp_light().solve_with(&instance, &mut ctx),
        "hvp" => MetaVp::metahvp().solve_with(&instance, &mut ctx),
        "vp" => MetaVp::metavp().solve_with(&instance, &mut ctx),
        "greedy" => MetaGreedy.solve_with(&instance, &mut ctx),
        "rrnz" => RandomizedRounding::rrnz(0).solve_with(&instance, &mut ctx),
        "milp" => ExactMilp::default().solve_with(&instance, &mut ctx),
        other => {
            eprintln!("error: unknown algorithm `{other}`");
            std::process::exit(2);
        }
    };

    let report = ctx.take_report();
    if args.iter().any(|a| a == "--report") {
        if let Some(report) = &report {
            print_report(report, solution.as_ref().map(|s| s.min_yield));
        }
    }

    match solution {
        None => {
            let timed_out = report
                .as_ref()
                .is_some_and(|r| r.count(vmplace::core::MemberOutcome::TimedOut) > 0);
            if timed_out {
                eprintln!("TIMED OUT: the wall-clock budget expired before any member finished");
                std::process::exit(4);
            }
            eprintln!("INFEASIBLE: some rigid requirement cannot be satisfied");
            std::process::exit(3);
        }
        Some(sol) => {
            println!(
                "# {} nodes, {} services — algorithm {}",
                instance.num_nodes(),
                instance.num_services(),
                algo
            );
            println!("minimum yield {:.4}", sol.min_yield);
            println!("mean yield    {:.4}", sol.mean_yield());
            for (j, &y) in sol.yields.iter().enumerate() {
                let h = sol.placement.node_of(j).unwrap();
                print!("service {j} -> node {h}  yield {y:.4}");
                if args.iter().any(|a| a == "--plan") {
                    let s = &instance.services()[j];
                    let alloc = s.demand_agg(y);
                    print!("  alloc [");
                    for d in 0..instance.dims() {
                        if d > 0 {
                            print!(", ");
                        }
                        print!("{:.4}", alloc[d]);
                    }
                    print!("]");
                }
                println!();
            }
        }
    }
}

/// Prints the engine's per-member telemetry: summary counts, the yield
/// bounds against the achieved yield, and the completed members ranked by
/// searched yield.
fn print_report(report: &vmplace::core::PortfolioReport, achieved: Option<f64>) {
    use vmplace::core::MemberOutcome;
    eprintln!(
        "# engine {}: {} members on {} threads in {:.1} ms — {} solved, {} pruned, {} failed, {} timed out, probes {} (packs {})",
        report.algorithm,
        report.members.len(),
        report.threads,
        report.wall.as_secs_f64() * 1e3,
        report.count(MemberOutcome::Solved),
        report.count(MemberOutcome::Pruned),
        report.count(MemberOutcome::Failed),
        report.count(MemberOutcome::TimedOut) + report.count(MemberOutcome::Skipped),
        report.total_probes(),
        report.total_packs(),
    );
    if let (Some(ceiling), Some(lambda_hat)) = (report.ceiling, report.lambda_hat) {
        match achieved {
            Some(y) => eprintln!(
                "# ceiling {ceiling:.4} (λ̂ {lambda_hat:.4}), achieved {y:.4}, gap {:.4}",
                ceiling.min(1.0) - y
            ),
            None => eprintln!("# ceiling {ceiling:.4} (λ̂ {lambda_hat:.4}), no placement"),
        }
    }
    let mut solved: Vec<_> = report
        .members
        .iter()
        .filter(|m| m.outcome == MemberOutcome::Solved && m.searched_yield.is_some())
        .collect();
    solved.sort_by(|a, b| {
        b.searched_yield
            .partial_cmp(&a.searched_yield)
            .unwrap()
            .then(a.member.cmp(&b.member))
    });
    for m in solved.iter().take(10) {
        let marker = if Some(m.member) == report.winner {
            " <- winner"
        } else {
            ""
        };
        eprintln!(
            "#   {:<28} searched {:.4}  {} probes  {:.2} ms{}",
            report.label_of(m.member),
            m.searched_yield.unwrap(),
            m.probes,
            m.wall.as_secs_f64() * 1e3,
            marker
        );
    }
}

/// Builds the trace a `replay`/`client` invocation asks for: generated
/// (`--gen`) or read from the file at `args[path_index]`. `--policy`
/// stamps the parsed policy onto every follow-up (`Delta`/`Resolve`)
/// request; opening `New` requests stay exact (nothing to repair yet).
fn trace_from_args(args: &[String], path_index: usize) -> Vec<AllocRequest> {
    let policy = flag_value(args, "--policy").map(|p| match ResponsePolicy::parse(&p) {
        Some(policy) => policy,
        None => {
            eprintln!("error: unknown policy `{p}` (try `exact`, `repaired`, or `repaired:<tolerance>:<max_migrations>`)");
            std::process::exit(2);
        }
    });
    let mut trace = if args.iter().any(|a| a == "--gen") {
        let get = |key: &str, default: f64| -> f64 {
            flag_value(args, key)
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        let cfg = TraceConfig {
            streams: get("--streams", 4.0) as usize,
            requests: get("--requests", 50.0) as usize,
            scenario: ScenarioConfig {
                hosts: get("--hosts", 16.0) as usize,
                services: get("--services", 40.0) as usize,
                cov: get("--cov", 0.5),
                memory_slack: get("--slack", 0.5),
                ..ScenarioConfig::default()
            },
            resolve_burst: get("--burst", 1.0).max(1.0) as usize,
            adversarial: match flag_value(args, "--shape").as_deref() {
                None | Some("plain") => Adversarial::None,
                Some("spike") => Adversarial::Spike,
                Some("flash") => Adversarial::FlashCrowd,
                Some("churn") => Adversarial::ChurnStorm,
                Some(other) => {
                    eprintln!("error: unknown --shape `{other}` (try spike, flash, churn)");
                    std::process::exit(2);
                }
            },
            ..TraceConfig::default()
        };
        cfg.generate(get("--seed", 0.0) as u64)
    } else {
        let Some(path) = args.get(path_index).filter(|a| !a.starts_with("--")) else {
            usage();
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        match trace_io::read_trace(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    };
    if let Some(policy) = policy {
        for req in &mut trace {
            if !matches!(req.kind, RequestKind::New(_)) {
                req.policy = policy;
            }
        }
    }
    trace
}

/// Builds the service configuration shared by `replay`, `serve` (and the
/// defaults `client` reports).
fn service_config_from_args(args: &[String]) -> ServiceConfig {
    let mut config = ServiceConfig {
        warm_start: !args.iter().any(|a| a == "--no-warm"),
        ordered_roster: !args.iter().any(|a| a == "--no-order"),
        response_cache: !args.iter().any(|a| a == "--no-cache"),
        ..ServiceConfig::default()
    };
    if let Some(algo) = flag_value(args, "--algo") {
        match ServiceAlgo::parse(&algo) {
            Some(a) => config.algo = a,
            None => {
                eprintln!("error: unknown algorithm `{algo}`");
                std::process::exit(2);
            }
        }
    }
    if let Some(n) = flag_value(args, "--workers").and_then(|v| v.parse().ok()) {
        config.workers = n;
    }
    if let Some(ms) = flag_value(args, "--budget-ms").and_then(|v| v.parse::<u64>().ok()) {
        config.default_budget = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(depth) = flag_value(args, "--queue-depth") {
        match depth.parse::<usize>().ok().filter(|d| *d > 0) {
            Some(queue_depth) => {
                config.overload = Some(OverloadControl {
                    queue_depth,
                    ..OverloadControl::default()
                })
            }
            None => {
                eprintln!("error: --queue-depth wants a positive integer, got `{depth}`");
                std::process::exit(2);
            }
        }
    }
    if let Some(spec) = flag_value(args, "--faults") {
        match FaultPlan::parse(&spec) {
            Some(plan) => config.faults = Some(plan).filter(|p| !p.is_empty()),
            None => {
                eprintln!(
                    "error: bad --faults spec `{spec}` (items: panic=<idx>, drop=<frames>, \
                     midframe, shortwrite=<bytes>, delay-ms=<ms>, panic-accept=<conn>, seed=<u64>)"
                );
                std::process::exit(2);
            }
        }
    }
    config
}

/// Prints per-request lines (unless quiet) and the summary; returns the
/// number of useful (solved or timed-out) responses.
fn report_responses(
    responses: &[AllocResponse],
    wall: std::time::Duration,
    label: &str,
    detail: &str,
    quiet: bool,
) -> usize {
    let mut solved = 0usize;
    let mut timed_out = 0usize;
    let mut rejected = 0usize;
    let mut infeasible = 0usize;
    let mut cached = 0usize;
    let mut shed = 0usize;
    for r in responses {
        match r.outcome {
            RequestOutcome::Solved => solved += 1,
            RequestOutcome::TimedOut => timed_out += 1,
            RequestOutcome::Infeasible => infeasible += 1,
            RequestOutcome::Rejected => rejected += 1,
            // Service-side failures: a supervised worker panic, a load
            // shed, or a request against a discarded stream. All are
            // retryable (`vmplace client --retries`).
            RequestOutcome::Failed | RequestOutcome::Overloaded | RequestOutcome::StaleStream => {
                shed += 1
            }
        }
        cached += r.cached as usize;
        if !quiet {
            print!(
                "request {:>4} stream {:>3} {:<10}",
                r.id,
                r.stream,
                format!("{:?}", r.outcome)
            );
            match (&r.solution, &r.error) {
                (Some(sol), _) => print!(
                    "  yield {:.4}  {:>6} probes  {:>8.2} ms",
                    sol.min_yield,
                    r.probes,
                    r.wall.as_secs_f64() * 1e3
                ),
                (None, Some(err)) => print!("  {err}"),
                _ => {}
            }
            if r.cached {
                print!("  cached");
            }
            if let Some(after) = r.retry_after {
                print!("  retry-after {} ms", after.as_millis().max(1));
            }
            if let Some(m) = r.migrations {
                print!("  repaired ({m} moved)");
            }
            if let Some(w) = &r.winner {
                print!("  winner {w}");
            }
            println!();
        }
    }
    let requests = responses.len();
    eprintln!(
        "# {} {} requests in {:.1} ms — {:.3} ms/request amortised ({detail}) — {} solved, {} infeasible, {} timed out, {} rejected, {} failed/shed, {} cached",
        requests,
        label,
        wall.as_secs_f64() * 1e3,
        wall.as_secs_f64() * 1e3 / requests.max(1) as f64,
        solved,
        infeasible,
        timed_out,
        rejected,
        shed,
        cached,
    );
    solved + timed_out
}

/// `vmplace replay`: drive a request trace through the allocation service.
fn cmd_replay(args: &[String]) {
    let trace = trace_from_args(args, 1);
    if args.iter().any(|a| a == "--emit") {
        print!("{}", trace_io::write_trace(&trace));
        return;
    }
    let config = service_config_from_args(args);

    let requests = trace.len();
    let oneshot = args.iter().any(|a| a == "--oneshot");
    let t0 = std::time::Instant::now();
    let responses = if oneshot {
        replay_oneshot(trace, &config)
    } else {
        let mut pool = SolverPool::new(&config);
        let responses = pool.replay(trace);
        pool.shutdown();
        responses
    };
    let wall = t0.elapsed();

    let useful = report_responses(
        &responses,
        wall,
        if oneshot { "one-shot" } else { "pooled" },
        &format!(
            "{} workers, algo {}, warm {}, cache {}",
            config.workers,
            config.algo.label(),
            config.warm_start,
            config.response_cache,
        ),
        args.iter().any(|a| a == "--quiet"),
    );
    if useful == 0 && requests > 0 {
        std::process::exit(3);
    }
}

/// `vmplace serve`: bind the TCP front-end and run until a client sends
/// the `shutdown` frame.
fn cmd_serve(args: &[String]) {
    let service = service_config_from_args(args);
    let addr = match (flag_value(args, "--addr"), flag_value(args, "--port")) {
        (Some(addr), _) => addr,
        (None, Some(port)) => format!("127.0.0.1:{port}"),
        (None, None) => "127.0.0.1:0".to_string(),
    };
    let max_wire = wire_from_args(args);
    let config = vmplace::net::ServerConfig {
        service,
        event_threads: flag_value(args, "--event-threads")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        max_wire,
    };
    let server = match vmplace::net::Server::bind(addr.as_str(), &config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    // The parseable line scripts and tests key on; stdout and flushed so
    // `vmplace serve --port 0 > addr.txt &` works.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!(
        "# serving algo {} on {} workers (warm {}, cache {}, wire ≤ v{}) — stop with `vmplace client <addr> --shutdown`",
        config.service.algo.label(),
        config.service.workers.max(1),
        config.service.warm_start,
        config.service.response_cache,
        config.max_wire,
    );
    if let Some(spec) = flag_value(args, "--metrics-interval") {
        let Some(interval) = spec
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0 && s.is_finite())
        else {
            eprintln!("error: --metrics-interval wants a positive number of seconds, got `{spec}`");
            std::process::exit(2);
        };
        // The printer owns only the registry handle, so the server can be
        // consumed by `wait()`; the thread dies with the process.
        let registry = server.metrics();
        let interval = std::time::Duration::from_secs_f64(interval);
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            eprintln!("# stats {}", vmplace::net::render_stats(&registry));
        });
    }
    server.wait();
    eprintln!("# drained and shut down");
}

/// `vmplace top`: one `stats` round-trip against a running server,
/// rendered as a human summary.
fn cmd_top(args: &[String]) {
    let Some(addr) = args.get(1).filter(|a| !a.starts_with("--")) else {
        usage();
    };
    let mut client = connect_or_exit_retrying(addr, wire_from_args(args), 1);
    let json = match client.stats() {
        Ok(json) => json,
        Err(e) => {
            eprintln!("error: stats failed: {e}");
            std::process::exit(1);
        }
    };
    let stats = match vmplace::obs::json::Json::parse(&json) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("error: unparseable stats snapshot ({e}): {json}");
            std::process::exit(1);
        }
    };
    print_top(addr, &stats);
}

/// Renders the parsed snapshot: the counters the issue tracker watches
/// first (queue depth, shed/panic counts, cache hit ratio, latency
/// quantiles), then whatever else the registry carries.
fn print_top(addr: &str, stats: &vmplace::obs::json::Json) {
    use vmplace::obs::json::Json;
    let counter = |name: &str| -> u64 {
        stats
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let gauge = |name: &str| -> u64 {
        stats
            .get("gauges")
            .and_then(|g| g.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let quantiles = |name: &str| -> Option<(u64, f64, f64, f64)> {
        let h = stats.get("histograms")?.get(name)?;
        Some((
            h.get("count")?.as_u64()?,
            h.get("p50_us")?.as_f64()?,
            h.get("p99_us")?.as_f64()?,
            h.get("max_us")?.as_f64()?,
        ))
    };

    println!("# vmplace top — {addr}");
    println!(
        "requests     {} net / {} service — {} responses queued, {} dropped, {} errors",
        counter("net.requests"),
        counter("service.requests"),
        counter("net.responses"),
        counter("net.responses_dropped"),
        counter("net.errors"),
    );
    println!(
        "connections  {} open ({} accepted; wire v1 {}, v2 {})",
        gauge("net.conns.open"),
        counter("net.conns.accepted"),
        counter("net.wire.v1"),
        counter("net.wire.v2"),
    );
    println!(
        "queue        depth {} across {} workers — shed {}, panics {}, stale streams {}",
        gauge("service.queue_depth"),
        gauge("service.workers"),
        counter("service.shed"),
        counter("service.worker_panics"),
        counter("service.stale_stream_responses"),
    );
    let hits = counter("service.cache.hits");
    let misses = counter("service.cache.misses");
    let ratio = stats
        .get("derived")
        .and_then(|d| d.get("service.cache.hit_ratio"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    println!(
        "cache        {hits} hits / {misses} misses (hit ratio {ratio:.3}) — repair accepted {}, fallback {}",
        counter("service.repair.accepted"),
        counter("service.repair.fallback"),
    );
    println!(
        "engine       {} probes, {} simplex iterations, {} refactorisations, {} io wake-ups",
        counter("service.engine.probes"),
        counter("service.lp.simplex_iterations"),
        counter("service.lp.refactorisations"),
        counter("net.io_wakeups"),
    );
    for (label, name) in [
        ("solve", "service.solve_us"),
        ("queue wait", "service.queue_wait_us"),
        ("request", "net.request_us"),
        ("encode", "net.encode_us"),
        ("ping", "net.ping_us"),
    ] {
        if let Some((count, p50, p99, max)) = quantiles(name) {
            if count > 0 {
                println!(
                    "latency      {label:<10} n {count:<6} p50 {p50:>9.1} µs  p99 {p99:>9.1} µs  max {max:>9.1} µs"
                );
            }
        }
    }
}

/// Connects or exits with a diagnostic; refused connections retry with
/// doubling backoff up to `attempts` — under `--retries N` the up-front
/// plain connection for `--ping`/`--shutdown` must survive the same
/// transient refusals (`overloaded` greetings from fd exhaustion,
/// accept-time drops) that the resilient replay reconnects through.
fn connect_or_exit_retrying(addr: &str, wire: u32, attempts: u32) -> vmplace::net::Client {
    let mut delay = std::time::Duration::from_millis(20);
    let mut round = 0u32;
    loop {
        match vmplace::net::Client::connect_with(addr, wire) {
            Ok(c) => return c,
            Err(_) if round + 1 < attempts.max(1) => {
                round += 1;
                std::thread::sleep(delay);
                delay = (delay * 2).min(std::time::Duration::from_secs(2));
            }
            Err(e) => {
                eprintln!("error: cannot connect to {addr}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// `vmplace client`: drive a trace through a running server.
fn cmd_client(args: &[String]) {
    let Some(addr) = args.get(1).filter(|a| !a.starts_with("--")) else {
        usage();
    };
    let wire = wire_from_args(args);
    // A trace is optional: `client <addr> --ping` and `client <addr>
    // --shutdown` are complete invocations on their own.
    let has_trace =
        args.iter().any(|a| a == "--gen") || args.get(2).is_some_and(|a| !a.starts_with("--"));
    let retries = flag_value(args, "--retries").and_then(|v| v.parse::<u32>().ok());

    // The resilient replay opens its own connections, so only the plain
    // paths connect up front (a faulty server may kill early connection
    // attempts — `--retries` must survive that).
    let want_plain = args
        .iter()
        .any(|a| a == "--ping" || a == "--shutdown" || a == "--stats")
        || (has_trace && retries.is_none());
    let mut client = want_plain.then(|| connect_or_exit_retrying(addr, wire, retries.unwrap_or(1)));

    if args.iter().any(|a| a == "--ping") {
        let t0 = std::time::Instant::now();
        if let Err(e) = client.as_mut().expect("plain client").ping("vmplace") {
            eprintln!("error: ping failed: {e}");
            std::process::exit(1);
        }
        eprintln!("# pong in {:.2} ms", t0.elapsed().as_secs_f64() * 1e3);
    }

    if args.iter().any(|a| a == "--stats") {
        // Raw JSON on stdout: the line CI smokes and scripts scrape.
        match client.as_mut().expect("plain client").stats() {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("error: stats failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut useful = 1usize;
    let mut requests = 0usize;
    if has_trace {
        let trace = trace_from_args(args, 2);
        requests = trace.len();
        let t0 = std::time::Instant::now();
        let result = match retries {
            // Resilient replay: reconnect with backoff across
            // teardowns, resubmit unanswered streams, honor
            // `retry-after-ms` — capped at this many attempts.
            Some(attempts) => vmplace::net::replay_resilient_with(
                addr.as_str(),
                &trace,
                &vmplace::net::RetryPolicy {
                    max_attempts: attempts.max(1),
                    ..vmplace::net::RetryPolicy::default()
                },
                wire,
            ),
            None => client.as_mut().expect("plain client").replay(&trace),
        };
        let responses = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: replay failed: {e}");
                std::process::exit(1);
            }
        };
        let wall = t0.elapsed();
        useful = report_responses(
            &responses,
            wall,
            "remote",
            &format!("server {addr}"),
            args.iter().any(|a| a == "--quiet"),
        );
    } else if !args
        .iter()
        .any(|a| a == "--ping" || a == "--shutdown" || a == "--stats")
    {
        usage();
    }

    if args.iter().any(|a| a == "--shutdown") {
        match client.take().expect("plain client").shutdown_server() {
            Ok(_) => eprintln!("# server drained and shut down"),
            Err(e) => {
                eprintln!("error: shutdown failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if useful == 0 && requests > 0 {
        std::process::exit(3);
    }
}

fn cmd_gen(args: &[String]) {
    let get = |key: &str, default: f64| -> f64 {
        flag_value(args, key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let scenario = Scenario::new(ScenarioConfig {
        hosts: get("--hosts", 64.0) as usize,
        services: get("--services", 100.0) as usize,
        cov: get("--cov", 0.5),
        memory_slack: get("--slack", 0.5),
        ..ScenarioConfig::default()
    });
    let instance = scenario.instance(get("--seed", 0.0) as u64);
    print!("{}", write_instance(&instance));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unknown(line: &str) -> Option<String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let accepted = accepted_flags(&args[0]).expect("known subcommand");
        unknown_flag(&args, &accepted).map(String::from)
    }

    #[test]
    fn every_subcommand_rejects_flags_its_usage_does_not_list() {
        assert_eq!(unknown("serve --port 0 --bogus 1"), Some("--bogus".into()));
        assert_eq!(unknown("serve --port 0 --io threads"), Some("--io".into()));
        assert_eq!(unknown("top 127.0.0.1:1 --gen"), Some("--gen".into()));
        assert_eq!(unknown("client 127.0.0.1:1 --emit"), Some("--emit".into()));
        assert_eq!(unknown("gen --hosts 4 --algo light"), Some("--algo".into()));
        assert_eq!(unknown("example --plan"), Some("--plan".into()));
        assert!(accepted_flags("bogus").is_none());
    }

    #[test]
    fn listed_flags_pass_and_their_values_are_skipped() {
        assert_eq!(
            unknown("solve i.txt --algo hvp --plan --threads 2 --report"),
            None
        );
        assert_eq!(
            unknown("replay --gen --streams 4 --burst 3 --policy repaired --faults panic=3 --emit"),
            None
        );
        assert_eq!(
            unknown("serve --port 0 --workers 2 --wire v1 --event-threads 2 --no-cache"),
            None
        );
        assert_eq!(
            unknown("client 127.0.0.1:1 --gen --seed 1 --retries 12 --wire v2 --quiet --shutdown"),
            None
        );
        assert_eq!(unknown("top 127.0.0.1:1 --wire v1"), None);
        // A value is never read as a flag, even one that looks like one.
        assert_eq!(unknown("gen --seed --hosts"), None);
        assert_eq!(
            unknown("gen --seed --hosts --bogus"),
            Some("--bogus".into())
        );
    }
}
