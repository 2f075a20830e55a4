//! Experiment harness for the IPDPS 2012 reproduction.
//!
//! Each binary in `src/bin/` regenerates one of the paper's tables or
//! figure families:
//!
//! * `table1` — pairwise (Y_{A,B}, S_{A,B}) matrices (Table 1);
//! * `table2` — algorithm wall-clock table (Table 2, incl. the 512-host /
//!   2000-service METAHVP vs METAHVPLIGHT comparison of §5.1);
//! * `fig_cov` — minimum-yield difference from METAHVP vs coefficient of
//!   variation (Figures 2–4 and 8–34);
//! * `fig_error` — achieved minimum yield vs maximum estimation error
//!   (Figures 5–7 and 35–66);
//! * `all` — the whole battery at a chosen scale.
//!
//! The library half hosts the shared machinery: the algorithm roster,
//! deterministic sweep execution (parallelised with `vmplace-par`),
//! pairwise metrics and CSV emission.

#![warn(missing_docs)]

pub mod args;
pub mod csv;
pub mod fig_cov;
pub mod fig_error;
pub mod metrics;
pub mod roster;
pub mod sweep;
pub mod table1;

pub use args::Args;
pub use fig_cov::{run_fig_cov, FigCovConfig};
pub use fig_error::{run_fig_error, FigErrorConfig};
pub use metrics::{pairwise, PairwiseCell};
pub use roster::{AlgoId, Roster, SolveRun};
pub use sweep::{run_sweep, InstanceResult, SweepConfig};
pub use table1::{run_table1, Table1Config};
