//! Simulation substrate for the IPDPS 2012 reproduction.
//!
//! * [`platform`] — the §4 platform generator: 64 heterogeneous quad-core
//!   nodes with normally distributed capacities, controllable coefficient of
//!   variation, and the CPU-/memory-held-homogeneous variants of Figures 3–4;
//! * [`workload`] — the service generator standing in for the Google cluster
//!   dataset (its module docs give the substitution argument);
//! * [`scenario`] — complete instance generation with the paper's
//!   memory-slack and CPU-need normalisations;
//! * [`errors`] — the §6.2 need-estimate perturbation and the minimum-
//!   threshold mitigation strategy;
//! * [`waterfill`] — the §6 work-conserving weighted redistribution and the
//!   (2J−1)/J² competitiveness of EQUALWEIGHTS (Theorem 1);
//! * [`runtime`] — the end-to-end error-experiment pipeline (place with
//!   estimated needs, run against true needs under
//!   ALLOCCAPS / ALLOCWEIGHTS / EQUALWEIGHTS / zero-knowledge);
//! * [`trace`] — request-stream generation (arrival / departure / demand
//!   change / re-solve) for the long-lived allocation service.

#![warn(missing_docs)]
// Index-based loops are kept where they mirror the paper's subscript
// notation (d over dimensions, i/j over rows/services) or index several
// arrays in lockstep.
#![allow(clippy::needless_range_loop)]

pub mod errors;
pub mod platform;
pub mod rng;
pub mod runtime;
pub mod scenario;
pub mod trace;
pub mod waterfill;
pub mod workload;

pub use errors::{apply_min_threshold, perturb_cpu_needs};
pub use platform::{HomogeneousDim, PlatformConfig};
pub use runtime::{zero_knowledge_placement, AllocationPolicy, ErrorRun};
pub use scenario::{Scenario, ScenarioConfig};
pub use trace::{Adversarial, TraceConfig};
pub use waterfill::weighted_water_fill;
pub use workload::WorkloadConfig;
