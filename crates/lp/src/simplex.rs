//! Bounded-variable two-phase revised simplex with a persistent,
//! warm-startable solver.
//!
//! Implementation notes:
//!
//! * [`SimplexSolver`] assembles the CSC matrix (structural + slack +
//!   artificial columns), bounds, scratch buffers, and basis state **once**
//!   and is re-entered via [`SimplexSolver::solve_from`] with fresh bound
//!   overrides — branch & bound calls it thousands of times without
//!   rebuilding anything.
//! * Rows are converted to equalities with slack columns whose bounds encode
//!   the sense (`≤ → s ∈ [0, ∞)`, `≥ → s ∈ (−∞, 0]`, `= → s ∈ [0, 0]`).
//!   One artificial column per row is part of the permanent matrix; it is
//!   pinned to `[0, 0]` except during a cold phase 1, where rows whose slack
//!   start value violates its bounds activate it on the violated side.
//! * Warm starts restore a [`BasisSnapshot`] (basis + variable statuses +
//!   the shared factorisation of that basis) and repair residual primal
//!   infeasibility by minimising the violation of out-of-bounds basic
//!   variables over a box widened to the current point; the repair can also
//!   *prove* the new bound system infeasible, and only when it fails does
//!   the solve fall back to a cold phase 1.
//! * The basis inverse is kept as a sparse LU factorisation
//!   ([`crate::lu::SparseLu`]) of a reference basis plus a product-form eta
//!   file; the basis is refactorised every `refactor_interval` pivots, which
//!   also recomputes the basic values to wash out drift. Refactorisation is
//!   *partial*: the longest common prefix of the reference LU's basis and
//!   the current basis is reused verbatim through
//!   [`crate::lu::SparseLu::refactorize_from`] (left-looking columns depend
//!   only on earlier columns, so the reuse is bit-for-bit identical to a
//!   from-scratch rebuild; disable with [`SimplexOptions::partial_refactor`]
//!   to ablate).
//! * Pricing is candidate-list partial pricing with static steepest-edge
//!   scoring (`|d_j| / √(1 + ‖a_j‖²)`): a short list of attractive columns
//!   is re-priced against fresh duals each iteration and refilled by a
//!   rotating section scan once it goes stale; a full rotation with no
//!   candidate proves optimality. A long degenerate stall switches to
//!   Bland's rule (full lowest-index scan), restoring the termination
//!   guarantee.
//! * FTRAN tracks the nonzero pattern symbolically through
//!   [`crate::lu::SparseLu::solve_sparse`] and the eta file, so the ratio
//!   test and basic-value updates touch only actual nonzeros. BTRAN does
//!   the same through [`crate::lu::SparseLu::solve_transpose_sparse`]
//!   whenever `c_B` is sparse (in phase 2 of the yield LP it has a single
//!   nonzero), falling back to the dense transpose solve otherwise.
//! * The ratio test performs bound flips for the entering variable when the
//!   opposite bound is reached first, and breaks near-ties by pivot
//!   magnitude for numerical stability.

use crate::lu::{SolveScratch, SparseLu};
use crate::problem::{LinearProgram, RowSense};
use crate::sparse::CscMatrix;
use std::rc::Rc;

use std::time::Instant;

/// Options controlling the simplex method.
#[derive(Clone, Debug)]
pub struct SimplexOptions {
    /// Hard iteration cap; 0 means automatic (`1000 + 40·(m+n)`).
    pub max_iterations: usize,
    /// Pivots between basis refactorisations.
    pub refactor_interval: usize,
    /// Primal feasibility tolerance.
    pub feas_tol: f64,
    /// Dual (reduced-cost) tolerance.
    pub opt_tol: f64,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub stall_threshold: usize,
    /// Reuse the unchanged leading columns of the previous reference LU on
    /// refactorisation (see [`crate::lu::SparseLu::refactorize_from`]).
    /// The produced factorisation is bit-identical either way; turning this
    /// off exists for differential testing and benchmarking only.
    pub partial_refactor: bool,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: 0,
            refactor_interval: 96,
            feas_tol: 1e-7,
            opt_tol: 1e-7,
            stall_threshold: 800,
            partial_refactor: true,
        }
    }
}

/// Termination status of an LP solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpStatus {
    /// Optimal solution found.
    Optimal,
    /// No feasible point exists (phase 1 could not reach zero).
    Infeasible,
    /// Objective unbounded along a feasible ray.
    Unbounded,
    /// Iteration limit hit before convergence.
    IterationLimit,
    /// The solver's wall-clock deadline (see
    /// [`SimplexSolver::set_deadline`]) expired mid-solve.
    TimedOut,
    /// Numerical failure (singular basis after recovery attempts).
    Numerical,
}

/// Result of an LP solve.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Termination status; `objective`/`values` are meaningful for
    /// [`LpStatus::Optimal`] only.
    pub status: LpStatus,
    /// Objective value in the *user's* orientation (max or min).
    pub objective: f64,
    /// Values of the structural variables.
    pub values: Vec<f64>,
    /// Simplex iterations performed (all phases of this solve).
    pub iterations: usize,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum VarStatus {
    Basic(usize),
    AtLower,
    AtUpper,
    /// Nonbasic at value zero — the only consistent resting point for a
    /// variable with two infinite bounds.
    Free,
}

/// An opaque snapshot of a basis (basis columns + every variable's status),
/// taken with [`SimplexSolver::snapshot`] and replayed through
/// [`SimplexSolver::solve_from`] to warm-start a related solve.
#[derive(Clone, Debug)]
pub struct BasisSnapshot {
    status: Vec<VarStatus>,
    basis: Vec<usize>,
    /// The factorisation of this basis — reference LU plus the eta file on
    /// top of it — shared so warm starts skip refactorisation entirely.
    lu: Option<Rc<SparseLu>>,
    etas: Rc<Vec<Eta>>,
    /// The basis the reference LU factorised (`basis` minus the eta-file
    /// pivots) — the anchor for partial refactorisation after restore.
    lu_basis: Rc<Vec<usize>>,
}

/// Factorisation and triangular-solve telemetry accumulated by a
/// [`SimplexSolver`] since its last [`SimplexSolver::reset_state`] (for a
/// [`crate::MilpSolver`], one branch & bound tree).
///
/// Every counter is observational: reading or resetting it never affects
/// the solve path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FactorStats {
    /// Reference-LU rebuilds (interval refactorisations, snapshot eta
    /// fold-ins, and warm-start restores without a shared factorisation).
    pub refactorisations: u64,
    /// Basis columns factored from scratch across all refactorisations.
    pub cols_factored: u64,
    /// Basis columns reused verbatim from the previous reference LU
    /// (partial refactorisation warm reuse).
    pub cols_reused: u64,
    /// Snapshot-triggered eta-file fold-ins (a refactorisation taken
    /// because the eta file grew past the snapshot fold threshold).
    pub eta_folds: u64,
    /// Stored nonzeros of the most recent reference LU.
    pub fill_nnz: usize,
    /// Sparsity-tracked FTRAN solves (one per simplex pivot attempt).
    pub ftran_solves: u64,
    /// Total nonzeros across all FTRAN results.
    pub ftran_nnz: u64,
    /// Total FTRAN result length (`m` per solve) — denominator for
    /// [`FactorStats::ftran_sparsity`].
    pub ftran_dim: u64,
    /// Dual (BTRAN) solves performed.
    pub btran_solves: u64,
    /// BTRAN solves that took the sparse reachability path.
    pub btran_sparse: u64,
    /// Total nonzeros across sparse-path BTRAN results (the pattern length
    /// the reachability walk reports; the dense path does not count its
    /// output — scanning it would cost more than the telemetry is worth).
    pub btran_nnz: u64,
    /// Total sparse-path BTRAN result length (`m` per sparse solve) —
    /// denominator for [`FactorStats::btran_sparsity`].
    pub btran_dim: u64,
    /// Basis snapshots taken.
    pub snapshots: u64,
    /// Snapshots that had to deep-clone the eta file (the rest reused the
    /// cached `Rc` because no pivot had touched the file in between).
    pub snapshot_eta_clones: u64,
}

impl FactorStats {
    /// Fraction of refactorised basis columns reused from the previous
    /// reference LU (0 when no refactorisation happened).
    pub fn warm_reuse_ratio(&self) -> f64 {
        let total = self.cols_factored + self.cols_reused;
        if total == 0 {
            0.0
        } else {
            self.cols_reused as f64 / total as f64
        }
    }

    /// Mean FTRAN result density `nnz / m` (1.0 = dense).
    pub fn ftran_sparsity(&self) -> f64 {
        if self.ftran_dim == 0 {
            0.0
        } else {
            self.ftran_nnz as f64 / self.ftran_dim as f64
        }
    }

    /// Mean sparse-path BTRAN result density `nnz / m` (1.0 = dense);
    /// 0.0 when no BTRAN took the sparse path.
    pub fn btran_sparsity(&self) -> f64 {
        if self.btran_dim == 0 {
            0.0
        } else {
            self.btran_nnz as f64 / self.btran_dim as f64
        }
    }
}

#[derive(Clone, Debug)]
struct Eta {
    pos: usize,
    pivot: f64,
    // Entries of the FTRAN column t, excluding the pivot position.
    entries: Vec<(usize, f64)>,
}

const PIVOT_TOL: f64 = 1e-9;
/// Maximum size of the pricing candidate list.
const CAND_CAP: usize = 16;
/// Minimum columns per pricing section scan.
const SECTION_MIN: usize = 64;
/// A cached candidate list is considered stale once its best score drops
/// below this fraction of the best score at the last refill.
const REFILL_DECAY: f64 = 0.5;
/// Snapshots fold eta files at least this long into a fresh LU; shorter
/// files are cheaper to clone than to refactorise away.
const SNAPSHOT_FOLD_ETAS: usize = 16;
/// The dual solve takes the sparse BTRAN path when `c_B` (after the eta
/// transpose application) touches at most this fraction of the basis.
/// The reachability walk only beats the dense triangular sweeps when the
/// right-hand side is *very* sparse — at these basis sizes (m ≈ 70) the
/// transpose reach closure of even a handful of entries covers most of the
/// matrix, so the threshold is deliberately strict.
const BTRAN_SPARSE_FRACTION: usize = 32;
/// The iteration loop polls the wall-clock deadline whenever
/// `iterations & DEADLINE_CHECK_MASK == 0` — every 64th iteration, keeping
/// the `Instant::now` syscall off the per-pivot hot path.
pub const DEADLINE_CHECK_MASK: usize = 63;

/// Outcome of the warm-start feasibility repair.
enum Repair {
    /// Basis is primal feasible; proceed straight to phase 2.
    Feasible,
    /// The repair *proved* the bound system infeasible.
    Infeasible,
    /// Could not restore feasibility cheaply; fall back to a cold start.
    Fallback,
}

/// A persistent bounded-variable simplex solver for one [`LinearProgram`].
///
/// Construction assembles the constraint matrix (structural, slack, and
/// artificial columns), cost vectors, and all scratch buffers. Each call to
/// [`SimplexSolver::solve_from`] then solves the model under fresh
/// per-variable bound overrides, optionally warm-starting from a
/// [`BasisSnapshot`] of an earlier, related solve — the access pattern of
/// branch & bound, where successive node LPs differ in a single bound.
pub struct SimplexSolver {
    m: usize,
    n_struct: usize,
    /// +1 for minimisation, −1 for maximisation (costs are pre-multiplied).
    sign: f64,
    a: CscMatrix, // structural + slack + artificial columns
    slack_lower: Vec<f64>,
    slack_upper: Vec<f64>,
    lower: Vec<f64>, // working bounds
    upper: Vec<f64>,
    cost: Vec<f64>, // phase-dependent
    real_cost: Vec<f64>,
    status: Vec<VarStatus>,
    basis: Vec<usize>,
    xb: Vec<f64>,
    rhs: Vec<f64>,
    lu: Option<Rc<SparseLu>>,
    /// The basis the reference LU factorised; shared with snapshots so a
    /// restore re-anchors partial refactorisation without copying.
    lu_basis: Rc<Vec<usize>>,
    lu_scratch: SolveScratch,
    etas: Vec<Eta>,
    /// Cached `Rc` of the eta file handed to the last snapshot; reused by
    /// later snapshots until a pivot or refactorisation touches the file.
    snap_etas: Option<Rc<Vec<Eta>>>,
    opts: SimplexOptions,
    // scratch
    dense_a: Vec<f64>,
    dense_b: Vec<f64>,
    y: Vec<f64>,
    /// Positions of `y` written by the last sparse BTRAN (`y_dense` false).
    y_pattern: Vec<usize>,
    /// Whether the last BTRAN overwrote all of `y` via the dense path.
    y_dense: bool,
    /// BTRAN right-hand side c_B; all-zero between calls.
    du: Vec<f64>,
    du_pattern: Vec<usize>,
    du_mark: Vec<bool>,
    fb: Vec<f64>, // FTRAN right-hand side; all-zero between calls
    t: Vec<f64>,  // FTRAN result; zero outside t_pattern between pivots
    t_pattern: Vec<usize>,
    t_mark: Vec<bool>,
    // pricing
    cand: Vec<usize>,
    scan_cursor: usize,
    /// Static steepest-edge weights: `√(1 + ‖a_j‖²)` per column.
    col_norm: Vec<f64>,
    /// Best candidate score at the last refill, decayed: when the cached
    /// list's best falls below this, the list is stale and is refilled.
    refill_floor: f64,
    // per-solve state
    iterations: usize,
    degenerate_streak: usize,
    bland: bool,
    /// Wall-clock cutoff checked periodically in the iteration loop.
    deadline: Option<Instant>,
    stats: FactorStats,
}

/// Solves `lp` with the given structural-variable bounds (callers may
/// override the model's own bounds, which branch & bound relies on).
///
/// One-shot convenience over [`SimplexSolver`]; repeated related solves
/// should construct the solver once and call
/// [`SimplexSolver::solve_from`].
pub fn solve_simplex(
    lp: &LinearProgram,
    lower: &[f64],
    upper: &[f64],
    opts: &SimplexOptions,
) -> LpSolution {
    SimplexSolver::new(lp, opts.clone()).solve_from(None, lower, upper)
}

impl SimplexSolver {
    /// Assembles the solver state for `lp`: CSC matrix with slack and
    /// artificial columns, cost vectors, and scratch buffers.
    pub fn new(lp: &LinearProgram, opts: SimplexOptions) -> SimplexSolver {
        let m = lp.num_rows();
        let n = lp.num_vars();
        let sign = if lp.is_maximize() { -1.0 } else { 1.0 };
        let n_total = n + 2 * m;

        let mut a = CscMatrix::new(m);
        let mut real_cost = Vec::with_capacity(n_total);
        for j in 0..n {
            a.push_column(&lp.cols[j]);
            real_cost.push(sign * lp.obj[j]);
        }
        let mut slack_lower = Vec::with_capacity(m);
        let mut slack_upper = Vec::with_capacity(m);
        for i in 0..m {
            a.push_column(&[(i, 1.0)]);
            let (lo, hi) = match lp.sense[i] {
                RowSense::Le => (0.0, f64::INFINITY),
                RowSense::Ge => (f64::NEG_INFINITY, 0.0),
                RowSense::Eq => (0.0, 0.0),
            };
            slack_lower.push(lo);
            slack_upper.push(hi);
            real_cost.push(0.0);
        }
        // Artificial columns are permanent; solve_from pins them to [0, 0]
        // and cold starts open the violated side for phase 1.
        for i in 0..m {
            a.push_column(&[(i, 1.0)]);
            real_cost.push(0.0);
        }
        debug_assert_eq!(a.ncols(), n_total);
        let col_norm = (0..n_total)
            .map(|j| {
                let (_, vals) = a.col(j);
                (1.0 + vals.iter().map(|v| v * v).sum::<f64>()).sqrt()
            })
            .collect();

        SimplexSolver {
            m,
            n_struct: n,
            sign,
            a,
            slack_lower,
            slack_upper,
            lower: vec![0.0; n_total],
            upper: vec![0.0; n_total],
            cost: vec![0.0; n_total],
            real_cost,
            status: vec![VarStatus::AtLower; n_total],
            basis: vec![0; m],
            xb: vec![0.0; m],
            rhs: lp.rhs.clone(),
            lu: None,
            lu_basis: Rc::new(Vec::new()),
            lu_scratch: SolveScratch::default(),
            etas: Vec::new(),
            snap_etas: None,
            opts,
            dense_a: vec![0.0; m],
            dense_b: vec![0.0; m],
            y: vec![0.0; m],
            y_pattern: Vec::new(),
            y_dense: false,
            du: vec![0.0; m],
            du_pattern: Vec::new(),
            du_mark: vec![false; m],
            fb: vec![0.0; m],
            t: vec![0.0; m],
            t_pattern: Vec::new(),
            t_mark: vec![false; m],
            cand: Vec::new(),
            scan_cursor: 0,
            col_norm,
            refill_floor: 0.0,
            iterations: 0,
            degenerate_streak: 0,
            bland: false,
            deadline: None,
            stats: FactorStats::default(),
        }
    }

    /// Factorisation and triangular-solve telemetry accumulated since the
    /// last [`SimplexSolver::reset_state`].
    pub fn stats(&self) -> &FactorStats {
        &self.stats
    }

    /// Pivot rows of the current reference LU, or `None` before the first
    /// factorisation. Differential suites compare this across solvers to
    /// certify that partial and full refactorisation produce the same
    /// pivot sequence.
    pub fn lu_pivot_rows(&self) -> Option<&[usize]> {
        self.lu.as_deref().map(SparseLu::pivot_rows)
    }

    /// The options this solver was built with.
    pub fn options(&self) -> &SimplexOptions {
        &self.opts
    }

    /// Sets (or clears) a wall-clock deadline. The iteration loop checks it
    /// every [`DEADLINE_CHECK_MASK`]+1 iterations and aborts the solve with
    /// [`LpStatus::TimedOut`] once it has passed; the deadline persists
    /// across [`SimplexSolver::solve_from`] calls until cleared, which lets
    /// branch & bound install one deadline for a whole tree.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Returns the solver to its just-constructed state: basis, variable
    /// statuses, factorisation, pricing caches and FTRAN scratch are all
    /// reset, while the assembled matrix, column norms and buffer
    /// allocations are retained.
    ///
    /// Two jobs: (1) a persistent solver that is reset before each root
    /// solve replays **bit-identically** to a freshly built one — the
    /// surviving pricing state could otherwise steer degenerate pivots
    /// down a different (equally optimal) path; (2) a solve aborted
    /// mid-pivot by the deadline can leave the FTRAN scratch violating
    /// its between-solve invariants, which the reset re-establishes.
    pub fn reset_state(&mut self) {
        self.status.fill(VarStatus::AtLower);
        self.basis.fill(0);
        self.xb.fill(0.0);
        self.lu = None;
        self.lu_basis = Rc::new(Vec::new());
        self.etas.clear();
        self.snap_etas = None;
        self.dense_a.fill(0.0);
        self.dense_b.fill(0.0);
        self.y.fill(0.0);
        self.y_pattern.clear();
        self.y_dense = false;
        self.du.fill(0.0);
        self.du_pattern.clear();
        self.du_mark.fill(false);
        self.fb.fill(0.0);
        self.t.fill(0.0);
        self.t_pattern.clear();
        self.t_mark.fill(false);
        self.cand.clear();
        self.scan_cursor = 0;
        self.refill_floor = 0.0;
        self.iterations = 0;
        self.degenerate_streak = 0;
        self.bland = false;
        self.stats = FactorStats::default();
    }

    /// Captures the current basis and variable statuses for warm-starting a
    /// later, related solve. Meaningful after a [`LpStatus::Optimal`] solve.
    ///
    /// The snapshot carries the current factorisation (reference LU + eta
    /// file), so warm starts from it never refactorise. A long eta file is
    /// folded into a fresh LU first — cloning it would cost more than the
    /// factorisation it saves.
    pub fn snapshot(&mut self) -> BasisSnapshot {
        if self.lu.is_some() && self.etas.len() >= SNAPSHOT_FOLD_ETAS {
            self.stats.eta_folds += 1;
            if self.refactorize().is_err() {
                self.lu = None; // defensive: snapshot degrades to basis-only
            }
        }
        self.stats.snapshots += 1;
        // Branch & bound snapshots the same state once per branched node
        // (both children share it) and often re-snapshots an unchanged
        // solver; clone the eta file only when it actually changed.
        let etas = match &self.snap_etas {
            Some(rc) => rc.clone(),
            None => {
                self.stats.snapshot_eta_clones += 1;
                let rc = Rc::new(self.etas.clone());
                self.snap_etas = Some(rc.clone());
                rc
            }
        };
        BasisSnapshot {
            status: self.status.clone(),
            basis: self.basis.clone(),
            lu: self.lu.clone(),
            etas,
            lu_basis: self.lu_basis.clone(),
        }
    }

    /// Solves the model under the given structural-variable bounds,
    /// warm-starting from `warm` when provided. Falls back to a cold
    /// two-phase solve whenever the snapshot cannot be repaired to primal
    /// feasibility, so the result is identical (status and objective) to a
    /// cold solve either way.
    pub fn solve_from(
        &mut self,
        warm: Option<&BasisSnapshot>,
        lower: &[f64],
        upper: &[f64],
    ) -> LpSolution {
        assert_eq!(lower.len(), self.n_struct);
        assert_eq!(upper.len(), self.n_struct);
        self.iterations = 0;
        self.bland = false;
        self.degenerate_streak = 0;
        // The candidate list deliberately survives across solves: its
        // entries are just column indices, re-priced before use, and the
        // same columns tend to stay attractive across branch & bound nodes.
        self.refill_floor = 0.0;

        for j in 0..self.n_struct {
            if lower[j] > upper[j] {
                return LpSolution {
                    status: LpStatus::Infeasible,
                    objective: 0.0,
                    values: Vec::new(),
                    iterations: 0,
                };
            }
        }
        if self.m == 0 {
            return self.solve_boxed(lower, upper);
        }

        // Install the working bounds: caller's structural box, sense-derived
        // slack bounds, artificials pinned to zero.
        self.lower[..self.n_struct].copy_from_slice(lower);
        self.upper[..self.n_struct].copy_from_slice(upper);
        for i in 0..self.m {
            self.lower[self.n_struct + i] = self.slack_lower[i];
            self.upper[self.n_struct + i] = self.slack_upper[i];
            let aj = self.n_struct + self.m + i;
            self.lower[aj] = 0.0;
            self.upper[aj] = 0.0;
        }

        let status = match warm {
            Some(snap) => match self.try_warm(snap) {
                Repair::Feasible => self.phase2(),
                Repair::Infeasible => LpStatus::Infeasible,
                Repair::Fallback => self.cold_solve(),
            },
            None => self.cold_solve(),
        };

        let mut objective = 0.0;
        let mut values = vec![0.0; self.n_struct];
        if status == LpStatus::Optimal {
            for j in 0..self.n_struct {
                let v = self.value_of(j);
                values[j] = v;
                objective += self.real_cost[j] * v;
            }
            objective *= self.sign;
        }
        LpSolution {
            status,
            objective,
            values,
            iterations: self.iterations,
        }
    }

    /// Row-free model: each variable rests at its best finite bound.
    fn solve_boxed(&self, lower: &[f64], upper: &[f64]) -> LpSolution {
        let n = self.n_struct;
        let mut values = vec![0.0; n];
        let mut obj = 0.0;
        for j in 0..n {
            let c = self.real_cost[j];
            let v = if c > 0.0 {
                lower[j]
            } else if c < 0.0 {
                upper[j]
            } else {
                lower[j].max(upper[j].min(0.0))
            };
            if !v.is_finite() {
                return LpSolution {
                    status: LpStatus::Unbounded,
                    objective: 0.0,
                    values: Vec::new(),
                    iterations: 0,
                };
            }
            values[j] = v;
            obj += c * v;
        }
        LpSolution {
            status: LpStatus::Optimal,
            objective: self.sign * obj,
            values,
            iterations: 0,
        }
    }

    /// Normalises a snapshot status against the current working bounds:
    /// nonbasic variables must rest on a finite bound (or at zero when both
    /// bounds are infinite).
    fn normalize_status(&self, j: usize, s: VarStatus) -> VarStatus {
        match s {
            s @ VarStatus::Basic(_) => s,
            VarStatus::AtLower if !self.lower[j].is_finite() => {
                if self.upper[j].is_finite() {
                    VarStatus::AtUpper
                } else {
                    VarStatus::Free
                }
            }
            VarStatus::AtUpper if !self.upper[j].is_finite() => {
                if self.lower[j].is_finite() {
                    VarStatus::AtLower
                } else {
                    VarStatus::Free
                }
            }
            VarStatus::Free if self.lower[j].is_finite() || self.upper[j].is_finite() => {
                initial_bound_status(self.lower[j], self.upper[j])
            }
            s => s,
        }
    }

    /// Restores a snapshot under the current working bounds and repairs it
    /// to primal feasibility.
    fn try_warm(&mut self, snap: &BasisSnapshot) -> Repair {
        let n_total = self.n_total();
        if snap.status.len() != n_total || snap.basis.len() != self.m {
            return Repair::Fallback;
        }
        // Depth-first search usually solves a child immediately after its
        // parent, so the solver often still *holds* the snapshot's basis —
        // with a valid LU + eta factorisation. Detect that and skip the
        // refactorisation: only the basic values need recomputing under the
        // new bounds.
        let same_basis = self.lu.is_some()
            && self.basis == snap.basis
            && (0..n_total).all(|j| self.status[j] == self.normalize_status(j, snap.status[j]));
        if same_basis {
            self.recompute_xb();
        } else {
            self.basis.copy_from_slice(&snap.basis);
            for j in 0..n_total {
                self.status[j] = self.normalize_status(j, snap.status[j]);
            }
            self.etas.clear();
            self.snap_etas = None;
            if let Some(lu) = &snap.lu {
                // The snapshot carries the factorisation of exactly this
                // basis: reference LU plus the eta file on top of it.
                self.lu = Some(lu.clone());
                self.lu_basis = snap.lu_basis.clone();
                self.etas.clone_from(&snap.etas);
                // The eta file now equals the snapshot's Rc verbatim; a
                // snapshot taken before the next pivot can reuse it.
                self.snap_etas = Some(snap.etas.clone());
                self.recompute_xb();
            } else {
                if self.refactorize().is_err() {
                    return Repair::Fallback;
                }
            }
        }
        self.repair_primal()
    }

    /// Repairs primal feasibility of a restored basis: each out-of-bounds
    /// basic variable has its violated bound widened to the current value
    /// and gets a unit cost pushing it back inside; minimising that proxy
    /// either restores feasibility, proves the bound system infeasible
    /// (the proxy optimum exceeds what any point inside the true box could
    /// score), or gives up for a cold restart.
    fn repair_primal(&mut self) -> Repair {
        let tol = self.opts.feas_tol;
        // (variable, widened side was upper, original bound value)
        let mut widened: Vec<(usize, bool, f64)> = Vec::new();
        for p in 0..self.m {
            let j = self.basis[p];
            let x = self.xb[p];
            if x > self.upper[j] + tol {
                widened.push((j, true, self.upper[j]));
                self.upper[j] = x;
            } else if x < self.lower[j] - tol {
                widened.push((j, false, self.lower[j]));
                self.lower[j] = x;
            }
        }
        if widened.is_empty() {
            return Repair::Feasible;
        }
        for j in 0..self.n_total() {
            self.cost[j] = 0.0;
        }
        for &(j, was_upper, _) in &widened {
            self.cost[j] = if was_upper { 1.0 } else { -1.0 };
        }
        let outcome = self.optimize();
        // Proxy value at the repair optimum vs the best score any point of
        // the *true* box could achieve.
        let mut achieved = 0.0;
        let mut target = 0.0;
        for &(j, was_upper, orig) in &widened {
            achieved += self.cost[j] * self.value_of(j);
            target += if was_upper { orig } else { -orig };
        }
        for &(j, was_upper, orig) in &widened {
            if was_upper {
                self.upper[j] = orig;
            } else {
                self.lower[j] = orig;
            }
        }
        if outcome.is_err() {
            return Repair::Fallback;
        }
        if achieved > target + tol * 10.0 * (1.0 + widened.len() as f64).sqrt() {
            return Repair::Infeasible;
        }
        // Nonbasic variables sit on true bounds again; recompute the basics
        // and verify feasibility survived the bound restoration.
        self.recompute_xb();
        for p in 0..self.m {
            let j = self.basis[p];
            if self.xb[p] > self.upper[j] + tol || self.xb[p] < self.lower[j] - tol {
                return Repair::Fallback;
            }
        }
        Repair::Feasible
    }

    /// Cold start: crash basis from slacks, artificials on violated rows,
    /// phase 1 if needed, then phase 2.
    fn cold_solve(&mut self) -> LpStatus {
        let n = self.n_struct;
        let m = self.m;
        for j in 0..n {
            self.status[j] = initial_bound_status(self.lower[j], self.upper[j]);
        }
        // Row activity with nonbasic structural values.
        for i in 0..m {
            self.dense_b[i] = 0.0;
        }
        for j in 0..n {
            let v = nonbasic_value(self.lower[j], self.upper[j], self.status[j]);
            if v != 0.0 {
                self.a.col_axpy(j, v, &mut self.dense_b);
            }
        }
        let mut any_artificial = false;
        for i in 0..m {
            let sj = n + i;
            let aj = n + m + i;
            self.lower[aj] = 0.0;
            self.upper[aj] = 0.0;
            self.status[aj] = VarStatus::AtLower;
            let want = self.rhs[i] - self.dense_b[i];
            if want >= self.lower[sj] - self.opts.feas_tol
                && want <= self.upper[sj] + self.opts.feas_tol
            {
                self.status[sj] = VarStatus::Basic(i);
                self.basis[i] = sj;
                self.xb[i] = want;
            } else {
                // Slack pinned to its nearest bound; the artificial opens on
                // the violated side and covers the rest.
                let pinned = want.clamp(self.lower[sj], self.upper[sj]);
                self.status[sj] = if self.lower[sj].is_finite() && pinned == self.lower[sj] {
                    VarStatus::AtLower
                } else {
                    VarStatus::AtUpper
                };
                let residual = want - pinned;
                if residual >= 0.0 {
                    self.upper[aj] = f64::INFINITY;
                } else {
                    self.lower[aj] = f64::NEG_INFINITY;
                }
                self.status[aj] = VarStatus::Basic(i);
                self.basis[i] = aj;
                self.xb[i] = residual;
                any_artificial = true;
            }
        }
        self.etas.clear();
        self.snap_etas = None;
        if self.refactorize().is_err() {
            return LpStatus::Numerical;
        }

        // Phase 1: minimise Σ |artificials| (signs folded into unit costs).
        if any_artificial {
            for j in 0..self.n_total() {
                self.cost[j] = 0.0;
            }
            for i in 0..m {
                let aj = n + m + i;
                if self.upper[aj] == f64::INFINITY {
                    self.cost[aj] = 1.0;
                } else if self.lower[aj] == f64::NEG_INFINITY {
                    self.cost[aj] = -1.0;
                }
            }
            self.bland = false;
            self.degenerate_streak = 0;
            self.refill_floor = 0.0;
            if let Err(st) = self.optimize() {
                return st;
            }
            let infeas: f64 = (n + m..self.n_total())
                .map(|j| self.value_of(j).abs())
                .sum();
            if infeas > self.opts.feas_tol * 10.0 * (1.0 + m as f64).sqrt() {
                return LpStatus::Infeasible;
            }
            // Pin artificials at zero for phase 2.
            for i in 0..m {
                let aj = n + m + i;
                self.lower[aj] = 0.0;
                self.upper[aj] = 0.0;
                if !matches!(self.status[aj], VarStatus::Basic(_)) {
                    self.status[aj] = VarStatus::AtLower;
                }
            }
        }
        self.phase2()
    }

    /// Phase 2: the real objective from the current (feasible) basis.
    fn phase2(&mut self) -> LpStatus {
        self.cost.copy_from_slice(&self.real_cost);
        self.bland = false;
        self.degenerate_streak = 0;
        self.refill_floor = 0.0;
        match self.optimize() {
            Ok(()) => LpStatus::Optimal,
            Err(st) => st,
        }
    }

    #[inline]
    fn n_total(&self) -> usize {
        self.a.ncols()
    }

    fn value_of(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::Basic(p) => self.xb[p],
            s => nonbasic_value(self.lower[j], self.upper[j], s),
        }
    }

    fn max_iterations(&self) -> usize {
        if self.opts.max_iterations > 0 {
            self.opts.max_iterations
        } else {
            1000 + 40 * (self.m + self.n_total())
        }
    }

    /// Runs primal iterations until optimality for the current cost vector.
    fn optimize(&mut self) -> Result<(), LpStatus> {
        let max_iters = self.max_iterations();
        loop {
            if self.iterations >= max_iters {
                return Err(LpStatus::IterationLimit);
            }
            if self.iterations & DEADLINE_CHECK_MASK == 0 {
                if let Some(d) = self.deadline {
                    if Instant::now() >= d {
                        return Err(LpStatus::TimedOut);
                    }
                }
            }
            self.iterations += 1;

            self.compute_duals();
            let entering = self.price();
            let Some((q, dir)) = entering else {
                return Ok(()); // optimal for current costs
            };
            self.ftran(q);

            match self.ratio_test(q, dir) {
                RatioOutcome::Unbounded => return Err(LpStatus::Unbounded),
                RatioOutcome::BoundFlip(step) => {
                    // Entering variable jumps to its opposite bound.
                    let delta = dir * step;
                    for &p in &self.t_pattern {
                        self.xb[p] -= delta * self.t[p];
                    }
                    self.status[q] = match self.status[q] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        b => b,
                    };
                    self.note_degenerate(step <= self.opts.feas_tol);
                }
                RatioOutcome::Pivot {
                    pos,
                    step,
                    to_upper,
                } => {
                    let delta = dir * step;
                    let xq_new =
                        nonbasic_value(self.lower[q], self.upper[q], self.status[q]) + delta;
                    for &p in &self.t_pattern {
                        self.xb[p] -= delta * self.t[p];
                    }
                    let leaving = self.basis[pos];
                    self.status[leaving] = if to_upper {
                        VarStatus::AtUpper
                    } else {
                        VarStatus::AtLower
                    };
                    self.basis[pos] = q;
                    self.status[q] = VarStatus::Basic(pos);
                    self.xb[pos] = xq_new;

                    // Record the eta before clearing t.
                    let pivot = self.t[pos];
                    let mut entries = Vec::with_capacity(self.t_pattern.len());
                    for &p in &self.t_pattern {
                        if p != pos && self.t[p] != 0.0 {
                            entries.push((p, self.t[p]));
                        }
                    }
                    self.etas.push(Eta {
                        pos,
                        pivot,
                        entries,
                    });
                    self.snap_etas = None;
                    self.note_degenerate(step <= self.opts.feas_tol);

                    if self.etas.len() >= self.opts.refactor_interval {
                        self.refactorize().map_err(|_| LpStatus::Numerical)?;
                    }
                }
            }
        }
    }

    fn note_degenerate(&mut self, degenerate: bool) {
        if degenerate {
            self.degenerate_streak += 1;
            if self.degenerate_streak > self.opts.stall_threshold {
                self.bland = true;
            }
        } else {
            self.degenerate_streak = 0;
            self.bland = false;
        }
    }

    /// y = Bᵀ⁻¹ c_B via the eta file and the LU transpose solve.
    ///
    /// `c_B` is assembled sparsely (in phase 2 of the yield LP the
    /// objective has a single nonzero) and the eta transpose application is
    /// pattern-tracked — each eta changes only its own position, so the
    /// pattern grows by at most one per eta. When the resulting right-hand
    /// side stays sparse the LU solve takes the reachability-walk transpose
    /// path; either way `y` holds the dense-valued duals afterwards (zeros
    /// everywhere the solution is zero).
    fn compute_duals(&mut self) {
        let m = self.m;
        let du = &mut self.du;
        let du_mark = &mut self.du_mark;
        let du_pattern = &mut self.du_pattern;
        du_pattern.clear();
        for p in 0..m {
            let c = self.cost[self.basis[p]];
            if c != 0.0 {
                du[p] = c;
                du_mark[p] = true;
                du_pattern.push(p);
            }
        }
        for eta in self.etas.iter().rev() {
            // uᵀ ← uᵀ E⁻¹: only component `pos` changes.
            let mut dot = 0.0;
            for &(p, v) in &eta.entries {
                dot += v * du[p];
            }
            du[eta.pos] = (du[eta.pos] - dot) / eta.pivot;
            if !du_mark[eta.pos] {
                du_mark[eta.pos] = true;
                du_pattern.push(eta.pos);
            }
        }

        // Clear the previous duals down to the zero invariant.
        if self.y_dense {
            self.y.fill(0.0);
        } else {
            for &r in &self.y_pattern {
                self.y[r] = 0.0;
            }
        }
        self.y_pattern.clear();
        let lu = self.lu.as_ref().expect("factorized");
        self.stats.btran_solves += 1;
        if self.du_pattern.len() * BTRAN_SPARSE_FRACTION <= m {
            lu.solve_transpose_sparse(
                &mut self.du,
                &self.du_pattern,
                &mut self.y,
                &mut self.y_pattern,
                &mut self.lu_scratch,
            );
            self.y_dense = false;
            self.stats.btran_sparse += 1;
            self.stats.btran_nnz += self.y_pattern.len() as u64;
            self.stats.btran_dim += m as u64;
            // The sparse solve restored `du` to zero; drop the marks.
            for &p in &self.du_pattern {
                self.du_mark[p] = false;
            }
        } else {
            lu.solve_transpose(&mut self.du, &mut self.y);
            self.y_dense = true;
            // The dense solve consumed `du` as scratch: restore it.
            self.du.fill(0.0);
            for &p in &self.du_pattern {
                self.du_mark[p] = false;
            }
        }
    }

    /// Entering eligibility of column `j` against the current duals:
    /// `(direction, |d_j|)` where direction +1 increases from the resting
    /// point and −1 decreases. Callers normalise the reduced-cost magnitude
    /// by the static steepest-edge column norm, which picks markedly
    /// better pivots than raw Dantzig scoring.
    fn eligibility(&self, j: usize) -> Option<(f64, f64)> {
        match self.status[j] {
            VarStatus::Basic(_) => None,
            VarStatus::AtLower | VarStatus::AtUpper if self.upper[j] - self.lower[j] <= 0.0 => {
                None // fixed
            }
            _ => self.eligibility_given(j, self.reduced_cost(j)),
        }
    }

    /// Prices the contiguous column run `lo..hi` against the refill sweep's
    /// dots, appending eligible entries as `(column, direction, score)`.
    /// Zipped slice iteration keeps the per-column cost to a handful of
    /// branch-predictable loads — this loop sees every column of the
    /// problem once per refill and most are rejected.
    fn scan_run(&self, lo: usize, hi: usize, found: &mut Vec<(usize, f64, f64)>) {
        let tol = self.opts.opt_tol;
        for j in lo..hi {
            let (dir, absd) = match self.status[j] {
                VarStatus::Basic(_) => continue,
                VarStatus::AtLower => {
                    if self.upper[j] - self.lower[j] <= 0.0 {
                        continue;
                    }
                    let d = self.reduced_cost(j);
                    if d >= -tol {
                        continue;
                    }
                    (1.0, -d)
                }
                VarStatus::AtUpper => {
                    if self.upper[j] - self.lower[j] <= 0.0 {
                        continue;
                    }
                    let d = self.reduced_cost(j);
                    if d <= tol {
                        continue;
                    }
                    (-1.0, d)
                }
                VarStatus::Free => {
                    let d = self.reduced_cost(j);
                    if d < -tol {
                        (1.0, -d)
                    } else if d > tol {
                        (-1.0, d)
                    } else {
                        continue;
                    }
                }
            };
            found.push((j, dir, absd / self.col_norm[j]));
        }
    }

    /// [`SimplexSolver::eligibility`] with the reduced cost already in hand
    /// — the refill scan computes every column's `d` in one row sweep.
    #[inline]
    fn eligibility_given(&self, j: usize, d: f64) -> Option<(f64, f64)> {
        let tol = self.opts.opt_tol;
        match self.status[j] {
            VarStatus::Basic(_) => None,
            VarStatus::AtLower => {
                if self.upper[j] - self.lower[j] <= 0.0 {
                    return None; // fixed
                }
                if d < -tol {
                    Some((1.0, -d))
                } else {
                    None
                }
            }
            VarStatus::AtUpper => {
                if self.upper[j] - self.lower[j] <= 0.0 {
                    return None;
                }
                if d > tol {
                    Some((-1.0, d))
                } else {
                    None
                }
            }
            VarStatus::Free => {
                if d < -tol {
                    Some((1.0, -d))
                } else if d > tol {
                    Some((-1.0, d))
                } else {
                    None
                }
            }
        }
    }

    /// Chooses the entering variable by candidate-list partial pricing;
    /// returns `(column, direction)`.
    fn price(&mut self) -> Option<(usize, f64)> {
        if self.bland {
            return self.price_bland();
        }
        // Re-price the cached candidates against the fresh duals; drop the
        // ones no longer attractive.
        let mut cand = std::mem::take(&mut self.cand);
        let mut best: Option<(usize, f64, f64)> = None;
        cand.retain(|&j| {
            let Some((dir, absd)) = self.eligibility(j) else {
                return false;
            };
            let score = absd / self.col_norm[j];
            if best.map(|(_, _, s)| score > s).unwrap_or(true) {
                best = Some((j, dir, score));
            }
            true
        });
        self.cand = cand;
        // Serve from the cache only while its best stays competitive with
        // the scores seen at the last refill; grinding a stale list down to
        // its dregs costs far more iterations than a rescan costs columns.
        if let Some((j, dir, score)) = best {
            if score >= self.refill_floor {
                return Some((j, dir));
            }
        }
        // Refill: rotating section scan, continuing until enough candidates
        // accumulate for decent pivot diversity; a full rotation finding
        // nothing proves optimality for the current costs.
        self.cand.clear();
        let n_total = self.n_total();
        let section = (n_total / 4).clamp(SECTION_MIN.min(n_total), n_total);
        let mut scanned = 0usize;
        // (column, direction, score) with score = |d| / col_norm.
        let mut found: Vec<(usize, f64, f64)> = Vec::new();
        while scanned < n_total {
            let start = self.scan_cursor;
            let len = section.min(n_total - scanned);
            // The rotating window wraps at most once; scanning it as two
            // contiguous runs keeps the hot loop free of index arithmetic.
            let first_end = (start + len).min(n_total);
            self.scan_run(start, first_end, &mut found);
            self.scan_run(0, (start + len).saturating_sub(n_total), &mut found);
            self.scan_cursor = (start + len) % n_total;
            scanned += len;
            if found.len() >= CAND_CAP {
                break;
            }
        }
        if found.is_empty() {
            // A full rotation saw nothing eligible — even a previously
            // cached best would have been rediscovered — so: optimal.
            return None;
        }
        found.sort_unstable_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
        found.truncate(CAND_CAP);
        self.cand.extend(found.iter().map(|&(j, _, _)| j));
        let (j, dir, top) = found[0];
        self.refill_floor = top * REFILL_DECAY;
        Some((j, dir))
    }

    /// Bland's rule: the eligible column with the lowest index.
    fn price_bland(&self) -> Option<(usize, f64)> {
        (0..self.n_total()).find_map(|j| self.eligibility(j).map(|(dir, _)| (j, dir)))
    }

    #[inline]
    fn reduced_cost(&self, j: usize) -> f64 {
        self.cost[j] - self.a.col_dot(j, &self.y)
    }

    /// t = B⁻¹ a_q with its nonzero pattern tracked symbolically through the
    /// LU solve and the eta file.
    fn ftran(&mut self, q: usize) {
        // Clear the previous tableau column.
        for &p in &self.t_pattern {
            self.t[p] = 0.0;
        }
        self.t_pattern.clear();
        {
            let (rows, vals) = self.a.col(q);
            for (&r, &v) in rows.iter().zip(vals) {
                self.fb[r] = v;
            }
            self.lu.as_ref().expect("factorized").solve_sparse(
                &mut self.fb,
                rows,
                &mut self.t,
                &mut self.t_pattern,
                &mut self.lu_scratch,
            );
        }
        if !self.etas.is_empty() {
            for &p in &self.t_pattern {
                self.t_mark[p] = true;
            }
            for eta in &self.etas {
                let tp = self.t[eta.pos];
                if tp == 0.0 {
                    continue;
                }
                let tr = tp / eta.pivot;
                self.t[eta.pos] = tr;
                for &(p, v) in &eta.entries {
                    if !self.t_mark[p] {
                        self.t_mark[p] = true;
                        self.t_pattern.push(p);
                    }
                    self.t[p] -= v * tr;
                }
            }
            for &p in &self.t_pattern {
                self.t_mark[p] = false;
            }
        }
        let t = &mut self.t;
        self.t_pattern.retain(|&p| {
            if t[p].abs() > 1e-12 {
                true
            } else {
                t[p] = 0.0;
                false
            }
        });
        self.stats.ftran_solves += 1;
        self.stats.ftran_nnz += self.t_pattern.len() as u64;
        self.stats.ftran_dim += self.m as u64;
    }

    fn ratio_test(&self, q: usize, dir: f64) -> RatioOutcome {
        let feas_tol = self.opts.feas_tol;
        // Bound-flip distance of the entering variable itself.
        let range = self.upper[q] - self.lower[q];
        let mut best_step = range; // may be +inf
        let mut best: Option<(usize, bool, f64)> = None; // (pos, to_upper, |pivot|)

        for &p in &self.t_pattern {
            let tp = self.t[p];
            if tp.abs() < PIVOT_TOL {
                continue;
            }
            let b = self.basis[p];
            // xb[p] changes at rate -dir*tp per unit of entering step.
            let rate = -dir * tp;
            let (limit, to_upper) = if rate < 0.0 {
                if self.lower[b] == f64::NEG_INFINITY {
                    continue;
                }
                (((self.xb[p] - self.lower[b]).max(0.0)) / -rate, false)
            } else {
                if self.upper[b] == f64::INFINITY {
                    continue;
                }
                (((self.upper[b] - self.xb[p]).max(0.0)) / rate, true)
            };
            if limit < best_step - feas_tol {
                best_step = limit;
                best = Some((p, to_upper, tp.abs()));
            } else if limit <= best_step + feas_tol {
                // Near-tie: prefer larger pivot magnitude (stability), or
                // smallest variable index under Bland's rule.
                if let Some((bp, _, babs)) = best {
                    let replace = if self.bland {
                        self.basis[p] < self.basis[bp]
                    } else {
                        tp.abs() > babs
                    };
                    if replace {
                        best_step = best_step.min(limit);
                        best = Some((p, to_upper, tp.abs()));
                    }
                } else if limit < best_step {
                    best_step = limit;
                    best = Some((p, to_upper, tp.abs()));
                }
            }
        }

        match best {
            None => {
                if best_step.is_finite() {
                    RatioOutcome::BoundFlip(best_step)
                } else {
                    RatioOutcome::Unbounded
                }
            }
            Some((pos, to_upper, _)) => {
                if range.is_finite() && range < best_step {
                    RatioOutcome::BoundFlip(range)
                } else {
                    RatioOutcome::Pivot {
                        pos,
                        step: best_step.max(0.0),
                        to_upper,
                    }
                }
            }
        }
    }

    /// Rebuilds the LU factorisation of the current basis and recomputes the
    /// basic values (washing out accumulated drift).
    ///
    /// When [`SimplexOptions::partial_refactor`] is on and a reference LU
    /// exists, the factorisation is *warm*: the longest common prefix of the
    /// previous and current basis column lists keeps its already-factored
    /// L/U columns verbatim ([`SparseLu::refactorize_from`]) and only the
    /// suffix is re-eliminated. Left-looking construction makes the result
    /// bit-for-bit identical to a from-scratch factorisation.
    fn refactorize(&mut self) -> Result<(), ()> {
        let a = &self.a;
        let basis = &self.basis;
        let keep = if self.opts.partial_refactor {
            lcp(&self.lu_basis, basis)
        } else {
            0
        };
        let column = |p: usize, buf: &mut Vec<(usize, f64)>| {
            let (rows, vals) = a.col(basis[p]);
            buf.extend(rows.iter().copied().zip(vals.iter().copied()));
        };
        let lu = match (keep > 0).then_some(self.lu.as_deref()).flatten() {
            Some(prev) => SparseLu::refactorize_from(prev, keep, column),
            None => SparseLu::factorize(self.m, column),
        }
        .map_err(|_| ())?;
        self.stats.refactorisations += 1;
        self.stats.cols_factored += (self.m - keep) as u64;
        self.stats.cols_reused += keep as u64;
        self.stats.fill_nnz = lu.fill_nnz();
        self.lu = Some(Rc::new(lu));
        Rc::make_mut(&mut self.lu_basis).clone_from(basis);
        self.etas.clear();
        self.snap_etas = None;
        // With the eta file just cleared this reduces to a plain LU solve.
        self.recompute_xb();
        Ok(())
    }

    /// Recomputes the basic values under the *current* factorisation
    /// (LU reference basis + eta file) without refactorising — used when
    /// only bounds changed while the basis and its factorisation are still
    /// valid.
    fn recompute_xb(&mut self) {
        let m = self.m;
        for p in 0..m {
            self.dense_b[p] = self.rhs[p];
        }
        for j in 0..self.n_total() {
            match self.status[j] {
                VarStatus::Basic(_) => {}
                s => {
                    let v = nonbasic_value(self.lower[j], self.upper[j], s);
                    if v != 0.0 {
                        self.a.col_axpy(j, -v, &mut self.dense_b);
                    }
                }
            }
        }
        self.lu
            .as_ref()
            .expect("factorized")
            .solve(&mut self.dense_b, &mut self.dense_a);
        // Push through the eta file, exactly as FTRAN does.
        for eta in &self.etas {
            let tr = self.dense_a[eta.pos] / eta.pivot;
            self.dense_a[eta.pos] = tr;
            if tr != 0.0 {
                for &(p, v) in &eta.entries {
                    self.dense_a[p] -= v * tr;
                }
            }
        }
        self.xb.copy_from_slice(&self.dense_a[..m]);
    }
}

enum RatioOutcome {
    Unbounded,
    BoundFlip(f64),
    Pivot {
        pos: usize,
        step: f64,
        to_upper: bool,
    },
}

/// Length of the longest common prefix of two basis column lists — the
/// number of leading LU columns a warm partial refactorisation can reuse.
fn lcp(a: &[usize], b: &[usize]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

#[inline]
fn initial_bound_status(lower: f64, upper: f64) -> VarStatus {
    if lower.is_finite() && (lower.abs() <= upper.abs() || !upper.is_finite()) {
        VarStatus::AtLower
    } else if upper.is_finite() {
        VarStatus::AtUpper
    } else {
        VarStatus::Free
    }
}

#[inline]
fn nonbasic_value(lower: f64, upper: f64, status: VarStatus) -> f64 {
    match status {
        VarStatus::AtLower => lower,
        VarStatus::AtUpper => upper,
        VarStatus::Free => 0.0,
        VarStatus::Basic(_) => unreachable!("nonbasic_value on basic variable"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearProgram, RowSense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn tiny_maximization() {
        // max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6, 0 ≤ x,y ≤ 10 → x=4, y=0.
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 10.0, 3.0);
        let y = lp.add_var(0.0, 10.0, 2.0);
        lp.add_row(RowSense::Le, 4.0, &[(x, 1.0), (y, 1.0)]);
        lp.add_row(RowSense::Le, 6.0, &[(x, 1.0), (y, 3.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 12.0);
        assert_close(s.values[x], 4.0);
        assert_close(s.values[y], 0.0);
    }

    #[test]
    fn classic_lp_with_interior_optimum_vertex() {
        // max 5x + 4y s.t. 6x + 4y ≤ 24, x + 2y ≤ 6 → x=3, y=1.5, obj=21.
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 100.0, 5.0);
        let y = lp.add_var(0.0, 100.0, 4.0);
        lp.add_row(RowSense::Le, 24.0, &[(x, 6.0), (y, 4.0)]);
        lp.add_row(RowSense::Le, 6.0, &[(x, 1.0), (y, 2.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 21.0);
        assert_close(s.values[x], 3.0);
        assert_close(s.values[y], 1.5);
    }

    #[test]
    fn equality_rows_need_phase_one() {
        // min x + y s.t. x + y = 2, x − y = 0 → x=y=1, obj=2.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 10.0, 1.0);
        let y = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(RowSense::Eq, 2.0, &[(x, 1.0), (y, 1.0)]);
        lp.add_row(RowSense::Eq, 0.0, &[(x, 1.0), (y, -1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 2.0);
        assert_close(s.values[x], 1.0);
        assert_close(s.values[y], 1.0);
    }

    #[test]
    fn ge_rows() {
        // min 2x + 3y s.t. x + y ≥ 10, x ≤ 4 → x=4, y=6, obj=26.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 4.0, 2.0);
        let y = lp.add_var(0.0, 100.0, 3.0);
        lp.add_row(RowSense::Ge, 10.0, &[(x, 1.0), (y, 1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 26.0);
    }

    #[test]
    fn infeasible_detected() {
        // x ≤ 1 and x ≥ 3 with 0 ≤ x ≤ 10.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(RowSense::Le, 1.0, &[(x, 1.0)]);
        lp.add_row(RowSense::Ge, 3.0, &[(x, 1.0)]);
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // max x with x ≥ 0 unbounded above, one irrelevant row.
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let _x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, 1.0, 0.0);
        lp.add_row(RowSense::Le, 1.0, &[(y, 1.0)]);
        assert_eq!(lp.solve().status, LpStatus::Unbounded);
    }

    #[test]
    fn bound_flip_path() {
        // max x + y s.t. x − y ≤ 0, x,y ∈ [0,1] → x=y=1: requires y to move
        // to its upper bound (bound flip or pivot).
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 1.0, 1.0);
        let y = lp.add_var(0.0, 1.0, 1.0);
        lp.add_row(RowSense::Le, 0.0, &[(x, 1.0), (y, -1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn negative_rhs_equality() {
        // min x s.t. −x = −5 → x = 5.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(RowSense::Eq, -5.0, &[(x, -1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.values[x], 5.0);
    }

    #[test]
    fn degenerate_instance_terminates() {
        // Many redundant rows through the same vertex.
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 10.0, 1.0);
        let y = lp.add_var(0.0, 10.0, 1.0);
        for k in 1..8 {
            lp.add_row(RowSense::Le, k as f64, &[(x, k as f64), (y, k as f64)]);
        }
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 1.0);
    }

    #[test]
    fn solve_with_bounds_overrides() {
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(RowSense::Le, 8.0, &[(x, 1.0)]);
        let s = lp.solve_with_bounds(&[0.0], &[3.0], &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn free_variable_override_rests_at_zero() {
        // Regression: a variable freed through bound overrides used to get
        // nonbasic status AtUpper and value +∞, poisoning the crash basis
        // activity. It must rest at zero and solve correctly.
        // min x s.t. x ≥ −3, x free → x = −3.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(RowSense::Ge, -3.0, &[(x, 1.0)]);
        let s = lp.solve_with_bounds(
            &[f64::NEG_INFINITY],
            &[f64::INFINITY],
            &SimplexOptions::default(),
        );
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -3.0);
        assert_close(s.values[x], -3.0);
    }

    #[test]
    fn free_variable_maximization_hits_row_limit() {
        // max x s.t. x ≤ 5 with x free → 5 (the row, not a bound, binds).
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 1.0, 1.0);
        lp.add_row(RowSense::Le, 5.0, &[(x, 1.0)]);
        let s = lp.solve_with_bounds(
            &[f64::NEG_INFINITY],
            &[f64::INFINITY],
            &SimplexOptions::default(),
        );
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 5.0);
    }

    #[test]
    fn warm_start_matches_cold_after_tightening() {
        // Solve, snapshot, tighten a bound (the B&B access pattern), and
        // verify the warm solve agrees with a cold one.
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 10.0, 3.0);
        let y = lp.add_var(0.0, 10.0, 2.0);
        lp.add_row(RowSense::Le, 4.0, &[(x, 1.0), (y, 1.0)]);
        lp.add_row(RowSense::Le, 6.0, &[(x, 1.0), (y, 3.0)]);

        let mut solver = SimplexSolver::new(&lp, SimplexOptions::default());
        let parent = solver.solve_from(None, &[0.0, 0.0], &[10.0, 10.0]);
        assert_eq!(parent.status, LpStatus::Optimal);
        let snap = solver.snapshot();

        for (lo, hi) in [
            ([0.0, 0.0], [2.5, 10.0]), // cut off the old optimum
            ([0.0, 1.0], [10.0, 10.0]),
            ([3.0, 0.0], [10.0, 0.5]),
            ([0.0, 0.0], [0.0, 0.0]), // everything fixed
        ] {
            let warm = solver.solve_from(Some(&snap), &lo, &hi);
            let cold = lp.solve_with_bounds(&lo, &hi, &SimplexOptions::default());
            assert_eq!(warm.status, cold.status, "bounds {lo:?}..{hi:?}");
            if warm.status == LpStatus::Optimal {
                assert!(
                    (warm.objective - cold.objective).abs() < 1e-7,
                    "bounds {lo:?}..{hi:?}: warm {} vs cold {}",
                    warm.objective,
                    cold.objective
                );
            }
        }
    }

    #[test]
    fn snapshot_reuses_eta_rc_until_pivots_dirty_it() {
        // Branch & bound snapshots the same solved state once per branched
        // node; the eta file must be cloned once, not per snapshot.
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 10.0, 3.0);
        let y = lp.add_var(0.0, 10.0, 2.0);
        lp.add_row(RowSense::Le, 4.0, &[(x, 1.0), (y, 1.0)]);
        lp.add_row(RowSense::Le, 6.0, &[(x, 1.0), (y, 3.0)]);
        let mut solver = SimplexSolver::new(&lp, SimplexOptions::default());
        assert_eq!(
            solver.solve_from(None, &[0.0, 0.0], &[10.0, 10.0]).status,
            LpStatus::Optimal
        );
        let a = solver.snapshot();
        let b = solver.snapshot();
        assert!(Rc::ptr_eq(&a.etas, &b.etas), "unchanged eta file recloned");
        assert_eq!(solver.stats().snapshot_eta_clones, 1);
        // A solve that pivots (bound change forces re-optimisation) must
        // invalidate the cache: the next snapshot sees a different eta file.
        let warm = solver.solve_from(Some(&a), &[0.0, 0.0], &[2.5, 10.0]);
        assert_eq!(warm.status, LpStatus::Optimal);
        let c = solver.snapshot();
        assert!(
            !Rc::ptr_eq(&a.etas, &c.etas),
            "stale eta Rc served after pivoting"
        );
    }

    #[test]
    fn warm_start_detects_child_infeasibility() {
        // min x + y s.t. x + y ≥ 4, x,y ≤ 3: feasible. Tightening both to
        // ≤ 1 makes the system infeasible; the warm repair must report it.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 3.0, 1.0);
        let y = lp.add_var(0.0, 3.0, 1.0);
        lp.add_row(RowSense::Ge, 4.0, &[(x, 1.0), (y, 1.0)]);
        let mut solver = SimplexSolver::new(&lp, SimplexOptions::default());
        let parent = solver.solve_from(None, &[0.0, 0.0], &[3.0, 3.0]);
        assert_eq!(parent.status, LpStatus::Optimal);
        let snap = solver.snapshot();
        let child = solver.solve_from(Some(&snap), &[0.0, 0.0], &[1.0, 1.0]);
        assert_eq!(child.status, LpStatus::Infeasible);
    }

    #[test]
    fn larger_randomised_vs_bruteforce_2d() {
        // Random 2-variable LPs cross-checked against a dense vertex
        // enumeration. Catches sign errors in pricing / ratio logic.
        let mut state = 0xdeadbeefu64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64) * 2.0 - 1.0
        };
        for trial in 0..200 {
            let mut lp = LinearProgram::new();
            lp.set_maximize(true);
            let cx = rnd();
            let cy = rnd();
            let x = lp.add_var(0.0, 1.0, cx);
            let y = lp.add_var(0.0, 1.0, cy);
            let mut rows = Vec::new();
            for _ in 0..4 {
                let a = rnd();
                let b = rnd();
                let c = rnd() + 1.2; // keep origin feasible
                lp.add_row(RowSense::Le, c, &[(x, a), (y, b)]);
                rows.push((a, b, c));
            }
            let s = lp.solve();
            assert_eq!(s.status, LpStatus::Optimal, "trial {trial}");
            // brute force on a fine grid (origin is feasible so optimum ≥ 0 grid pt)
            let mut best = f64::NEG_INFINITY;
            let n = 200;
            for i in 0..=n {
                for jj in 0..=n {
                    let px = i as f64 / n as f64;
                    let py = jj as f64 / n as f64;
                    if rows.iter().all(|&(a, b, c)| a * px + b * py <= c + 1e-9) {
                        best = best.max(cx * px + cy * py);
                    }
                }
            }
            assert!(
                s.objective >= best - 1e-6,
                "trial {trial}: simplex {} < grid {}",
                s.objective,
                best
            );
            // and the simplex solution must itself be feasible
            for &(a, b, c) in &rows {
                assert!(
                    a * s.values[x] + b * s.values[y] <= c + 1e-6,
                    "trial {trial}"
                );
            }
        }
    }
}
