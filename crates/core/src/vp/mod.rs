//! Vector-packing algorithms and the binary search on yield (§3.5).
//!
//! For a fixed target yield `λ` every service becomes an *item* with
//! elementary size `rᵉ + λ·nᵉ` and aggregate size `rᵃ + λ·nᵃ`, and every
//! node a *bin* with its two capacity vectors; a packing heuristic either
//! places all items or fails. A binary search (resolution `1e-4`, as in the
//! paper) then looks for the largest yield at which the heuristic still
//! succeeds. Item sizes grow with `λ`, but a heuristic's *success* is not
//! proven monotone: item orders are sorted on the `λ`-scaled sizes, so the
//! packing order changes with `λ`, and the search assumes rather than
//! proves that one success implies success at every lower yield. The
//! returned solution is then re-evaluated with the shared water-filling
//! evaluator, which can only improve on the searched lower bound.
//!
//! A **yield ceiling** (built once per solve with the capacity tables)
//! bounds every yield at which *any* placement passes the fit test, whatever
//! the packing order; the search answers probes above it "fails" without
//! packing. That needs no monotonicity: no packing exists there at all. It
//! starts from the capacity bound `λ̂` (each service fits some node, the
//! platform holds the total load) and is lowered by a fit-set (Hall-type)
//! check: the services that fit only inside a node set `S` must fit in
//! `S`'s summed capacity. Sizes only shrink as the yield falls, so a yield
//! at which the check fails bounds every yield above it, and a bisection of
//! `[0, min(λ̂, 1)]` finds such a yield near the lowest one. Its cost is
//! one `J×H` limit table and 22 `J×H` fit-set builds per solve: about
//! 0.3 ms at 100 services and 1.2 ms at 500, on 64 nodes.

mod best_fit;
pub(crate) mod binary_search;
#[cfg(test)]
mod ceiling_tests;
mod first_fit;
mod meta;
pub mod ordering;
mod perm_pack;
mod sortkey;

pub use best_fit::BestFit;
pub use binary_search::{
    binary_search_placement, binary_search_yield, VpAlgorithm, DEFAULT_RESOLUTION,
};
pub use first_fit::FirstFit;
pub use meta::MetaVp;
pub use ordering::telemetry_execution_order;
pub use perm_pack::PermutationPack;
pub use sortkey::{BinSort, ItemSort, SortOrder, VectorMetric};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use vmplace_model::{Placement, ProblemInstance, ResourceVector, EPSILON};

/// Capacity slack added to every numerator of the yield ceiling: far above
/// the f64 rounding of the fit test's sums, far below `EPSILON`.
const CEILING_SLACK: f64 = 1e-10;

/// Needs at or below this are left out of the yield ceiling (leaving a
/// dimension out can only raise it).
const CEILING_MIN_NEED: f64 = 1e-6;

/// Everything a probe reads that does not depend on the target yield:
/// flat `H×D` capacity tables (the `+ EPSILON` of the fit test folded in),
/// the yield ceiling, and the bin order of every [`BinSort`] a member asks
/// for. Built once per solve and shared by every member's [`VpProblem`].
///
/// The ceiling comes from one `J×H` table of yield limits (the largest
/// yield at which service `j` fits empty node `h`): the capacity bound `λ̂`
/// of [`VpTables::capacity_bound`], lowered by bisecting the fit-set check
/// of [`VpTables::fit_sets_hold`] on `[0, min(λ̂, 1)]`.
pub(crate) struct VpTables {
    /// Process-unique identity; keys the per-worker item-order memo.
    id: u64,
    elem_cap: Vec<f64>,  // H×D, elementary + EPSILON
    agg_cap: Vec<f64>,   // H×D, aggregate + EPSILON
    aggregate: Vec<f64>, // H×D, raw
    /// The capacity bound `λ̂`, kept for reports.
    pub(crate) lambda_hat: f64,
    /// No placement passes the fit test at a yield above this (`≤ λ̂`).
    pub(crate) ceiling: f64,
    bin_orders: [OnceLock<Vec<usize>>; BinSort::COUNT],
}

/// Bisection steps of the fit-set ceiling on `[0, min(λ̂, 1)]`: a
/// resolution near `1e-6`, well under the search's `1e-4`.
const FIT_SET_STEPS: usize = 20;

impl VpTables {
    pub(crate) fn new(instance: &ProblemInstance) -> VpTables {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let cells = instance.num_nodes() * instance.dims();
        let mut tables = VpTables {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            elem_cap: Vec::with_capacity(cells),
            agg_cap: Vec::with_capacity(cells),
            aggregate: Vec::with_capacity(cells),
            lambda_hat: f64::INFINITY,
            ceiling: f64::INFINITY,
            bin_orders: Default::default(),
        };
        for node in instance.nodes() {
            for d in 0..instance.dims() {
                tables.elem_cap.push(node.elementary[d] + EPSILON);
                tables.agg_cap.push(node.aggregate[d] + EPSILON);
                tables.aggregate.push(node.aggregate[d]);
            }
        }
        let limits = tables.yield_limits(instance);
        tables.lambda_hat = tables.capacity_bound(instance, &limits);
        tables.ceiling = tables.fit_set_ceiling(instance, &limits);
        tables
    }

    /// The `J×H` table of yield limits: entry `(j, h)` is the largest yield
    /// at which service `j` passes the fit test on empty node `h`, on the
    /// very tables [`VpProblem::fits`] compares against.
    fn yield_limits(&self, instance: &ProblemInstance) -> Vec<f64> {
        let dims = instance.dims();
        let mut limits = Vec::with_capacity(instance.num_services() * instance.num_nodes());
        for s in instance.services() {
            for row in (0..instance.num_nodes()).map(|h| h * dims..(h + 1) * dims) {
                let elem = yield_limit(&s.req_elem, &s.need_elem, &self.elem_cap[row.clone()]);
                let agg = yield_limit(&s.req_agg, &s.need_agg, &self.agg_cap[row]);
                limits.push(elem.min(agg));
            }
        }
        limits
    }

    /// The capacity bound `λ̂`: the minimum of
    /// * per dimension, the free aggregate capacity over the total need
    ///   (every placed item's load lands in some bin), and
    /// * per service, its largest yield limit over all nodes (`−∞` when it
    ///   fits none even at `λ = 0`).
    fn capacity_bound(&self, instance: &ProblemInstance, limits: &[f64]) -> f64 {
        let dims = instance.dims();
        let services = instance.services();
        let mut ceiling = f64::INFINITY;
        for d in 0..dims {
            let need: f64 = services.iter().map(|s| s.need_agg[d]).sum();
            if need > CEILING_MIN_NEED {
                let capacity: f64 = self.agg_cap.iter().skip(d).step_by(dims).sum();
                let req: f64 = services.iter().map(|s| s.req_agg[d]).sum();
                ceiling = ceiling.min((capacity - req + CEILING_SLACK) / need);
            }
        }
        for row in limits.chunks(instance.num_nodes()) {
            ceiling = ceiling.min(row.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        }
        ceiling
    }

    /// The ceiling below `λ̂`: `−∞` if the fit-set check fails at `λ = 0`,
    /// `λ̂` if it holds at `min(λ̂, 1)`, else the smallest failing yield a
    /// bisection of `[0, min(λ̂, 1)]` sees.
    fn fit_set_ceiling(&self, instance: &ProblemInstance, limits: &[f64]) -> f64 {
        let top = self.lambda_hat.min(1.0);
        if top < 0.0 {
            return self.lambda_hat;
        }
        if !self.fit_sets_hold(instance, limits, 0.0) {
            return f64::NEG_INFINITY;
        }
        if self.fit_sets_hold(instance, limits, top) {
            return self.lambda_hat;
        }
        let (mut lo, mut hi) = (0.0, top);
        for _ in 0..FIT_SET_STEPS {
            let mid = 0.5 * (lo + hi);
            if self.fit_sets_hold(instance, limits, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// The fit-set (Hall-type) check at `lambda`, a necessary condition for
    /// any placement to pass the fit test. Service `j`'s fit set is
    /// `F_j = {h : lambda ≤ limit(j, h)}`; a placement puts `j` in `F_j`, so
    /// it fails if some `F_j` is empty, or if for some fit set `S` the
    /// aggregate load of the services with `F_i ⊆ S` exceeds the summed
    /// aggregate capacity of `S`. Services that fit every node are left out
    /// (the whole platform is `λ̂`'s aggregate term). Equal fit sets are
    /// grouped first; an instance has few distinct ones, so the cost is the
    /// `J×H` set build.
    fn fit_sets_hold(&self, instance: &ProblemInstance, limits: &[f64], lambda: f64) -> bool {
        let (nodes, dims) = (instance.num_nodes(), instance.dims());
        let words = nodes.div_ceil(64);
        // The distinct fit sets (`words` apiece) and their loads (D apiece).
        let (mut groups, mut loads) = (Vec::new(), Vec::new());
        let mut set = vec![0u64; words];
        for (s, row) in instance.services().iter().zip(limits.chunks(nodes)) {
            for (word, chunk) in set.iter_mut().zip(row.chunks(64)) {
                *word = 0;
                for (bit, &limit) in chunk.iter().enumerate() {
                    *word |= u64::from(lambda <= limit) << bit;
                }
            }
            match set.iter().map(|w| w.count_ones() as usize).sum::<usize>() {
                0 => return false,
                fits if fits == nodes => continue,
                _ => {}
            }
            let g = groups
                .chunks(words)
                .position(|g| g == set)
                .unwrap_or_else(|| {
                    groups.extend_from_slice(&set);
                    loads.resize(loads.len() + dims, 0.0);
                    groups.len() / words - 1
                });
            for (d, load) in loads[g * dims..(g + 1) * dims].iter_mut().enumerate() {
                *load += s.req_agg[d] + lambda * s.need_agg[d];
            }
        }
        let (mut load, mut capacity) = (vec![0.0; dims], vec![0.0; dims]);
        for outer in groups.chunks(words) {
            load.fill(0.0);
            for (inner, inner_load) in groups.chunks(words).zip(loads.chunks(dims)) {
                if inner.iter().zip(outer).all(|(i, o)| i & !o == 0) {
                    load.iter_mut().zip(inner_load).for_each(|(l, x)| *l += x);
                }
            }
            capacity.fill(0.0);
            for h in (0..nodes).filter(|h| outer[h / 64] >> (h % 64) & 1 == 1) {
                let cap = &self.agg_cap[h * dims..(h + 1) * dims];
                capacity.iter_mut().zip(cap).for_each(|(c, x)| *c += x);
            }
            if load
                .iter()
                .zip(&capacity)
                .any(|(l, c)| *l > c + CEILING_SLACK)
            {
                return false;
            }
        }
        true
    }
}

/// The largest `λ` with `req + λ·need ≤ cap` in every dimension, up to the
/// ceiling's slack; `−∞` when `req` alone exceeds `cap`.
fn yield_limit(req: &ResourceVector, need: &ResourceVector, cap: &[f64]) -> f64 {
    let mut limit = f64::INFINITY;
    for (d, &cap) in cap.iter().enumerate() {
        if req[d] > cap {
            return f64::NEG_INFINITY;
        }
        if need[d] > CEILING_MIN_NEED {
            limit = limit.min((cap - req[d] + CEILING_SLACK) / need[d]);
        }
    }
    limit
}

/// A vector-packing view of an instance at a fixed target yield
/// (`lambda ≥ 0`, so item sizes are non-negative and bin loads only grow).
pub struct VpProblem<'a> {
    /// The underlying instance.
    pub instance: &'a ProblemInstance,
    /// The uniform target yield.
    pub lambda: f64,
    dims: usize,
    tables: Arc<VpTables>,
    item_elem: Vec<f64>, // J×D, row-major
    item_agg: Vec<f64>,  // J×D
}

impl<'a> VpProblem<'a> {
    /// Materialises item sizes at yield `lambda`.
    pub fn new(instance: &'a ProblemInstance, lambda: f64) -> Self {
        Self::with_buffers(instance, lambda, Vec::new(), Vec::new())
    }

    /// As [`VpProblem::new`], reusing caller-provided buffers for the item
    /// size tables (a binary search builds one `VpProblem` per member and
    /// [retargets](VpProblem::retarget) it per probe without allocating).
    pub fn with_buffers(
        instance: &'a ProblemInstance,
        lambda: f64,
        item_elem: Vec<f64>,
        item_agg: Vec<f64>,
    ) -> Self {
        let tables = Arc::new(VpTables::new(instance));
        Self::with_tables(instance, tables, lambda, item_elem, item_agg)
    }

    /// As [`VpProblem::with_buffers`] on tables another member of the same
    /// solve already built from `instance`.
    pub(crate) fn with_tables(
        instance: &'a ProblemInstance,
        tables: Arc<VpTables>,
        lambda: f64,
        item_elem: Vec<f64>,
        item_agg: Vec<f64>,
    ) -> Self {
        let mut vp = VpProblem {
            instance,
            lambda,
            dims: instance.dims(),
            tables,
            item_elem,
            item_agg,
        };
        vp.retarget(lambda);
        vp
    }

    /// Re-points the problem at a new target yield, recomputing the item
    /// size tables in place.
    pub fn retarget(&mut self, lambda: f64) {
        self.lambda = lambda;
        self.item_elem.clear();
        self.item_agg.clear();
        for s in self.instance.services() {
            for d in 0..self.dims {
                self.item_elem.push(s.req_elem[d] + lambda * s.need_elem[d]);
                self.item_agg.push(s.req_agg[d] + lambda * s.need_agg[d]);
            }
        }
    }

    /// Releases the internal buffers for reuse by a later
    /// [`VpProblem::with_buffers`].
    pub fn into_buffers(self) -> (Vec<f64>, Vec<f64>) {
        (self.item_elem, self.item_agg)
    }

    /// Number of resource dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of items (services).
    #[inline]
    pub fn num_items(&self) -> usize {
        self.instance.num_services()
    }

    /// Number of bins (nodes).
    #[inline]
    pub fn num_bins(&self) -> usize {
        self.instance.num_nodes()
    }

    /// Aggregate size vector of item `j` at the target yield.
    #[inline]
    pub fn item_agg(&self, j: usize) -> &[f64] {
        &self.item_agg[j * self.dims..(j + 1) * self.dims]
    }

    /// Elementary size vector of item `j` at the target yield.
    #[inline]
    pub fn item_elem(&self, j: usize) -> &[f64] {
        &self.item_elem[j * self.dims..(j + 1) * self.dims]
    }

    /// The yield ceiling `λ̂` of the instance: no placement passes
    /// [`VpProblem::fits`] for every item at a yield above it.
    #[inline]
    pub(crate) fn ceiling(&self) -> f64 {
        self.tables.ceiling
    }

    /// Aggregate capacity vector of bin `h`.
    #[inline]
    pub(crate) fn bin_aggregate(&self, h: usize) -> &[f64] {
        &self.tables.aggregate[h * self.dims..(h + 1) * self.dims]
    }

    /// Bin indices in `sort` order, sorted on first use and then shared by
    /// every problem on the same tables.
    pub(crate) fn bin_order(&self, sort: BinSort) -> &[usize] {
        self.tables.bin_orders[sort.slot()].get_or_init(|| sort.order(self))
    }

    /// Identity of the item order under `sort` at this yield: equal keys
    /// mean equal instances (same tables), equal `lambda`, equal strategy.
    pub(crate) fn order_key(&self, sort: ItemSort) -> (u64, u64, ItemSort) {
        (self.tables.id, self.lambda.to_bits(), sort)
    }

    /// Whether item `j` fits in bin `h` given the bin's current aggregate
    /// `loads` (row-major H×D slice).
    #[inline]
    pub fn fits(&self, j: usize, h: usize, loads: &[f64]) -> bool {
        let row = h * self.dims..(h + 1) * self.dims;
        let elem_cap = &self.tables.elem_cap[row.clone()];
        let agg_cap = &self.tables.agg_cap[row.clone()];
        let loads = &loads[row];
        let elem = self.item_elem(j);
        let agg = self.item_agg(j);
        for d in 0..self.dims {
            if elem[d] > elem_cap[d] {
                return false;
            }
            if loads[d] + agg[d] > agg_cap[d] {
                return false;
            }
        }
        true
    }

    /// Adds item `j` to bin `h`'s loads.
    #[inline]
    pub fn place(&self, j: usize, h: usize, loads: &mut [f64]) {
        let agg = self.item_agg(j);
        for d in 0..self.dims {
            loads[h * self.dims + d] += agg[d];
        }
    }
}

/// Reusable buffers for a packing worker: memoised item orders, bin loads,
/// Best-Fit scores, Permutation-Pack class state and the output placement.
/// One scratch per portfolio worker makes every `pack_with` probe
/// allocation-free in steady state (buffers grow once, then stay).
#[derive(Default)]
pub struct PackScratch {
    pub(crate) loads: Vec<f64>,
    pub(crate) orders: sortkey::OrderMemo,
    pub(crate) scores: Vec<f64>,
    pub(crate) perm: perm_pack::PermScratch,
    pub(crate) placement: Placement,
    pub(crate) vp_elem: Vec<f64>,
    pub(crate) vp_agg: Vec<f64>,
}

impl PackScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> PackScratch {
        PackScratch {
            placement: Placement::empty(0),
            ..Default::default()
        }
    }

    /// The placement produced by the last successful
    /// [`PackingHeuristic::pack_with`].
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Takes the placement out of the scratch (leaves an empty one behind).
    pub fn take_placement(&mut self) -> Placement {
        std::mem::replace(&mut self.placement, Placement::empty(0))
    }
}

/// A vector-packing heuristic: places all items at the problem's fixed
/// yield or fails. `Send + Sync` so meta-algorithms can be shared across
/// experiment worker threads.
pub trait PackingHeuristic: Send + Sync {
    /// Builds the report identifier (e.g. `"FF/MAX_DESC/CAP_SUM_ASC"`).
    /// Allocates — call once and cache (the meta rosters do) rather than
    /// per probe.
    fn describe(&self) -> String;

    /// Attempts a complete packing using `scratch` for all working state.
    /// On success the placement is left in [`PackScratch::placement`];
    /// steady-state probes allocate nothing.
    fn pack_with(&self, vp: &VpProblem, scratch: &mut PackScratch) -> bool;

    /// Convenience wrapper around [`PackingHeuristic::pack_with`] with a
    /// fresh scratch, returning the placement by value.
    fn pack(&self, vp: &VpProblem) -> Option<Placement> {
        let mut scratch = PackScratch::new();
        self.pack_with(vp, &mut scratch)
            .then(|| scratch.take_placement())
    }
}

impl<T: PackingHeuristic + ?Sized> PackingHeuristic for &T {
    fn describe(&self) -> String {
        (**self).describe()
    }
    fn pack_with(&self, vp: &VpProblem, scratch: &mut PackScratch) -> bool {
        (**self).pack_with(vp, scratch)
    }
    fn pack(&self, vp: &VpProblem) -> Option<Placement> {
        (**self).pack(vp)
    }
}

impl<T: PackingHeuristic + ?Sized> PackingHeuristic for Box<T> {
    fn describe(&self) -> String {
        (**self).describe()
    }
    fn pack_with(&self, vp: &VpProblem, scratch: &mut PackScratch) -> bool {
        (**self).pack_with(vp, scratch)
    }
    fn pack(&self, vp: &VpProblem) -> Option<Placement> {
        (**self).pack(vp)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use vmplace_model::{Node, ProblemInstance, Service};

    /// A small heterogeneous instance on which all heuristics succeed.
    pub fn small_hetero() -> ProblemInstance {
        let nodes = vec![
            Node::multicore(4, 0.8, 1.0),
            Node::multicore(2, 1.0, 0.5),
            Node::multicore(4, 0.3, 0.8),
        ];
        let mk = |rc: f64, nc: f64, mem: f64| {
            Service::new(
                vec![rc / 2.0, mem],
                vec![rc, mem],
                vec![nc / 2.0, 0.0],
                vec![nc, 0.0],
            )
        };
        let services = vec![
            mk(0.2, 0.8, 0.3),
            mk(0.1, 0.5, 0.2),
            mk(0.3, 0.4, 0.1),
            mk(0.05, 0.9, 0.25),
            mk(0.15, 0.3, 0.15),
        ];
        ProblemInstance::new(nodes, services).unwrap()
    }

    /// An instance that packs at yield 0 but not at yield 1: memory forces
    /// two services per node, and CPU needs cap the pair at yield 0.5.
    pub fn tight_memory() -> ProblemInstance {
        let nodes = vec![Node::multicore(2, 0.5, 1.0), Node::multicore(2, 0.5, 1.0)];
        let svc = Service::new(
            vec![0.1, 0.5],
            vec![0.1, 0.5],
            vec![0.4, 0.0],
            vec![0.8, 0.0],
        );
        ProblemInstance::new(nodes, vec![svc.clone(), svc.clone(), svc.clone(), svc]).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::small_hetero;

    #[test]
    fn item_sizes_scale_with_lambda() {
        let inst = small_hetero();
        let vp0 = VpProblem::new(&inst, 0.0);
        let vp1 = VpProblem::new(&inst, 1.0);
        let s = &inst.services()[0];
        assert_eq!(vp0.item_agg(0)[0], s.req_agg[0]);
        assert!((vp1.item_agg(0)[0] - (s.req_agg[0] + s.need_agg[0])).abs() < 1e-12);
    }

    #[test]
    fn fits_checks_elementary_and_aggregate() {
        let inst = small_hetero();
        let vp = VpProblem::new(&inst, 1.0);
        let loads = vec![0.0; vp.num_bins() * vp.dims()];
        // Item 3 at yield 1 has elementary CPU 0.05/2 + 0.9/2 = 0.475 ≤ 0.3?
        // 0.475 > 0.3 → cannot go on node 2 even when empty.
        assert!(!vp.fits(3, 2, &loads));
        // but fits on node 0 (0.8 elementary).
        assert!(vp.fits(3, 0, &loads));
    }

    #[test]
    fn place_accumulates_loads() {
        let inst = small_hetero();
        let vp = VpProblem::new(&inst, 0.0);
        let mut loads = vec![0.0; vp.num_bins() * vp.dims()];
        vp.place(0, 1, &mut loads);
        vp.place(1, 1, &mut loads);
        assert!((loads[vp.dims() + 1] - 0.5).abs() < 1e-12); // memory 0.3+0.2
    }
}
