//! Vector-to-scalar metrics and the 11 sorting strategies (§3.5).
//!
//! "The largest source of difficulty in designing vector-packing heuristics
//! is that there is no single unambiguous definition of vector size" — the
//! paper therefore evaluates five mappings (MAX, SUM, MAXRATIO,
//! MAXDIFFERENCE, plus full lexicographic comparison) in both directions,
//! and the option not to sort: 11 strategies for items and, in the
//! heterogeneous algorithms, the same 11 for bins.

use super::VpProblem;
use std::cmp::Ordering;

/// Scalar "size" metric of a vector (or LEX for full lexicographic order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VectorMetric {
    /// Largest component.
    Max,
    /// Sum of components.
    Sum,
    /// Ratio of largest to smallest component (∞-guarded).
    MaxRatio,
    /// Difference between largest and smallest component.
    MaxDifference,
    /// Lexicographic comparison, dimension 0 first (CPU before memory in
    /// the paper's two-dimensional experiments).
    Lex,
}

/// Sorting direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SortOrder {
    /// Smallest first.
    Ascending,
    /// Largest first.
    Descending,
}

impl VectorMetric {
    /// All five metrics.
    pub const ALL: [VectorMetric; 5] = [
        VectorMetric::Max,
        VectorMetric::Sum,
        VectorMetric::MaxRatio,
        VectorMetric::MaxDifference,
        VectorMetric::Lex,
    ];

    /// Scalar value of the metric (`Lex` has no scalar; callers must use
    /// [`VectorMetric::compare`] instead, which all sorting here does).
    pub fn scalar(&self, v: &[f64]) -> f64 {
        let mut mx = f64::NEG_INFINITY;
        let mut mn = f64::INFINITY;
        let mut sum = 0.0;
        for &x in v {
            mx = mx.max(x);
            mn = mn.min(x);
            sum += x;
        }
        match self {
            VectorMetric::Max => mx,
            VectorMetric::Sum => sum,
            VectorMetric::MaxRatio => {
                if mn.abs() < 1e-12 {
                    mx / 1e-12
                } else {
                    mx / mn
                }
            }
            VectorMetric::MaxDifference => mx - mn,
            VectorMetric::Lex => 0.0,
        }
    }

    /// Compares two vectors under this metric (ascending orientation).
    pub fn compare(&self, a: &[f64], b: &[f64]) -> Ordering {
        match self {
            VectorMetric::Lex => {
                for (x, y) in a.iter().zip(b) {
                    match x.partial_cmp(y).unwrap_or(Ordering::Equal) {
                        Ordering::Equal => continue,
                        o => return o,
                    }
                }
                Ordering::Equal
            }
            _ => self
                .scalar(a)
                .partial_cmp(&self.scalar(b))
                .unwrap_or(Ordering::Equal),
        }
    }

    /// Short label used in heuristic names.
    pub fn label(&self) -> &'static str {
        match self {
            VectorMetric::Max => "MAX",
            VectorMetric::Sum => "SUM",
            VectorMetric::MaxRatio => "MAXRATIO",
            VectorMetric::MaxDifference => "MAXDIFF",
            VectorMetric::Lex => "LEX",
        }
    }
}

/// Item ordering strategy: one of the 5 metrics × 2 directions, or natural
/// order (`None`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ItemSort(pub Option<(VectorMetric, SortOrder)>);

/// Bin ordering strategy (heterogeneous algorithms sort bins by capacity).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BinSort(pub Option<(VectorMetric, SortOrder)>);

/// Fills `idx` with `0..count` sorted under `strategy`, using `pairs` as
/// scratch — no per-call allocation once the two buffers have grown to
/// size.
///
/// Scalar metrics are evaluated once per vector and sorted as
/// `(key, index)` pairs; `Lex` compares the slices directly. The index
/// tie-break makes either comparator a total order, so the permutation
/// does not depend on the sort algorithm.
fn sorted_indices_into<'v, F>(
    count: usize,
    vec_of: F,
    strategy: Option<(VectorMetric, SortOrder)>,
    idx: &mut Vec<usize>,
    pairs: &mut Vec<(f64, usize)>,
) where
    F: Fn(usize) -> &'v [f64],
{
    idx.clear();
    let Some((metric, order)) = strategy else {
        idx.extend(0..count);
        return;
    };
    if metric == VectorMetric::Lex {
        idx.extend(0..count);
        idx.sort_unstable_by(|&a, &b| {
            let o = metric.compare(vec_of(a), vec_of(b));
            let o = match order {
                SortOrder::Ascending => o,
                SortOrder::Descending => o.reverse(),
            };
            o.then(a.cmp(&b))
        });
        return;
    }
    pairs.clear();
    pairs.extend((0..count).map(|i| (metric.scalar(vec_of(i)), i)));
    let by_key = |x: f64, y: f64| x.partial_cmp(&y).unwrap_or(Ordering::Equal);
    match order {
        SortOrder::Ascending => pairs.sort_unstable_by(|x, y| by_key(x.0, y.0).then(x.1.cmp(&y.1))),
        SortOrder::Descending => {
            pairs.sort_unstable_by(|x, y| by_key(y.0, x.0).then(x.1.cmp(&y.1)))
        }
    }
    idx.extend(pairs.iter().map(|p| p.1));
}

/// Item orders a worker has already sorted, keyed by
/// [`VpProblem::order_key`]: members of one solve that probe the same `λ`
/// under the same [`ItemSort`] sort once per worker. The tables id in the
/// key is minted per solve, so an entry can never answer for another
/// instance — or for the same `ProblemInstance` mutated in place — and
/// the memo needs no reset between solves. Least recently used entries
/// are overwritten once [`ORDER_MEMO_CAPACITY`] are live.
pub(crate) struct OrderMemo {
    entries: Vec<MemoEntry>,
    clock: u64,
    capacity: usize,
    sort_pairs: Vec<(f64, usize)>,
}

/// One bisection path visits ~16 yields, so 64 entries hold the paths of
/// the four item sorts METAHVPLIGHT switches between — the hit rate stops
/// improving there — at `64 × J` indices (256 KiB at 500 services).
const ORDER_MEMO_CAPACITY: usize = 64;

struct MemoEntry {
    key: (u64, u64, ItemSort),
    used: u64,
    order: Vec<usize>,
}

impl Default for OrderMemo {
    fn default() -> Self {
        OrderMemo::with_capacity(ORDER_MEMO_CAPACITY)
    }
}

impl OrderMemo {
    fn with_capacity(capacity: usize) -> OrderMemo {
        OrderMemo {
            entries: Vec::new(),
            clock: 0,
            capacity,
            sort_pairs: Vec::new(),
        }
    }

    /// Item indices of `vp` in `sort` order.
    pub(crate) fn order(&mut self, vp: &VpProblem, sort: ItemSort) -> &[usize] {
        let key = vp.order_key(sort);
        let slot = match self.entries.iter().position(|e| e.key == key) {
            Some(hit) => hit,
            None => {
                let slot = if self.entries.len() < self.capacity {
                    self.entries.push(MemoEntry {
                        key,
                        used: 0,
                        order: Vec::new(),
                    });
                    self.entries.len() - 1
                } else {
                    let lru = self.entries.iter().enumerate().min_by_key(|(_, e)| e.used);
                    lru.expect("capacity is at least one").0
                };
                let entry = &mut self.entries[slot];
                entry.key = key;
                sort.order_into(vp, &mut entry.order, &mut self.sort_pairs);
                slot
            }
        };
        self.clock += 1;
        let entry = &mut self.entries[slot];
        entry.used = self.clock;
        &entry.order
    }
}

impl ItemSort {
    /// Natural order.
    pub const NONE: ItemSort = ItemSort(None);

    /// All 11 strategies (5 metrics × 2 directions + natural).
    pub fn all() -> Vec<ItemSort> {
        let mut out = vec![ItemSort::NONE];
        for m in VectorMetric::ALL {
            for o in [SortOrder::Descending, SortOrder::Ascending] {
                out.push(ItemSort(Some((m, o))));
            }
        }
        out
    }

    /// Item indices in packing order, keyed on aggregate size at the
    /// problem's target yield.
    pub fn order(&self, vp: &VpProblem) -> Vec<usize> {
        let mut idx = Vec::new();
        self.order_into(vp, &mut idx, &mut Vec::new());
        idx
    }

    /// As [`ItemSort::order`], writing into caller-provided buffers
    /// (allocation-free once the buffers have grown to size).
    pub fn order_into(&self, vp: &VpProblem, idx: &mut Vec<usize>, pairs: &mut Vec<(f64, usize)>) {
        sorted_indices_into(vp.num_items(), |j| vp.item_agg(j), self.0, idx, pairs);
    }

    /// Label used in heuristic names.
    pub fn label(&self) -> String {
        match self.0 {
            None => "NONE".to_string(),
            Some((m, SortOrder::Ascending)) => format!("{}_ASC", m.label()),
            Some((m, SortOrder::Descending)) => format!("{}_DESC", m.label()),
        }
    }
}

impl BinSort {
    /// Natural order.
    pub const NONE: BinSort = BinSort(None);

    /// All 11 strategies.
    pub fn all() -> Vec<BinSort> {
        let mut out = vec![BinSort::NONE];
        for m in VectorMetric::ALL {
            for o in [SortOrder::Ascending, SortOrder::Descending] {
                out.push(BinSort(Some((m, o))));
            }
        }
        out
    }

    /// Bin indices in packing order, keyed on aggregate capacity.
    pub fn order(&self, vp: &VpProblem) -> Vec<usize> {
        let mut idx = Vec::new();
        sorted_indices_into(
            vp.num_bins(),
            |h| vp.bin_aggregate(h),
            self.0,
            &mut idx,
            &mut Vec::new(),
        );
        idx
    }

    /// Number of strategies, and this one's index among them.
    pub(crate) const COUNT: usize = 1 + 2 * VectorMetric::ALL.len();

    pub(crate) fn slot(&self) -> usize {
        match self.0 {
            None => 0,
            Some((metric, order)) => 1 + 2 * (metric as usize) + order as usize,
        }
    }

    /// Label used in heuristic names.
    pub fn label(&self) -> String {
        match self.0 {
            None => "NAT".to_string(),
            Some((m, SortOrder::Ascending)) => format!("CAP_{}_ASC", m.label()),
            Some((m, SortOrder::Descending)) => format!("CAP_{}_DESC", m.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vp::test_support::small_hetero;
    use crate::vp::VpProblem;

    #[test]
    fn eleven_strategies_each() {
        assert_eq!(ItemSort::all().len(), 11);
        assert_eq!(BinSort::all().len(), 11);
    }

    #[test]
    fn metric_scalars() {
        let v = [0.2, 0.8];
        assert_eq!(VectorMetric::Max.scalar(&v), 0.8);
        assert!((VectorMetric::Sum.scalar(&v) - 1.0).abs() < 1e-12);
        assert!((VectorMetric::MaxRatio.scalar(&v) - 4.0).abs() < 1e-12);
        assert!((VectorMetric::MaxDifference.scalar(&v) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn zero_min_ratio_is_guarded() {
        let v = [0.0, 0.5];
        assert!(VectorMetric::MaxRatio.scalar(&v).is_finite());
        assert!(VectorMetric::MaxRatio.scalar(&v) > 1e9);
    }

    #[test]
    fn lex_compares_first_dimension_first() {
        assert_eq!(
            VectorMetric::Lex.compare(&[0.1, 0.9], &[0.2, 0.0]),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            VectorMetric::Lex.compare(&[0.2, 0.1], &[0.2, 0.3]),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    fn descending_max_puts_biggest_item_first() {
        let inst = small_hetero();
        let vp = VpProblem::new(&inst, 1.0);
        let order = ItemSort(Some((VectorMetric::Max, SortOrder::Descending))).order(&vp);
        // Largest aggregate CPU at yield 1: item 0 (0.2+0.8=1.0).
        assert_eq!(order[0], 0);
    }

    #[test]
    fn bin_sort_ascending_sum_puts_smallest_bin_first() {
        let inst = small_hetero();
        let vp = VpProblem::new(&inst, 0.0);
        let order = BinSort(Some((VectorMetric::Sum, SortOrder::Ascending))).order(&vp);
        // Capacity sums: node0 3.2+1.0=4.2, node1 2.0+0.5=2.5, node2 1.2+0.8=2.0.
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn pair_sort_matches_the_comparator_sort() {
        // Equal keys are common here (two services share every size), so
        // the index tie-break is exercised in both directions.
        let inst = crate::vp::test_support::tight_memory();
        for inst in [small_hetero(), inst] {
            for lambda in [0.0, 0.3, 1.0] {
                let vp = VpProblem::new(&inst, lambda);
                for sort in ItemSort::all() {
                    let mut expected: Vec<usize> = (0..vp.num_items()).collect();
                    if let Some((metric, order)) = sort.0 {
                        expected.sort_by(|&a, &b| {
                            let o = metric.compare(vp.item_agg(a), vp.item_agg(b));
                            let o = match order {
                                SortOrder::Ascending => o,
                                SortOrder::Descending => o.reverse(),
                            };
                            o.then(a.cmp(&b))
                        });
                    }
                    assert_eq!(sort.order(&vp), expected, "{} at {lambda}", sort.label());
                }
            }
        }
    }

    #[test]
    fn memo_capacity_bounds_entries_never_answers() {
        // At capacity 1 every change of key evicts; the orders handed out
        // are those of an unbounded memo and of a fresh sort.
        let inst = small_hetero();
        let mut vp = VpProblem::new(&inst, 0.0);
        let mut tight = OrderMemo::with_capacity(1);
        let mut wide = OrderMemo::with_capacity(usize::MAX);
        for lambda in [0.0, 0.5, 1.0, 0.5, 0.0] {
            vp.retarget(lambda);
            for sort in ItemSort::all() {
                let expected = sort.order(&vp);
                assert_eq!(tight.order(&vp, sort), expected);
                assert_eq!(wide.order(&vp, sort), expected);
            }
        }
        assert_eq!(tight.entries.len(), 1);
        assert_eq!(wide.entries.len(), 3 * 11);
    }

    #[test]
    fn natural_order_is_identity() {
        let inst = small_hetero();
        let vp = VpProblem::new(&inst, 0.5);
        assert_eq!(ItemSort::NONE.order(&vp), vec![0, 1, 2, 3, 4]);
        assert_eq!(BinSort::NONE.order(&vp), vec![0, 1, 2]);
    }
}
