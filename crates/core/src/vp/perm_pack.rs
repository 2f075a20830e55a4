//! Permutation-Pack and Choose-Pack (§3.5.2, Leinberger et al.), with the
//! paper's key-mapping improvement and one pass over the items per bin.
//!
//! The algorithms are bin-centric: for the current bin, items are selected
//! to *go against the bin's capacity imbalance* — an ideal item has its
//! largest demand in the dimension where the bin has the most headroom.
//!
//! Instead of Leinberger's `D!` permutation lists, each candidate item's
//! descending-size dimension permutation is mapped into the permutation
//! space defined by the bin's dimension ranking (an `O(D)` key), and the
//! lexicographically smallest key wins, ties going to the earliest item in
//! item-sort order. With a window `w < D` only the first `w` key positions
//! are compared; Choose-Pack compares the windowed key positions as a
//! *set* rather than an ordered tuple.
//!
//! The key depends on the item only through the first `w` entries of its
//! dimension permutation — its *class* — so items are grouped by class in
//! item-sort order and a selection compares one head per class instead of
//! scanning every unplaced item. A bin's loads only grow while it fills,
//! so an item that fails the fit test once is out of that bin for good:
//! each class keeps a cursor per bin and every (item, bin) pair is tested
//! about once. A probe costs `Σ over bins of the items still unplaced`
//! fit tests, not that per selection.

use super::{BinSort, ItemSort, PackScratch, PackingHeuristic, VpProblem};

/// Permutation-Pack / Choose-Pack.
#[derive(Clone, Copy, Debug)]
pub struct PermutationPack {
    /// Item ordering strategy (tie-break among equal keys).
    pub item_sort: ItemSort,
    /// Bin ordering strategy (HVP variants sort bins by capacity).
    pub bin_sort: BinSort,
    /// Window size `w ∈ [1, D]`: number of leading key positions compared.
    pub window: usize,
    /// `true` for Choose-Pack (windowed positions compared as a set).
    pub choose: bool,
    /// Rank bin dimensions by remaining capacity (§3.5.4 heterogeneous
    /// variant) instead of by current load.
    pub heterogeneous: bool,
}

/// The unplaced items of one class: positions into the item order, kept
/// ascending in `members[start..end]`. While a bin fills, `read` is the
/// cursor and `members[start..write]` collects the items the bin rejected.
#[derive(Clone, Copy, Default)]
struct Class {
    start: usize,
    end: usize,
    read: usize,
    write: usize,
}

/// Permutation-Pack working state (part of [`PackScratch`]).
#[derive(Default)]
pub(crate) struct PermScratch {
    dim_perm: Vec<usize>,
    rank_of_dim: Vec<usize>,
    class_perm: Vec<usize>, // C×w, the classes' permutation prefixes
    class_of: Vec<usize>,   // class of the item at each position
    classes: Vec<Class>,
    members: Vec<usize>,
    keys: Vec<usize>, // C×w, the classes' keys in the current bin
}

impl PermutationPack {
    /// Dimension ranking of the current bin: the dimension with the most
    /// headroom first. The homogeneous variant uses ascending load; the
    /// heterogeneous variant descending remaining capacity (identical when
    /// all bins share one capacity vector).
    fn rank_dims(&self, vp: &VpProblem, h: usize, loads: &[f64], st: &mut PermScratch) {
        let dims = vp.dims();
        let loads = &loads[h * dims..(h + 1) * dims];
        st.dim_perm.clear();
        st.dim_perm.extend(0..dims);
        if self.heterogeneous {
            let cap = vp.bin_aggregate(h);
            st.dim_perm.sort_unstable_by(|&a, &b| {
                let ra = cap[a] - loads[a];
                let rb = cap[b] - loads[b];
                rb.partial_cmp(&ra).unwrap().then(a.cmp(&b))
            });
        } else {
            st.dim_perm.sort_unstable_by(|&a, &b| {
                loads[a].partial_cmp(&loads[b]).unwrap().then(a.cmp(&b))
            });
        }
        for (rank, &d) in st.dim_perm.iter().enumerate() {
            st.rank_of_dim[d] = rank;
        }
    }

    /// Groups the items, in `items` order, by the first `w` entries of
    /// their descending-size dimension permutation (ties by dimension
    /// index).
    fn classify(vp: &VpProblem, items: &[usize], w: usize, st: &mut PermScratch) {
        st.class_perm.clear();
        st.class_of.clear();
        st.classes.clear();
        for &j in items {
            let sizes = vp.item_agg(j);
            st.dim_perm.clear();
            st.dim_perm.extend(0..vp.dims());
            st.dim_perm.sort_unstable_by(|&a, &b| {
                sizes[b].partial_cmp(&sizes[a]).unwrap().then(a.cmp(&b))
            });
            let prefix = &st.dim_perm[..w];
            let known = st.class_perm.chunks_exact(w).position(|p| p == prefix);
            let class = known.unwrap_or_else(|| {
                st.class_perm.extend_from_slice(prefix);
                st.classes.push(Class::default());
                st.classes.len() - 1
            });
            st.classes[class].end += 1; // member count until laid out
            st.class_of.push(class);
        }
        // Lay the classes out one after another, each in item order.
        let mut next = 0;
        for class in st.classes.iter_mut() {
            let count = class.end;
            (class.start, class.end) = (next, next);
            next += count;
        }
        st.members.clear();
        st.members.resize(items.len(), 0);
        for (pos, &class) in st.class_of.iter().enumerate() {
            let class = &mut st.classes[class];
            st.members[class.end] = pos;
            class.end += 1;
        }
    }
}

impl PackingHeuristic for PermutationPack {
    fn describe(&self) -> String {
        format!(
            "{}{}w{}/{}/{}",
            if self.heterogeneous { "H" } else { "" },
            if self.choose { "CP" } else { "PP" },
            self.window,
            self.item_sort.label(),
            self.bin_sort.label()
        )
    }

    fn pack_with(&self, vp: &VpProblem, scratch: &mut PackScratch) -> bool {
        let dims = vp.dims();
        let w = self.window.clamp(1, dims);
        let PackScratch {
            loads,
            orders,
            perm: st,
            placement,
            ..
        } = scratch;
        let items = orders.order(vp, self.item_sort);
        loads.clear();
        loads.resize(vp.num_bins() * dims, 0.0);
        placement.reset(vp.num_items());
        st.rank_of_dim.clear();
        st.rank_of_dim.resize(dims, 0);
        Self::classify(vp, items, w, st);
        st.keys.clear();
        st.keys.resize(st.classes.len() * w, 0);
        let mut unplaced = items.len();

        for &h in vp.bin_order(self.bin_sort) {
            if unplaced == 0 {
                break;
            }
            for class in st.classes.iter_mut() {
                (class.read, class.write) = (class.start, class.start);
            }
            loop {
                self.rank_dims(vp, h, loads, st);
                // Each class's head is its first unplaced item that fits;
                // the head with the smallest (windowed key, position) wins.
                let mut best: Option<usize> = None;
                for c in 0..st.classes.len() {
                    let class = &mut st.classes[c];
                    while class.read < class.end
                        && !vp.fits(items[st.members[class.read]], h, loads)
                    {
                        st.members[class.write] = st.members[class.read];
                        class.write += 1;
                        class.read += 1;
                    }
                    if class.read == class.end {
                        continue;
                    }
                    for i in 0..w {
                        st.keys[c * w + i] = st.rank_of_dim[st.class_perm[c * w + i]];
                    }
                    if self.choose {
                        st.keys[c * w..(c + 1) * w].sort_unstable();
                    }
                    let head =
                        |c: usize| (&st.keys[c * w..(c + 1) * w], st.members[st.classes[c].read]);
                    if best.map_or(true, |b| head(c) < head(b)) {
                        best = Some(c);
                    }
                }
                let Some(c) = best else {
                    break; // nothing fits; move to next bin
                };
                let class = &mut st.classes[c];
                let j = items[st.members[class.read]];
                class.read += 1;
                vp.place(j, h, loads);
                placement.assign(j, h);
                unplaced -= 1;
                if unplaced == 0 {
                    return true;
                }
            }
            // Every cursor reached its end: what the bin rejected is what
            // the next bin sees.
            for class in st.classes.iter_mut() {
                class.end = class.write;
            }
        }
        unplaced == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vp::test_support::{small_hetero, tight_memory};
    use crate::vp::{SortOrder, VectorMetric};
    use vmplace_model::{Node, ProblemInstance, Service};

    fn pp(window: usize, choose: bool) -> PermutationPack {
        PermutationPack {
            item_sort: ItemSort(Some((VectorMetric::Max, SortOrder::Descending))),
            bin_sort: BinSort::NONE,
            window,
            choose,
            heterogeneous: false,
        }
    }

    #[test]
    fn packs_feasible_instances() {
        let inst = small_hetero();
        let vp = VpProblem::new(&inst, 0.0);
        for (w, c) in [(1, false), (2, false), (2, true)] {
            let p = pp(w, c).pack(&vp).unwrap_or_else(|| panic!("w={w} c={c}"));
            assert!(p.feasible_at_yield(&inst, 0.0));
        }
    }

    #[test]
    fn goes_against_capacity_imbalance() {
        // One bin, CPU-heavy item A and memory-heavy item B, then the bin is
        // CPU-loaded: PP must select the memory-heavy item next.
        let nodes = vec![Node::multicore(1, 1.0, 1.0)];
        let cpu_heavy = Service::rigid(vec![0.6, 0.1], vec![0.6, 0.1]);
        let mem_heavy = Service::rigid(vec![0.1, 0.6], vec![0.1, 0.6]);
        let cpu_heavy2 = Service::rigid(vec![0.3, 0.05], vec![0.3, 0.05]);
        let inst = ProblemInstance::new(nodes, vec![cpu_heavy, cpu_heavy2, mem_heavy]).unwrap();
        let vp = VpProblem::new(&inst, 0.0);
        // Natural item order → first selection by key only.
        let alg = PermutationPack {
            item_sort: ItemSort::NONE,
            bin_sort: BinSort::NONE,
            window: 2,
            choose: false,
            heterogeneous: false,
        };
        let p = alg.pack(&vp).unwrap();
        // All fit on one node (CPU 1.0 = 0.6+0.3+0.1, mem 0.75).
        assert!(p.is_complete());
        assert!(p.feasible_at_yield(&inst, 0.0));
    }

    #[test]
    fn window_one_equals_permutation_and_choose() {
        // The paper: with window 1, PP and CP are identical.
        let inst = small_hetero();
        for lambda in [0.0, 0.4, 0.8] {
            let vp = VpProblem::new(&inst, lambda);
            let a = pp(1, false).pack(&vp);
            let b = pp(1, true).pack(&vp);
            match (a, b) {
                (Some(x), Some(y)) => assert_eq!(x, y, "lambda={lambda}"),
                (None, None) => {}
                _ => panic!("divergent success at lambda={lambda}"),
            }
        }
    }

    #[test]
    fn fails_on_infeasible_instance() {
        let inst = tight_memory();
        let vp = VpProblem::new(&inst, 1.0);
        assert!(pp(2, false).pack(&vp).is_none());
    }

    #[test]
    fn heterogeneous_ranking_uses_remaining_capacity() {
        // Bin with asymmetric capacities (CPU 2.0, mem 0.5), zero loads:
        // homogeneous ranking ties (loads 0,0) → dim 0 first;
        // heterogeneous ranking puts CPU (more remaining) first too, but
        // after loading CPU to 1.8 the orders diverge: remaining CPU 0.2 <
        // mem 0.5, while loads say CPU 1.8 > mem 0.0.
        let nodes = vec![Node::multicore(4, 0.5, 0.5)];
        let filler = Service::rigid(vec![0.45, 0.0], vec![1.8, 0.0]);
        let cpu_item = Service::rigid(vec![0.1, 0.05], vec![0.1, 0.05]);
        let mem_item = Service::rigid(vec![0.05, 0.3], vec![0.05, 0.3]);
        let inst = ProblemInstance::new(nodes, vec![filler, cpu_item, mem_item]).unwrap();
        let vp = VpProblem::new(&inst, 0.0);
        for hetero in [false, true] {
            let alg = PermutationPack {
                item_sort: ItemSort(Some((VectorMetric::Sum, SortOrder::Descending))),
                bin_sort: BinSort::NONE,
                window: 2,
                choose: false,
                heterogeneous: hetero,
            };
            let p = alg.pack(&vp).unwrap();
            assert!(p.is_complete());
        }
    }
}
