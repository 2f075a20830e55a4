//! First-Fit vector packing (§3.5.1).

use super::{BinSort, ItemSort, PackScratch, PackingHeuristic, VpProblem};

/// First Fit: items in `item_sort` order, each placed into the first bin
/// (in `bin_sort` order) where it fits.
///
/// The homogeneous variant of §3.5.1 uses an arbitrary (natural) bin order;
/// the heterogeneous HVP variant sorts bins by capacity.
#[derive(Clone, Copy, Debug)]
pub struct FirstFit {
    /// Item ordering strategy.
    pub item_sort: ItemSort,
    /// Bin ordering strategy ([`BinSort::NONE`] = homogeneous variant).
    pub bin_sort: BinSort,
}

impl PackingHeuristic for FirstFit {
    fn describe(&self) -> String {
        format!("FF/{}/{}", self.item_sort.label(), self.bin_sort.label())
    }

    fn pack_with(&self, vp: &VpProblem, scratch: &mut PackScratch) -> bool {
        let PackScratch {
            loads,
            orders,
            placement,
            ..
        } = scratch;
        let items = orders.order(vp, self.item_sort);
        let bins = vp.bin_order(self.bin_sort);
        loads.clear();
        loads.resize(vp.num_bins() * vp.dims(), 0.0);
        placement.reset(vp.num_items());
        for &j in items.iter() {
            let mut placed = false;
            for &h in bins.iter() {
                if vp.fits(j, h, loads) {
                    vp.place(j, h, loads);
                    placement.assign(j, h);
                    placed = true;
                    break;
                }
            }
            if !placed {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vp::test_support::{small_hetero, tight_memory};
    use crate::vp::{SortOrder, VectorMetric};

    #[test]
    fn packs_feasible_instance_at_zero_yield() {
        let inst = small_hetero();
        let vp = VpProblem::new(&inst, 0.0);
        let ff = FirstFit {
            item_sort: ItemSort::NONE,
            bin_sort: BinSort::NONE,
        };
        let p = ff.pack(&vp).expect("feasible at yield 0");
        assert!(p.is_complete());
        assert!(p.feasible_at_yield(&inst, 0.0));
    }

    #[test]
    fn fails_when_aggregate_memory_is_exceeded() {
        let inst = tight_memory();
        // Four services × 0.5 memory on 2×1.0 nodes fits exactly at yield 0…
        let vp = VpProblem::new(&inst, 0.0);
        let ff = FirstFit {
            item_sort: ItemSort::NONE,
            bin_sort: BinSort::NONE,
        };
        assert!(ff.pack(&vp).is_some());
        // …but CPU demands at yield 1 (0.1+0.8 = 0.9 each, 1.8 per forced
        // pair vs 1.0 capacity) do not.
        let vp1 = VpProblem::new(&inst, 1.0);
        assert!(ff.pack(&vp1).is_none());
    }

    #[test]
    fn bin_order_is_respected() {
        let inst = small_hetero();
        let vp = VpProblem::new(&inst, 0.0);
        // Ascending capacity sum: bins in order [2, 1, 0]; the first small
        // item should land on node 2.
        let ff = FirstFit {
            item_sort: ItemSort::NONE,
            bin_sort: BinSort(Some((VectorMetric::Sum, SortOrder::Ascending))),
        };
        let p = ff.pack(&vp).unwrap();
        assert_eq!(p.node_of(0), Some(2));
    }

    #[test]
    fn sorted_items_change_the_packing() {
        let inst = small_hetero();
        let vp = VpProblem::new(&inst, 1.0);
        let natural = FirstFit {
            item_sort: ItemSort::NONE,
            bin_sort: BinSort::NONE,
        }
        .pack(&vp);
        let sorted = FirstFit {
            item_sort: ItemSort(Some((VectorMetric::Max, SortOrder::Descending))),
            bin_sort: BinSort::NONE,
        }
        .pack(&vp);
        // Both either succeed or fail, but when both succeed they need not
        // agree; here we just require determinism and validity.
        if let Some(p) = natural {
            assert!(p.feasible_at_yield(&inst, 1.0));
        }
        if let Some(p) = sorted {
            assert!(p.feasible_at_yield(&inst, 1.0));
        }
    }
}
