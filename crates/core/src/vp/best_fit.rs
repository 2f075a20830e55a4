//! Best-Fit vector packing (§3.5.1, heterogeneous variant §3.5.4).

use super::{ItemSort, PackScratch, PackingHeuristic, VpProblem};

/// Best Fit: items in `item_sort` order; each item goes to the *fullest*
/// feasible bin.
///
/// * Homogeneous variant (§3.5.1): bins ranked by **descending sum of
///   loads** across dimensions.
/// * Heterogeneous variant (§3.5.4): bins ranked by **ascending total
///   remaining capacity** — identical on homogeneous platforms but aware of
///   differing bin sizes otherwise.
///
/// Best Fit imposes its own bin ranking, so it takes no bin-sort strategy
/// (which is why METAHVP counts `11 + 2×11×11` strategies).
#[derive(Clone, Copy, Debug)]
pub struct BestFit {
    /// Item ordering strategy.
    pub item_sort: ItemSort,
    /// Use the heterogeneity-aware remaining-capacity ranking.
    pub heterogeneous: bool,
}

impl PackingHeuristic for BestFit {
    fn describe(&self) -> String {
        format!(
            "{}/{}",
            if self.heterogeneous { "HBF" } else { "BF" },
            self.item_sort.label()
        )
    }

    fn pack_with(&self, vp: &VpProblem, scratch: &mut PackScratch) -> bool {
        let dims = vp.dims();
        let PackScratch {
            loads,
            orders,
            scores,
            placement,
            ..
        } = scratch;
        let items = orders.order(vp, self.item_sort);
        loads.clear();
        loads.resize(vp.num_bins() * dims, 0.0);
        placement.reset(vp.num_items());
        // One score per bin (higher wins); only the bin that receives an
        // item changes, so only its score is recomputed.
        scores.clear();
        scores.extend((0..vp.num_bins()).map(|h| self.score(vp, h, loads)));
        for &j in items {
            let mut best: Option<(usize, f64)> = None;
            for (h, &score) in scores.iter().enumerate() {
                if best.map_or(true, |(_, s)| score > s) && vp.fits(j, h, loads) {
                    best = Some((h, score));
                }
            }
            let Some((h, _)) = best else {
                return false;
            };
            vp.place(j, h, loads);
            placement.assign(j, h);
            scores[h] = self.score(vp, h, loads);
        }
        true
    }
}

impl BestFit {
    /// Fullness of bin `h` under `loads`.
    fn score(&self, vp: &VpProblem, h: usize, loads: &[f64]) -> f64 {
        let loads = &loads[h * vp.dims()..(h + 1) * vp.dims()];
        if self.heterogeneous {
            // Most-full = least remaining capacity.
            let remaining: f64 = vp
                .bin_aggregate(h)
                .iter()
                .zip(loads)
                .map(|(cap, load)| cap - load)
                .sum();
            -remaining
        } else {
            loads.iter().sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vp::test_support::small_hetero;
    use vmplace_model::{Node, ProblemInstance, Service};

    #[test]
    fn best_fit_consolidates_onto_loaded_bin() {
        // Two identical nodes; after the first placement the second small
        // item must join the already-loaded node under BF.
        let nodes = vec![Node::multicore(2, 0.5, 1.0), Node::multicore(2, 0.5, 1.0)];
        let svc = Service::rigid(vec![0.1, 0.2], vec![0.1, 0.2]);
        let inst = ProblemInstance::new(nodes, vec![svc.clone(), svc]).unwrap();
        let vp = VpProblem::new(&inst, 0.0);
        let bf = BestFit {
            item_sort: ItemSort::NONE,
            heterogeneous: false,
        };
        let p = bf.pack(&vp).unwrap();
        assert_eq!(p.node_of(0), p.node_of(1));
    }

    #[test]
    fn heterogeneous_best_fit_prefers_tightest_bin() {
        // Bins of different sizes, empty: HBF picks the smallest feasible
        // one (least remaining capacity), homogeneous BF sees equal zero
        // loads and falls back to the first bin.
        let inst = small_hetero();
        let vp = VpProblem::new(&inst, 0.0);
        let hbf = BestFit {
            item_sort: ItemSort::NONE,
            heterogeneous: true,
        };
        let p = hbf.pack(&vp).unwrap();
        // Node 2 has the smallest total capacity (1.2 + 0.8 = 2.0).
        assert_eq!(p.node_of(0), Some(2));
        let bf = BestFit {
            item_sort: ItemSort::NONE,
            heterogeneous: false,
        };
        let q = bf.pack(&vp).unwrap();
        assert_eq!(q.node_of(0), Some(0));
    }

    #[test]
    fn returns_none_when_an_item_fits_nowhere() {
        let nodes = vec![Node::multicore(1, 0.5, 0.2)];
        let svc = Service::rigid(vec![0.1, 0.5], vec![0.1, 0.5]);
        let inst = ProblemInstance::new(nodes, vec![svc]).unwrap();
        let vp = VpProblem::new(&inst, 0.0);
        let bf = BestFit {
            item_sort: ItemSort::NONE,
            heterogeneous: true,
        };
        assert!(bf.pack(&vp).is_none());
    }
}
