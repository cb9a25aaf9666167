//! Secondary indexes: B+-tree (ordered keys), R-tree (spatial) and inverted index
//! (keyword). These are the structures the paper's query hints steer the database
//! towards or away from.

mod btree;
mod inverted;
mod posting;
mod rtree;

pub use btree::BPlusTree;
pub use inverted::InvertedIndex;
pub use rtree::RTree;

use std::sync::Arc;

use crate::bitmap::SelectionBitmap;

/// Statistics reported by an index scan, consumed by the simulated-time cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScanStats {
    /// Number of index nodes / postings chunks touched.
    pub nodes_visited: usize,
    /// Number of matching record ids produced.
    pub matches: usize,
}

/// Common behaviour of all secondary indexes over a single column.
pub trait SecondaryIndex {
    /// Number of indexed entries (rows).
    fn len(&self) -> usize;

    /// Returns `true` when the index holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate number of heap bytes used, for reporting.
    fn memory_bytes(&self) -> usize;
}

/// Intersects the candidate sets of several index scans: word-wise AND,
/// smallest set first, stopping early once the running result is empty. One
/// set is returned as is, shared; no set yields the empty set.
///
/// This mirrors the "intersect the record lists" strategy a database uses when
/// a query hint asks it to combine multiple single-attribute indexes; the work
/// it is charged is [`intersect_skip_charge`] over the sets' lengths.
pub fn intersect_bitmaps(mut sets: Vec<Arc<SelectionBitmap>>) -> Arc<SelectionBitmap> {
    sets.sort_by_key(|set| set.len());
    let mut sets = sets.into_iter();
    let mut acc = sets.next().unwrap_or_default();
    for set in sets {
        if acc.is_empty() {
            break;
        }
        acc = Arc::new(acc.and(&set));
    }
    acc
}

/// Work charged for intersecting id lists of the given lengths under the
/// skip/gallop model of a database intersecting sorted record lists (the
/// executor runs [`intersect_bitmaps`]): the smallest list `s` drives,
/// and every other list of length `n` costs `s · (1 + ⌊log2(n/s + 1)⌋)` —
/// one block decode plus a logarithmic skip probe per driving entry. This is
/// the *single* formula both the executor (actual charge) and the optimizer's
/// [`predict_work`](crate::optimizer) (estimate, via
/// [`intersect_skip_charge_est`]) use, so charged work always matches
/// predicted work. The classic k-way merge (`Σ nᵢ`) it replaces over-charged
/// exactly the regime index hints steer into: one selective list against a
/// huge range scan.
pub fn intersect_skip_charge(lens: &[usize]) -> u64 {
    if lens.len() < 2 {
        return 0;
    }
    let s = lens.iter().copied().min().unwrap_or(0);
    if s == 0 {
        return 0;
    }
    let mut charge = 0u64;
    let mut skipped_min = false;
    for &n in lens {
        if !skipped_min && n == s {
            skipped_min = true;
            continue;
        }
        let ratio = (n / s) as u64 + 1;
        charge += s as u64 * (1 + ratio.ilog2() as u64);
    }
    charge
}

/// Estimator-side twin of [`intersect_skip_charge`] over fractional expected
/// list lengths. Truncating both to the same integer model keeps the planner's
/// predicted `intersect_entries` consistent with what execution will charge.
pub fn intersect_skip_charge_est(lens: &[f64]) -> f64 {
    if lens.len() < 2 {
        return 0.0;
    }
    let ints: Vec<usize> = lens.iter().map(|&l| l.max(0.0) as usize).collect();
    intersect_skip_charge(&ints) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RecordId;

    /// [`intersect_bitmaps`] over ascending id lists, as an id list.
    fn intersect(lists: &[Vec<RecordId>]) -> Vec<RecordId> {
        let sets = lists
            .iter()
            .map(|l| Arc::new(SelectionBitmap::from_sorted(l)))
            .collect();
        intersect_bitmaps(sets).to_vec()
    }

    #[test]
    fn intersect_empty_input() {
        assert!(intersect(&[]).is_empty());
    }

    #[test]
    fn intersect_single_list_is_identity() {
        let lists = vec![vec![1, 5, 9]];
        assert_eq!(intersect(&lists), vec![1, 5, 9]);
        // One set is shared, not copied.
        let set = Arc::new(SelectionBitmap::from_sorted(&[1, 5, 9]));
        assert!(Arc::ptr_eq(
            &intersect_bitmaps(vec![Arc::clone(&set)]),
            &set
        ));
    }

    #[test]
    fn intersect_two_lists() {
        let lists = vec![vec![1, 2, 3, 7, 9], vec![2, 3, 4, 9, 11]];
        assert_eq!(intersect(&lists), vec![2, 3, 9]);
    }

    #[test]
    fn intersect_three_lists_with_empty_result() {
        let lists = vec![vec![1, 2, 3], vec![2, 3, 4], vec![5, 6]];
        assert!(intersect(&lists).is_empty());
    }

    #[test]
    fn intersect_is_order_independent() {
        let a = vec![vec![1, 4, 8, 10], vec![4, 10, 20], vec![0, 4, 10, 30]];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(intersect(&a), intersect(&b));
        assert_eq!(intersect(&a), vec![4, 10]);
    }

    #[cfg(test)]
    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// Set-semantics reference: ids present in every list.
        fn reference(sets: &[BTreeSet<u32>]) -> Vec<u32> {
            let mut acc = sets[0].clone();
            for set in &sets[1..] {
                acc = acc.intersection(set).copied().collect();
            }
            acc.into_iter().collect()
        }

        proptest! {
            #[test]
            fn intersection_matches_set_semantics(
                a in proptest::collection::btree_set(0u32..200, 0..60),
                b in proptest::collection::btree_set(0u32..200, 0..60),
                c in proptest::collection::btree_set(0u32..200, 0..60),
            ) {
                let sets = [a, b, c];
                let lists: Vec<Vec<u32>> =
                    sets.iter().map(|s| s.iter().copied().collect()).collect();
                prop_assert_eq!(intersect(&lists), reference(&sets));
            }

            /// Sparse sets against dense, multi-chunk ones: array, bitset and
            /// run containers meet in the AND.
            #[test]
            fn adaptive_intersection_matches_merge(
                a in proptest::collection::btree_set(0u32..20_000, 0..80),
                b in proptest::collection::btree_set(0u32..20_000, 0..3000),
                lo in 0u32..10_000,
                len in 0u32..10_000,
            ) {
                let sets = [a, b, (lo..lo + len).collect::<BTreeSet<u32>>()];
                let lists: Vec<Vec<u32>> =
                    sets.iter().map(|s| s.iter().copied().collect()).collect();
                prop_assert_eq!(intersect(&lists), reference(&sets));
            }
        }
    }

    #[test]
    fn skip_charge_models_gallop_not_merge() {
        // Fewer than two lists, or an empty list, charge nothing.
        assert_eq!(intersect_skip_charge(&[]), 0);
        assert_eq!(intersect_skip_charge(&[1000]), 0);
        assert_eq!(intersect_skip_charge(&[0, 1000]), 0);
        // Equal lists: s·(1 + log2(2)) = 2s per non-driving list.
        assert_eq!(intersect_skip_charge(&[100, 100]), 200);
        // One selective list against a huge scan is charged logarithmically in
        // the ratio — far below the classic merge's Σ nᵢ.
        let skewed = intersect_skip_charge(&[100, 100_000]);
        assert_eq!(skewed, 100 * (1 + (1001u64).ilog2() as u64));
        assert!(skewed < 100_100, "skip charge must undercut the merge");
        // Three-way: both non-driving lists are charged.
        assert_eq!(
            intersect_skip_charge(&[50, 200, 800]),
            50 * (1 + 5u64.ilog2() as u64) + 50 * (1 + 17u64.ilog2() as u64)
        );
        // The estimator truncates to the same integer model.
        assert_eq!(
            intersect_skip_charge_est(&[100.9, 100_000.2]),
            intersect_skip_charge(&[100, 100_000]) as f64
        );
    }

    #[test]
    fn adaptive_handles_trivial_shapes() {
        assert!(intersect(&[]).is_empty());
        assert_eq!(intersect(&[vec![3, 9]]), vec![3, 9]);
        assert!(intersect(&[vec![1, 2], vec![]]).is_empty());
        assert_eq!(
            intersect(&[vec![5, 900], (0..1000u32).collect()]),
            vec![5, 900]
        );
        // An id past the end of the other set is dropped, not matched.
        assert_eq!(intersect(&[vec![5, 2000], (0..1000u32).collect()]), vec![5]);
    }
}
