//! Inverted index over tokenised text columns.
//!
//! Each token's postings are stored as a canonical [`SelectionBitmap`], built
//! once with the index. Keyword predicates (`Content contains "covid"`) are
//! answered from the stored set without decoding: shared
//! ([`InvertedIndex::lookup_shared`], the bitmap index scans), borrowed
//! ([`InvertedIndex::postings`], the compiled engine's keyword residuals,
//! which AND candidate chunks with the token's chunks) or copied out as ids
//! ([`InvertedIndex::lookup`], the id-vector paths).

use std::collections::HashMap;
use std::sync::Arc;

use crate::bitmap::SelectionBitmap;
use crate::index::posting::PostingWriter;
use crate::index::{ScanStats, SecondaryIndex};
use crate::types::{RecordId, TokenId};

/// The postings of a token no row contains.
static NO_POSTINGS: SelectionBitmap = SelectionBitmap::new();

/// Inverted index: token id → stored posting bitmap.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: HashMap<TokenId, Arc<SelectionBitmap>>,
    indexed_rows: usize,
}

impl InvertedIndex {
    /// Builds the index from per-row token lists (`docs[rid]` = tokens of row `rid`).
    pub fn build(docs: &[Vec<TokenId>]) -> Self {
        Self::from_docs(docs.iter().map(|d| d.as_slice()))
    }

    /// Builds the index from an iterator of per-row token slices (row id =
    /// iteration order), e.g. a CSR-flattened [`crate::storage::TextColumn`].
    /// Build state is one [`PostingWriter`] per token id, so it grows with the
    /// largest id: tokens are dictionary ids, dense from 0 (a hash map here
    /// made the build about 1.5× slower).
    pub fn from_docs<'a>(docs: impl Iterator<Item = &'a [TokenId]>) -> Self {
        let mut building: Vec<PostingWriter> = Vec::new();
        let mut indexed_rows = 0usize;
        for (rid, tokens) in docs.enumerate() {
            indexed_rows += 1;
            for &t in tokens {
                let t = t as usize;
                if t >= building.len() {
                    building.resize_with(t + 1, PostingWriter::default);
                }
                building[t].push(rid as RecordId);
            }
        }
        let postings = (0..)
            .zip(building)
            .map(|(t, b)| (t, Arc::new(b.finish())))
            .filter(|(_, bitmap)| !bitmap.is_empty())
            .collect();
        Self {
            postings,
            indexed_rows,
        }
    }

    /// Number of distinct indexed tokens.
    pub fn token_count(&self) -> usize {
        self.postings.len()
    }

    /// The stored postings of `token` (empty if unseen).
    pub fn postings(&self, token: TokenId) -> &SelectionBitmap {
        self.postings.get(&token).map_or(&NO_POSTINGS, |p| p)
    }

    /// The stored postings of `token`, shared, plus scan statistics.
    pub fn lookup_shared(&self, token: TokenId) -> (Arc<SelectionBitmap>, ScanStats) {
        match self.postings.get(&token) {
            Some(p) => {
                let stats = ScanStats {
                    nodes_visited: 1 + p.chunk_count(),
                    matches: p.len(),
                };
                (Arc::clone(p), stats)
            }
            None => (Arc::default(), ScanStats::default()),
        }
    }

    /// Record ids containing `token`, sorted ascending, plus scan statistics.
    pub fn lookup(&self, token: TokenId) -> (Vec<RecordId>, ScanStats) {
        let (p, stats) = self.lookup_shared(token);
        (p.to_vec(), stats)
    }

    /// Exact number of rows containing `token`.
    pub fn count(&self, token: TokenId) -> usize {
        self.postings(token).len()
    }
}

impl SecondaryIndex for InvertedIndex {
    fn len(&self) -> usize {
        self.indexed_rows
    }

    fn memory_bytes(&self) -> usize {
        self.postings.values().map(|p| p.memory_bytes() + 16).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_lookup_and_count() {
        let docs = vec![vec![1u32, 2, 3], vec![2, 3], vec![3], vec![], vec![1, 3]];
        let idx = InvertedIndex::build(&docs);
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.token_count(), 3);
        assert_eq!(idx.count(1), 2);
        assert_eq!(idx.count(3), 4);
        assert_eq!(idx.count(99), 0);
        let (rids, stats) = idx.lookup(2);
        assert_eq!(rids, vec![0, 1]);
        assert_eq!(stats.matches, 2);
        assert!(idx.lookup(99).0.is_empty());
    }

    #[test]
    fn bitmap_lookup_matches_vector_lookup() {
        let docs: Vec<Vec<TokenId>> = (0..9000)
            .map(|i| if i % 3 == 0 { vec![7] } else { vec![8] })
            .collect();
        let idx = InvertedIndex::build(&docs);
        let (rids, stats) = idx.lookup(7);
        let (bm, bm_stats) = idx.lookup_shared(7);
        assert_eq!(bm.to_vec(), rids);
        assert_eq!(bm.len(), stats.matches);
        assert_eq!(bm_stats, stats);
        assert_eq!(idx.postings(7), &*bm);
        let (empty, empty_stats) = idx.lookup_shared(99);
        assert!(empty.is_empty() && idx.postings(99).is_empty());
        assert_eq!(empty_stats, ScanStats::default());
    }

    #[test]
    fn memory_accounting_nonzero() {
        let docs = vec![vec![0u32; 1]; 100];
        let idx = InvertedIndex::build(&docs);
        assert!(idx.memory_bytes() > 0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn lookup_matches_bruteforce(
                docs in proptest::collection::vec(proptest::collection::btree_set(0u32..20, 0..6), 0..100),
                token in 0u32..20,
            ) {
                let docs: Vec<Vec<TokenId>> =
                    docs.into_iter().map(|s| s.into_iter().collect()).collect();
                let idx = InvertedIndex::build(&docs);
                let expected: Vec<RecordId> = docs
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.contains(&token))
                    .map(|(i, _)| i as RecordId)
                    .collect();
                prop_assert_eq!(idx.lookup(token).0, expected.clone());
                prop_assert_eq!(idx.postings(token).to_vec(), expected.clone());
                prop_assert_eq!(idx.count(token), expected.len());
            }
        }
    }
}
