//! Posting bitmaps: rows arrive in id order while an inverted index is built,
//! so a token's postings are written chunk by chunk, from in-chunk offsets,
//! straight into a canonical [`SelectionBitmap`] with no intermediate id list.

use crate::bitmap::{SelectionBitmap, CHUNK_BITS};
use crate::types::RecordId;

/// One token's postings while the index is built: the finished chunks plus
/// the in-chunk offsets of the chunk being filled.
#[derive(Default)]
pub(super) struct PostingWriter {
    bitmap: SelectionBitmap,
    chunk: u32,
    offsets: Vec<u16>,
}

impl PostingWriter {
    /// Posts row `rid`; rows must come in ascending order, repeats allowed.
    pub(super) fn push(&mut self, rid: RecordId) {
        let chunk = rid / CHUNK_BITS as RecordId;
        if chunk != self.chunk {
            self.bitmap.push_offsets(self.chunk, &self.offsets);
            self.offsets.clear();
            self.chunk = chunk;
        }
        let off = (rid % CHUNK_BITS as RecordId) as u16;
        // A token repeated within one document is posted once.
        if self.offsets.last() != Some(&off) {
            self.offsets.push(off);
        }
    }

    pub(super) fn finish(mut self) -> SelectionBitmap {
        self.bitmap.push_offsets(self.chunk, &self.offsets);
        self.bitmap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The postings written for `rids` (each row posted twice, as for a token
    /// repeated within its document), checked to hold exactly `rids`.
    fn write(rids: &[RecordId]) -> SelectionBitmap {
        let mut w = PostingWriter::default();
        rids.iter().flat_map(|&r| [r, r]).for_each(|r| w.push(r));
        let bm = w.finish();
        assert_eq!(bm.to_vec(), rids);
        assert_eq!(bm, SelectionBitmap::from_sorted(rids));
        bm
    }

    #[test]
    fn posting_round_trip() {
        let bm = write(&[0, 3, 4, 100, 10_000, 10_001, 1 << 16, (1 << 17) + 5]);
        assert_eq!(bm.len(), 8);
    }

    #[test]
    fn consecutive_ids_pack_at_width_zero() {
        // Consecutive rows need no per-row payload: one run pair per chunk.
        let bm = write(&(1000..2000).collect::<Vec<_>>());
        assert!(bm.memory_bytes() < 100, "got {}", bm.memory_bytes());
    }

    #[test]
    fn empty_posting_list() {
        assert!(write(&[]).is_empty());
    }

    #[test]
    fn wide_gaps_round_trip() {
        let bm = write(&[0, 1 << 20, (1 << 24) + 5, u32::MAX - 1]);
        assert_eq!(bm.chunk_count(), 4);
    }

    #[test]
    fn to_bitmap_matches_decode() {
        let rids: Vec<RecordId> = (0..50_000)
            .filter(|x| x % 7 == 0 || (20_000..24_000).contains(x))
            .collect();
        assert_eq!(write(&rids).len(), rids.len());
    }

    #[test]
    fn width_zero_run_spans_chunks() {
        // A consecutive run crossing a 4096-row chunk boundary.
        let bm = write(&(4090..4110).collect::<Vec<_>>());
        assert_eq!(bm.chunk_count(), 2);
        assert!(bm.memory_bytes() < 200, "got {}", bm.memory_bytes());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn round_trip_any_ascending(ids in proptest::collection::btree_set(0u32..1_000_000, 0..600)) {
                write(&ids.into_iter().collect::<Vec<RecordId>>());
            }
        }
    }
}
