//! Property tests: `SelectionBitmap` algebra against a sorted-`Vec<RecordId>`
//! reference model. The generated id sets are biased towards the shapes that
//! stress container transitions — empty and full chunks, run-heavy spans, and
//! ids hugging 4096-aligned chunk boundaries — so array/bitset/run
//! canonicalisation is exercised from every side.
//!
//! The last properties pin the premises the selection lattice
//! (`vizdb::exec::lattice`) and keyword refinement rest on: every index
//! counter equals the length and the `ScanStats::matches` of its bitmap scan,
//! and — for bounds that are numbers — the scan selects exactly the rows the
//! compiled predicate accepts; a token's stored postings are exactly the rows
//! whose document contains it.

use std::collections::BTreeSet;

use proptest::prelude::*;

use vizdb::bitmap::{BitmapBuilder, SelectionBitmap, CHUNK_BITS};
use vizdb::exec::compiled::compile_predicate;
use vizdb::index::{BPlusTree, InvertedIndex, RTree, ScanStats};
use vizdb::query::Predicate;
use vizdb::schema::{ColumnType, TableSchema};
use vizdb::storage::{Table, TableBuilder, TextColumn};
use vizdb::types::{GeoRect, NumRange, RecordId, TimeRange, TokenId};

const ID_SPAN: u32 = 6 * CHUNK_BITS as u32;

/// Assembles an id set from sparse ids, dense runs and chunk-boundary probes.
fn assemble(
    sparse: BTreeSet<RecordId>,
    runs: &[(u32, u32)],
    boundaries: &[(u32, i64)],
) -> BTreeSet<RecordId> {
    let mut set = sparse;
    for &(start, len) in runs {
        let end = start.saturating_add(len).min(ID_SPAN);
        set.extend(start..end);
    }
    for &(chunk, delta) in boundaries {
        let id = (chunk as i64 * CHUNK_BITS as i64) + delta;
        if (0..ID_SPAN as i64).contains(&id) {
            set.insert(id as u32);
        }
    }
    set
}

fn to_vec(set: &BTreeSet<RecordId>) -> Vec<RecordId> {
    set.iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_iter_rank_select_contains(
        sparse in proptest::collection::btree_set(0u32..ID_SPAN, 0..80),
        runs in proptest::collection::vec((0u32..ID_SPAN, 1u32..700), 0..4),
        boundaries in proptest::collection::vec((1u32..6, -1i64..2), 0..6),
        probe in 0u32..ID_SPAN,
    ) {
        let set = assemble(sparse, &runs, &boundaries);
        let ids = to_vec(&set);
        let bm = SelectionBitmap::from_sorted(&ids);
        prop_assert_eq!(bm.len(), ids.len());
        prop_assert_eq!(bm.is_empty(), ids.is_empty());
        prop_assert_eq!(bm.iter().collect::<Vec<_>>(), ids.clone());
        prop_assert_eq!(bm.to_vec(), ids.clone());
        // rank(probe) = #ids strictly below probe; contains matches the set.
        prop_assert_eq!(bm.rank(probe), ids.partition_point(|&id| id < probe));
        prop_assert_eq!(bm.contains(probe), set.contains(&probe));
        // select(k) is the k-th smallest id; select/rank are inverses.
        for (k, &id) in ids.iter().enumerate() {
            prop_assert_eq!(bm.select(k), Some(id));
            prop_assert_eq!(bm.rank(id), k);
        }
        prop_assert_eq!(bm.select(ids.len()), None);
    }

    #[test]
    fn builder_matches_from_sorted(
        sparse in proptest::collection::btree_set(0u32..ID_SPAN, 0..80),
        runs in proptest::collection::vec((0u32..ID_SPAN, 1u32..700), 0..4),
        boundaries in proptest::collection::vec((1u32..6, -1i64..2), 0..6),
        seed in 0u64..u64::MAX,
    ) {
        let ids = to_vec(&assemble(sparse, &runs, &boundaries));
        // Insert in a scrambled order (and with duplicates) — the builder must
        // canonicalise to the same bitmap.
        let mut scrambled = ids.clone();
        let mut state = seed | 1;
        for i in (1..scrambled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            scrambled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut builder = BitmapBuilder::new();
        for &id in &scrambled {
            builder.insert(id);
        }
        for &id in scrambled.iter().take(5) {
            builder.insert(id); // duplicates collapse
        }
        prop_assert_eq!(builder.finish(), SelectionBitmap::from_sorted(&ids));
    }

    #[test]
    fn and_or_andnot_match_set_semantics(
        sparse_a in proptest::collection::btree_set(0u32..ID_SPAN, 0..80),
        runs_a in proptest::collection::vec((0u32..ID_SPAN, 1u32..700), 0..4),
        bounds_a in proptest::collection::vec((1u32..6, -1i64..2), 0..6),
        sparse_b in proptest::collection::btree_set(0u32..ID_SPAN, 0..80),
        runs_b in proptest::collection::vec((0u32..ID_SPAN, 1u32..700), 0..4),
        bounds_b in proptest::collection::vec((1u32..6, -1i64..2), 0..6),
    ) {
        let a = assemble(sparse_a, &runs_a, &bounds_a);
        let b = assemble(sparse_b, &runs_b, &bounds_b);
        let bma = SelectionBitmap::from_sorted(&to_vec(&a));
        let bmb = SelectionBitmap::from_sorted(&to_vec(&b));
        let and: Vec<RecordId> = a.intersection(&b).copied().collect();
        let or: Vec<RecordId> = a.union(&b).copied().collect();
        let andnot: Vec<RecordId> = a.difference(&b).copied().collect();
        prop_assert_eq!(bma.and(&bmb).to_vec(), and.clone());
        prop_assert_eq!(bmb.and(&bma).to_vec(), and.clone());
        prop_assert_eq!(bma.or(&bmb).to_vec(), or.clone());
        prop_assert_eq!(bmb.or(&bma).to_vec(), or);
        prop_assert_eq!(bma.andnot(&bmb).to_vec(), andnot);
        // Canonical representation: equal sets compare equal as bitmaps no
        // matter how they were computed (a ∧ b == a \ (b \ a) as sets... no —
        // a ∧ b == a \ (a \ b)).
        prop_assert_eq!(bma.and(&bmb), bma.andnot(&bma.andnot(&bmb)));
        prop_assert_eq!(bma.and(&bmb), SelectionBitmap::from_sorted(&and));
    }

    #[test]
    fn retain_matches_vec_retain(
        sparse in proptest::collection::btree_set(0u32..ID_SPAN, 0..80),
        runs in proptest::collection::vec((0u32..ID_SPAN, 1u32..700), 0..4),
        boundaries in proptest::collection::vec((1u32..6, -1i64..2), 0..6),
        modulus in 2u32..7,
    ) {
        let mut ids = to_vec(&assemble(sparse, &runs, &boundaries));
        let mut bm = SelectionBitmap::from_sorted(&ids);
        ids.retain(|id| id % modulus != 0);
        bm.retain(|id| id % modulus != 0);
        prop_assert_eq!(bm.to_vec(), ids.clone());
        // Re-canonicalised: equal to a fresh build of the same set.
        prop_assert_eq!(bm, SelectionBitmap::from_sorted(&ids));
    }

    #[test]
    fn full_prefix_is_dense(n in 0usize..(2 * CHUNK_BITS + 77)) {
        let bm = SelectionBitmap::full(n);
        prop_assert_eq!(bm.len(), n);
        prop_assert_eq!(bm.to_vec(), (0..n as RecordId).collect::<Vec<_>>());
        if n > 0 {
            prop_assert!(bm.contains(n as RecordId - 1));
        }
        prop_assert!(!bm.contains(n as RecordId));
    }
}

/// One generated row: `((lon, lat), (value, word))`.
type PremiseRow = ((f64, f64), (i64, u32));

/// A table whose timestamp and float columns include the extremes
/// (`i64::MIN`/`MAX`, ±inf) and whose documents repeat words.
fn premise_table(rows: &[PremiseRow]) -> Table {
    let schema = TableSchema::new("t")
        .with_column("when", ColumnType::Timestamp)
        .with_column("loc", ColumnType::Geo)
        .with_column("text", ColumnType::Text)
        .with_column("score", ColumnType::Float);
    let mut b = TableBuilder::new(schema);
    for (i, &((lon, lat), (v, w))) in rows.iter().enumerate() {
        b.push_row(|row| {
            let when = match i % 50 {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => v,
            };
            row.set_timestamp("when", when);
            row.set_geo("loc", lon, lat);
            let word = format!("w{w}");
            row.set_text("text", &[word.as_str(), "all", word.as_str()]);
            let score = match i % 41 {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                _ => v as f64 / 3.0,
            };
            row.set_float("score", score);
        });
    }
    b.build()
}

/// Asserts `counter == bitmap.len() == stats.matches`, and — unless
/// `skip_selection` (a NaN bound, where float keys and comparisons disagree) —
/// that the bitmap is the compiled predicate's selection.
fn assert_premise(
    table: &Table,
    pred: &Predicate,
    counter: usize,
    (bitmap, stats): (SelectionBitmap, ScanStats),
    skip_selection: bool,
) -> Result<(), String> {
    prop_assert_eq!(counter, bitmap.len());
    prop_assert_eq!(counter, stats.matches);
    if !skip_selection {
        let compiled = compile_predicate(pred, table).map_err(|e| e.to_string())?;
        let selected: Vec<RecordId> = (0..table.row_count() as RecordId)
            .filter(|&rid| compiled.eval(rid))
            .collect();
        prop_assert_eq!(bitmap.to_vec(), selected);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn index_counters_equal_their_bitmap_scans(
        rows in proptest::collection::vec(((-130.0f64..-60.0, 20.0f64..50.0), (-300i64..300, 0u32..6)), 0..400),
        t in (-400i64..400, -400i64..400),
        x in (-130.0f64..-60.0, -130.0f64..-60.0),
        y in (20.0f64..50.0, 20.0f64..50.0),
        s in (-120.0f64..120.0, -120.0f64..120.0),
        word in 0u32..8,
    ) {
        let table = premise_table(&rows);
        let n = table.row_count() as RecordId;
        let when = BPlusTree::build((0..n).map(|rid| (table.timestamp(0, rid).unwrap(), rid)).collect());
        let loc = RTree::build((0..n).map(|rid| (table.geo(1, rid).unwrap(), rid)).collect());
        let text = InvertedIndex::build(
            &(0..n).map(|rid| table.text(2, rid).unwrap().to_vec()).collect::<Vec<_>>(),
        );
        let score = BPlusTree::build(
            (0..n).map(|rid| (BPlusTree::float_key(table.numeric(3, rid).unwrap()), rid)).collect(),
        );

        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let times = [
            TimeRange::new(t.0, t.1),
            TimeRange { start: t.0.max(t.1), end: t.0.min(t.1) - 1 },
            TimeRange { start: i64::MIN, end: i64::MAX },
            TimeRange { start: i64::MIN, end: i64::MIN },
            TimeRange { start: i64::MAX, end: i64::MAX },
            TimeRange { start: i64::MAX, end: i64::MIN },
        ];
        for range in times {
            let pred = Predicate::TimeRange { attr: 0, range };
            let counter = when.range_count(range.start, range.end);
            assert_premise(&table, &pred, counter, when.range_scan_bitmap(range.start, range.end), false)?;
        }

        let rect = |a: f64, b: f64, c: f64, d: f64| GeoRect { min_lon: a, min_lat: b, max_lon: c, max_lat: d };
        let rects = [
            GeoRect::new(x.0, y.0, x.1, y.1),
            rect(x.0.max(x.1), y.0, x.0.min(x.1), y.1),
            rect(x.0, y.0, x.0, y.1),
            rect(x.0, y.0, x.0, y.0),
            rect(-inf, -inf, inf, inf),
            rect(x.0, -inf, inf, y.0),
            rect(nan, y.0, x.1, y.1),
            rect(x.0, y.0, nan, nan),
        ];
        for r in rects {
            let pred = Predicate::SpatialRange { attr: 1, rect: r };
            let nan_bound = [r.min_lon, r.min_lat, r.max_lon, r.max_lat].iter().any(|v| v.is_nan());
            assert_premise(&table, &pred, loc.range_count(&r), loc.range_scan_bitmap(&r), nan_bound)?;
        }

        let ranges = [
            NumRange::new(s.0, s.1),
            NumRange { lo: s.0.max(s.1), hi: s.0.min(s.1) },
            NumRange { lo: -inf, hi: inf },
            NumRange { lo: inf, hi: inf },
            NumRange { lo: -0.0, hi: 0.0 },
            NumRange { lo: nan, hi: s.1 },
            NumRange { lo: s.0, hi: nan },
        ];
        for range in ranges {
            let pred = Predicate::NumericRange { attr: 3, range };
            let (lo, hi) = (BPlusTree::float_key(range.lo), BPlusTree::float_key(range.hi));
            let nan_bound = range.lo.is_nan() || range.hi.is_nan();
            assert_premise(&table, &pred, score.range_count(lo, hi), score.range_scan_bitmap(lo, hi), nan_bound)?;
        }

        for keyword in [format!("w{word}"), "all".to_string(), "nosuchword".to_string()] {
            let pred = Predicate::keyword(2, keyword.as_str());
            match table.dictionary().lookup(&keyword) {
                Some(token) => {
                    let (postings, stats) = text.lookup_shared(token);
                    assert_premise(&table, &pred, text.count(token), ((*postings).clone(), stats), false)?
                }
                None => {
                    // An unknown keyword has no token: nothing to count, and
                    // its compiled form accepts no row.
                    let compiled = compile_predicate(&pred, &table).map_err(|e| e.to_string())?;
                    prop_assert!((0..n).all(|rid| !compiled.eval(rid)));
                }
            }
        }
        // Token ids past the dictionary count zero and scan empty.
        prop_assert_eq!(text.count(u32::MAX), 0);
        let (bitmap, stats) = text.lookup_shared(u32::MAX);
        prop_assert!(bitmap.is_empty() && stats.matches == 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stored_postings_equal_document_matches(
        blocks in proptest::collection::vec((0u32..6, 1usize..2500, 0u8..4), 0..6),
    ) {
        // Each block appends documents that are empty (pattern 0), hold
        // token `t` (1), repeat it around token 9, unsorted (2), or hold it
        // on every other row (3). Tokens 6..=8 are in no document.
        let mut raw: Vec<Vec<TokenId>> = Vec::new();
        for &(t, rows, pattern) in &blocks {
            raw.extend((0..rows).map(|i| match (pattern, i % 2) {
                (0, _) | (3, 1) => vec![],
                (2, _) => vec![t, 9, t],
                _ => vec![t],
            }));
        }
        let mut docs = TextColumn::new();
        for doc in &raw {
            let mut sorted = doc.clone();
            sorted.sort_unstable();
            sorted.dedup();
            docs.push_doc(&sorted);
        }
        let index = InvertedIndex::from_docs(docs.docs());
        let unsorted = InvertedIndex::build(&raw);
        for token in 0..10 {
            let expected: Vec<RecordId> = (0..docs.len())
                .filter(|&rid| docs.doc_contains(rid, token))
                .map(|rid| rid as RecordId)
                .collect();
            let stored = index.postings(token);
            prop_assert_eq!(stored.to_vec(), expected.clone());
            prop_assert_eq!(unsorted.postings(token), stored);
            let (ids, stats) = index.lookup(token);
            let (shared, shared_stats) = index.lookup_shared(token);
            prop_assert_eq!(ids, expected.clone());
            prop_assert_eq!(&*shared, stored);
            prop_assert_eq!(index.count(token), expected.len());
            prop_assert_eq!(stats.matches, expected.len());
            prop_assert_eq!(stats, shared_stats);
        }
        prop_assert!(index.postings(u32::MAX).is_empty());
        prop_assert_eq!(index.lookup_shared(u32::MAX).1, ScanStats::default());
    }
}
