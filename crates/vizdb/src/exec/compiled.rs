//! The compiled columnar execution path.
//!
//! The interpreter in [`crate::exec::executor`] re-matches the [`ColumnData`]
//! variant, re-bounds-checks the column vector and — for keyword predicates —
//! re-resolves the dictionary token on *every row*. This module lowers each
//! query's predicates **once per execution** into typed [`CompiledPredicate`]s
//! that bind the concrete column slice and the pre-resolved token up front, then
//! evaluates them over the 4096-row chunks of a [`SelectionBitmap`]: predicate
//! `k` only sees the rows that survived predicates `0..k`, which is exactly the
//! work the short-circuiting interpreter performs, so `WorkProfile` counts (and
//! therefore simulated times) are identical by construction.
//!
//! Binned-count outputs additionally get **dense-grid binning**: when the grid
//! is small enough ([`DENSE_GRID_MAX_CELLS`]) counts accumulate into a
//! `Vec<u64>` indexed by bin id instead of a `HashMap`, producing the same
//! sorted `(bin, count)` pairs without hashing per qualifying row.
//!
//! Compilation is fallible (a type-mismatched or out-of-range predicate cannot
//! bind its column); callers fall back to the interpreter in that case so error
//! behaviour — including the "empty table never evaluates a predicate" edge —
//! stays observationally identical.
//!
//! [`ColumnData`]: crate::storage::ColumnData

use std::collections::HashMap;

use crate::bitmap::{SelectionBitmap, CHUNK_BITS, CHUNK_WORDS};
use crate::error::Result;
use crate::exec::executor::ExecTable;
use crate::query::{BinGrid, Predicate};
use crate::storage::{Table, TextColumn};
use crate::timing::WorkProfile;
use crate::types::{GeoPoint, GeoRect, NumRange, RecordId, TimeRange, Timestamp, TokenId};

/// Which execution path the executor takes. The compiled engine is the
/// default; the interpreter is kept as the semantic reference (equivalence is
/// pinned by property tests) and as the fallback for predicates that cannot
/// compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEngine {
    /// Row-at-a-time `Result`-dispatched predicate interpretation.
    Interpreted,
    /// Predicates lowered once per execution, candidates carried as
    /// [`SelectionBitmap`]s and refined chunk by chunk over 64-bit words. With
    /// `threads > 1` the chunk work runs as morsels on a worker crew
    /// ([`crate::exec::parallel`]) and every observable (results,
    /// `WorkProfile`, simulated time, plan) stays byte-identical to one
    /// thread.
    Compiled {
        /// Worker count; the calling thread participates as one of them, and
        /// `threads <= 1` runs sequentially.
        threads: usize,
    },
}

impl Default for ExecEngine {
    fn default() -> Self {
        ExecEngine::Compiled { threads: 1 }
    }
}

impl ExecEngine {
    /// `true` for the compiled engine at any thread count.
    pub fn is_compiled(self) -> bool {
        !matches!(self, ExecEngine::Interpreted)
    }

    /// Workers the engine runs chunk work on (1 for the interpreter).
    pub(crate) fn threads(self) -> usize {
        match self {
            ExecEngine::Compiled { threads } => threads.max(1),
            ExecEngine::Interpreted => 1,
        }
    }
}

/// Largest grid (cells) binned into a dense `Vec<u64>`; larger grids fall back
/// to the `HashMap` path (a 2^20-cell grid is already a 1024×1024 heatmap —
/// far beyond any tile a frontend renders — while the dense vector stays 8 MiB).
pub const DENSE_GRID_MAX_CELLS: usize = 1 << 20;

/// One predicate lowered against one concrete table: the column slice is bound
/// and the keyword token resolved, so per-row evaluation is branch-light and
/// infallible.
pub enum CompiledPredicate<'a> {
    /// Keyword containment over pre-tokenised documents. `token` is `None` when
    /// the keyword is not in the table dictionary (no row can match).
    Keyword {
        /// CSR-flattened sorted token lists.
        docs: &'a TextColumn,
        /// The token resolved once at compile time.
        token: Option<TokenId>,
        /// The token's stored postings, bound by [`compile_predicates`] when
        /// the column has an inverted index: residual refinement then ANDs
        /// chunks instead of probing each row's document.
        postings: Option<&'a SelectionBitmap>,
    },
    /// Time range over a timestamp column.
    Time {
        /// The bound column.
        col: &'a [Timestamp],
        /// Inclusive interval.
        range: TimeRange,
    },
    /// Numeric range over an integer column.
    NumericInt {
        /// The bound column.
        col: &'a [i64],
        /// Inclusive interval.
        range: NumRange,
    },
    /// Numeric range over a float column.
    NumericFloat {
        /// The bound column.
        col: &'a [f64],
        /// Inclusive interval.
        range: NumRange,
    },
    /// Numeric range over a timestamp column (the interpreter's generic numeric
    /// view accepts timestamps too).
    NumericTimestamp {
        /// The bound column.
        col: &'a [Timestamp],
        /// Inclusive interval.
        range: NumRange,
    },
    /// Spatial containment over a geo column.
    Spatial {
        /// The bound column.
        col: &'a [GeoPoint],
        /// Query rectangle.
        rect: GeoRect,
    },
}

impl CompiledPredicate<'_> {
    /// Evaluates the predicate for one row. Infallible: the column was bound and
    /// type-checked at compile time.
    #[inline]
    pub fn eval(&self, rid: RecordId) -> bool {
        let rid = rid as usize;
        match self {
            CompiledPredicate::Keyword { docs, token, .. } => match token {
                Some(t) => docs.doc_contains(rid, *t),
                None => false,
            },
            CompiledPredicate::Time { col, range } => range.contains(col[rid]),
            CompiledPredicate::NumericInt { col, range } => range.contains(col[rid] as f64),
            CompiledPredicate::NumericFloat { col, range } => range.contains(col[rid]),
            CompiledPredicate::NumericTimestamp { col, range } => range.contains(col[rid] as f64),
            CompiledPredicate::Spatial { col, rect } => rect.contains(&col[rid]),
        }
    }

    /// Evaluates the predicate over the contiguous row range `[start, end)`
    /// of one 4096-row chunk, setting the bit of each matching row in `words`
    /// (bit index = `rid - chunk_base`, where the chunk base is `start` rounded
    /// down to a [`CHUNK_BITS`] boundary). The range kernels go through the
    /// SIMD-explicit [`fill_range_kernel`] (4×u64 unrolled word packing); the
    /// keyword kernel reuses the CSR stripe sweep via `scratch` and scatters
    /// the sparse matches four at a time.
    #[inline]
    fn fill_words(
        &self,
        start: RecordId,
        end: RecordId,
        words: &mut [u64; CHUNK_WORDS],
        scratch: &mut Vec<RecordId>,
    ) {
        let base = start & !(CHUNK_BITS as RecordId - 1);
        match self {
            CompiledPredicate::Keyword { docs, token, .. } => {
                if let Some(t) = token {
                    scratch.clear();
                    docs.rows_containing(start as usize, end as usize, *t, scratch);
                    // The CSR sweep yields sparse ascending rows; scatter four
                    // per iteration so the offset arithmetic of later entries
                    // overlaps the read-modify-write of earlier ones.
                    let mut quads = scratch.chunks_exact(4);
                    for quad in &mut quads {
                        let o0 = (quad[0] - base) as usize;
                        let o1 = (quad[1] - base) as usize;
                        let o2 = (quad[2] - base) as usize;
                        let o3 = (quad[3] - base) as usize;
                        words[o0 >> 6] |= 1u64 << (o0 & 63);
                        words[o1 >> 6] |= 1u64 << (o1 & 63);
                        words[o2 >> 6] |= 1u64 << (o2 & 63);
                        words[o3 >> 6] |= 1u64 << (o3 & 63);
                    }
                    for &rid in quads.remainder() {
                        let off = (rid - base) as usize;
                        words[off >> 6] |= 1u64 << (off & 63);
                    }
                }
            }
            CompiledPredicate::Time { col, range } => {
                fill_range_kernel(col, start, end, base, words, |v| range.contains(v))
            }
            CompiledPredicate::NumericInt { col, range } => {
                fill_range_kernel(col, start, end, base, words, |v| range.contains(v as f64))
            }
            CompiledPredicate::NumericFloat { col, range } => {
                fill_range_kernel(col, start, end, base, words, |v| range.contains(v))
            }
            CompiledPredicate::NumericTimestamp { col, range } => {
                fill_range_kernel(col, start, end, base, words, |v| range.contains(v as f64))
            }
            CompiledPredicate::Spatial { col, rect } => {
                fill_range_kernel(col, start, end, base, words, |p| rect.contains(&p))
            }
        }
    }

    /// Clears the bits of one chunk's `words` (rows `chunk_base + bit`) whose
    /// rows fail the predicate: a keyword with bound postings ANDs the token's
    /// chunk in, every other predicate re-evaluates each set bit.
    #[inline]
    fn refine_words(&self, chunk_base: RecordId, words: &mut [u64; CHUNK_WORDS]) {
        if let CompiledPredicate::Keyword {
            postings: Some(postings),
            ..
        } = self
        {
            postings.and_chunk_into(chunk_base >> CHUNK_BITS.trailing_zeros(), words);
            return;
        }
        for (wi, word) in words.iter_mut().enumerate() {
            let mut w = *word;
            while w != 0 {
                let bit = w.trailing_zeros();
                let rid = chunk_base + ((wi as RecordId) << 6) + bit;
                if !self.eval(rid) {
                    *word &= !(1u64 << bit);
                }
                w &= w - 1;
            }
        }
    }
}

/// SIMD-explicit range kernel for [`CompiledPredicate::fill_words`]: packs the
/// predicate results for rows `[start, end)` into `words` (bit index
/// `rid - base`), OR-ing over whatever is already set. The body packs four
/// 64-bit words (256 rows) per iteration into four independent accumulators —
/// each lane is a movemask-shaped reduction the vectoriser lowers to vector
/// compares plus bit packs, and keeping the lanes independent stops the word
/// stores from serialising them. An unaligned `start` and the short final word
/// go through per-bit ORs, so the bit pattern is identical to a scalar loop in
/// every case.
#[inline(always)]
fn fill_range_kernel<T: Copy>(
    col: &[T],
    start: RecordId,
    end: RecordId,
    base: RecordId,
    words: &mut [u64; CHUNK_WORDS],
    pred: impl Fn(T) -> bool + Copy,
) {
    let mut off = (start - base) as usize;
    let mut row = start as usize;
    let end = end as usize;
    // Head: finish the partially-covered leading word.
    while off & 63 != 0 && row < end {
        words[off >> 6] |= (pred(col[row]) as u64) << (off & 63);
        off += 1;
        row += 1;
    }
    // Body: four full words per iteration, four independent lanes.
    while row + 256 <= end {
        let w = off >> 6;
        let stripe = &col[row..row + 256];
        let (mut a0, mut a1, mut a2, mut a3) = (0u64, 0u64, 0u64, 0u64);
        for bit in 0..64 {
            a0 |= (pred(stripe[bit]) as u64) << bit;
            a1 |= (pred(stripe[64 + bit]) as u64) << bit;
            a2 |= (pred(stripe[128 + bit]) as u64) << bit;
            a3 |= (pred(stripe[192 + bit]) as u64) << bit;
        }
        words[w] |= a0;
        words[w + 1] |= a1;
        words[w + 2] |= a2;
        words[w + 3] |= a3;
        off += 256;
        row += 256;
    }
    // Remaining full words, one lane at a time.
    while row + 64 <= end {
        let stripe = &col[row..row + 64];
        let mut acc = 0u64;
        for (bit, v) in stripe.iter().enumerate() {
            acc |= (pred(*v) as u64) << bit;
        }
        words[off >> 6] |= acc;
        off += 64;
        row += 64;
    }
    // Tail: the final partial word.
    while row < end {
        words[off >> 6] |= (pred(col[row]) as u64) << (off & 63);
        off += 1;
        row += 1;
    }
}

/// Lowers one predicate against `table`, binding the column slice and resolving
/// the keyword token. Fails exactly when the interpreter's per-row evaluation
/// would fail (wrong column type, out-of-range attribute).
pub fn compile_predicate<'a>(pred: &Predicate, table: &'a Table) -> Result<CompiledPredicate<'a>> {
    Ok(match pred {
        Predicate::KeywordContains { attr, keyword } => CompiledPredicate::Keyword {
            docs: table.text_docs(*attr)?,
            token: table.dictionary().lookup(keyword),
            postings: None,
        },
        Predicate::TimeRange { attr, range } => CompiledPredicate::Time {
            col: table.timestamp_slice(*attr)?,
            range: *range,
        },
        Predicate::NumericRange { attr, range } => {
            // Mirror `Table::numeric`: Int, Float and Timestamp columns all
            // support the generic numeric view.
            if let Ok(col) = table.int_slice(*attr) {
                CompiledPredicate::NumericInt { col, range: *range }
            } else if let Ok(col) = table.timestamp_slice(*attr) {
                CompiledPredicate::NumericTimestamp { col, range: *range }
            } else {
                CompiledPredicate::NumericFloat {
                    col: table.float_slice(*attr)?,
                    range: *range,
                }
            }
        }
        Predicate::SpatialRange { attr, rect } => CompiledPredicate::Spatial {
            col: table.geo_slice(*attr)?,
            rect: *rect,
        },
    })
}

/// [`compile_predicate`] against `fact`, binding a keyword's stored postings
/// when its column has an inverted index. The index is built from the
/// column's documents, so the postings hold exactly the rows the CSR probe
/// accepts.
pub(crate) fn compile_indexed<'a>(
    pred: &Predicate,
    fact: &ExecTable<'a>,
) -> Result<CompiledPredicate<'a>> {
    let mut compiled = compile_predicate(pred, fact.table)?;
    if let CompiledPredicate::Keyword {
        token: Some(token),
        postings,
        ..
    } = &mut compiled
    {
        *postings = fact
            .inverted
            .get(&pred.attr())
            .map(|index| index.postings(*token));
    }
    Ok(compiled)
}

/// Lowers the predicates at `indices` (into `preds`) with
/// [`compile_indexed`]. Returns `Err` when any of them cannot bind its column
/// — the caller falls back to the interpreter.
pub fn compile_predicates<'a>(
    preds: &[Predicate],
    indices: &[usize],
    fact: &ExecTable<'a>,
) -> Result<Vec<CompiledPredicate<'a>>> {
    indices
        .iter()
        .map(|&i| {
            let pred = preds
                .get(i)
                .ok_or(crate::error::Error::InvalidAttribute(i))?;
            compile_indexed(pred, fact)
        })
        .collect()
}

/// Evaluates the compiled conjunction for one row with short-circuiting,
/// counting each predicate evaluation exactly like the interpreter. Used on the
/// row-capped path, where batching would evaluate rows the interpreter never
/// reaches.
#[inline]
pub fn eval_row(preds: &[CompiledPredicate<'_>], rid: RecordId, work: &mut WorkProfile) -> bool {
    for pred in preds {
        work.filter_evals += 1;
        if !pred.eval(rid) {
            return false;
        }
    }
    true
}

#[inline]
fn popcount(words: &[u64; CHUNK_WORDS]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
}

/// Chunk-qualifies the contiguous row range `rows` through the compiled
/// conjunction, returning the qualifying rows as a [`SelectionBitmap`]. The
/// first predicate fills each 4096-row chunk's words with a branchless columnar
/// kernel ([`CompiledPredicate::fill_words`]); later predicates re-evaluate
/// only the set bits ([`CompiledPredicate::refine_words`]).
///
/// `filter_evals` accounting matches the short-circuiting interpreter
/// exactly: predicate `k` is charged once per row that survived predicates
/// `0..k` — a chunk's surviving-row count is one `popcount` away.
///
/// `chunk_capacity` pre-sizes the result's chunk vector (callers derive it
/// from the planner's row estimate); it is a capacity hint only and never
/// changes the result.
pub fn qualify_range_bitmap(
    preds: &[CompiledPredicate<'_>],
    rows: std::ops::Range<RecordId>,
    chunk_capacity: usize,
    work: &mut WorkProfile,
    mut per_batch_rows: impl FnMut(&mut WorkProfile, u64),
) -> crate::bitmap::SelectionBitmap {
    let mut writer = crate::bitmap::ChunkWriter::with_capacity(chunk_capacity);
    let mut scratch: Vec<RecordId> = Vec::new();
    let mut start = rows.start;
    while start < rows.end {
        let base = start & !(CHUNK_BITS as RecordId - 1);
        let end = rows.end.min(base + CHUNK_BITS as RecordId);
        per_batch_rows(work, (end - start) as u64);
        let mut words = [0u64; CHUNK_WORDS];
        match preds.first() {
            Some(first) => {
                work.filter_evals += (end - start) as u64;
                first.fill_words(start, end, &mut words, &mut scratch);
            }
            None => crate::bitmap::set_span(
                &mut words,
                (start - base) as usize,
                (end - 1 - base) as usize,
            ),
        }
        for pred in preds.get(1..).unwrap_or(&[]) {
            let survivors = popcount(&words);
            if survivors == 0 {
                break;
            }
            work.filter_evals += survivors;
            pred.refine_words(base, &mut words);
        }
        if popcount(&words) > 0 {
            writer.push_words(base >> CHUNK_BITS.trailing_zeros(), &words);
        }
        start = end;
    }
    writer.finish()
}

/// Refines a candidate [`SelectionBitmap`] (index candidates, a sample's
/// rows) through the compiled conjunction chunk by chunk. Every predicate
/// (including the first) sees only the already-selected rows, so predicate
/// `k` is charged `popcount` of the words surviving `0..k` — the interpreter's
/// count — and `per_batch_rows` is charged each chunk's candidate count.
/// `chunk_capacity` is a capacity hint as in [`qualify_range_bitmap`].
pub fn qualify_bitmap(
    preds: &[CompiledPredicate<'_>],
    candidates: &crate::bitmap::SelectionBitmap,
    chunk_capacity: usize,
    work: &mut WorkProfile,
    per_batch_rows: impl FnMut(&mut WorkProfile, u64),
) -> crate::bitmap::SelectionBitmap {
    qualify_bitmap_range(
        preds,
        candidates,
        0..candidates.chunk_count(),
        chunk_capacity,
        work,
        per_batch_rows,
    )
}

/// [`qualify_bitmap`] restricted to the candidate chunk *positions* `pos` — the
/// per-morsel step of the parallel engine. Running this over a partition of
/// `0..chunk_count()` and concatenating the results in position order is
/// chunk-for-chunk identical to one sequential [`qualify_bitmap`] pass, because
/// every chunk is refined independently.
pub(crate) fn qualify_bitmap_range(
    preds: &[CompiledPredicate<'_>],
    candidates: &crate::bitmap::SelectionBitmap,
    pos: std::ops::Range<usize>,
    chunk_capacity: usize,
    work: &mut WorkProfile,
    mut per_batch_rows: impl FnMut(&mut WorkProfile, u64),
) -> crate::bitmap::SelectionBitmap {
    let mut writer = crate::bitmap::ChunkWriter::with_capacity(chunk_capacity);
    candidates.for_each_chunk_in(pos, |chunk_id, words| {
        let n = popcount(words);
        if n == 0 {
            return;
        }
        per_batch_rows(work, n);
        let base = chunk_id << CHUNK_BITS.trailing_zeros();
        for pred in preds {
            let survivors = popcount(words);
            if survivors == 0 {
                break;
            }
            work.filter_evals += survivors;
            pred.refine_words(base, words);
        }
        if popcount(words) > 0 {
            writer.push_words(chunk_id, words);
        }
    });
    writer.finish()
}

/// The outcome of binned-count accumulation: how many cells are non-empty
/// (charged to `output_rows`) and, only when the caller materializes, the
/// sorted `(bin, count)` pairs — count-only executions (the simulated-time
/// probes, the hottest loop in the repo) skip building and sorting pairs they
/// would immediately discard.
pub struct BinnedAccum {
    /// Number of non-empty cells.
    pub distinct_bins: u64,
    /// Sorted `(bin id, count)` pairs; `None` when not materialized.
    pub pairs: Option<Vec<(u32, u64)>>,
}

/// Bins the geo points of the qualifying rows: dense `Vec<u64>` accumulation
/// when the grid is bounded, `HashMap` otherwise. Both produce identical
/// output (counts per non-empty cell, sorted by bin id).
///
/// The dense path zeroes and rescans `cells` slots, so it must also be cheap
/// *relative to the rows being binned*: frontend-sized grids (≤ 4096 cells)
/// always qualify, bigger ones only when the row count is at least a
/// comparable fraction of the grid — a hundred rows on a 2^20-cell grid would
/// otherwise pay an 8 MiB zero + sweep to save a hundred hash inserts.
/// `row_count` is the length of `qualifying`: the heuristic needs the
/// cardinality before consuming the stream.
pub fn bin_counts_iter(
    grid: &BinGrid,
    geo: &[GeoPoint],
    qualifying: impl Iterator<Item = RecordId>,
    row_count: usize,
    materialize: bool,
) -> BinnedAccum {
    let cells = grid.cell_count();
    if dense_grid_gate(cells, row_count) {
        let mut counts: Vec<u64> = vec![0; cells];
        dense_bin_into(grid, geo, qualifying, &mut counts);
        dense_accum_finish(&counts, materialize)
    } else {
        sparse_bin_accum(grid, qualifying.map(|rid| geo[rid as usize]), materialize)
    }
}

/// The dense-vs-sparse decision shared by [`bin_counts_iter`] and the parallel
/// binning path — one place, so the engines cannot disagree on which
/// accumulator a given (grid, cardinality) pair takes.
pub(crate) fn dense_grid_gate(cells: usize, row_count: usize) -> bool {
    cells > 0
        && cells <= DENSE_GRID_MAX_CELLS
        && (cells <= 4096 || cells <= row_count.saturating_mul(8))
}

/// Accumulates one record-id stream into a dense per-cell count vector — the
/// sequential dense path and each parallel worker's private partial both run
/// exactly this loop, so merged partials (u64 sums are exact and commutative)
/// equal one sequential pass bit for bit.
pub(crate) fn dense_bin_into(
    grid: &BinGrid,
    geo: &[GeoPoint],
    qualifying: impl Iterator<Item = RecordId>,
    counts: &mut [u64],
) {
    for rid in qualifying {
        let p = geo[rid as usize];
        if let Some(bin) = grid.bin_of(p.lon, p.lat) {
            counts[bin as usize] += 1;
        }
    }
}

/// Folds a dense count vector into the [`BinnedAccum`] the executor consumes.
pub(crate) fn dense_accum_finish(counts: &[u64], materialize: bool) -> BinnedAccum {
    if materialize {
        let pairs: Vec<(u32, u64)> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(bin, &c)| (bin as u32, c))
            .collect();
        BinnedAccum {
            distinct_bins: pairs.len() as u64,
            pairs: Some(pairs),
        }
    } else {
        BinnedAccum {
            distinct_bins: counts.iter().filter(|&&c| c > 0).count() as u64,
            pairs: None,
        }
    }
}

/// Sparse binning shared by the compiled engine's large-grid fallback and the
/// interpreter: `HashMap` accumulation, sorted pairs only when materialized —
/// the single place the non-dense accumulation semantics live, so the engines
/// cannot drift.
pub(crate) fn sparse_bin_accum(
    grid: &BinGrid,
    points: impl Iterator<Item = GeoPoint>,
    materialize: bool,
) -> BinnedAccum {
    let mut bins: HashMap<u32, u64> = HashMap::new();
    for p in points {
        if let Some(bin) = grid.bin_of(p.lon, p.lat) {
            *bins.entry(bin).or_insert(0) += 1;
        }
    }
    let distinct_bins = bins.len() as u64;
    let pairs = materialize.then(|| {
        let mut pairs: Vec<(u32, u64)> = bins.into_iter().collect();
        pairs.sort_unstable();
        pairs
    });
    BinnedAccum {
        distinct_bins,
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::parallel;
    use crate::query::Predicate;
    use crate::schema::{ColumnType, TableSchema};
    use crate::storage::TableBuilder;

    fn table() -> Table {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::Int)
            .with_column("when", ColumnType::Timestamp)
            .with_column("loc", ColumnType::Geo)
            .with_column("text", ColumnType::Text)
            .with_column("score", ColumnType::Float);
        let mut b = TableBuilder::new(schema);
        for i in 0..100i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("when", i * 10);
                row.set_geo("loc", -120.0 + i as f64 * 0.1, 30.0 + (i % 10) as f64);
                row.set_text("text", if i % 3 == 0 { &["hot"] } else { &["cold"] });
                row.set_float("score", i as f64 / 2.0);
            });
        }
        b.build()
    }

    fn compile_all<'a>(preds: &[Predicate], t: &'a Table) -> Vec<CompiledPredicate<'a>> {
        preds
            .iter()
            .map(|p| compile_predicate(p, t).unwrap())
            .collect()
    }

    #[test]
    fn compiled_predicates_match_interpreted_eval() {
        let t = table();
        let preds = [
            Predicate::keyword(3, "hot"),
            Predicate::time_range(1, 100, 500),
            Predicate::spatial_range(2, GeoRect::new(-119.0, 30.0, -115.0, 35.0)),
            Predicate::numeric_range(0, 10.0, 60.0),
            Predicate::numeric_range(4, 5.0, 20.0),
            Predicate::numeric_range(1, 100.0, 300.0),
        ];
        for pred in &preds {
            let compiled = compile_predicate(pred, &t).unwrap();
            for rid in 0..t.row_count() as RecordId {
                let expected = super::super::executor::eval_predicate(pred, &t, rid).unwrap();
                assert_eq!(compiled.eval(rid), expected, "{pred:?} row {rid}");
            }
        }
    }

    /// The reference every qualify path is checked against: the
    /// row-at-a-time [`eval_row`] loop, charging one `seq_rows` per row.
    fn row_loop(
        preds: &[CompiledPredicate<'_>],
        rids: impl Iterator<Item = RecordId>,
    ) -> (Vec<RecordId>, WorkProfile) {
        let mut work = WorkProfile::default();
        let mut out = Vec::new();
        for rid in rids {
            work.seq_rows += 1;
            if eval_row(preds, rid, &mut work) {
                out.push(rid);
            }
        }
        (out, work)
    }

    #[test]
    fn unknown_keyword_compiles_to_always_false() {
        let t = table();
        let compiled = [compile_predicate(&Predicate::keyword(3, "missing"), &t).unwrap()];
        assert!(!compiled[0].eval(0));
        let rows = t.row_count() as RecordId;
        let mut work = WorkProfile::default();
        let cands = SelectionBitmap::from_sorted(&[0, 1, 2]);
        assert!(qualify_bitmap(&compiled, &cands, 0, &mut work, |_, _| {}).is_empty());
        assert!(qualify_range_bitmap(&compiled, 0..rows, 0, &mut work, |_, _| {}).is_empty());
        // Every candidate is still charged its one evaluation.
        assert_eq!(work.filter_evals, 3 + rows as u64);
    }

    #[test]
    fn type_mismatch_fails_to_compile() {
        let t = table();
        assert!(compile_predicate(&Predicate::keyword(0, "hot"), &t).is_err());
        assert!(compile_predicate(&Predicate::time_range(2, 0, 1), &t).is_err());
        assert!(compile_predicate(&Predicate::numeric_range(3, 0.0, 1.0), &t).is_err());
        assert!(compile_predicate(
            &Predicate::spatial_range(0, GeoRect::new(0.0, 0.0, 1.0, 1.0)),
            &t
        )
        .is_err());
        assert!(compile_predicate(&Predicate::keyword(9, "hot"), &t).is_err());
    }

    #[test]
    fn batch_filter_evals_match_short_circuit_counts() {
        let t = table();
        let preds = compile_all(
            &[
                Predicate::time_range(1, 0, 490),
                Predicate::keyword(3, "hot"),
            ],
            &t,
        );
        let rows = t.row_count() as RecordId;
        let (expected, row_work) = row_loop(&preds, 0..rows);
        // Predicate 0 passes rows 0..=49 (timestamps 0..=490), so predicate 1 is
        // charged exactly 50 evaluations on top of predicate 0's 100.
        assert_eq!(row_work.filter_evals, 150);

        // Every chunk entry point, sequential and morsel-parallel, agrees with
        // the short-circuiting loop.
        let all = SelectionBitmap::full(rows as usize);
        let seq: fn(&mut WorkProfile, u64) = |w, n| w.seq_rows += n;
        for entry in 0..4 {
            let mut work = WorkProfile::default();
            let got = match entry {
                0 => qualify_range_bitmap(&preds, 0..rows, 0, &mut work, seq),
                1 => qualify_bitmap(&preds, &all, 0, &mut work, seq),
                2 => parallel::qualify_range_bitmap_par(&preds, 0..rows, 2, 0, &mut work, seq),
                _ => parallel::qualify_bitmap_par(&preds, &all, 2, 0, &mut work, seq),
            };
            assert_eq!(got.to_vec(), expected, "entry point {entry}");
            assert_eq!(work, row_work, "entry point {entry}");
        }
    }

    #[test]
    fn bitmap_qualify_matches_idvec_qualify() {
        let t = table();
        let preds = compile_all(
            &[
                Predicate::time_range(1, 0, 490),
                Predicate::keyword(3, "hot"),
                Predicate::numeric_range(4, 5.0, 20.0),
            ],
            &t,
        );
        let rows = t.row_count() as RecordId;
        let seq = |w: &mut WorkProfile, n: u64| w.seq_rows += n;

        // Full-range scan: same survivors, same work profile.
        let (expected, row_work) = row_loop(&preds, 0..rows);
        let mut bm_work = WorkProfile::default();
        let bm = qualify_range_bitmap(&preds, 0..rows, 0, &mut bm_work, seq);
        assert_eq!(bm.to_vec(), expected);
        assert_eq!(bm_work, row_work);

        // Candidate refinement: seed with every third row.
        let cands: Vec<RecordId> = (0..rows).step_by(3).collect();
        let (expected, row_work) = row_loop(&preds, cands.iter().copied());
        let cand_bm = SelectionBitmap::from_sorted(&cands);
        let mut bm_work = WorkProfile::default();
        let refined = qualify_bitmap(&preds, &cand_bm, 0, &mut bm_work, seq);
        assert_eq!(refined.to_vec(), expected);
        assert_eq!(bm_work, row_work);

        // No predicates: the range bitmap is the identity selection.
        let empty: [CompiledPredicate<'_>; 0] = [];
        let mut w = WorkProfile::default();
        let all = qualify_range_bitmap(&empty, 5..rows, 0, &mut w, seq);
        assert_eq!(all.to_vec(), (5..rows).collect::<Vec<_>>());
    }

    /// The 4×u64 kernel must be bit-for-bit the per-row evaluation across every
    /// alignment regime: unaligned head, 256-row unrolled body, single-word
    /// runs, partial tail — on a table big enough to exercise all of them, for
    /// every predicate shape (including the quad-scattered keyword kernel).
    #[test]
    fn fill_words_kernel_matches_per_row_eval() {
        let schema = TableSchema::new("big")
            .with_column("when", ColumnType::Timestamp)
            .with_column("loc", ColumnType::Geo)
            .with_column("text", ColumnType::Text)
            .with_column("score", ColumnType::Float)
            .with_column("id", ColumnType::Int);
        let mut b = TableBuilder::new(schema);
        let n = 5000i64;
        for i in 0..n {
            b.push_row(|row| {
                row.set_timestamp("when", (i * 7) % 9001);
                row.set_geo(
                    "loc",
                    -120.0 + (i % 613) as f64 * 0.1,
                    25.0 + (i % 23) as f64,
                );
                row.set_text("text", if i % 5 == 0 { &["hot"] } else { &["cold"] });
                row.set_float("score", (i % 97) as f64);
                row.set_int("id", i % 311);
            });
        }
        let t = b.build();
        let preds = [
            Predicate::time_range(0, 100, 6000),
            Predicate::spatial_range(1, GeoRect::new(-118.0, 27.0, -90.0, 40.0)),
            Predicate::keyword(2, "hot"),
            Predicate::numeric_range(3, 10.0, 60.0),
            Predicate::numeric_range(4, 5.0, 200.0),
        ];
        let rows = t.row_count() as RecordId;
        // Odd start offsets force the unaligned-head path; ranges shorter than
        // a word force the tail-only path.
        for range in [0..rows, 7..rows, 300..301, 63..rows - 13, 4096..rows] {
            for pred in &preds {
                let compiled = compile_predicate(pred, &t).unwrap();
                let single = [compiled];
                let mut w = WorkProfile::default();
                let got = qualify_range_bitmap(&single, range.clone(), 0, &mut w, |_, _| {});
                let expected: Vec<RecordId> =
                    range.clone().filter(|&rid| single[0].eval(rid)).collect();
                assert_eq!(got.to_vec(), expected, "{pred:?} over {range:?}");
            }
        }
    }

    #[test]
    fn dense_and_sparse_binning_agree() {
        let t = table();
        let geo = t.geo_slice(2).unwrap();
        let qualifying: Vec<RecordId> = (0..t.row_count() as RecordId).collect();
        let grid = BinGrid::new(GeoRect::new(-120.0, 30.0, -110.0, 40.0), 8, 8);
        let dense = bin_counts_iter(&grid, geo, qualifying.iter().copied(), 100, true);
        let dense_pairs = dense.pairs.expect("materialized");
        // Compare against an independent hand-rolled HashMap pass.
        let mut bins: HashMap<u32, u64> = HashMap::new();
        for &rid in &qualifying {
            let p = geo[rid as usize];
            if let Some(bin) = grid.bin_of(p.lon, p.lat) {
                *bins.entry(bin).or_insert(0) += 1;
            }
        }
        let mut sparse: Vec<(u32, u64)> = bins.into_iter().collect();
        sparse.sort_unstable();
        assert_eq!(dense_pairs, sparse);
        assert_eq!(dense.distinct_bins as usize, dense_pairs.len());
        assert!(!dense_pairs.is_empty());
        // Count-only accumulation reports the same distinct-bin count without
        // building pairs.
        let count_only = bin_counts_iter(&grid, geo, qualifying.iter().copied(), 100, false);
        assert_eq!(count_only.distinct_bins, dense.distinct_bins);
        assert!(count_only.pairs.is_none());
    }
}
