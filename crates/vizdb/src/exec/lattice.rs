//! Dry runs derived from a per-query selection lattice.
//!
//! Pricing a rewrite option ([`crate::Database::execution_time_ms`]) used to
//! execute the whole hinted plan without materialising it. For an exact
//! single-table query every counter of that execution is a function of the
//! sizes of intersections of the predicates' match sets:
//!
//! - a sequential scan charges every row, then predicate `k` (in query order)
//!   once per row that passed predicates `0..k`;
//! - an index plan charges each index's match count, the
//!   [`intersect_skip_charge`] over those counts, one heap fetch per row of
//!   their intersection `C`, then residual predicate `k` once per row of `C`
//!   that passed residuals `0..k`;
//! - the output charges the rows of the full intersection (and, for heatmaps,
//!   its distinct bins).
//!
//! A `SelectionLattice` holds those intersections for one query. Singleton
//! sizes come from the index counters (`range_count`, `count`), which are
//! exact; larger intersections are built lazily as bitmaps. Each starts from
//! the smallest set it contains ([`scan_index_bitmap`]) and is narrowed, most
//! selective predicate first, with [`compiled::qualify_bitmap`] — so no
//! predicate is evaluated over more rows than the smallest match set — or by
//! ANDing another predicate's index scan when that scan is already built or
//! small next to the set. A new lattice starts with the scans the memoised
//! lattices of the same table hold for identical predicates, so related
//! queries (a dashboard re-filtering the same keyword) share them. Every hint
//! option of the query is then priced from the same few sets, and
//! [`crate::Database::run`] serves the chosen option's result from the full
//! intersection. Results, work profiles and therefore simulated times are
//! identical to the executor's by construction; the `dry_run_lattice` suite
//! pins that against [`crate::Database::run_with_engine`].
//!
//! Exact here means no join, no LIMIT, no approximation rule, every predicate
//! answered by an index of its own kind whose match set equals the compiled
//! predicate's (so a predicate matches the same rows whether a plan scans its
//! index or filters it as a residual), and an output column that binds. Every
//! other shape falls back to the executor.
//!
//! Lattices live in a `LatticeMemo` of [`MEMO_CAPACITY`] queries on the
//! database, evicted oldest first and cleared with the database's other
//! caches. Sets are deterministic functions of the query, so racing builders
//! agree and the first insert wins.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::bitmap::SelectionBitmap;
use crate::error::{Error, Result};
use crate::exec::compiled::{self, BinnedAccum, CompiledPredicate};
use crate::exec::executor::{scan_index_bitmap, validate_output, ExecOutcome, ExecTable};
use crate::exec::result::QueryResult;
use crate::hints::RewriteOption;
use crate::index::{intersect_skip_charge, BPlusTree};
use crate::plan::PhysicalPlan;
use crate::query::{OutputKind, Predicate, Query};
use crate::sync::Mutex;
use crate::timing::WorkProfile;

/// Queries whose lattices the memo keeps.
pub const MEMO_CAPACITY: usize = 16;

/// How many index entries a predicate's scan may read per row of the set it
/// narrows before refining that set with the compiled predicate is cheaper.
/// One refined row costs about three scanned entries (9–24 ns against 3–6 ns
/// on the 200k-row Twitter table), but a scan is kept and reused by every
/// later intersection — and query — with that predicate. On the cold-plan
/// benchmark 10 served more requests than 3 or than always scanning.
const SCAN_ENTRIES_PER_ROW: usize = 10;

/// Exact number of rows of `fact` matching `pred`, read from the counter of
/// the index `pred` would scan; `None` when that index is not built.
pub(crate) fn index_count(pred: &Predicate, fact: &ExecTable<'_>) -> Option<usize> {
    let attr = pred.attr();
    match pred {
        Predicate::KeywordContains { keyword, .. } => {
            let index = fact.inverted.get(&attr)?;
            Some(
                fact.table
                    .dictionary()
                    .lookup(keyword)
                    .map_or(0, |token| index.count(token)),
            )
        }
        Predicate::TimeRange { range, .. } => {
            Some(fact.btree.get(&attr)?.range_count(range.start, range.end))
        }
        Predicate::NumericRange { range, .. } => Some(fact.btree.get(&attr)?.range_count(
            BPlusTree::float_key(range.lo),
            BPlusTree::float_key(range.hi),
        )),
        Predicate::SpatialRange { rect, .. } => Some(fact.rtree.get(&attr)?.range_count(rect)),
    }
}

/// Whether scanning `pred`'s index selects exactly the rows its compiled form
/// accepts. Compilation fails exactly when the column has the wrong type.
/// Two further cases differ: a numeric range over a timestamp column (its
/// B+-tree keys are raw timestamps, not float keys) and a NaN bound (float
/// keys order NaN past infinity, comparisons reject it).
fn index_matches_compiled(pred: &Predicate, table: &crate::storage::Table) -> bool {
    let Ok(compiled) = compiled::compile_predicate(pred, table) else {
        return false;
    };
    match (pred, compiled) {
        (_, CompiledPredicate::NumericTimestamp { .. }) => false,
        (Predicate::NumericRange { range, .. }, _) => !range.lo.is_nan() && !range.hi.is_nan(),
        (Predicate::SpatialRange { rect, .. }, _) => {
            ![rect.min_lon, rect.min_lat, rect.max_lon, rect.max_lat]
                .iter()
                .any(|v| v.is_nan())
        }
        _ => true,
    }
}

fn bit(pred: usize) -> u64 {
    1u64 << pred
}

/// The intersection sizes (and lazily built intersection bitmaps) of one
/// query's predicate match sets. A set is named by the bit mask of the
/// predicates it intersects; the empty mask is the whole table.
pub(crate) struct SelectionLattice {
    fingerprint: u64,
    query: Query,
    rows: usize,
    /// Exact match count of each predicate, from its index counter.
    counts: Vec<usize>,
    /// Intersections built so far, by predicate mask.
    sets: Mutex<HashMap<u64, Arc<SelectionBitmap>>>,
    /// Binned counts of one result set (heatmap outputs), by its mask.
    bins: Mutex<Option<(u64, Arc<BinnedAccum>)>>,
}

impl SelectionLattice {
    /// The lattice of `query` over `fact`, or `None` when the query's dry
    /// runs cannot be derived exactly (see the module docs). Fails with the
    /// executor's error when the output is invalid.
    fn build(query: &Query, fingerprint: u64, fact: &ExecTable<'_>) -> Result<Option<Self>> {
        if query.join.is_some() || query.limit.is_some() {
            return Ok(None);
        }
        validate_output(query)?;
        if query.predicates.len() >= u64::BITS as usize {
            return Ok(None);
        }
        let point_attr = match query.output {
            OutputKind::Points { point_attr, .. } | OutputKind::BinnedCounts { point_attr, .. } => {
                Some(point_attr)
            }
            OutputKind::Count => None,
        };
        if point_attr.is_some_and(|attr| fact.table.geo_slice(attr).is_err()) {
            return Ok(None);
        }
        let mut counts = Vec::with_capacity(query.predicates.len());
        for pred in &query.predicates {
            if !index_matches_compiled(pred, fact.table) {
                return Ok(None);
            }
            match index_count(pred, fact) {
                Some(count) => counts.push(count),
                None => return Ok(None),
            }
        }
        Ok(Some(Self {
            fingerprint,
            query: query.clone(),
            rows: fact.table.row_count(),
            counts,
            sets: Mutex::new(HashMap::new()),
            bins: Mutex::new(None),
        }))
    }

    /// Whether this is the lattice of `query` (whose fingerprint is
    /// `fingerprint`).
    pub(crate) fn is_for(&self, query: &Query, fingerprint: u64) -> bool {
        self.fingerprint == fingerprint && self.query == *query
    }

    /// Whether `plan` (for `ro`) is an exact single-table plan, which a
    /// lattice can derive.
    pub(crate) fn derives(plan: &PhysicalPlan, ro: &RewriteOption) -> bool {
        plan.join.is_none() && plan.approx.is_none() && ro.approx.is_none()
    }

    /// The mask bit of predicate `pred`.
    fn pred_bit(&self, pred: usize) -> Result<u64> {
        if pred < self.counts.len() {
            Ok(bit(pred))
        } else {
            Err(Error::InvalidAttribute(pred))
        }
    }

    /// Size of the intersection named by `mask`.
    fn count(&self, mask: u64, fact: &ExecTable<'_>) -> Result<usize> {
        if mask == 0 {
            return Ok(self.rows);
        }
        if mask.is_power_of_two() {
            return Ok(self.counts[mask.trailing_zeros() as usize]);
        }
        Ok(self.set(mask, fact)?.len())
    }

    /// The intersection named by `mask`, built on first use. It starts from
    /// the smallest set it contains — an already built subset, or the
    /// smallest predicate's index scan — and takes in the other predicates,
    /// most selective first: ANDing a predicate's index scan when it is built
    /// or reads fewer than [`SCAN_ENTRIES_PER_ROW`] entries per row of the
    /// current set, refining the current set with the compiled predicate
    /// otherwise. Every intermediate set is kept.
    fn set(&self, mask: u64, fact: &ExecTable<'_>) -> Result<Arc<SelectionBitmap>> {
        let smallest_built = {
            let sets = self.sets.lock();
            if let Some(set) = sets.get(&mask) {
                return Ok(Arc::clone(set));
            }
            sets.iter()
                .filter(|(&m, _)| m & !mask == 0)
                .min_by_key(|(_, set)| set.len())
                .map(|(&m, set)| (m, Arc::clone(set)))
        };
        if mask == 0 {
            return Ok(self.insert(0, Arc::new(SelectionBitmap::full(self.rows))));
        }
        let mut members: Vec<usize> = (0..self.counts.len())
            .filter(|&i| mask & bit(i) != 0)
            .collect();
        members.sort_by_key(|&i| (self.counts[i], i));
        let smallest = *members
            .first()
            .ok_or(Error::InvalidAttribute(mask.trailing_zeros() as usize))?;
        let (mut acc_mask, mut acc) = match smallest_built {
            Some((m, set)) if set.len() <= self.counts[smallest] => (m, set),
            _ => (bit(smallest), self.scan(smallest, fact)?),
        };
        for &pred in &members {
            if acc_mask & bit(pred) != 0 {
                continue;
            }
            let built = self.sets.lock().get(&bit(pred)).cloned();
            let narrowed = match built {
                Some(scan) => acc.and(&scan),
                None if self.counts[pred] < acc.len().saturating_mul(SCAN_ENTRIES_PER_ROW) => {
                    acc.and(&*self.scan(pred, fact)?)
                }
                None => compiled::qualify_bitmap(
                    &[compiled::compile_indexed(
                        &self.query.predicates[pred],
                        fact,
                    )?],
                    &acc,
                    acc.chunk_count(),
                    &mut WorkProfile::default(),
                    |_, _| {},
                ),
            };
            acc_mask |= bit(pred);
            acc = self.insert(acc_mask, Arc::new(narrowed));
        }
        Ok(acc)
    }

    /// The index scan of a predicate equal to `predicate`, if built.
    fn built_scan(&self, predicate: &Predicate) -> Option<Arc<SelectionBitmap>> {
        let pred = self.query.predicates.iter().position(|p| p == predicate)?;
        self.sets.lock().get(&bit(pred)).cloned()
    }

    /// The index scan of predicate `pred`, built on first use.
    fn scan(&self, pred: usize, fact: &ExecTable<'_>) -> Result<Arc<SelectionBitmap>> {
        if let Some(set) = self.sets.lock().get(&bit(pred)) {
            return Ok(Arc::clone(set));
        }
        let scan = scan_index_bitmap(
            &self.query.predicates[pred],
            fact,
            &mut WorkProfile::default(),
        )?;
        Ok(self.insert(bit(pred), scan))
    }

    fn insert(&self, mask: u64, set: Arc<SelectionBitmap>) -> Arc<SelectionBitmap> {
        Arc::clone(self.sets.lock().entry(mask).or_insert(set))
    }

    /// Binned counts of the result set named by `mask`, computed once.
    fn bins(
        &self,
        mask: u64,
        set: &SelectionBitmap,
        geo: &[crate::types::GeoPoint],
        grid: &crate::query::BinGrid,
    ) -> Arc<BinnedAccum> {
        if let Some((m, bins)) = &*self.bins.lock() {
            if *m == mask {
                return Arc::clone(bins);
            }
        }
        let bins = Arc::new(compiled::bin_counts_iter(
            grid,
            geo,
            set.iter(),
            set.len(),
            true,
        ));
        *self.bins.lock() = Some((mask, Arc::clone(&bins)));
        bins
    }

    /// What executing `plan` over `fact` would report: the same work profile,
    /// and (when `materialize`) the same result bytes.
    pub(crate) fn execute(
        &self,
        plan: &PhysicalPlan,
        fact: &ExecTable<'_>,
        materialize: bool,
    ) -> Result<ExecOutcome> {
        let mut work = WorkProfile::default();
        let mut mask = 0u64;
        if plan.index_preds.is_empty() {
            // Sequential scan: every predicate, in query order.
            work.seq_rows = self.rows as u64;
            for pred in 0..self.counts.len() {
                work.filter_evals += self.count(mask, fact)? as u64;
                mask |= bit(pred);
            }
        } else {
            let mut lens = Vec::with_capacity(plan.index_preds.len());
            for &pred in &plan.index_preds {
                mask |= self.pred_bit(pred)?;
                let count = self.counts[pred];
                work.index_probes += 1;
                work.index_entries += count as u64;
                lens.push(count);
            }
            work.intersect_entries += intersect_skip_charge(&lens);
            work.heap_fetches = self.count(mask, fact)? as u64;
            for &pred in &plan.filter_preds {
                work.filter_evals += self.count(mask, fact)? as u64;
                mask |= self.pred_bit(pred)?;
            }
        }
        let result_set = self.set(mask, fact)?;
        let result_rows = result_set.len();
        let result = match &self.query.output {
            OutputKind::Points {
                id_attr,
                point_attr,
            } => {
                work.output_rows += result_rows as u64;
                if materialize {
                    let geo = fact.table.geo_slice(*point_attr)?;
                    let ids = fact.table.int_slice(*id_attr).ok();
                    let mut points = Vec::with_capacity(result_rows);
                    for rid in result_set.iter() {
                        let id = ids.map_or(rid as i64, |s| s[rid as usize]);
                        points.push((id, geo[rid as usize]));
                    }
                    QueryResult::Points(points)
                } else {
                    QueryResult::Count(result_rows as u64)
                }
            }
            OutputKind::BinnedCounts { point_attr, grid } => {
                work.grouped_rows += result_rows as u64;
                let geo = fact.table.geo_slice(*point_attr)?;
                let bins = self.bins(mask, &result_set, geo, grid);
                work.output_rows += bins.distinct_bins;
                match (&bins.pairs, materialize) {
                    (Some(pairs), true) => QueryResult::Bins(pairs.clone()),
                    _ => QueryResult::Count(result_rows as u64),
                }
            }
            OutputKind::Count => {
                work.output_rows += 1;
                QueryResult::Count(result_rows as u64)
            }
        };
        Ok(ExecOutcome {
            result,
            work,
            result_rows,
        })
    }
}

/// The last [`MEMO_CAPACITY`] lattices a database built, oldest first.
/// Lookups take the lock, compare at most [`MEMO_CAPACITY`] entries and clone
/// one `Arc`; they never allocate (the deque is sized once, up front).
pub(crate) struct LatticeMemo {
    entries: Mutex<VecDeque<Arc<SelectionLattice>>>,
}

impl Default for LatticeMemo {
    fn default() -> Self {
        Self {
            entries: Mutex::new(VecDeque::with_capacity(MEMO_CAPACITY)),
        }
    }
}

impl LatticeMemo {
    /// The memoised lattice of `query`, if any.
    pub(crate) fn get(&self, query: &Query, fingerprint: u64) -> Option<Arc<SelectionLattice>> {
        self.entries
            .lock()
            .iter()
            .find(|lattice| lattice.is_for(query, fingerprint))
            .cloned()
    }

    /// The lattice of `query` (whose fingerprint is `fingerprint`) over
    /// `fact`: the memoised one, or a new one, memoised; `None` when its dry
    /// runs cannot be derived. A new lattice starts with the index scans the
    /// memoised lattices of the same table already hold for identical
    /// predicates (dashboards re-filter the same keywords and ranges), so
    /// related queries share work.
    pub(crate) fn get_or_build(
        &self,
        query: &Query,
        fingerprint: u64,
        fact: &ExecTable<'_>,
    ) -> Result<Option<Arc<SelectionLattice>>> {
        if let Some(lattice) = self.get(query, fingerprint) {
            return Ok(Some(lattice));
        }
        let Some(lattice) = SelectionLattice::build(query, fingerprint, fact)? else {
            return Ok(None);
        };
        let others: Vec<Arc<SelectionLattice>> = self.entries.lock().iter().cloned().collect();
        for (pred, predicate) in query.predicates.iter().enumerate() {
            let shared = others
                .iter()
                .filter(|other| other.query.table == query.table)
                .find_map(|other| other.built_scan(predicate));
            if let Some(scan) = shared {
                lattice.insert(bit(pred), scan);
            }
        }
        Ok(Some(self.insert(lattice)))
    }

    /// Memoises `lattice` unless its query already has one, evicting the
    /// oldest entry when full, and returns the canonical lattice.
    fn insert(&self, lattice: SelectionLattice) -> Arc<SelectionLattice> {
        let mut entries = self.entries.lock();
        if let Some(existing) = entries
            .iter()
            .find(|l| l.is_for(&lattice.query, lattice.fingerprint))
        {
            return Arc::clone(existing);
        }
        if entries.len() >= MEMO_CAPACITY {
            entries.pop_front();
        }
        let lattice = Arc::new(lattice);
        entries.push_back(Arc::clone(&lattice));
        lattice
    }

    /// Drops every lattice.
    pub(crate) fn clear(&self) {
        self.entries.lock().clear();
    }

    /// Number of memoised lattices.
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().len()
    }
}
