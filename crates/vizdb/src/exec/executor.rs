//! The physical-plan executor.
//!
//! The executor performs *real* work against the in-memory tables and indexes
//! (index scans, record-id intersections, residual filtering, joins, binning) and
//! reports exact operation counts in a [`WorkProfile`]. The simulated execution time is
//! derived from those counts by [`crate::timing::execution_time_ms`]; the materialised
//! [`QueryResult`] is what the visualization quality functions consume.

use std::collections::HashMap;
use std::sync::Arc;

use crate::approx::ApproxRule;
use crate::bitmap::{SelectionBitmap, CHUNK_BITS};
use crate::error::{Error, Result};
use crate::exec::compiled::{self, ExecEngine};
use crate::exec::parallel;
use crate::exec::result::QueryResult;
use crate::hints::JoinMethod;
use crate::index::{intersect_bitmaps, intersect_skip_charge, BPlusTree, InvertedIndex, RTree};
use crate::plan::PhysicalPlan;
use crate::query::{BinGrid, OutputKind, Predicate, Query};
use crate::storage::{SampleTable, Table};
use crate::timing::{hash_unit, WorkProfile};
use crate::types::{GeoPoint, GeoRect, RecordId, TokenId};

/// Borrowed view over everything the executor needs for one table.
#[derive(Clone, Copy)]
pub struct ExecTable<'a> {
    /// The table data.
    pub table: &'a Table,
    /// B+-tree indexes keyed by column index (timestamps and numeric columns).
    pub btree: &'a HashMap<usize, BPlusTree>,
    /// R-tree indexes keyed by column index (geo columns).
    pub rtree: &'a HashMap<usize, RTree>,
    /// Inverted indexes keyed by column index (text columns).
    pub inverted: &'a HashMap<usize, InvertedIndex>,
    /// Pre-built sample tables keyed by sampling percentage.
    pub samples: &'a HashMap<u32, SampleTable>,
}

/// The outcome of executing a plan.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Materialised result (a bare count when `materialize` was false).
    pub result: QueryResult,
    /// Exact operation counts performed.
    pub work: WorkProfile,
    /// Number of qualifying fact rows (before binning, after joins and limits).
    pub result_rows: usize,
}

/// Executes `plan` for `query` over `fact` (and `dim` for join queries).
///
/// `limit_rows` caps the number of qualifying rows processed (used by the LIMIT
/// approximation rule); `materialize` controls whether points/bins are collected or
/// only counted.
pub fn execute(
    query: &Query,
    plan: &PhysicalPlan,
    fact: &ExecTable<'_>,
    dim: Option<&ExecTable<'_>>,
    limit_rows: Option<usize>,
    materialize: bool,
) -> Result<ExecOutcome> {
    execute_with(
        query,
        plan,
        fact,
        dim,
        limit_rows,
        materialize,
        ExecEngine::default(),
    )
}

/// [`execute`] with an explicit choice of execution engine.
///
/// Every candidate set — the rows an index plan's scans leave, the whole
/// table, a sample's rows — is a [`SelectionBitmap`]. The compiled engine
/// lowers the residual predicates once, refines the candidates 4096-row chunk
/// by chunk over 64-bit words and bins bounded grids densely; the interpreter
/// evaluates each candidate row by row. Both are observationally identical
/// (same [`QueryResult`] bytes, same [`WorkProfile`]) at every thread count,
/// which the `exec_equivalence` and `parallel_equivalence` suites pin.
/// Queries whose predicates cannot compile (type mismatch, bad attribute)
/// silently take the interpreter loop so error behaviour is identical too.
pub fn execute_with(
    query: &Query,
    plan: &PhysicalPlan,
    fact: &ExecTable<'_>,
    dim: Option<&ExecTable<'_>>,
    limit_rows: Option<usize>,
    materialize: bool,
    engine: ExecEngine,
) -> Result<ExecOutcome> {
    validate_output(query)?;
    let mut work = WorkProfile::default();
    let threads = engine.threads();
    let restriction = SampleRestriction::resolve(plan, fact)?;
    let row_count = fact.table.row_count() as RecordId;

    // Phase 1: the candidate rows. A sequential scan visits the (possibly
    // sampled) table and evaluates every predicate, charging `seq_rows`; an
    // index plan fetches the rows its index scans leave and evaluates the
    // residual predicates, charging `heap_fetches`. `None` is the whole
    // table, built as a bitmap only when a path needs one.
    let seq_scan = plan.index_preds.is_empty();
    let candidates = if seq_scan {
        restriction.scan_rows(row_count).map(Arc::new)
    } else {
        Some(index_candidates(
            query,
            plan,
            fact,
            &restriction,
            engine,
            &mut work,
        )?)
    };
    let all_preds: Vec<usize>;
    let pred_indices: &[usize] = if seq_scan {
        all_preds = (0..query.predicate_count()).collect();
        &all_preds
    } else {
        &plan.filter_preds
    };
    let batch_charge: fn(&mut WorkProfile, u64) = if seq_scan {
        |w, rows| w.seq_rows += rows
    } else {
        |w, rows| w.heap_fetches += rows
    };
    let row_charge: fn(&mut WorkProfile) = if seq_scan {
        |w| w.seq_rows += 1
    } else {
        |w| w.heap_fetches += 1
    };

    // Phase 2: qualify rows, honouring the LIMIT cap. Output chunks cannot
    // exceed the candidate chunks or (one row per chunk at worst) the
    // estimated rows, which pre-size the result.
    let cap = limit_rows.unwrap_or(usize::MAX).max(1);
    let reserve = (plan.est_rows as usize)
        .min(cap)
        .min(fact.table.row_count())
        .max(1);
    let residual = compile_residual(query, pred_indices, fact, engine);
    let mut qualified = match (residual, candidates) {
        // Uncapped, unrestricted sequential scan: the columnar word-fill
        // kernel over the contiguous row range — the hottest shape.
        (Some(preds), None) if limit_rows.is_none() => parallel::qualify_range_bitmap_par(
            &preds,
            0..row_count,
            threads,
            (row_count as usize).div_ceil(CHUNK_BITS).min(reserve),
            &mut work,
            batch_charge,
        ),
        // Uncapped: refine the candidates chunk by chunk, each candidate
        // charged through its chunk's popcount.
        (Some(preds), Some(cands)) if limit_rows.is_none() => parallel::qualify_bitmap_par(
            &preds,
            &cands,
            threads,
            cands.chunk_count().min(reserve),
            &mut work,
            batch_charge,
        ),
        (residual, cands) => {
            let cands =
                cands.unwrap_or_else(|| Arc::new(SelectionBitmap::full(row_count as usize)));
            let qualifying = match residual {
                // Capped: row-at-a-time so rows past the cap stay untouched,
                // exactly like the interpreter.
                Some(preds) => parallel::qualify_capped_bitmap_par(
                    &preds, &cands, cap, row_charge, threads, &mut work,
                ),
                // The interpreter, or predicates that cannot compile.
                None => {
                    let tokens = resolve_keyword_tokens(query, fact.table);
                    let mut qualifying: Vec<RecordId> = Vec::with_capacity(reserve);
                    for rid in cands.iter() {
                        row_charge(&mut work);
                        if eval_preds(query, pred_indices, &tokens, fact.table, rid, &mut work)? {
                            qualifying.push(rid);
                            if qualifying.len() >= cap {
                                break;
                            }
                        }
                    }
                    qualifying
                }
            };
            SelectionBitmap::from_sorted(&qualifying)
        }
    };

    // Phase 3: join with the dimension table (join probing is inherently
    // row-at-a-time; every join method returns its fact rows ascending).
    if let Some(join_plan) = &plan.join {
        let spec = query
            .join
            .as_ref()
            .ok_or_else(|| Error::InvalidQuery("plan has a join but the query does not".into()))?;
        let dim = dim.ok_or_else(|| Error::TableNotFound(join_plan.right_table.clone()))?;
        qualified = SelectionBitmap::from_sorted(&execute_join(
            query,
            join_plan.method,
            spec,
            &qualified.to_vec(),
            fact,
            dim,
            engine,
            &mut work,
        )?);
    }

    let result_rows = qualified.len();

    // Phase 4: shape the output from the ascending qualified ids.
    let result = match &query.output {
        OutputKind::Points {
            id_attr,
            point_attr,
        } => {
            work.output_rows += result_rows as u64;
            if materialize {
                let points = if engine.is_compiled() {
                    // Bind the columns once and gather over slices; a failed
                    // geo binding falls back to the per-row path, which reports
                    // the same error on the same row the interpreter would,
                    // and a failed id binding falls back to the record id per
                    // row, mirroring the interpreter's `unwrap_or`.
                    match fact.table.geo_slice(*point_attr) {
                        Ok(geo) => {
                            let ids = fact.table.int_slice(*id_attr).ok();
                            parallel::gather_points_par(&qualified, ids, geo, threads)
                        }
                        Err(_) => gather_points_rows(
                            fact.table,
                            *id_attr,
                            *point_attr,
                            &qualified,
                            result_rows,
                        )?,
                    }
                } else {
                    gather_points_rows(fact.table, *id_attr, *point_attr, &qualified, result_rows)?
                };
                QueryResult::Points(points)
            } else {
                QueryResult::Count(result_rows as u64)
            }
        }
        OutputKind::BinnedCounts { point_attr, grid } => {
            work.grouped_rows += result_rows as u64;
            let binned = if engine.is_compiled() {
                // Bind the geo column once and bin densely; a failed binding
                // falls back to the per-row path, which reports the same error
                // the interpreter would.
                match fact.table.geo_slice(*point_attr) {
                    Ok(geo) => {
                        parallel::bin_counts_par(grid, geo, &qualified, materialize, threads)
                    }
                    Err(_) => binned_accum(
                        fact.table,
                        *point_attr,
                        grid,
                        qualified.iter(),
                        result_rows,
                        materialize,
                    )?,
                }
            } else {
                binned_accum(
                    fact.table,
                    *point_attr,
                    grid,
                    qualified.iter(),
                    result_rows,
                    materialize,
                )?
            };
            work.output_rows += binned.distinct_bins;
            match binned.pairs {
                Some(pairs) => QueryResult::Bins(pairs),
                None => QueryResult::Count(result_rows as u64),
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

/// Rejects output shapes no row can be binned into (see [`BinGrid::validate`])
/// before any work is done. Every execution path — the engines here and the
/// selection lattice ([`crate::exec::lattice`]) — checks through this one
/// function, so they fail with the same error.
pub(crate) fn validate_output(query: &Query) -> Result<()> {
    match &query.output {
        OutputKind::BinnedCounts { grid, .. } => grid.validate(),
        OutputKind::Points { .. } | OutputKind::Count => Ok(()),
    }
}

/// Lowers the residual predicate list for the compiled engine; `None` routes to
/// the interpreter (either by request or because a predicate failed to bind its
/// column, e.g. a type mismatch the interpreter must surface per row).
fn compile_residual<'a>(
    query: &Query,
    indices: &[usize],
    fact: &ExecTable<'a>,
    engine: ExecEngine,
) -> Option<Vec<compiled::CompiledPredicate<'a>>> {
    if engine.is_compiled() {
        compiled::compile_predicates(&query.predicates, indices, fact).ok()
    } else {
        None
    }
}

/// Interpreter-path `Points` materialisation: per-row accessors with error
/// propagation, also the compiled engine's fallback when the geo column fails
/// to bind (so the binding error surfaces on the same row it would on the
/// interpreter).
fn gather_points_rows(
    table: &Table,
    id_attr: usize,
    point_attr: usize,
    qualified: &SelectionBitmap,
    result_rows: usize,
) -> Result<Vec<(i64, GeoPoint)>> {
    let mut points = Vec::with_capacity(result_rows);
    for rid in qualified.iter() {
        let id = table.int(id_attr, rid).unwrap_or(rid as i64);
        let p = table.geo(point_attr, rid)?;
        points.push((id, p));
    }
    Ok(points)
}

/// Interpreter-path binning: per-row geo access with error propagation, then
/// the shared sparse accumulation ([`compiled::sparse_bin_accum`]), so all
/// engines bin through one implementation.
fn binned_accum(
    table: &Table,
    point_attr: usize,
    grid: &BinGrid,
    qualifying: impl Iterator<Item = RecordId>,
    row_count: usize,
    materialize: bool,
) -> Result<compiled::BinnedAccum> {
    let mut points = Vec::with_capacity(row_count);
    for rid in qualifying {
        points.push(table.geo(point_attr, rid)?);
    }
    Ok(compiled::sparse_bin_accum(
        grid,
        points.into_iter(),
        materialize,
    ))
}

/// How sampling approximation rules restrict the scanned rows.
enum SampleRestriction<'a> {
    All,
    SampleRows(&'a [RecordId]),
    HashFraction(f64),
}

impl<'a> SampleRestriction<'a> {
    fn resolve(plan: &PhysicalPlan, fact: &ExecTable<'a>) -> Result<Self> {
        match plan.approx {
            Some(ApproxRule::SampleTable { fraction_pct }) => {
                let sample =
                    fact.samples
                        .get(&fraction_pct)
                        .ok_or_else(|| Error::SampleMissing {
                            table: plan.table.clone(),
                            fraction_pct,
                        })?;
                Ok(SampleRestriction::SampleRows(sample.row_ids()))
            }
            Some(ApproxRule::TableSample { fraction_pct }) => {
                Ok(SampleRestriction::HashFraction(fraction_pct as f64 / 100.0))
            }
            _ => Ok(SampleRestriction::All),
        }
    }

    /// Whether the restriction keeps row `rid`.
    fn keeps(&self, rid: RecordId) -> bool {
        match self {
            SampleRestriction::All => true,
            SampleRestriction::SampleRows(rows) => rows.binary_search(&rid).is_ok(),
            SampleRestriction::HashFraction(frac) => hash_unit(rid as u64 ^ 0x5EED) < *frac,
        }
    }

    /// The rows a sequential scan over a table of `row_count` rows visits;
    /// `None` is every row.
    fn scan_rows(&self, row_count: RecordId) -> Option<SelectionBitmap> {
        match self {
            SampleRestriction::All => None,
            SampleRestriction::SampleRows(rows) => Some(SelectionBitmap::from_sorted(rows)),
            SampleRestriction::HashFraction(_) => {
                let mut rows = SelectionBitmap::full(row_count as usize);
                rows.retain(|rid| self.keeps(rid));
                Some(rows)
            }
        }
    }
}

/// Runs the plan's index scans, intersects them and applies the sample
/// restriction. Each scan is charged its probe and entries
/// ([`crate::index::ScanStats`]), the intersection [`intersect_skip_charge`]
/// over the scans' lengths. The compiled engine scans into bitmaps and ANDs
/// them ([`intersect_bitmaps`]). The interpreter keeps its own path — `Vec`
/// scans, a sorted merge and a per-id restriction filter — so the equivalence
/// suites check the compiled candidates against an independent reference.
fn index_candidates(
    query: &Query,
    plan: &PhysicalPlan,
    fact: &ExecTable<'_>,
    restriction: &SampleRestriction<'_>,
    engine: ExecEngine,
    work: &mut WorkProfile,
) -> Result<Arc<SelectionBitmap>> {
    let preds = plan
        .index_preds
        .iter()
        .map(|&i| query.predicates.get(i).ok_or(Error::InvalidAttribute(i)));
    if engine.is_compiled() {
        let mut sets = Vec::with_capacity(plan.index_preds.len());
        for pred in preds {
            sets.push(scan_index_bitmap(pred?, fact, work)?);
        }
        let lens: Vec<usize> = sets.iter().map(|s| s.len()).collect();
        work.intersect_entries += intersect_skip_charge(&lens);
        let mut candidates = intersect_bitmaps(sets);
        if !matches!(restriction, SampleRestriction::All) {
            Arc::make_mut(&mut candidates).retain(|rid| restriction.keeps(rid));
        }
        Ok(candidates)
    } else {
        let mut lists = Vec::with_capacity(plan.index_preds.len());
        for pred in preds {
            lists.push(scan_index_ids(pred?, fact, work)?);
        }
        let lens: Vec<usize> = lists.iter().map(Vec::len).collect();
        work.intersect_entries += intersect_skip_charge(&lens);
        let mut lists = lists.into_iter();
        let mut ids = lists.next().unwrap_or_default();
        for list in lists {
            ids = merge_common(&ids, &list);
        }
        ids.retain(|&rid| restriction.keeps(rid));
        Ok(Arc::new(SelectionBitmap::from_sorted(&ids)))
    }
}

/// The ids two ascending lists share, by a two-pointer merge.
fn merge_common(a: &[RecordId], b: &[RecordId]) -> Vec<RecordId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The index that answers an index predicate, with its probe bounds.
enum IndexProbe<'a> {
    /// An inverted index and the keyword's token (`None`: not in the
    /// dictionary, so no row matches).
    Keyword(&'a InvertedIndex, Option<TokenId>),
    Range(&'a BPlusTree, i64, i64),
    Spatial(&'a RTree, GeoRect),
}

/// Finds the index that answers `pred`, charging one probe.
fn index_probe<'a>(
    pred: &Predicate,
    fact: &ExecTable<'a>,
    work: &mut WorkProfile,
) -> Result<IndexProbe<'a>> {
    work.index_probes += 1;
    let attr = pred.attr();
    let missing = || Error::IndexMissing {
        table: fact.table.name().to_string(),
        column: column_name(fact.table, attr),
    };
    Ok(match pred {
        Predicate::KeywordContains { keyword, .. } => IndexProbe::Keyword(
            fact.inverted.get(&attr).ok_or_else(missing)?,
            fact.table.dictionary().lookup(keyword),
        ),
        Predicate::TimeRange { range, .. } => IndexProbe::Range(
            fact.btree.get(&attr).ok_or_else(missing)?,
            range.start,
            range.end,
        ),
        Predicate::NumericRange { range, .. } => IndexProbe::Range(
            fact.btree.get(&attr).ok_or_else(missing)?,
            BPlusTree::float_key(range.lo),
            BPlusTree::float_key(range.hi),
        ),
        Predicate::SpatialRange { rect, .. } => {
            IndexProbe::Spatial(fact.rtree.get(&attr).ok_or_else(missing)?, *rect)
        }
    })
}

/// Scans the index matching `pred` and returns the matching record ids as a
/// bitmap. A keyword scan shares the token's stored postings instead of
/// building a set.
pub(crate) fn scan_index_bitmap(
    pred: &Predicate,
    fact: &ExecTable<'_>,
    work: &mut WorkProfile,
) -> Result<Arc<SelectionBitmap>> {
    let (rows, stats) = match index_probe(pred, fact, work)? {
        IndexProbe::Keyword(index, Some(token)) => index.lookup_shared(token),
        IndexProbe::Keyword(_, None) => Default::default(),
        IndexProbe::Range(index, lo, hi) => {
            let (rows, stats) = index.range_scan_bitmap(lo, hi);
            (Arc::new(rows), stats)
        }
        IndexProbe::Spatial(index, rect) => {
            let (rows, stats) = index.range_scan_bitmap(&rect);
            (Arc::new(rows), stats)
        }
    };
    work.index_entries += stats.matches as u64;
    Ok(rows)
}

/// The interpreter's [`scan_index_bitmap`]: the same probe and charge, the
/// matching record ids as an ascending `Vec`.
fn scan_index_ids(
    pred: &Predicate,
    fact: &ExecTable<'_>,
    work: &mut WorkProfile,
) -> Result<Vec<RecordId>> {
    let (rows, stats) = match index_probe(pred, fact, work)? {
        IndexProbe::Keyword(index, Some(token)) => index.lookup(token),
        IndexProbe::Keyword(_, None) => Default::default(),
        IndexProbe::Range(index, lo, hi) => index.range_scan(lo, hi),
        IndexProbe::Spatial(index, rect) => index.range_scan(&rect),
    };
    work.index_entries += stats.matches as u64;
    Ok(rows)
}

fn column_name(table: &Table, attr: usize) -> String {
    table
        .schema()
        .column_name(attr)
        .unwrap_or("<unknown>")
        .to_string()
}

/// Resolves the dictionary token of every keyword predicate once per execution,
/// so the interpreter's row loop never touches the dictionary. Entries for
/// non-keyword predicates are `None` and unused.
pub(crate) fn resolve_keyword_tokens(query: &Query, table: &Table) -> Vec<Option<TokenId>> {
    query
        .predicates
        .iter()
        .map(|p| resolve_keyword_token(p, table))
        .collect()
}

/// The pre-resolved dictionary token of a keyword predicate (`None` for other
/// predicate kinds and for keywords absent from the dictionary).
pub(crate) fn resolve_keyword_token(pred: &Predicate, table: &Table) -> Option<TokenId> {
    match pred {
        Predicate::KeywordContains { keyword, .. } => table.dictionary().lookup(keyword),
        _ => None,
    }
}

/// Evaluates the predicates at `pred_indices` against row `rid`, counting every
/// evaluation performed (short-circuiting on the first failure). `tokens` holds
/// the per-predicate pre-resolved keyword tokens from [`resolve_keyword_tokens`].
fn eval_preds(
    query: &Query,
    pred_indices: &[usize],
    tokens: &[Option<TokenId>],
    table: &Table,
    rid: RecordId,
    work: &mut WorkProfile,
) -> Result<bool> {
    for &i in pred_indices {
        let pred = query.predicates.get(i).ok_or(Error::InvalidAttribute(i))?;
        work.filter_evals += 1;
        if !eval_resolved(pred, tokens.get(i).copied().flatten(), table, rid)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Evaluates one predicate against one row, with the keyword token already
/// resolved by the caller (hoisted out of the row loop).
pub(crate) fn eval_resolved(
    pred: &Predicate,
    token: Option<TokenId>,
    table: &Table,
    rid: RecordId,
) -> Result<bool> {
    match pred {
        Predicate::KeywordContains { attr, .. } => match token {
            Some(token) => table.text_contains(*attr, rid, token),
            None => Ok(false),
        },
        Predicate::TimeRange { attr, range } => Ok(range.contains(table.timestamp(*attr, rid)?)),
        Predicate::NumericRange { attr, range } => Ok(range.contains(table.numeric(*attr, rid)?)),
        Predicate::SpatialRange { attr, rect } => Ok(rect.contains(&table.geo(*attr, rid)?)),
    }
}

/// Evaluates one predicate against one row, resolving the keyword token on the
/// spot. One-shot callers only — loops should hoist via [`resolve_keyword_token`].
#[cfg(test)]
pub(crate) fn eval_predicate(pred: &Predicate, table: &Table, rid: RecordId) -> Result<bool> {
    eval_resolved(pred, resolve_keyword_token(pred, table), table, rid)
}

/// Executes the join of qualifying fact rows with the dimension table and returns the
/// fact rows whose dimension match passes the dimension predicates.
///
/// On the compiled engine the dimension predicates are lowered once via
/// [`compiled::compile_predicates`] and evaluated with [`compiled::eval_row`]
/// (same per-predicate `filter_evals` charge, same short-circuit order); a
/// failed compilation falls back to the interpreter loop so error behaviour
/// is identical per row.
#[allow(clippy::too_many_arguments)]
fn execute_join(
    _query: &Query,
    method: JoinMethod,
    spec: &crate::query::JoinSpec,
    fact_rows: &[RecordId],
    fact: &ExecTable<'_>,
    dim: &ExecTable<'_>,
    engine: ExecEngine,
    work: &mut WorkProfile,
) -> Result<Vec<RecordId>> {
    let dim_rows = dim.table.row_count();
    let right_indices: Vec<usize> = (0..spec.right_predicates.len()).collect();
    let compiled_right = if engine.is_compiled() {
        compiled::compile_predicates(&spec.right_predicates, &right_indices, dim).ok()
    } else {
        None
    };
    // Resolve keyword tokens of the dimension predicates once, not per dim row.
    let right_tokens: Vec<Option<TokenId>> = spec
        .right_predicates
        .iter()
        .map(|p| resolve_keyword_token(p, dim.table))
        .collect();
    let eval_right = |rid: RecordId, work: &mut WorkProfile| -> Result<bool> {
        if let Some(preds) = &compiled_right {
            return Ok(compiled::eval_row(preds, rid, work));
        }
        for (pred, &token) in spec.right_predicates.iter().zip(&right_tokens) {
            work.filter_evals += 1;
            if !eval_resolved(pred, token, dim.table, rid)? {
                return Ok(false);
            }
        }
        Ok(true)
    };
    match method {
        JoinMethod::Hash => {
            // Build: hash every dimension row that passes the dimension predicates.
            work.hash_build_rows += dim_rows as u64;
            let mut hash: HashMap<i64, RecordId> = HashMap::with_capacity(dim_rows);
            for rid in 0..dim_rows as RecordId {
                if eval_right(rid, work)? {
                    hash.insert(dim.table.int(spec.right_attr, rid)?, rid);
                }
            }
            // Probe.
            let mut out = Vec::with_capacity(fact_rows.len());
            for &rid in fact_rows {
                work.hash_probe_rows += 1;
                let key = fact.table.int(spec.left_attr, rid)?;
                if hash.contains_key(&key) {
                    out.push(rid);
                }
            }
            Ok(out)
        }
        JoinMethod::NestLoop => {
            // Index nested loop: probe the dimension key index per fact row; fall back
            // to a lazily built lookup map when no index exists.
            let key_index = dim.btree.get(&spec.right_attr);
            let fallback: Option<HashMap<i64, RecordId>> = if key_index.is_none() {
                let mut m = HashMap::with_capacity(dim_rows);
                for rid in 0..dim_rows as RecordId {
                    m.insert(dim.table.int(spec.right_attr, rid)?, rid);
                }
                Some(m)
            } else {
                None
            };
            let mut out = Vec::with_capacity(fact_rows.len());
            for &rid in fact_rows {
                work.nl_probe_rows += 1;
                let key = fact.table.int(spec.left_attr, rid)?;
                let dim_rid = match (key_index, &fallback) {
                    (Some(index), _) => {
                        let (rids, _) = index.range_scan(key, key);
                        rids.first().copied()
                    }
                    (None, Some(map)) => map.get(&key).copied(),
                    (None, None) => None,
                };
                if let Some(drid) = dim_rid {
                    if eval_right(drid, work)? {
                        out.push(rid);
                    }
                }
            }
            Ok(out)
        }
        JoinMethod::Merge => {
            // Sort both sides on the join key, then merge.
            let left_n = fact_rows.len().max(2) as f64;
            let right_n = dim_rows.max(2) as f64;
            work.merge_weighted_rows +=
                (fact_rows.len() as f64 * left_n.log2() + dim_rows as f64 * right_n.log2()) as u64;

            let mut left: Vec<(i64, RecordId)> = fact_rows
                .iter()
                .map(|&rid| Ok((fact.table.int(spec.left_attr, rid)?, rid)))
                .collect::<Result<_>>()?;
            left.sort_unstable();
            let mut right: Vec<(i64, RecordId)> = (0..dim_rows as RecordId)
                .map(|rid| Ok((dim.table.int(spec.right_attr, rid)?, rid)))
                .collect::<Result<_>>()?;
            right.sort_unstable();

            let mut out = Vec::with_capacity(fact_rows.len());
            let (mut i, mut j) = (0usize, 0usize);
            while i < left.len() && j < right.len() {
                match left[i].0.cmp(&right[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let drid = right[j].1;
                        if eval_right(drid, work)? {
                            out.push(left[i].1);
                        }
                        i += 1;
                    }
                }
            }
            out.sort_unstable();
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::HintSet;
    use crate::optimizer::{Planner, TableMeta};
    use crate::query::BinGrid;
    use crate::schema::{ColumnType, TableSchema};
    use crate::stats::TableStats;
    use crate::storage::TableBuilder;
    use crate::timing::CostParams;
    use crate::types::GeoRect;
    use std::collections::HashSet;

    struct Fixture {
        table: Table,
        btree: HashMap<usize, BPlusTree>,
        rtree: HashMap<usize, RTree>,
        inverted: HashMap<usize, InvertedIndex>,
        samples: HashMap<u32, SampleTable>,
    }

    impl Fixture {
        fn exec_table(&self) -> ExecTable<'_> {
            ExecTable {
                table: &self.table,
                btree: &self.btree,
                rtree: &self.rtree,
                inverted: &self.inverted,
                samples: &self.samples,
            }
        }
    }

    /// 1000 tweets: timestamps 0..1000, coordinates on a line, keyword "covid" on
    /// multiples of 4, user_id = rid % 50.
    fn tweets_fixture() -> Fixture {
        let schema = TableSchema::new("tweets")
            .with_column("id", ColumnType::Int)
            .with_column("created_at", ColumnType::Timestamp)
            .with_column("coordinates", ColumnType::Geo)
            .with_column("text", ColumnType::Text)
            .with_column("user_id", ColumnType::Int);
        let mut b = TableBuilder::new(schema);
        for i in 0..1000i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("created_at", i);
                row.set_geo("coordinates", -120.0 + (i as f64) * 0.01, 35.0);
                row.set_text(
                    "text",
                    if i % 4 == 0 {
                        &["covid", "news"]
                    } else {
                        &["news"]
                    },
                );
                row.set_int("user_id", i % 50);
            });
        }
        let table = b.build();
        let mut btree = HashMap::new();
        btree.insert(
            1,
            BPlusTree::build(
                (0..table.row_count() as RecordId)
                    .map(|rid| (table.timestamp(1, rid).unwrap(), rid))
                    .collect(),
            ),
        );
        let mut rtree = HashMap::new();
        rtree.insert(
            2,
            RTree::build(
                (0..table.row_count() as RecordId)
                    .map(|rid| (table.geo(2, rid).unwrap(), rid))
                    .collect(),
            ),
        );
        let mut inverted = HashMap::new();
        inverted.insert(
            3,
            InvertedIndex::build(
                &(0..table.row_count() as RecordId)
                    .map(|rid| table.text(3, rid).unwrap().to_vec())
                    .collect::<Vec<_>>(),
            ),
        );
        let mut samples = HashMap::new();
        samples.insert(20, SampleTable::build("tweets", table.row_count(), 20, 1));
        Fixture {
            table,
            btree,
            rtree,
            inverted,
            samples,
        }
    }

    fn users_fixture() -> Fixture {
        let schema = TableSchema::new("users")
            .with_column("id", ColumnType::Int)
            .with_column("tweet_count", ColumnType::Int);
        let mut b = TableBuilder::new(schema);
        for i in 0..50i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_int("tweet_count", i * 10);
            });
        }
        let table = b.build();
        let mut btree = HashMap::new();
        btree.insert(
            0,
            BPlusTree::build(
                (0..table.row_count() as RecordId)
                    .map(|rid| (table.int(0, rid).unwrap(), rid))
                    .collect(),
            ),
        );
        Fixture {
            table,
            btree,
            rtree: HashMap::new(),
            inverted: HashMap::new(),
            samples: HashMap::new(),
        }
    }

    fn base_query() -> Query {
        Query::select("tweets")
            .filter(Predicate::keyword(3, "covid"))
            .filter(Predicate::time_range(1, 100, 499))
            .filter(Predicate::spatial_range(
                2,
                GeoRect::new(-121.0, 30.0, -100.0, 40.0),
            ))
            .output(OutputKind::Points {
                id_attr: 0,
                point_attr: 2,
            })
    }

    fn plan_with(f: &Fixture, q: &Query, mask: u32) -> PhysicalPlan {
        let stats = TableStats::analyze(&f.table).unwrap();
        let indexed: HashSet<usize> = [1usize, 2, 3].into_iter().collect();
        let meta = TableMeta {
            stats: &stats,
            dictionary: f.table.dictionary(),
            indexed_columns: &indexed,
            row_count: f.table.row_count(),
        };
        Planner::new(CostParams::default(), 1.0, 0).plan(
            q,
            &HintSet::with_mask(mask),
            None,
            &meta,
            None,
            42,
        )
    }

    #[test]
    fn full_scan_and_index_plans_agree_on_results() {
        let f = tweets_fixture();
        let q = base_query();
        let exec_t = f.exec_table();
        let expected: usize = 100; // timestamps 100..=499 with i % 4 == 0
        for mask in 0..8u32 {
            let plan = plan_with(&f, &q, mask);
            let out = execute(&q, &plan, &exec_t, None, None, true).unwrap();
            assert_eq!(out.result_rows, expected, "mask {mask}");
            match out.result {
                QueryResult::Points(points) => assert_eq!(points.len(), expected),
                other => panic!("unexpected result {other:?}"),
            }
        }
    }

    #[test]
    fn work_profiles_differ_between_plans() {
        let f = tweets_fixture();
        let q = base_query();
        let exec_t = f.exec_table();
        let full = execute(&q, &plan_with(&f, &q, 0), &exec_t, None, None, false).unwrap();
        let idx = execute(&q, &plan_with(&f, &q, 0b010), &exec_t, None, None, false).unwrap();
        assert!(full.work.seq_rows == 1000);
        assert!(idx.work.seq_rows == 0);
        assert_eq!(idx.work.index_probes, 1);
        assert_eq!(idx.work.heap_fetches, 400); // timestamps 100..=499
    }

    #[test]
    fn engines_agree_on_multi_predicate_index_plan() {
        let f = tweets_fixture();
        let q = base_query();
        let exec_t = f.exec_table();
        // Index the time and spatial predicates; keyword stays residual.
        let plan = plan_with(&f, &q, 0b110);
        assert_eq!(plan.index_preds.len(), 2, "expected a multi-index plan");
        let outs: Vec<ExecOutcome> = [ExecEngine::Interpreted, ExecEngine::default()]
            .into_iter()
            .map(|e| execute_with(&q, &plan, &exec_t, None, None, true, e).unwrap())
            .collect();
        for out in &outs[1..] {
            assert_eq!(out.result, outs[0].result);
            assert_eq!(out.work, outs[0].work);
            assert_eq!(out.result_rows, outs[0].result_rows);
        }
        // Time matches rows 100..=499 (400), spatial matches all 1000; their
        // intersection is heap-fetched, then the keyword residual is evaluated
        // once per fetched row — identical leaf/heap accounting on every engine.
        assert_eq!(outs[0].work.index_probes, 2);
        assert_eq!(outs[0].work.index_entries, 1400);
        assert_eq!(outs[0].work.heap_fetches, 400);
        assert_eq!(outs[0].work.filter_evals, 400);
        assert_eq!(outs[0].work.seq_rows, 0);
        // The charged intersection work is exactly the skip/gallop formula over
        // the scanned list lengths — the same number predict_work estimates.
        assert_eq!(
            outs[0].work.intersect_entries,
            intersect_skip_charge(&[400, 1000])
        );
    }

    #[test]
    fn binned_output_counts_points_per_bin() {
        let f = tweets_fixture();
        let q = Query::select("tweets")
            .filter(Predicate::time_range(1, 0, 999))
            .output(OutputKind::BinnedCounts {
                point_attr: 2,
                grid: BinGrid::new(GeoRect::new(-120.0, 34.0, -110.0, 36.0), 10, 1),
            });
        let plan = plan_with(&f, &q, 0b1);
        let out = execute(&q, &plan, &f.exec_table(), None, None, true).unwrap();
        match out.result {
            QueryResult::Bins(bins) => {
                let total: u64 = bins.iter().map(|(_, c)| c).sum();
                assert_eq!(total, 1000);
                assert!(bins.len() <= 10);
            }
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn sample_plan_returns_subset() {
        let f = tweets_fixture();
        let q = base_query();
        let mut plan = plan_with(&f, &q, 0b111);
        plan.approx = Some(ApproxRule::SampleTable { fraction_pct: 20 });
        let out = execute(&q, &plan, &f.exec_table(), None, None, true).unwrap();
        assert!(out.result_rows < 100);
        assert!(out.result_rows > 0);
    }

    #[test]
    fn missing_sample_table_is_an_error() {
        let f = tweets_fixture();
        let q = base_query();
        let mut plan = plan_with(&f, &q, 0b111);
        plan.approx = Some(ApproxRule::SampleTable { fraction_pct: 40 });
        let err = execute(&q, &plan, &f.exec_table(), None, None, true).unwrap_err();
        assert!(matches!(
            err,
            Error::SampleMissing {
                fraction_pct: 40,
                ..
            }
        ));
    }

    #[test]
    fn limit_caps_result_rows() {
        let f = tweets_fixture();
        let q = base_query();
        let plan = plan_with(&f, &q, 0b010);
        let out = execute(&q, &plan, &f.exec_table(), None, Some(10), true).unwrap();
        assert_eq!(out.result_rows, 10);
    }

    #[test]
    fn tablesample_rule_uses_hash_filter() {
        let f = tweets_fixture();
        let q = Query::select("tweets")
            .filter(Predicate::time_range(1, 0, 999))
            .output(OutputKind::Count);
        let mut plan = plan_with(&f, &q, 0b1);
        plan.approx = Some(ApproxRule::TableSample { fraction_pct: 50 });
        let out = execute(&q, &plan, &f.exec_table(), None, None, true).unwrap();
        let kept = out.result_rows as f64 / 1000.0;
        assert!((0.3..0.7).contains(&kept), "kept fraction {kept}");
    }

    /// A sampled sequential scan visits exactly the sample's rows — a
    /// `SampleTable`'s ids, or the rows the `TABLESAMPLE` hash keeps — in id
    /// order, and charges each visited row to `seq_rows`, never to
    /// `heap_fetches`, on every engine, with and without a LIMIT cap.
    #[test]
    fn sampled_seq_scans_charge_seq_rows_per_kept_row() {
        let f = tweets_fixture();
        let q = Query::select("tweets")
            .filter(Predicate::time_range(1, 100, 899))
            .output(OutputKind::Points {
                id_attr: 0,
                point_attr: 2,
            });
        let mut plan = plan_with(&f, &q, 0);
        assert!(plan.index_preds.is_empty(), "expected a sequential scan");
        let hash_kept: Vec<RecordId> = (0..1000)
            .filter(|&rid| hash_unit(rid as u64 ^ 0x5EED) < 0.5)
            .collect();
        for (rule, visited) in [
            (
                ApproxRule::SampleTable { fraction_pct: 20 },
                f.samples[&20].row_ids().to_vec(),
            ),
            (ApproxRule::TableSample { fraction_pct: 50 }, hash_kept),
        ] {
            plan.approx = Some(rule);
            let matches: Vec<RecordId> = visited
                .iter()
                .copied()
                .filter(|rid| (100..=899).contains(rid))
                .collect();
            let cap = 5;
            let stop = visited.iter().position(|&r| r == matches[cap - 1]).unwrap() + 1;
            for engine in [
                ExecEngine::Interpreted,
                ExecEngine::default(),
                ExecEngine::Compiled { threads: 4 },
            ] {
                for (limit, rows, seq_rows) in [
                    (None, &matches[..], visited.len()),
                    (Some(cap), &matches[..cap], stop),
                ] {
                    let out = execute_with(&q, &plan, &f.exec_table(), None, limit, true, engine)
                        .unwrap();
                    let what = format!("{rule:?} {engine:?} limit {limit:?}");
                    let ids: Vec<RecordId> = match &out.result {
                        QueryResult::Points(points) => {
                            points.iter().map(|&(id, _)| id as RecordId).collect()
                        }
                        other => panic!("unexpected result {other:?}"),
                    };
                    assert_eq!(ids, rows, "{what}");
                    assert_eq!(out.work.seq_rows, seq_rows as u64, "{what}");
                    assert_eq!(out.work.filter_evals, seq_rows as u64, "{what}");
                    assert_eq!(out.work.heap_fetches, 0, "{what}");
                }
            }
        }
    }

    /// A sampled index plan fetches exactly the index matches the sample
    /// keeps — a `SampleTable`'s ids, or the rows the `TABLESAMPLE` hash keeps
    /// — in id order, and charges each fetched row to `heap_fetches`, never to
    /// `seq_rows`, on every engine, with and without a LIMIT cap, whether the
    /// keyword is a residual or a second index scan.
    #[test]
    fn sampled_index_scans_charge_heap_fetches_per_kept_row() {
        let f = tweets_fixture();
        let q = Query::select("tweets")
            .filter(Predicate::time_range(1, 100, 899))
            .filter(Predicate::keyword(3, "covid"))
            .output(OutputKind::Points {
                id_attr: 0,
                point_attr: 2,
            });
        let hash_kept: Vec<RecordId> = (0..1000)
            .filter(|&rid| hash_unit(rid as u64 ^ 0x5EED) < 0.5)
            .collect();
        for (mask, index_preds, residuals) in [(0b01, vec![0], 1), (0b11, vec![0, 1], 0)] {
            let mut plan = plan_with(&f, &q, mask);
            assert_eq!(plan.index_preds, index_preds, "mask {mask:#b}");
            for (rule, kept) in [
                (
                    ApproxRule::SampleTable { fraction_pct: 20 },
                    f.samples[&20].row_ids().to_vec(),
                ),
                (
                    ApproxRule::TableSample { fraction_pct: 50 },
                    hash_kept.clone(),
                ),
            ] {
                plan.approx = Some(rule);
                let fetched: Vec<RecordId> = kept
                    .iter()
                    .copied()
                    .filter(|rid| (100..=899).contains(rid) && (residuals == 1 || rid % 4 == 0))
                    .collect();
                let matches: Vec<RecordId> =
                    fetched.iter().copied().filter(|rid| rid % 4 == 0).collect();
                let cap = 5;
                let stop = fetched.iter().position(|&r| r == matches[cap - 1]).unwrap() + 1;
                for engine in [
                    ExecEngine::Interpreted,
                    ExecEngine::default(),
                    ExecEngine::Compiled { threads: 4 },
                ] {
                    for (limit, rows, heap_fetches) in [
                        (None, &matches[..], fetched.len()),
                        (Some(cap), &matches[..cap], stop),
                    ] {
                        let out =
                            execute_with(&q, &plan, &f.exec_table(), None, limit, true, engine)
                                .unwrap();
                        let what = format!("mask {mask:#b} {rule:?} {engine:?} limit {limit:?}");
                        let ids: Vec<RecordId> = match &out.result {
                            QueryResult::Points(points) => {
                                points.iter().map(|&(id, _)| id as RecordId).collect()
                            }
                            other => panic!("unexpected result {other:?}"),
                        };
                        assert_eq!(ids, rows, "{what}");
                        assert_eq!(out.work.heap_fetches, heap_fetches as u64, "{what}");
                        assert_eq!(
                            out.work.filter_evals,
                            (heap_fetches * residuals) as u64,
                            "{what}"
                        );
                        assert_eq!(out.work.seq_rows, 0, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn join_methods_return_identical_results() {
        let tweets = tweets_fixture();
        let users = users_fixture();
        let q = base_query().join_with(crate::query::JoinSpec {
            right_table: "users".into(),
            left_attr: 4,
            right_attr: 0,
            right_predicates: vec![Predicate::numeric_range(1, 0.0, 200.0)],
        });
        let mut results = Vec::new();
        for method in JoinMethod::all() {
            let mut plan = plan_with(&tweets, &q, 0b010);
            plan.join = Some(crate::plan::JoinPlan {
                method,
                right_table: "users".into(),
                left_attr: 4,
                right_attr: 0,
            });
            let out = execute(
                &q,
                &plan,
                &tweets.exec_table(),
                Some(&users.exec_table()),
                None,
                true,
            )
            .unwrap();
            results.push(out.result_rows);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert!(results[0] > 0);
        // Dimension predicate keeps users with tweet_count <= 200, i.e. ids 0..=20.
        assert!(results[0] < 100);
    }

    #[test]
    fn join_without_dim_table_errors() {
        let tweets = tweets_fixture();
        let q = base_query().join_with(crate::query::JoinSpec {
            right_table: "users".into(),
            left_attr: 4,
            right_attr: 0,
            right_predicates: vec![],
        });
        let mut plan = plan_with(&tweets, &q, 0b010);
        plan.join = Some(crate::plan::JoinPlan {
            method: JoinMethod::Hash,
            right_table: "users".into(),
            left_attr: 4,
            right_attr: 0,
        });
        assert!(execute(&q, &plan, &tweets.exec_table(), None, None, true).is_err());
    }

    #[test]
    fn unknown_keyword_returns_empty() {
        let f = tweets_fixture();
        let q = Query::select("tweets")
            .filter(Predicate::keyword(3, "doesnotexist"))
            .output(OutputKind::Count);
        let plan = plan_with(&f, &q, 0b1);
        let out = execute(&q, &plan, &f.exec_table(), None, None, true).unwrap();
        assert_eq!(out.result_rows, 0);
    }

    #[test]
    fn count_only_mode_skips_materialization() {
        let f = tweets_fixture();
        let q = base_query();
        let plan = plan_with(&f, &q, 0b111);
        let out = execute(&q, &plan, &f.exec_table(), None, None, false).unwrap();
        assert!(matches!(out.result, QueryResult::Count(100)));
    }
}
