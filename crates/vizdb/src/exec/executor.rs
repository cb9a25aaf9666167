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
use crate::index::{intersect_adaptive, intersect_skip_charge, BPlusTree, InvertedIndex, RTree};
use crate::plan::PhysicalPlan;
use crate::query::{BinGrid, OutputKind, Predicate, Query};
use crate::storage::{SampleTable, Table};
use crate::timing::{hash_unit, WorkProfile};
use crate::types::{GeoPoint, RecordId, TokenId};

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

/// Phase-1 candidate selection: either "scan everything" or the rows surviving
/// the plan's index predicates, in the representation the engine works in.
enum Candidates {
    /// No index predicates — phase 2 runs a sequential scan.
    Seq,
    /// Sorted record ids (interpreter and compiled id-vector engines).
    Ids(Vec<RecordId>),
    /// Bitmap selection (compiled bitmap engine); shared when it is one
    /// index's stored postings.
    Bitmap(Arc<SelectionBitmap>),
}

/// Phase-2 output: the qualifying rows, still in engine representation. Both
/// variants enumerate ids in ascending order, so the output phases are
/// representation-agnostic.
enum Qualified {
    Ids(Vec<RecordId>),
    Bitmap(SelectionBitmap),
}

impl Qualified {
    fn len(&self) -> usize {
        match self {
            Qualified::Ids(v) => v.len(),
            Qualified::Bitmap(b) => b.len(),
        }
    }

    fn iter(&self) -> Box<dyn Iterator<Item = RecordId> + '_> {
        match self {
            Qualified::Ids(v) => Box::new(v.iter().copied()),
            Qualified::Bitmap(b) => Box::new(b.iter()),
        }
    }

    fn into_ids(self) -> Vec<RecordId> {
        match self {
            Qualified::Ids(v) => v,
            Qualified::Bitmap(b) => b.to_vec(),
        }
    }
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
/// The compiled engines lower the residual predicates once and bin bounded
/// grids densely; the id-vector variant evaluates them over record-id batches
/// with a selection-vector loop, the bitmap variant carries candidates as
/// [`SelectionBitmap`]s and refines 4096-row chunks over 64-bit words. All
/// three are observationally identical (same [`QueryResult`] bytes, same
/// [`WorkProfile`]), which the `exec_equivalence` property suite pins. Queries
/// whose predicates cannot compile (type mismatch, bad attribute) silently
/// take the interpreter path so error behaviour is identical too.
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

    // Normalise the parallel engine: `ParallelBitmap` *is* the compiled bitmap
    // engine plus a worker count. Every engine decision below keys off
    // `engine == CompiledBitmap`; the morsel-parallel branches additionally key
    // off `par_threads > 1` and are byte-identical to the sequential ones by
    // the `exec::parallel` determinism contract.
    let (engine, par_threads) = match engine {
        ExecEngine::ParallelBitmap { threads } => (ExecEngine::CompiledBitmap, threads.max(1)),
        other => (other, 1),
    };

    // Resolve the row restriction induced by sampling approximation rules.
    let restriction = SampleRestriction::resolve(plan, fact)?;

    // Phase 1: candidate record ids on the fact table, in engine representation.
    let candidates = if plan.index_preds.is_empty() {
        Candidates::Seq // sequential scan handled in phase 2
    } else if engine == ExecEngine::CompiledBitmap {
        Candidates::Bitmap(index_candidates_bitmap(
            query,
            plan,
            fact,
            &restriction,
            &mut work,
        )?)
    } else {
        Candidates::Ids(index_candidates(
            query,
            plan,
            fact,
            &restriction,
            &mut work,
        )?)
    };

    // Phase 2: qualify rows (residual predicates), honouring the LIMIT cap.
    // Id vectors are pre-sized from the planner's cardinality estimate instead
    // of growing from empty (bounded by the cap and the table itself).
    let cap = limit_rows.unwrap_or(usize::MAX).max(1);
    let reserve = (plan.est_rows as usize)
        .min(cap)
        .min(fact.table.row_count());
    let mut qualified = match candidates {
        Candidates::Ids(cands) => {
            let mut qualifying: Vec<RecordId> = Vec::with_capacity(reserve);
            let residual = compile_residual(query, &plan.filter_preds, fact, engine);
            match residual {
                // Uncapped: every candidate is heap-fetched, so batches are exact.
                Some(preds) if limit_rows.is_none() => compiled::qualify_slice(
                    &preds,
                    &cands,
                    &mut qualifying,
                    &mut work,
                    |w, rows| w.heap_fetches += rows,
                ),
                // Capped: row-at-a-time so rows past the cap stay untouched,
                // exactly like the interpreter.
                Some(preds) => {
                    for rid in cands {
                        work.heap_fetches += 1;
                        if compiled::eval_row(&preds, rid, &mut work) {
                            qualifying.push(rid);
                            if qualifying.len() >= cap {
                                break;
                            }
                        }
                    }
                }
                None => {
                    let tokens = resolve_keyword_tokens(query, fact.table);
                    for rid in cands {
                        work.heap_fetches += 1;
                        if eval_preds(
                            query,
                            &plan.filter_preds,
                            &tokens,
                            fact.table,
                            rid,
                            &mut work,
                        )? {
                            qualifying.push(rid);
                            if qualifying.len() >= cap {
                                break;
                            }
                        }
                    }
                }
            }
            Qualified::Ids(qualifying)
        }
        Candidates::Bitmap(cands) => {
            let residual = compile_residual(query, &plan.filter_preds, fact, engine);
            match residual {
                // Uncapped: refine the candidate bitmap chunk-by-chunk; every
                // candidate is heap-fetched, charged per chunk popcount.
                Some(preds) if limit_rows.is_none() => {
                    Qualified::Bitmap(if par_threads > 1 {
                        parallel::qualify_bitmap_par(
                            &preds,
                            &cands,
                            par_threads,
                            &mut work,
                            |w, rows| w.heap_fetches += rows,
                        )
                    } else {
                        // Output chunks cannot exceed the candidate chunks or
                        // (one row per chunk at worst) the estimated rows.
                        let chunk_hint = cands.chunk_count().min(reserve.max(1));
                        compiled::qualify_bitmap(
                            &preds,
                            &cands,
                            chunk_hint,
                            &mut work,
                            |w, rows| w.heap_fetches += rows,
                        )
                    })
                }
                // Capped: row-at-a-time over the bitmap iterator so rows past
                // the cap stay untouched, exactly like the interpreter.
                Some(preds) => {
                    let mut qualifying: Vec<RecordId> = Vec::with_capacity(reserve);
                    if par_threads > 1 {
                        parallel::qualify_capped_bitmap_par(
                            &preds,
                            &cands,
                            cap,
                            |w| w.heap_fetches += 1,
                            par_threads,
                            &mut work,
                            &mut qualifying,
                        );
                    } else {
                        for rid in cands.iter() {
                            work.heap_fetches += 1;
                            if compiled::eval_row(&preds, rid, &mut work) {
                                qualifying.push(rid);
                                if qualifying.len() >= cap {
                                    break;
                                }
                            }
                        }
                    }
                    Qualified::Ids(qualifying)
                }
                // Uncompilable residual: interpreter loop over the bitmap
                // iterator (same ascending order as the id-vector path).
                None => {
                    let tokens = resolve_keyword_tokens(query, fact.table);
                    let mut qualifying: Vec<RecordId> = Vec::with_capacity(reserve);
                    for rid in cands.iter() {
                        work.heap_fetches += 1;
                        if eval_preds(
                            query,
                            &plan.filter_preds,
                            &tokens,
                            fact.table,
                            rid,
                            &mut work,
                        )? {
                            qualifying.push(rid);
                            if qualifying.len() >= cap {
                                break;
                            }
                        }
                    }
                    Qualified::Ids(qualifying)
                }
            }
        }
        Candidates::Seq => {
            // Sequential scan over the (possibly sampled) table.
            let row_count = fact.table.row_count() as RecordId;
            let boxed_iter = || -> Box<dyn Iterator<Item = RecordId> + '_> {
                match &restriction {
                    SampleRestriction::All => Box::new(0..row_count),
                    SampleRestriction::SampleRows(rows) => Box::new(rows.iter().copied()),
                    SampleRestriction::HashFraction(frac) => {
                        let frac = *frac;
                        Box::new(
                            (0..row_count)
                                .filter(move |&rid| hash_unit(rid as u64 ^ 0x5EED) < frac),
                        )
                    }
                }
            };
            let all_preds: Vec<usize> = (0..query.predicate_count()).collect();
            let residual = compile_residual(query, &all_preds, fact, engine);
            match residual {
                // Uncapped: the batch entry point matching the restriction shape
                // (contiguous range, materialised id list, filtered stream). The
                // bitmap engine takes the columnar word-fill kernel on the
                // unrestricted contiguous scan — the hottest shape — and the
                // id-vector entry points on sampled scans, whose accounting is
                // identical by construction.
                Some(preds) if limit_rows.is_none() => {
                    let seq = |w: &mut WorkProfile, rows: u64| w.seq_rows += rows;
                    match &restriction {
                        SampleRestriction::All if engine == ExecEngine::CompiledBitmap => {
                            Qualified::Bitmap(if par_threads > 1 {
                                parallel::qualify_range_bitmap_par(
                                    &preds,
                                    0..row_count,
                                    par_threads,
                                    &mut work,
                                    seq,
                                )
                            } else {
                                let chunks = (row_count as usize).div_ceil(CHUNK_BITS);
                                compiled::qualify_range_bitmap(
                                    &preds,
                                    0..row_count,
                                    chunks.min(reserve.max(1)),
                                    &mut work,
                                    seq,
                                )
                            })
                        }
                        SampleRestriction::All => {
                            let mut qualifying: Vec<RecordId> = Vec::with_capacity(reserve);
                            compiled::qualify_range(
                                &preds,
                                0..row_count,
                                &mut qualifying,
                                &mut work,
                                seq,
                            );
                            Qualified::Ids(qualifying)
                        }
                        SampleRestriction::SampleRows(rows) => {
                            let mut qualifying: Vec<RecordId> = Vec::with_capacity(reserve);
                            if par_threads > 1 {
                                parallel::qualify_slice_par(
                                    &preds,
                                    rows,
                                    par_threads,
                                    &mut qualifying,
                                    &mut work,
                                    seq,
                                );
                            } else {
                                compiled::qualify_slice(
                                    &preds,
                                    rows,
                                    &mut qualifying,
                                    &mut work,
                                    seq,
                                );
                            }
                            Qualified::Ids(qualifying)
                        }
                        SampleRestriction::HashFraction(_) => {
                            let mut qualifying: Vec<RecordId> = Vec::with_capacity(reserve);
                            if par_threads > 1 {
                                // Materialising the filtered stream is uncharged
                                // on both engines, and slice morsels batch ids in
                                // the same 1024-row groups as the stream entry
                                // point — identical charges by construction.
                                let ids: Vec<RecordId> = boxed_iter().collect();
                                parallel::qualify_slice_par(
                                    &preds,
                                    &ids,
                                    par_threads,
                                    &mut qualifying,
                                    &mut work,
                                    seq,
                                );
                            } else {
                                compiled::qualify_batches(
                                    &preds,
                                    boxed_iter(),
                                    &mut qualifying,
                                    &mut work,
                                    seq,
                                );
                            }
                            Qualified::Ids(qualifying)
                        }
                    }
                }
                Some(preds) => {
                    let mut qualifying: Vec<RecordId> = Vec::with_capacity(reserve);
                    if par_threads > 1 {
                        let charge: fn(&mut WorkProfile) = |w| w.seq_rows += 1;
                        match &restriction {
                            SampleRestriction::All => parallel::qualify_capped_range_par(
                                &preds,
                                0..row_count,
                                cap,
                                charge,
                                par_threads,
                                &mut work,
                                &mut qualifying,
                            ),
                            SampleRestriction::SampleRows(rows) => {
                                parallel::qualify_capped_slice_par(
                                    &preds,
                                    rows,
                                    cap,
                                    charge,
                                    par_threads,
                                    &mut work,
                                    &mut qualifying,
                                )
                            }
                            SampleRestriction::HashFraction(_) => {
                                let ids: Vec<RecordId> = boxed_iter().collect();
                                parallel::qualify_capped_slice_par(
                                    &preds,
                                    &ids,
                                    cap,
                                    charge,
                                    par_threads,
                                    &mut work,
                                    &mut qualifying,
                                )
                            }
                        }
                    } else {
                        for rid in boxed_iter() {
                            work.seq_rows += 1;
                            if compiled::eval_row(&preds, rid, &mut work) {
                                qualifying.push(rid);
                                if qualifying.len() >= cap {
                                    break;
                                }
                            }
                        }
                    }
                    Qualified::Ids(qualifying)
                }
                None => {
                    let tokens = resolve_keyword_tokens(query, fact.table);
                    let mut qualifying: Vec<RecordId> = Vec::with_capacity(reserve);
                    for rid in boxed_iter() {
                        work.seq_rows += 1;
                        if eval_preds(query, &all_preds, &tokens, fact.table, rid, &mut work)? {
                            qualifying.push(rid);
                            if qualifying.len() >= cap {
                                break;
                            }
                        }
                    }
                    Qualified::Ids(qualifying)
                }
            }
        }
    };

    // Phase 3: join with the dimension table (id-vector representation — join
    // probing is inherently row-at-a-time).
    if let Some(join_plan) = &plan.join {
        let spec = query
            .join
            .as_ref()
            .ok_or_else(|| Error::InvalidQuery("plan has a join but the query does not".into()))?;
        let dim = dim.ok_or_else(|| Error::TableNotFound(join_plan.right_table.clone()))?;
        let fact_rows = qualified.into_ids();
        qualified = Qualified::Ids(execute_join(
            query,
            join_plan.method,
            spec,
            &fact_rows,
            fact,
            dim,
            engine,
            &mut work,
        )?);
    }

    let result_rows = qualified.len();

    // Phase 4: shape the output. Both representations enumerate ids ascending,
    // so the output bytes cannot depend on the engine.
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
                            match (&qualified, par_threads > 1) {
                                (Qualified::Bitmap(b), true) => {
                                    parallel::gather_points_par(b, ids, geo, par_threads)
                                }
                                _ => {
                                    let mut points = Vec::with_capacity(result_rows);
                                    for rid in qualified.iter() {
                                        let id = ids.map_or(rid as i64, |s| s[rid as usize]);
                                        points.push((id, geo[rid as usize]));
                                    }
                                    points
                                }
                            }
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
                    Ok(geo) => match (&qualified, par_threads > 1) {
                        (Qualified::Bitmap(b), true) => {
                            parallel::bin_counts_par(grid, geo, b, materialize, par_threads)
                        }
                        _ => compiled::bin_counts_iter(
                            grid,
                            geo,
                            qualified.iter(),
                            result_rows,
                            materialize,
                        ),
                    },
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
/// propagation, also the compiled engines' fallback when the geo column fails
/// to bind (so the binding error surfaces on the same row it would on the
/// interpreter).
fn gather_points_rows(
    table: &Table,
    id_attr: usize,
    point_attr: usize,
    qualified: &Qualified,
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

    fn filter(&self, rids: Vec<RecordId>) -> Vec<RecordId> {
        match self {
            SampleRestriction::All => rids,
            SampleRestriction::SampleRows(rows) => rids
                .into_iter()
                .filter(|rid| rows.binary_search(rid).is_ok())
                .collect(),
            SampleRestriction::HashFraction(frac) => rids
                .into_iter()
                .filter(|&rid| hash_unit(rid as u64 ^ 0x5EED) < *frac)
                .collect(),
        }
    }
}

/// Runs the index scans of the plan, intersects the record-id lists and applies the
/// sample restriction.
fn index_candidates(
    query: &Query,
    plan: &PhysicalPlan,
    fact: &ExecTable<'_>,
    restriction: &SampleRestriction<'_>,
    work: &mut WorkProfile,
) -> Result<Vec<RecordId>> {
    let mut lists: Vec<Vec<RecordId>> = Vec::with_capacity(plan.index_preds.len());
    for &pred_idx in &plan.index_preds {
        let pred = query
            .predicates
            .get(pred_idx)
            .ok_or(Error::InvalidAttribute(pred_idx))?;
        let rids = scan_index(pred, fact, work)?;
        lists.push(rids);
    }
    if lists.len() > 1 {
        // Charge the skip/gallop model the executor actually runs — the same
        // formula (intersect_skip_charge) the optimizer's predict_work uses,
        // so charged intersection work always matches predicted work.
        let lens: Vec<usize> = lists.iter().map(|l| l.len()).collect();
        work.intersect_entries += intersect_skip_charge(&lens);
    }
    let candidates = intersect_adaptive(&lists);
    Ok(restriction.filter(candidates))
}

/// Bitmap-engine twin of [`index_candidates`]: runs the plan's index scans as
/// bitmap lookups, intersects with word-wise AND (smallest first, early-out on
/// empty) and applies the sample restriction. Probe/entry/intersect accounting
/// is identical to the id-vector path — the bitmap lookups report the same
/// [`crate::index::ScanStats`] and the intersection charge is the same
/// [`intersect_skip_charge`] over the same list lengths.
fn index_candidates_bitmap(
    query: &Query,
    plan: &PhysicalPlan,
    fact: &ExecTable<'_>,
    restriction: &SampleRestriction<'_>,
    work: &mut WorkProfile,
) -> Result<Arc<SelectionBitmap>> {
    let mut lists: Vec<Arc<SelectionBitmap>> = Vec::with_capacity(plan.index_preds.len());
    for &pred_idx in &plan.index_preds {
        let pred = query
            .predicates
            .get(pred_idx)
            .ok_or(Error::InvalidAttribute(pred_idx))?;
        lists.push(scan_index_bitmap(pred, fact, work)?);
    }
    if lists.len() > 1 {
        let lens: Vec<usize> = lists.iter().map(|l| l.len()).collect();
        work.intersect_entries += intersect_skip_charge(&lens);
    }
    lists.sort_by_key(|l| l.len());
    let mut iter = lists.into_iter();
    let mut acc = iter.next().unwrap_or_default();
    for list in iter {
        if acc.is_empty() {
            break;
        }
        acc = Arc::new(acc.and(&list));
    }
    match restriction {
        SampleRestriction::All => {}
        SampleRestriction::SampleRows(rows) => {
            Arc::make_mut(&mut acc).retain(|rid| rows.binary_search(&rid).is_ok())
        }
        SampleRestriction::HashFraction(frac) => {
            Arc::make_mut(&mut acc).retain(|rid| hash_unit(rid as u64 ^ 0x5EED) < *frac)
        }
    }
    Ok(acc)
}

/// Bitmap-engine twin of [`scan_index`]: same index lookups, same error and
/// [`WorkProfile`] behaviour, bitmap output. A keyword scan shares the
/// token's stored postings instead of building a set.
pub(crate) fn scan_index_bitmap(
    pred: &Predicate,
    fact: &ExecTable<'_>,
    work: &mut WorkProfile,
) -> Result<Arc<SelectionBitmap>> {
    work.index_probes += 1;
    let attr = pred.attr();
    match pred {
        Predicate::KeywordContains { keyword, .. } => {
            let index = fact
                .inverted
                .get(&attr)
                .ok_or_else(|| Error::IndexMissing {
                    table: fact.table.name().to_string(),
                    column: column_name(fact.table, attr),
                })?;
            match fact.table.dictionary().lookup(keyword) {
                Some(token) => {
                    let (bm, stats) = index.lookup_shared(token);
                    work.index_entries += stats.matches as u64;
                    Ok(bm)
                }
                None => Ok(Arc::default()),
            }
        }
        Predicate::TimeRange { range, .. } => {
            let index = fact.btree.get(&attr).ok_or_else(|| Error::IndexMissing {
                table: fact.table.name().to_string(),
                column: column_name(fact.table, attr),
            })?;
            let (bm, stats) = index.range_scan_bitmap(range.start, range.end);
            work.index_entries += stats.matches as u64;
            Ok(Arc::new(bm))
        }
        Predicate::NumericRange { range, .. } => {
            let index = fact.btree.get(&attr).ok_or_else(|| Error::IndexMissing {
                table: fact.table.name().to_string(),
                column: column_name(fact.table, attr),
            })?;
            let (bm, stats) = index.range_scan_bitmap(
                BPlusTree::float_key(range.lo),
                BPlusTree::float_key(range.hi),
            );
            work.index_entries += stats.matches as u64;
            Ok(Arc::new(bm))
        }
        Predicate::SpatialRange { rect, .. } => {
            let index = fact.rtree.get(&attr).ok_or_else(|| Error::IndexMissing {
                table: fact.table.name().to_string(),
                column: column_name(fact.table, attr),
            })?;
            let (bm, stats) = index.range_scan_bitmap(rect);
            work.index_entries += stats.matches as u64;
            Ok(Arc::new(bm))
        }
    }
}

/// Scans the index matching `pred` and returns the matching record ids.
fn scan_index(
    pred: &Predicate,
    fact: &ExecTable<'_>,
    work: &mut WorkProfile,
) -> Result<Vec<RecordId>> {
    work.index_probes += 1;
    let attr = pred.attr();
    match pred {
        Predicate::KeywordContains { keyword, .. } => {
            let index = fact
                .inverted
                .get(&attr)
                .ok_or_else(|| Error::IndexMissing {
                    table: fact.table.name().to_string(),
                    column: column_name(fact.table, attr),
                })?;
            match fact.table.dictionary().lookup(keyword) {
                Some(token) => {
                    let (rids, stats) = index.lookup(token);
                    work.index_entries += stats.matches as u64;
                    Ok(rids)
                }
                None => Ok(Vec::new()),
            }
        }
        Predicate::TimeRange { range, .. } => {
            let index = fact.btree.get(&attr).ok_or_else(|| Error::IndexMissing {
                table: fact.table.name().to_string(),
                column: column_name(fact.table, attr),
            })?;
            let (rids, stats) = index.range_scan(range.start, range.end);
            work.index_entries += stats.matches as u64;
            Ok(rids)
        }
        Predicate::NumericRange { range, .. } => {
            let index = fact.btree.get(&attr).ok_or_else(|| Error::IndexMissing {
                table: fact.table.name().to_string(),
                column: column_name(fact.table, attr),
            })?;
            let (rids, stats) = index.range_scan(
                BPlusTree::float_key(range.lo),
                BPlusTree::float_key(range.hi),
            );
            work.index_entries += stats.matches as u64;
            Ok(rids)
        }
        Predicate::SpatialRange { rect, .. } => {
            let index = fact.rtree.get(&attr).ok_or_else(|| Error::IndexMissing {
                table: fact.table.name().to_string(),
                column: column_name(fact.table, attr),
            })?;
            let (rids, stats) = index.range_scan(rect);
            work.index_entries += stats.matches as u64;
            Ok(rids)
        }
    }
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
/// On the compiled engines the dimension predicates are lowered once via
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
        let outs: Vec<ExecOutcome> = [
            ExecEngine::Interpreted,
            ExecEngine::CompiledIdVec,
            ExecEngine::CompiledBitmap,
        ]
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
