//! The `Database` facade: catalog, index management, planning, execution and the
//! simulated-time cache.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::approx::ApproxRule;
use crate::cache::FingerprintCache;
use crate::error::{Error, Result};
use crate::exec::lattice::{self, LatticeMemo, SelectionLattice};
use crate::exec::{execute_with, ExecEngine, ExecTable, QueryResult};
use crate::fingerprint::{predicate_fingerprint, query_fingerprint, rewrite_fingerprint};
use crate::hints::{enumerate_hint_sets, RewriteOption};
use crate::index::{BPlusTree, InvertedIndex, RTree};
use crate::optimizer::{estimate_selectivity, Planner, TableMeta};
use crate::plan::PhysicalPlan;
use crate::query::{render_sql, Predicate, Query};
use crate::schema::{ColumnType, TableSchema};
use crate::stats::TableStats;
use crate::storage::{ColumnData, SampleTable, Table};
use crate::timing::{apply_profile_noise, execution_time_ms, CostParams, WorkProfile};
use crate::types::RecordId;

pub use crate::timing::DbProfile;

/// Configuration of a simulated database instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DbConfig {
    /// Behavioural profile (PostgreSQL-like or commercial-like, see [`DbProfile`]).
    pub profile: DbProfile,
    /// Probability that the engine follows a provided hint set (1.0 = always).
    pub hint_adherence: f64,
    /// Seed for all deterministic pseudo-randomness (sampling, adherence, noise).
    pub seed: u64,
    /// Millisecond cost constants of the execution engine.
    pub cost_params: CostParams,
    /// Worker threads for the morsel-driven parallel bitmap engine. `1` (the
    /// default) runs the sequential [`ExecEngine::CompiledBitmap`]; higher
    /// counts run [`ExecEngine::ParallelBitmap`], whose results, work profile
    /// and simulated time are byte-identical at every thread count (only
    /// wall-clock changes). The calling thread participates as a worker.
    pub exec_threads: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        Self {
            profile: DbProfile::Postgres,
            hint_adherence: 1.0,
            seed: 42,
            cost_params: CostParams::default(),
            exec_threads: 1,
        }
    }
}

impl DbConfig {
    /// A commercial-database configuration (paper §7.6).
    pub fn commercial() -> Self {
        Self {
            profile: DbProfile::Commercial,
            ..Self::default()
        }
    }
}

/// The outcome of running one (rewritten) query.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Simulated execution time in milliseconds (planning time of the middleware is
    /// *not* included — that is the middleware's concern).
    pub time_ms: f64,
    /// Materialised result.
    pub result: QueryResult,
    /// The physical plan that was executed.
    pub plan: PhysicalPlan,
    /// Exact operation counts performed by the executor.
    pub work: WorkProfile,
}

/// All per-table state: data, indexes, statistics and sample tables.
struct TableEntry {
    table: Table,
    stats: TableStats,
    btree: HashMap<usize, BPlusTree>,
    rtree: HashMap<usize, RTree>,
    inverted: HashMap<usize, InvertedIndex>,
    samples: HashMap<u32, SampleTable>,
    indexed_columns: HashSet<usize>,
}

impl TableEntry {
    fn exec_table(&self) -> ExecTable<'_> {
        ExecTable {
            table: &self.table,
            btree: &self.btree,
            rtree: &self.rtree,
            inverted: &self.inverted,
            samples: &self.samples,
        }
    }

    fn meta(&self) -> TableMeta<'_> {
        TableMeta {
            stats: &self.stats,
            dictionary: self.table.dictionary(),
            indexed_columns: &self.indexed_columns,
            row_count: self.table.row_count(),
        }
    }
}

/// An in-memory analytical database instance.
pub struct Database {
    config: DbConfig,
    tables: HashMap<String, TableEntry>,
    planner: Planner,
    time_cache: FingerprintCache,
    selectivity_cache: FingerprintCache,
    /// Selection lattices of the most recently priced queries, from which
    /// exact dry runs (and the runs that follow them) are derived.
    lattices: LatticeMemo,
    /// Catalog generation: bumped by every mutation that can change execution times
    /// or cached decisions (`register_table`, `build_index`, `build_sample`), so
    /// layers above (e.g. the serving layer's decision cache) can detect staleness.
    generation: u64,
}

// The serving layer shares one `Arc<Database>` across worker threads; keep that
// contract visible at compile time (tables and planner are plain data, the
// caches synchronise internally).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
};

impl Database {
    /// Creates an empty database with the given configuration.
    pub fn new(config: DbConfig) -> Self {
        let planner = Planner::new(config.cost_params, config.hint_adherence, config.seed);
        Self {
            config,
            tables: HashMap::new(),
            planner,
            time_cache: FingerprintCache::new(),
            selectivity_cache: FingerprintCache::new(),
            lattices: LatticeMemo::default(),
            generation: 0,
        }
    }

    /// The current catalog generation. Any cached artefact derived from this
    /// database (execution times, planning decisions) is stale once the value it
    /// was computed under no longer matches.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Invalidation hook shared by every catalog mutation: bump the generation and
    /// drop every cache, whose entries were computed against the old catalog (a
    /// new index changes execution times, a new sample changes approximate
    /// rewrites, a re-registered table changes everything).
    fn invalidate(&mut self) {
        self.generation += 1;
        self.clear_caches();
    }

    /// The database configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Registers a fully loaded table (statistics are collected immediately).
    ///
    /// Returns an error when statistics collection fails (e.g. a malformed column),
    /// like its `build_index` / `build_sample` siblings, instead of panicking.
    pub fn register_table(&mut self, table: Table) -> Result<()> {
        let stats = TableStats::analyze(&table)?;
        let name = table.name().to_string();
        self.tables.insert(
            name,
            TableEntry {
                table,
                stats,
                btree: HashMap::new(),
                rtree: HashMap::new(),
                inverted: HashMap::new(),
                samples: HashMap::new(),
                indexed_columns: HashSet::new(),
            },
        );
        self.invalidate();
        Ok(())
    }

    /// The raw storage of `table` (used by the sharded backend to partition a
    /// loaded table into per-region shards).
    pub fn table(&self, table: &str) -> Result<&Table> {
        Ok(&self.entry(table)?.table)
    }

    /// The sample fractions (in percent) built for `table`, sorted ascending.
    pub fn sample_fractions(&self, table: &str) -> Result<Vec<u32>> {
        let mut fractions: Vec<u32> = self.entry(table)?.samples.keys().copied().collect();
        fractions.sort_unstable();
        Ok(fractions)
    }

    /// Names of all registered tables.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of rows in `table`.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        Ok(self.entry(table)?.table.row_count())
    }

    /// Schema of `table`.
    pub fn schema(&self, table: &str) -> Result<&TableSchema> {
        Ok(self.entry(table)?.table.schema())
    }

    /// Statistics of `table`.
    pub fn stats(&self, table: &str) -> Result<&TableStats> {
        Ok(&self.entry(table)?.stats)
    }

    /// Columns of `table` that currently have an index.
    pub fn indexed_columns(&self, table: &str) -> Result<Vec<usize>> {
        let mut cols: Vec<usize> = self.entry(table)?.indexed_columns.iter().copied().collect();
        cols.sort_unstable();
        Ok(cols)
    }

    /// Builds a secondary index on `table.column` (type-appropriate: B+-tree for
    /// numeric / timestamp, R-tree for geo, inverted index for text).
    pub fn build_index(&mut self, table: &str, column: &str) -> Result<()> {
        let entry = self
            .tables
            .get_mut(table)
            .ok_or_else(|| Error::TableNotFound(table.to_string()))?;
        let col_idx = entry.table.schema().column_index(column)?;
        let col_type = entry.table.schema().column_type(col_idx)?;
        match col_type {
            ColumnType::Timestamp => {
                let entries: Vec<(i64, RecordId)> = (0..entry.table.row_count() as RecordId)
                    .map(|rid| Ok((entry.table.timestamp(col_idx, rid)?, rid)))
                    .collect::<Result<_>>()?;
                entry.btree.insert(col_idx, BPlusTree::build(entries));
            }
            ColumnType::Int | ColumnType::Float => {
                let entries: Vec<(i64, RecordId)> = (0..entry.table.row_count() as RecordId)
                    .map(|rid| {
                        let v = entry.table.numeric(col_idx, rid)?;
                        Ok((BPlusTree::float_key(v), rid))
                    })
                    .collect::<Result<_>>()?;
                entry.btree.insert(col_idx, BPlusTree::build(entries));
            }
            ColumnType::Geo => {
                let entries: Vec<(crate::types::GeoPoint, RecordId)> = (0..entry.table.row_count()
                    as RecordId)
                    .map(|rid| Ok((entry.table.geo(col_idx, rid)?, rid)))
                    .collect::<Result<_>>()?;
                entry.rtree.insert(col_idx, RTree::build(entries));
            }
            ColumnType::Text => {
                // Build straight from the CSR-flattened column — no per-row clones.
                let index = match entry.table.column(col_idx)? {
                    ColumnData::Text(docs) => InvertedIndex::from_docs(docs.docs()),
                    other => {
                        return Err(Error::TypeMismatch {
                            column: column.to_string(),
                            expected: "text",
                            actual: other.column_type().name(),
                        })
                    }
                };
                entry.inverted.insert(col_idx, index);
            }
        }
        entry.indexed_columns.insert(col_idx);
        self.invalidate();
        Ok(())
    }

    /// Builds an index on every column of `table`.
    pub fn build_all_indexes(&mut self, table: &str) -> Result<()> {
        let columns: Vec<String> = self
            .schema(table)?
            .columns
            .iter()
            .map(|c| c.name.clone())
            .collect();
        for col in columns {
            self.build_index(table, &col)?;
        }
        Ok(())
    }

    /// Builds a `fraction_pct`% random sample of `table`.
    pub fn build_sample(&mut self, table: &str, fraction_pct: u32) -> Result<()> {
        let seed = self.config.seed;
        let entry = self
            .tables
            .get_mut(table)
            .ok_or_else(|| Error::TableNotFound(table.to_string()))?;
        let sample = SampleTable::build(table, entry.table.row_count(), fraction_pct, seed);
        entry.samples.insert(fraction_pct, sample);
        self.invalidate();
        Ok(())
    }

    /// Returns the sample table of `table` at `fraction_pct`%, if built.
    pub fn sample(&self, table: &str, fraction_pct: u32) -> Result<&SampleTable> {
        self.entry(table)?
            .samples
            .get(&fraction_pct)
            .ok_or(Error::SampleMissing {
                table: table.to_string(),
                fraction_pct,
            })
    }

    fn entry(&self, table: &str) -> Result<&TableEntry> {
        self.tables
            .get(table)
            .ok_or_else(|| Error::TableNotFound(table.to_string()))
    }

    fn dim_entry(&self, query: &Query) -> Result<Option<&TableEntry>> {
        match &query.join {
            Some(spec) => Ok(Some(self.entry(&spec.right_table)?)),
            None => Ok(None),
        }
    }

    /// Plans `query` rewritten with `ro` (hint adherence and the engine's own cost
    /// model apply exactly as they would at execution time).
    pub fn plan(&self, query: &Query, ro: &RewriteOption) -> Result<PhysicalPlan> {
        let fact = self.entry(&query.table)?;
        let dim = self.dim_entry(query)?;
        let dim_meta = dim.map(|d| d.meta());
        Ok(self.planner.plan(
            query,
            &ro.hints,
            ro.approx,
            &fact.meta(),
            dim_meta.as_ref(),
            query_fingerprint(query) ^ self.config.seed,
        ))
    }

    /// The engine's own cardinality estimate for `query` (rows after all predicates),
    /// used to size LIMIT approximation rewrites.
    pub fn estimated_cardinality(&self, query: &Query) -> Result<f64> {
        let fact = self.entry(&query.table)?;
        let meta = fact.meta();
        let mut card = fact.table.row_count() as f64;
        for pred in &query.predicates {
            card *= estimate_selectivity(&meta, pred);
        }
        if let (Some(spec), Some(dim)) = (&query.join, self.dim_entry(query)?) {
            let dmeta = dim.meta();
            for pred in &spec.right_predicates {
                card *= estimate_selectivity(&dmeta, pred);
            }
        }
        Ok(card.max(0.0))
    }

    /// The engine's estimated selectivity of a single predicate on `table`.
    pub fn estimated_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        let entry = self.entry(table)?;
        Ok(estimate_selectivity(&entry.meta(), pred))
    }

    /// The *true* selectivity of a single predicate on `table`, computed from indexes
    /// when available (exact counts) and by scanning otherwise. Results are cached
    /// uniformly (including for empty tables) through a get-or-compute helper, so
    /// concurrent workers asking for the same predicate never recompute it.
    pub fn true_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        let entry = self.entry(table)?;
        let key = (
            query_fingerprint(&Query::select(table)),
            predicate_fingerprint(pred),
        );
        self.selectivity_cache.get_or_try_compute(key, || {
            let rows = entry.table.row_count();
            if rows == 0 {
                return Ok(0.0);
            }
            let count = match lattice::index_count(pred, &entry.exec_table()) {
                Some(count) => count,
                None => self.scan_count(entry, pred)?,
            };
            Ok(count as f64 / rows as f64)
        })
    }

    fn scan_count(&self, entry: &TableEntry, pred: &Predicate) -> Result<usize> {
        // Resolve the keyword token once, not per scanned row.
        let token = crate::exec::resolve_keyword_token(pred, &entry.table);
        let mut count = 0usize;
        for rid in 0..entry.table.row_count() as RecordId {
            if crate::exec::eval_resolved(pred, token, &entry.table, rid)? {
                count += 1;
            }
        }
        Ok(count)
    }

    /// Measures the selectivity of `pred` on the `fraction_pct`% sample of `table`,
    /// returning `(selectivity estimate, rows scanned)`. This is the probe the
    /// sampling-based Approximate-QTE issues (a `count(*)` on a small sample table).
    pub fn sample_selectivity(
        &self,
        table: &str,
        pred: &Predicate,
        fraction_pct: u32,
    ) -> Result<(f64, usize)> {
        let entry = self.entry(table)?;
        let sample = entry
            .samples
            .get(&fraction_pct)
            .ok_or(Error::SampleMissing {
                table: table.to_string(),
                fraction_pct,
            })?;
        let token = crate::exec::resolve_keyword_token(pred, &entry.table);
        let mut matched = 0usize;
        for &rid in sample.row_ids() {
            if crate::exec::eval_resolved(pred, token, &entry.table, rid)? {
                matched += 1;
            }
        }
        let scanned = sample.len();
        let sel = if scanned == 0 {
            0.0
        } else {
            matched as f64 / scanned as f64
        };
        Ok((sel, scanned))
    }

    /// The engine selected by this instance's configuration: the sequential
    /// default, or [`ExecEngine::ParallelBitmap`] when
    /// [`DbConfig::exec_threads`] asks for more than one worker.
    fn default_engine(&self) -> ExecEngine {
        if self.config.exec_threads > 1 {
            ExecEngine::ParallelBitmap {
                threads: self.config.exec_threads,
            }
        } else {
            ExecEngine::default()
        }
    }

    /// Runs the rewritten query and returns its materialised result, plan, operation
    /// counts and simulated execution time. Right after the query was priced
    /// (see [`Database::execution_time_ms`]) an exact option is served from the
    /// query's selection lattice instead of executing the plan; the outcome is
    /// identical either way.
    pub fn run(&self, query: &Query, ro: &RewriteOption) -> Result<RunOutcome> {
        let query_fp = query_fingerprint(query);
        let lattice = self.lattices.get(query, query_fp);
        self.run_inner(
            query,
            query_fp,
            ro,
            true,
            self.default_engine(),
            lattice.as_deref(),
        )
    }

    /// [`Database::run`] with an explicit execution engine, which always
    /// executes the plan — the interpreter, the compiled id-vector engine and
    /// the compiled bitmap engine are observationally identical (same results,
    /// same work profile, same simulated time); the knob exists for
    /// equivalence tests and the `exec` benchmark that measures the wall-clock
    /// gaps.
    pub fn run_with_engine(
        &self,
        query: &Query,
        ro: &RewriteOption,
        engine: ExecEngine,
    ) -> Result<RunOutcome> {
        self.run_inner(query, query_fingerprint(query), ro, true, engine, None)
    }

    /// Simulated execution time of `query` rewritten with `ro`, without materialising
    /// results. Times are cached per (query, rewrite option); concurrent callers of
    /// the same key all observe the canonical (first-cached) value. Exact options
    /// are priced from the query's selection lattice (built here on first use)
    /// rather than by a dry run of the plan.
    pub fn execution_time_ms(&self, query: &Query, ro: &RewriteOption) -> Result<f64> {
        let query_fp = query_fingerprint(query);
        let key = (query_fp, rewrite_fingerprint(ro));
        if let Some(cached) = self.time_cache.get(key) {
            return Ok(cached);
        }
        let fact = self.entry(&query.table)?;
        let lattice = self
            .lattices
            .get_or_build(query, query_fp, &fact.exec_table())?;
        // `run_inner` performs the canonical insert itself (first insert wins and
        // the returned outcome carries the canonical time), so no second insert —
        // and no second key hash — is needed here.
        Ok(self
            .run_inner(
                query,
                query_fp,
                ro,
                false,
                self.default_engine(),
                lattice.as_deref(),
            )?
            .time_ms)
    }

    /// Plans and runs (or, for exact options with a `lattice`, derives) one
    /// rewritten query; `query_fp` is `query`'s fingerprint.
    fn run_inner(
        &self,
        query: &Query,
        query_fp: u64,
        ro: &RewriteOption,
        materialize: bool,
        engine: ExecEngine,
        lattice: Option<&SelectionLattice>,
    ) -> Result<RunOutcome> {
        let fact = self.entry(&query.table)?;
        let dim = self.dim_entry(query)?;
        let plan = self.plan(query, ro)?;

        let outcome = match lattice {
            Some(lattice) if SelectionLattice::derives(&plan, ro) => {
                lattice.execute(&plan, &fact.exec_table(), materialize)?
            }
            _ => {
                // Size the LIMIT approximation from the engine's estimated
                // cardinality, as in the paper ("a LIMIT clause with x% of the
                // estimated cardinality").
                let limit_rows = match ro.approx {
                    Some(rule @ ApproxRule::LimitPermille { .. }) => {
                        let est = self.estimated_cardinality(query)?;
                        let kept = rule.kept_fraction();
                        Some(((est * kept).ceil() as usize).max(1))
                    }
                    _ => query.limit,
                };
                let dim_exec = dim.map(|d| d.exec_table());
                execute_with(
                    query,
                    &plan,
                    &fact.exec_table(),
                    dim_exec.as_ref(),
                    limit_rows,
                    materialize,
                    engine,
                )?
            }
        };

        let base_ms = execution_time_ms(&outcome.work, &self.config.cost_params);
        let fp = query_fp ^ plan.signature() ^ self.config.seed;
        let time_ms =
            apply_profile_noise(base_ms, self.config.profile, &self.config.cost_params, fp);

        // Keep whichever value was cached first so racing workers report one
        // canonical time (the computation is deterministic, so they agree anyway).
        let key = (query_fp, rewrite_fingerprint(ro));
        let time_ms = self.time_cache.insert_canonical(key, time_ms);

        Ok(RunOutcome {
            time_ms,
            result: outcome.result,
            plan,
            work: outcome.work,
        })
    }

    /// The paper's query-difficulty metric: the number of hinted (exact) physical plans
    /// whose execution time is within `tau_ms`.
    pub fn viable_plan_count(&self, query: &Query, tau_ms: f64) -> Result<usize> {
        let mut count = 0usize;
        for hints in enumerate_hint_sets(query) {
            let ro = RewriteOption::hinted(hints);
            if self.execution_time_ms(query, &ro)? <= tau_ms {
                count += 1;
            }
        }
        Ok(count)
    }

    /// Renders the SQL text of `query` rewritten with `ro` (presentation only).
    pub fn render_sql(&self, query: &Query, ro: &RewriteOption) -> String {
        let schema = self.schema(&query.table).ok();
        let join_schema = query
            .join
            .as_ref()
            .and_then(|j| self.schema(&j.right_table).ok());
        render_sql(query, ro, schema, join_schema)
    }

    /// Clears the execution-time and selectivity caches and the selection-lattice
    /// memo (useful between experiments that mutate cost parameters, and between
    /// throughput runs that must each do the same amount of work).
    pub fn clear_caches(&self) {
        self.time_cache.clear();
        self.selectivity_cache.clear();
        self.lattices.clear();
    }

    /// Number of queries whose selection lattices are memoised (at most
    /// [`lattice::MEMO_CAPACITY`]).
    pub fn memoized_lattices(&self) -> usize {
        self.lattices.len()
    }

    /// Number of entries in the (execution-time, selectivity) caches, for
    /// observability and determinism assertions in tests.
    pub fn cache_entry_counts(&self) -> (usize, usize) {
        (self.time_cache.len(), self.selectivity_cache.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::HintSet;
    use crate::query::{OutputKind, Predicate};
    use crate::schema::{ColumnType, TableSchema};
    use crate::storage::TableBuilder;
    use crate::types::GeoRect;

    /// A small but skewed tweets table: keyword "covid" on 25% of rows, clustered
    /// coordinates, uniform timestamps.
    fn build_db() -> Database {
        let schema = TableSchema::new("tweets")
            .with_column("id", ColumnType::Int)
            .with_column("created_at", ColumnType::Timestamp)
            .with_column("coordinates", ColumnType::Geo)
            .with_column("text", ColumnType::Text)
            .with_column("user_id", ColumnType::Int);
        let mut b = TableBuilder::new(schema);
        for i in 0..5000i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("created_at", i * 60);
                let lon = if i % 10 < 9 {
                    -118.0 + (i % 7) as f64 * 0.1
                } else {
                    -75.0
                };
                row.set_geo("coordinates", lon, 34.0 + (i % 5) as f64 * 0.1);
                let unique = format!("u{i}");
                let words: Vec<&str> = if i % 4 == 0 {
                    vec!["covid", unique.as_str()]
                } else {
                    vec!["weather", unique.as_str()]
                };
                row.set_text("text", &words);
                row.set_int("user_id", i % 100);
            });
        }
        let mut db = Database::new(DbConfig::default());
        db.register_table(b.build()).unwrap();
        db.build_index("tweets", "created_at").unwrap();
        db.build_index("tweets", "coordinates").unwrap();
        db.build_index("tweets", "text").unwrap();
        db.build_sample("tweets", 20).unwrap();
        db.build_sample("tweets", 1).unwrap();
        db
    }

    fn base_query() -> Query {
        Query::select("tweets")
            .filter(Predicate::keyword(3, "covid"))
            .filter(Predicate::time_range(1, 0, 60 * 999))
            .filter(Predicate::spatial_range(
                2,
                GeoRect::new(-119.0, 33.0, -117.0, 35.0),
            ))
            .output(OutputKind::Points {
                id_attr: 0,
                point_attr: 2,
            })
    }

    #[test]
    fn register_and_introspect() {
        let db = build_db();
        assert_eq!(db.table_names(), vec!["tweets".to_string()]);
        assert_eq!(db.row_count("tweets").unwrap(), 5000);
        assert_eq!(db.indexed_columns("tweets").unwrap(), vec![1, 2, 3]);
        assert!(db.row_count("missing").is_err());
    }

    #[test]
    fn true_selectivity_uses_indexes() {
        let db = build_db();
        let sel = db
            .true_selectivity("tweets", &Predicate::keyword(3, "covid"))
            .unwrap();
        assert!((sel - 0.25).abs() < 0.01, "got {sel}");
        let sel_t = db
            .true_selectivity("tweets", &Predicate::time_range(1, 0, 60 * 2499))
            .unwrap();
        assert!((sel_t - 0.5).abs() < 0.01, "got {sel_t}");
    }

    #[test]
    fn estimated_selectivity_differs_from_truth_for_spatial() {
        let db = build_db();
        let rect = GeoRect::new(-119.0, 33.0, -117.0, 35.0);
        let pred = Predicate::spatial_range(2, rect);
        let truth = db.true_selectivity("tweets", &pred).unwrap();
        let est = db.estimated_selectivity("tweets", &pred).unwrap();
        assert!(
            truth > 0.5,
            "hot cluster should contain most rows, got {truth}"
        );
        assert!(
            est < truth / 2.0,
            "uniformity estimate {est} should undershoot {truth}"
        );
    }

    #[test]
    fn run_returns_consistent_results_across_hints() {
        let db = build_db();
        let q = base_query();
        let original = db.run(&q, &RewriteOption::original()).unwrap();
        let hinted = db
            .run(&q, &RewriteOption::hinted(HintSet::with_mask(0b010)))
            .unwrap();
        assert_eq!(original.result.len(), hinted.result.len());
        assert!(original.time_ms > 0.0 && hinted.time_ms > 0.0);
    }

    #[test]
    fn execution_time_is_cached_and_deterministic() {
        let db = build_db();
        let q = base_query();
        let ro = RewriteOption::hinted(HintSet::with_mask(0b001));
        let a = db.execution_time_ms(&q, &ro).unwrap();
        let b = db.execution_time_ms(&q, &ro).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_hints_lead_to_different_times() {
        let db = build_db();
        let q = base_query();
        let seq = db
            .execution_time_ms(&q, &RewriteOption::hinted(HintSet::with_mask(0)))
            .unwrap();
        let best = db
            .execution_time_ms(&q, &RewriteOption::hinted(HintSet::with_mask(0b111)))
            .unwrap();
        assert!(
            seq > best * 1.3,
            "sequential scan ({seq} ms) should be slower than all-index ({best} ms)"
        );
    }

    #[test]
    fn viable_plan_count_within_bounds() {
        let db = build_db();
        let q = base_query();
        let n = db.viable_plan_count(&q, 500.0).unwrap();
        assert!(n <= 8);
        let all = db.viable_plan_count(&q, f64::INFINITY).unwrap();
        assert_eq!(all, 8);
    }

    #[test]
    fn sample_rewrite_runs_and_is_faster() {
        let db = build_db();
        let q = base_query();
        let exact = db
            .execution_time_ms(&q, &RewriteOption::hinted(HintSet::with_mask(0)))
            .unwrap();
        let sampled = db
            .execution_time_ms(
                &q,
                &RewriteOption::approximate(
                    HintSet::with_mask(0),
                    ApproxRule::SampleTable { fraction_pct: 20 },
                ),
            )
            .unwrap();
        assert!(
            sampled < exact,
            "sampled {sampled} should beat exact {exact}"
        );
    }

    #[test]
    fn sample_selectivity_close_to_truth() {
        let db = build_db();
        let pred = Predicate::keyword(3, "covid");
        let (sel, scanned) = db.sample_selectivity("tweets", &pred, 20).unwrap();
        assert_eq!(scanned, 1000);
        assert!((sel - 0.25).abs() < 0.06, "sampled selectivity {sel}");
    }

    #[test]
    fn estimated_cardinality_positive() {
        let db = build_db();
        let card = db.estimated_cardinality(&base_query()).unwrap();
        assert!(card > 0.0);
        assert!(card < 5000.0);
    }

    #[test]
    fn commercial_profile_changes_times() {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::Int)
            .with_column("when", ColumnType::Timestamp);
        let mut b = TableBuilder::new(schema);
        for i in 0..1000i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("when", i);
            });
        }
        let table = b.build();

        let mut pg = Database::new(DbConfig::default());
        pg.register_table(table.clone()).unwrap();
        pg.build_all_indexes("t").unwrap();
        let mut com = Database::new(DbConfig::commercial());
        com.register_table(table).unwrap();
        com.build_all_indexes("t").unwrap();

        let q = Query::select("t")
            .filter(Predicate::time_range(1, 0, 500))
            .output(OutputKind::Count);
        let ro = RewriteOption::hinted(HintSet::with_mask(0b1));
        let t_pg = pg.execution_time_ms(&q, &ro).unwrap();
        let t_com = com.execution_time_ms(&q, &ro).unwrap();
        assert!(t_pg > 0.0 && t_com > 0.0);
        assert_ne!(t_pg, t_com);
    }

    #[test]
    fn render_sql_includes_table_names() {
        let db = build_db();
        let sql = db.render_sql(&base_query(), &RewriteOption::original());
        assert!(sql.contains("FROM tweets"));
        assert!(sql.contains("covid"));
    }

    #[test]
    fn clear_caches_resets_state() {
        let db = build_db();
        let q = base_query();
        let ro = RewriteOption::original();
        let a = db.execution_time_ms(&q, &ro).unwrap();
        db.clear_caches();
        assert_eq!(db.cache_entry_counts(), (0, 0));
        let b = db.execution_time_ms(&q, &ro).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn register_table_reports_success() {
        let schema = TableSchema::new("empty").with_column("id", ColumnType::Int);
        let table = TableBuilder::new(schema).build();
        let mut db = Database::new(DbConfig::default());
        assert!(db.register_table(table).is_ok());
        assert_eq!(db.row_count("empty").unwrap(), 0);
    }

    /// The `rows == 0` early return used to skip the cache insert while the normal
    /// path cached; both paths must now cache through the same helper.
    #[test]
    fn empty_table_selectivity_is_cached_like_any_other() {
        let schema = TableSchema::new("empty").with_column("id", ColumnType::Int);
        let mut db = Database::new(DbConfig::default());
        db.register_table(TableBuilder::new(schema).build())
            .unwrap();
        let pred = Predicate::numeric_range(0, 0.0, 1.0);
        assert_eq!(db.true_selectivity("empty", &pred).unwrap(), 0.0);
        let (_, sel_entries) = db.cache_entry_counts();
        assert_eq!(sel_entries, 1, "zero-row selectivity must be cached");
        assert_eq!(db.true_selectivity("empty", &pred).unwrap(), 0.0);
        assert_eq!(db.cache_entry_counts().1, 1);
    }

    /// Catalog mutations must bump the generation and drop the fingerprint caches,
    /// so that stale cached times can never be served after an index appears.
    #[test]
    fn catalog_mutations_bump_generation_and_drop_caches() {
        let mut db = build_db();
        let g0 = db.generation();
        assert!(g0 > 0, "construction mutations must already count");
        let q = base_query();
        let ro = RewriteOption::original();
        let _ = db.execution_time_ms(&q, &ro).unwrap();
        assert!(db.cache_entry_counts().0 > 0);
        db.build_index("tweets", "user_id").unwrap();
        assert_eq!(db.generation(), g0 + 1);
        assert_eq!(
            db.cache_entry_counts(),
            (0, 0),
            "fingerprint caches must be invalidated by catalog mutations"
        );
        let schema = TableSchema::new("late").with_column("id", ColumnType::Int);
        db.register_table(TableBuilder::new(schema).build())
            .unwrap();
        assert_eq!(db.generation(), g0 + 2);
    }

    /// Two heatmap viewports sharing one corner of the grid extent must not share
    /// cached execution times (the original cache-poisoning bug).
    #[test]
    fn viewports_sharing_a_corner_do_not_share_cached_times() {
        use crate::query::BinGrid;
        let db = build_db();
        let viewport = |rect: GeoRect| {
            Query::select("tweets")
                .filter(Predicate::keyword(3, "covid"))
                .output(OutputKind::BinnedCounts {
                    point_attr: 2,
                    grid: BinGrid::new(rect, 16, 16),
                })
        };
        // Same north-west corner (min_lon / max_lat), very different areas.
        let small = viewport(GeoRect::new(-119.0, 33.5, -117.5, 34.5));
        let zoomed_out = viewport(GeoRect::new(-119.0, 20.0, -70.0, 34.5));
        let ro = RewriteOption::original();
        let t_small = db.execution_time_ms(&small, &ro).unwrap();
        let _ = db.execution_time_ms(&zoomed_out, &ro).unwrap();
        let (time_entries, _) = db.cache_entry_counts();
        assert_eq!(
            time_entries, 2,
            "each viewport must get its own cache entry"
        );
        // Re-asking for the small viewport must return its own time, not the
        // zoomed-out one's.
        assert_eq!(db.execution_time_ms(&small, &ro).unwrap(), t_small);
    }

    /// Concurrent workers sharing one database must observe identical cached times
    /// and selectivities as a single-threaded run.
    #[test]
    fn concurrent_cache_access_matches_single_threaded() {
        use std::sync::Arc;
        let queries: Vec<Query> = (0..6)
            .map(|i| {
                Query::select("tweets")
                    .filter(Predicate::keyword(3, "covid"))
                    .filter(Predicate::time_range(1, 0, 60 * (500 + i * 300)))
                    .output(OutputKind::Count)
            })
            .collect();
        let ros: Vec<RewriteOption> = (0..4u32)
            .map(|m| RewriteOption::hinted(HintSet::with_mask(m)))
            .collect();

        // Single-threaded reference run on a fresh database.
        let reference = build_db();
        let mut expected = Vec::new();
        for q in &queries {
            for ro in &ros {
                expected.push(reference.execution_time_ms(q, ro).unwrap());
            }
        }

        let db = Arc::new(build_db());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for q in &queries {
                        for ro in &ros {
                            db.execution_time_ms(q, ro).unwrap();
                        }
                    }
                });
            }
        });
        let mut observed = Vec::new();
        for q in &queries {
            for ro in &ros {
                observed.push(db.execution_time_ms(q, ro).unwrap());
            }
        }
        assert_eq!(expected, observed);
        assert_eq!(
            db.cache_entry_counts().0,
            queries.len() * ros.len(),
            "every (query, rewrite) pair must be cached exactly once"
        );
    }
}
