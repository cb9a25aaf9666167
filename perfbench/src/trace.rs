//! In-memory span tracing, recorded from outside the program: timing
//! decorators around the public `QueryBackend` and `QueryTimeEstimator`
//! traits, plus the request span the client opens around each `serve_one`.
//!
//! Recording is per thread and off unless the thread called [`start_thread`];
//! spans stay in memory until [`finish_thread`] hands them over. The untraced
//! run never constructs a decorator at all.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use maliva_qte::{EstimateReport, EstimationContext, QueryTimeEstimator};
use vizdb::error::Result;
use vizdb::hints::RewriteOption;
use vizdb::plan::PhysicalPlan;
use vizdb::query::{Predicate, Query};
use vizdb::schema::TableSchema;
use vizdb::stats::TableStats;
use vizdb::timing::WorkProfile;
use vizdb::{ExecContext, FaultStats, QueryBackend, RunOutcome, RunReport};

/// Span names, one per layer boundary the benchmark can see.
pub const REQUEST: &str = "serve.request";
pub const ESTIMATE: &str = "qte.estimate";
pub const DRY_RUN: &str = "db.dry_run";
pub const TRUE_SELECTIVITY: &str = "db.true_selectivity";
pub const SAMPLE_PROBE: &str = "db.sample_probe";
pub const EXEC: &str = "exec.run";

/// One closed span. Times are nanoseconds since the process's trace epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The simulated side of one execution, as the backend reported it.
#[derive(Debug, Clone)]
pub struct ExecRecord {
    pub sim_ms: f64,
    pub work: WorkProfile,
}

/// One QTE estimate, kept so the served option's estimate can be set against
/// its actual execution time.
#[derive(Debug, Clone)]
pub struct EstimateRecord {
    pub request: usize,
    pub rewrite: RewriteOption,
    pub report: EstimateReport,
}

/// Everything one thread recorded.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    pub spans: Vec<Span>,
    pub execs: Vec<ExecRecord>,
    pub estimates: Vec<EstimateRecord>,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    tag: u64,
    next_seq: u64,
    request: usize,
    /// Indices into `data.spans` of the spans still open, innermost last.
    open: Vec<usize>,
    data: ThreadTrace,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on for the calling thread. `tag` must differ between the
/// threads of one run: it keeps their span ids apart.
pub fn start_thread(tag: u64) {
    now_ns();
    RECORDER.with(|r| {
        *r.borrow_mut() = Recorder {
            on: true,
            tag,
            ..Recorder::default()
        }
    });
}

/// Turns recording off for the calling thread and returns what it recorded.
pub fn finish_thread() -> ThreadTrace {
    RECORDER.with(|r| std::mem::take(&mut *r.borrow_mut()).data)
}

/// Sets the request id later spans on this thread are attributed to.
pub fn set_request(request: usize) {
    RECORDER.with(|r| r.borrow_mut().request = request);
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard is dropped"]
pub struct SpanGuard {
    active: bool,
}

/// Opens a span named `name` as a child of the innermost open span.
pub fn span(name: &'static str) -> SpanGuard {
    let active = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return false;
        }
        let id = (r.tag << 48) | r.next_seq;
        r.next_seq += 1;
        let parent = r.open.last().map(|&i| r.data.spans[i].id);
        let request = r.request;
        r.data.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns: now_ns(),
            end_ns: 0,
        });
        let index = r.data.spans.len() - 1;
        r.open.push(index);
        true
    });
    SpanGuard { active }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = now_ns();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            if let Some(index) = r.open.pop() {
                r.data.spans[index].end_ns = end;
            }
        });
    }
}

fn record(apply: impl FnOnce(&mut ThreadTrace, usize)) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            let request = r.request;
            apply(&mut r.data, request);
        }
    });
}

/// A [`QueryBackend`] decorator that opens a span around every estimation and
/// execution call and records each execution's work profile.
pub struct TimedBackend {
    inner: Arc<dyn QueryBackend>,
}

impl TimedBackend {
    pub fn wrap(inner: Arc<dyn QueryBackend>) -> Arc<dyn QueryBackend> {
        Arc::new(Self { inner })
    }

    fn record_exec(outcome: &RunOutcome) {
        record(|t, _| {
            t.execs.push(ExecRecord {
                sim_ms: outcome.time_ms,
                work: outcome.work,
            })
        });
    }
}

impl QueryBackend for TimedBackend {
    fn table_names(&self) -> Vec<String> {
        self.inner.table_names()
    }

    fn row_count(&self, table: &str) -> Result<usize> {
        self.inner.row_count(table)
    }

    fn schema(&self, table: &str) -> Result<TableSchema> {
        self.inner.schema(table)
    }

    fn stats(&self, table: &str) -> Result<TableStats> {
        self.inner.stats(table)
    }

    fn indexed_columns(&self, table: &str) -> Result<Vec<usize>> {
        self.inner.indexed_columns(table)
    }

    fn sample_len(&self, table: &str, fraction_pct: u32) -> Result<usize> {
        self.inner.sample_len(table, fraction_pct)
    }

    fn plan(&self, query: &Query, ro: &RewriteOption) -> Result<PhysicalPlan> {
        self.inner.plan(query, ro)
    }

    fn run(&self, query: &Query, ro: &RewriteOption) -> Result<RunOutcome> {
        let _span = span(EXEC);
        let outcome = self.inner.run(query, ro)?;
        Self::record_exec(&outcome);
        Ok(outcome)
    }

    fn run_with_context(
        &self,
        query: &Query,
        ro: &RewriteOption,
        ctx: &ExecContext,
    ) -> Result<RunReport> {
        let _span = span(EXEC);
        let report = self.inner.run_with_context(query, ro, ctx)?;
        Self::record_exec(&report.outcome);
        Ok(report)
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn execution_time_ms(&self, query: &Query, ro: &RewriteOption) -> Result<f64> {
        let _span = span(DRY_RUN);
        self.inner.execution_time_ms(query, ro)
    }

    fn estimated_cardinality(&self, query: &Query) -> Result<f64> {
        self.inner.estimated_cardinality(query)
    }

    fn estimated_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        self.inner.estimated_selectivity(table, pred)
    }

    fn true_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        let _span = span(TRUE_SELECTIVITY);
        self.inner.true_selectivity(table, pred)
    }

    fn sample_selectivity(
        &self,
        table: &str,
        pred: &Predicate,
        fraction_pct: u32,
    ) -> Result<(f64, usize)> {
        let _span = span(SAMPLE_PROBE);
        self.inner.sample_selectivity(table, pred, fraction_pct)
    }

    fn render_sql(&self, query: &Query, ro: &RewriteOption) -> String {
        self.inner.render_sql(query, ro)
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn clear_caches(&self) {
        self.inner.clear_caches()
    }

    fn cache_entry_counts(&self) -> (usize, usize) {
        self.inner.cache_entry_counts()
    }

    fn viable_plan_count(&self, query: &Query, tau_ms: f64) -> Result<usize> {
        self.inner.viable_plan_count(query, tau_ms)
    }
}

/// A [`QueryTimeEstimator`] decorator that opens a span around every estimate
/// and records what it predicted.
pub struct TimedQte {
    inner: Arc<dyn QueryTimeEstimator>,
}

impl TimedQte {
    pub fn wrap(inner: Arc<dyn QueryTimeEstimator>) -> Arc<dyn QueryTimeEstimator> {
        Arc::new(Self { inner })
    }
}

impl QueryTimeEstimator for TimedQte {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn estimation_cost(&self, query: &Query, ro: &RewriteOption, ctx: &EstimationContext) -> f64 {
        self.inner.estimation_cost(query, ro, ctx)
    }

    fn estimate(
        &self,
        query: &Query,
        ro: &RewriteOption,
        ctx: &mut EstimationContext,
    ) -> Result<EstimateReport> {
        let _span = span(ESTIMATE);
        let report = self.inner.estimate(query, ro, ctx)?;
        record(|t, request| {
            t.estimates.push(EstimateRecord {
                request,
                rewrite: ro.clone(),
                report,
            })
        });
        Ok(report)
    }
}

/// Writes spans as JSON lines: id, parent, name, request, start and end.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_order() {
        start_thread(1);
        set_request(7);
        {
            let _outer = span(REQUEST);
            let _inner = span(ESTIMATE);
        }
        let trace = finish_thread();
        assert_eq!(trace.spans.len(), 2);
        let (outer, inner) = (&trace.spans[0], &trace.spans[1]);
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(trace.spans.iter().all(|s| s.request == 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn nothing_is_recorded_when_off() {
        let _ = finish_thread();
        {
            let _s = span(REQUEST);
        }
        assert!(finish_thread().spans.is_empty());
    }
}
