//! Turns a checked phase into the end-to-end metrics, and a traced phase into
//! the per-layer metrics.

use std::collections::{HashMap, HashSet};

use maliva_serve::DecisionCacheStats;
use vizdb::{FaultStats, QueryBackend};

use crate::stats::{mean, median, self_time, sorted, tail};
use crate::trace::{self, Span, ThreadTrace};
use crate::workloads::{Setup, SetupTimes, Stream, SHARDS, TAU_MS};
use crate::{Checked, Metric, SetupRuns, CLIENTS, TAIL_MIN_BEYOND};

/// The tail-rule percentile of an ascending sample (p99 from 1000 samples on),
/// falling back to the maximum for a sample too small for any percentile.
fn tail_value(sorted: &[f64]) -> (f64, String) {
    match tail(sorted, TAIL_MIN_BEYOND) {
        Some(t) => (
            t.value,
            format!("p{} of {} ({} beyond)", t.pct, t.samples, t.beyond),
        ),
        None => (
            sorted.last().copied().unwrap_or(0.0),
            format!("max of {}", sorted.len()),
        ),
    }
}

/// The end-to-end metrics of an untraced phase. A failed request counts as
/// not viable; AQRT and quality average over the requests that passed.
/// Wall-clock metrics are scaled to the reference host's speed; the meta
/// keeps them as measured.
pub fn end_to_end(
    checked: &Checked,
    baseline: (f64, f64),
    setup: &SetupRuns,
) -> (Vec<Metric>, Vec<(String, String)>) {
    let attempted = checked.attempted().max(1) as f64;
    let passed: Vec<_> = checked.passed().collect();
    let viable = passed.iter().filter(|(a, _)| a.total_ms <= TAU_MS).count() as f64;
    let latencies = checked.latencies_ms();
    let (p50, (p99, p99_basis)) = (median(&latencies), tail_value(&latencies));
    let speed = &checked.speed;
    let metrics = vec![
        Metric::new("vqp_pct", 100.0 * viable / attempted, "%"),
        Metric::new(
            "aqrt_ms",
            mean(&passed.iter().map(|(a, _)| a.total_ms).collect::<Vec<_>>()),
            "ms",
        ),
        Metric::new(
            "quality_mean",
            mean(&passed.iter().map(|(_, q)| *q).collect::<Vec<_>>()),
            "ratio",
        ),
        Metric::new("throughput_norm_rps", checked.throughput_norm_rps(), "1/s"),
        Metric::new("latency_p50_norm_ms", speed.normalise_time(p50), "ms"),
        Metric::new("latency_p99_norm_ms", speed.normalise_time(p99), "ms"),
        Metric::new("setup_s", setup.norm_s(), "s"),
        Metric::new("baselines.vqp_pct", baseline.0, "%"),
        Metric::new("baselines.aqrt_ms", baseline.1, "ms"),
    ];
    // Requests completed in each whole second of the phase: host noise shows
    // here as uneven windows.
    let mut windows = vec![0usize; checked.phase.wall.as_secs() as usize + 1];
    for s in &checked.phase.served {
        windows[s.done_at.as_secs() as usize] += 1;
    }
    windows.pop();
    let setup_units: Vec<String> = setup
        .speeds
        .iter()
        .map(|s| format!("{:.0}", s.unit_ns))
        .collect();
    let meta = vec![
        (
            "throughput_rps".into(),
            format!("{:.3}", checked.throughput_rps()),
        ),
        ("latency_p50_ms".into(), format!("{p50:.4}")),
        ("latency_p99_ms".into(), format!("{p99:.4}")),
        ("setup_raw_s".into(), format!("{:.3}", setup.raw_s())),
        ("host_unit_ns".into(), format!("{:.0}", speed.unit_ns)),
        (
            "host_bursts_ns".into(),
            speed
                .bursts
                .iter()
                .map(|b| format!("{b:.0}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("setup_host_unit_ns".into(), setup_units.join(" ")),
        ("completed_per_second".into(), format!("{windows:?}")),
        ("requests".into(), checked.attempted().to_string()),
        (
            "wall_s".into(),
            format!("{:.3}", checked.phase.wall.as_secs_f64()),
        ),
        (
            "latency_p50_basis".into(),
            format!("p50 of {}", latencies.len()),
        ),
        ("latency_p99_basis".into(), p99_basis),
        (
            "cache_hits".into(),
            passed
                .iter()
                .filter(|(a, _)| a.cache_hit)
                .count()
                .to_string(),
        ),
    ];
    (metrics, meta)
}

/// Backend counters read before and after the traced phase.
pub struct Counters {
    cache_entries: (usize, usize),
    faults: FaultStats,
    jobs: u64,
    steals: u64,
    shard_work: Vec<f64>,
}

impl Counters {
    pub fn take(setup: &Setup) -> Self {
        let (jobs, steals, shard_work) = match &setup.sharded {
            Some(s) => {
                let pool = s.pool_stats();
                (pool.jobs_dispatched, pool.steals, s.shard_work())
            }
            None => (0, 0, Vec::new()),
        };
        Self {
            cache_entries: setup.serving.cache_entry_counts(),
            faults: setup.serving.fault_stats(),
            jobs,
            steals,
            shard_work,
        }
    }
}

/// Everything the per-layer metrics are computed from.
pub struct TracedRun<'a> {
    pub setup: &'a Setup,
    pub stream: &'a Stream,
    pub untraced: &'a Checked,
    pub traced: &'a Checked,
    pub traces: &'a [ThreadTrace],
    pub cache: DecisionCacheStats,
    pub before: Counters,
    pub after: Counters,
    pub setup_times: &'a [SetupTimes],
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Span durations (µs, ascending) of every span named `name`.
fn durations_us(spans: &[&Span], name: &str) -> Vec<f64> {
    sorted(
        &spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| us(s.duration_ns()))
            .collect::<Vec<_>>(),
    )
}

pub fn per_layer(run: &TracedRun) -> (Vec<Metric>, Vec<(String, String)>) {
    let traced = run.traced;
    let served = traced.phase.served.len().max(1) as f64;
    let per_req = |count: f64| count / served;
    let busy_ns = (CLIENTS as f64) * traced.phase.wall.as_nanos() as f64;
    let spans: Vec<&Span> = run.traces.iter().flat_map(|t| &t.spans).collect();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let busy_share = |name: &str| {
        ratio(
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64)
                .sum(),
            busy_ns,
        )
    };

    // Requests that planned (decision-cache misses), and their request spans.
    let answers: HashMap<usize, &crate::check::Answer> = traced
        .phase
        .served
        .iter()
        .filter_map(|s| Some((s.index, s.outcome.as_ref().ok()?)))
        .collect();
    let misses: HashSet<usize> = answers
        .iter()
        .filter(|(_, a)| !a.cache_hit)
        .map(|(&i, _)| i)
        .collect();

    // Self time of a planning request: its span minus its direct children
    // (QTE estimates, estimation and execution calls into the backend) —
    // the cache lookup, the space build and the Q-network passes.
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in &spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let plan_self_us = sorted(
        &spans
            .iter()
            .filter(|s| s.name == trace::REQUEST && misses.contains(&s.request))
            .map(|s| {
                let kids = children.get(&s.id).map_or(&[][..], |v| v.as_slice());
                us(self_time((s.start_ns, s.end_ns), kids))
            })
            .collect::<Vec<_>>(),
    );
    let (plan_self_p99, plan_self_basis) = tail_value(&plan_self_us);
    let estimate_us = durations_us(&spans, trace::ESTIMATE);
    let (estimate_p99, estimate_basis) = tail_value(&estimate_us);
    let dry_run_us = durations_us(&spans, trace::DRY_RUN);
    let probe_us = durations_us(&spans, trace::SAMPLE_PROBE);
    let exec_us = durations_us(&spans, trace::EXEC);
    let (exec_p99, exec_basis) = tail_value(&exec_us);

    let estimates: Vec<&trace::EstimateRecord> =
        run.traces.iter().flat_map(|t| &t.estimates).collect();
    let execs: Vec<&trace::ExecRecord> = run.traces.iter().flat_map(|t| &t.execs).collect();
    let estimate_calls = estimates.len() as f64;
    let steps_in_misses = estimates
        .iter()
        .filter(|e| misses.contains(&e.request))
        .count() as f64;

    // |estimated − actual| / actual for the option each planning request served.
    let mut served_estimate: HashMap<usize, f64> = HashMap::new();
    for e in &estimates {
        if let Some(a) = answers.get(&e.request) {
            if !a.cache_hit && e.rewrite == a.rewrite {
                served_estimate.insert(e.request, e.report.estimated_ms);
            }
        }
    }
    let chosen_error = sorted(
        &served_estimate
            .iter()
            .filter(|(i, _)| answers[*i].exec_ms > 0.0)
            .map(|(i, est)| (est - answers[i].exec_ms).abs() / answers[i].exec_ms)
            .collect::<Vec<_>>(),
    );

    // Fan-out per served request (1 on an unsharded backend), which also
    // converts top-level dry runs into per-shard cache lookups.
    let fan_out: HashMap<usize, f64> = answers
        .keys()
        .map(|&i| {
            let n = match &run.setup.sharded {
                Some(s) => s
                    .overlapping_shards(&run.stream.request(i).query)
                    .map_or(0, |v| v.len()),
                None => 1,
            };
            (i, n as f64)
        })
        .collect();
    let dry_run_lookups: f64 = spans
        .iter()
        .filter(|s| s.name == trace::DRY_RUN)
        .map(|s| fan_out.get(&s.request).copied().unwrap_or(1.0))
        .sum();
    let selectivity_lookups = count(trace::TRUE_SELECTIVITY)
        * if run.setup.sharded.is_some() {
            SHARDS as f64
        } else {
            1.0
        };
    let (before, after) = (run.before.cache_entries, run.after.cache_entries);
    let time_entries_added = after.0.saturating_sub(before.0) as f64;
    let selectivity_entries_added = after.1.saturating_sub(before.1) as f64;
    let hit_ratio = |inserted: f64, lookups: f64| {
        if lookups > 0.0 {
            (1.0 - inserted / lookups).clamp(0.0, 1.0)
        } else {
            0.0
        }
    };

    let work_mean = |f: fn(&vizdb::timing::WorkProfile) -> u64| {
        mean(&execs.iter().map(|e| f(&e.work) as f64).collect::<Vec<_>>())
    };
    let faults = run.after.faults.delta_since(&run.before.faults);
    let shard_delta: Vec<f64> = run
        .after
        .shard_work
        .iter()
        .zip(&run.before.shard_work)
        .map(|(a, b)| a - b)
        .collect();
    let balance = ratio(
        shard_delta.iter().copied().fold(0.0, f64::max),
        mean(&shard_delta),
    );
    let median_setup = |f: fn(&SetupTimes) -> f64| {
        median(&sorted(&run.setup_times.iter().map(f).collect::<Vec<_>>()))
    };
    let sharded = run.setup.sharded.is_some();
    let if_sharded = |v: f64| if sharded { v } else { 0.0 };
    let passed: Vec<_> = traced.passed().collect();

    let metrics = vec![
        Metric::new(
            "serve.decision_cache.hit_ratio",
            run.cache.hit_rate(),
            "ratio",
        ),
        Metric::new(
            "serve.decision_cache.evictions",
            per_req(run.cache.evictions as f64),
            "1/req",
        ),
        Metric::new("plan.misses", per_req(misses.len() as f64), "1/req"),
        Metric::new(
            "plan.steps_per_miss",
            ratio(steps_in_misses, misses.len() as f64),
            "count",
        ),
        Metric::new(
            "plan.sim_ms_mean",
            mean(
                &passed
                    .iter()
                    .map(|(a, _)| a.planning_ms)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        ),
        Metric::new("plan.self_us_p50", median(&plan_self_us), "us"),
        Metric::new("plan.self_us_p99", plan_self_p99, "us"),
        Metric::new("qte.estimate.calls", per_req(estimate_calls), "1/req"),
        Metric::new("qte.estimate.wall_us_p50", median(&estimate_us), "us"),
        Metric::new("qte.estimate.wall_us_p99", estimate_p99, "us"),
        Metric::new(
            "qte.estimate.busy_share",
            busy_share(trace::ESTIMATE),
            "ratio",
        ),
        Metric::new(
            "qte.estimate.sim_cost_ms_mean",
            mean(
                &estimates
                    .iter()
                    .map(|e| e.report.cost_ms)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        ),
        Metric::new("qte.chosen_error_ratio_p50", median(&chosen_error), "ratio"),
        Metric::new("db.dry_run.calls", per_req(count(trace::DRY_RUN)), "1/req"),
        Metric::new("db.dry_run.wall_us_p50", median(&dry_run_us), "us"),
        Metric::new(
            "db.time_cache.hit_ratio",
            hit_ratio(time_entries_added, dry_run_lookups),
            "ratio",
        ),
        Metric::new(
            "db.true_selectivity.calls",
            per_req(count(trace::TRUE_SELECTIVITY)),
            "1/req",
        ),
        Metric::new(
            "db.selectivity_cache.hit_ratio",
            hit_ratio(selectivity_entries_added, selectivity_lookups),
            "ratio",
        ),
        Metric::new(
            "db.sample_probe.calls",
            per_req(count(trace::SAMPLE_PROBE)),
            "1/req",
        ),
        Metric::new("db.sample_probe.wall_us_p50", median(&probe_us), "us"),
        Metric::new("exec.wall_us_p50", median(&exec_us), "us"),
        Metric::new("exec.wall_us_p99", exec_p99, "us"),
        Metric::new("exec.busy_share", busy_share(trace::EXEC), "ratio"),
        Metric::new(
            "exec.sim_ms_mean",
            mean(&execs.iter().map(|e| e.sim_ms).collect::<Vec<_>>()),
            "ms",
        ),
        Metric::new("exec.seq_rows", work_mean(|w| w.seq_rows), "rows"),
        Metric::new("exec.index_entries", work_mean(|w| w.index_entries), "rows"),
        Metric::new("exec.heap_fetches", work_mean(|w| w.heap_fetches), "rows"),
        Metric::new("exec.filter_evals", work_mean(|w| w.filter_evals), "count"),
        Metric::new("exec.output_rows", work_mean(|w| w.output_rows), "rows"),
        Metric::new("exec.grouped_rows", work_mean(|w| w.grouped_rows), "rows"),
        Metric::new(
            "exec.approx_share",
            ratio(
                passed.iter().filter(|(a, _)| !a.rewrite.is_exact()).count() as f64,
                passed.len() as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "sharded.fan_out_mean",
            if_sharded(mean(&fan_out.values().copied().collect::<Vec<_>>())),
            "shards",
        ),
        Metric::new(
            "sharded.jobs",
            per_req(run.after.jobs.saturating_sub(run.before.jobs) as f64),
            "1/req",
        ),
        Metric::new(
            "sharded.steals",
            per_req(run.after.steals.saturating_sub(run.before.steals) as f64),
            "1/req",
        ),
        Metric::new("sharded.balance", if_sharded(balance), "ratio"),
        Metric::new("sharded.retries", per_req(faults.retries as f64), "1/req"),
        Metric::new("sharded.degraded", per_req(faults.degraded as f64), "1/req"),
        Metric::new("setup.dataset_s", median_setup(|t| t.dataset_s), "s"),
        Metric::new("setup.mirror_s", median_setup(|t| t.mirror_s), "s"),
        Metric::new("setup.qte_fit_s", median_setup(|t| t.qte_fit_s), "s"),
        Metric::new("setup.train_s", median_setup(|t| t.train_s), "s"),
        Metric::new(
            "trace.overhead_pct",
            100.0
                * (1.0
                    - ratio(
                        traced.throughput_norm_rps(),
                        run.untraced.throughput_norm_rps(),
                    )),
            "%",
        ),
    ];
    let meta = vec![
        ("traced_requests".into(), traced.attempted().to_string()),
        (
            "untraced_requests".into(),
            run.untraced.attempted().to_string(),
        ),
        (
            "untraced_throughput_rps".into(),
            format!("{:.3}", run.untraced.throughput_rps()),
        ),
        (
            "traced_throughput_rps".into(),
            format!("{:.3}", traced.throughput_rps()),
        ),
        ("planning_requests".into(), misses.len().to_string()),
        ("plan_self_p99_basis".into(), plan_self_basis),
        ("qte_estimate_p99_basis".into(), estimate_basis),
        ("exec_p99_basis".into(), exec_basis),
        (
            "chosen_error_samples".into(),
            chosen_error.len().to_string(),
        ),
    ];
    (metrics, meta)
}
