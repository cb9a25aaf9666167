//! One function per table / figure of the paper's evaluation (§7).
//!
//! Every function returns one or more [`ExperimentOutput`]s that the `experiments`
//! binary prints and saves as JSON. Dataset scale and workload size come from the
//! `MALIVA_SCALE` / `MALIVA_QUERIES` environment variables (see
//! [`crate::harness::scale_from_env`]).

pub mod chaos;
pub mod exec;
pub mod serve;
pub mod shard;

pub use chaos::run_chaos;
pub use exec::run_exec_engine;
pub use serve::run_serve_throughput;
pub use shard::run_shard_scaling;

use std::collections::BTreeMap;
use std::sync::Arc;

use serde_json::json;

use maliva::metrics::viable_plan_histogram;
use maliva::{
    plan_online, train_agent, MalivaConfig, QualityAwareMode, QualityAwareRewriter, QueryRewriter,
    RewardSpec, RewriteSpace,
};
use maliva_baselines::BaselineRewriter;
use maliva_qte::{AccurateQte, QueryTimeEstimator};
use maliva_quality::{jaccard_quality, QualityFunction};
use maliva_workload::{generate_queries, split_workload, DatasetScale, QueryGenConfig};
use vizdb::approx::ApproxRule;
use vizdb::hints::RewriteOption;
use vizdb::query::Query;
use vizdb::DbConfig;

use crate::harness::{
    bucket_edges_small, build_qtes, evaluate_by_bucket, experiment_config, f1, naive_rewriter,
    queries_from_env, scale_from_env, scenario, secs, standard_rewriters, train_mdp_rewriter,
    DatasetKind, ExperimentOutput, Scenario,
};

const SEED: u64 = 42;

/// Table 1: dataset inventory.
pub fn run_table1() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let mut rows = Vec::new();
    for kind in [
        DatasetKind::Twitter,
        DatasetKind::NycTaxi,
        DatasetKind::Tpch,
    ] {
        let ds = kind.build(scale, SEED);
        let schema = ds.db.schema(&ds.table).expect("schema");
        let filtering: Vec<String> = ds
            .spec
            .filter_attrs
            .iter()
            .map(|f| schema.column_name(f.attr).unwrap_or("?").to_string())
            .collect();
        rows.push(vec![
            ds.name.clone(),
            format!("{}", ds.row_count()),
            filtering.join(", "),
            schema
                .column_name(ds.spec.geo_attr)
                .unwrap_or("?")
                .to_string(),
        ]);
    }
    let output = ExperimentOutput {
        id: "table1".into(),
        title: "Datasets (scaled-down synthetic equivalents of paper Table 1)".into(),
        headers: vec![
            "Dataset".into(),
            "Record #".into(),
            "Filtering attributes".into(),
            "Output attribute".into(),
        ],
        rows,
    };
    vec![output]
}

/// Table 2: number of evaluation queries per viable-plan count (3 filtering conditions,
/// 8 rewrite options) for the three datasets.
pub fn run_table2() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let n = queries_from_env();
    let mut rows = Vec::new();
    for kind in [
        DatasetKind::Twitter,
        DatasetKind::NycTaxi,
        DatasetKind::Tpch,
    ] {
        let tau = kind.default_tau_ms();
        let sc = scenario(kind, scale, tau, &QueryGenConfig::default(), n, SEED);
        let hist = viable_plan_histogram(sc.db(), &sc.split.eval, tau).expect("histogram");
        let count = |lo: usize, hi: usize| -> usize {
            hist.iter()
                .filter(|(k, _)| **k >= lo && **k <= hi)
                .map(|(_, v)| *v)
                .sum()
        };
        rows.push(vec![
            kind.name().to_string(),
            format!("{}", count(0, 0)),
            format!("{}", count(1, 1)),
            format!("{}", count(2, 2)),
            format!("{}", count(3, 3)),
            format!("{}", count(4, 4)),
            format!("{}", count(5, usize::MAX)),
        ]);
    }
    let output = ExperimentOutput {
        id: "table2".into(),
        title: "Number of queries in evaluation workloads per viable-plan count".into(),
        headers: vec![
            "Dataset".into(),
            "0".into(),
            "1".into(),
            "2".into(),
            "3".into(),
            "4".into(),
            ">=5".into(),
        ],
        rows,
    };
    vec![output]
}

/// Table 3: workloads with 16 and 32 rewrite options (4 and 5 filtering conditions on
/// Twitter), bucketed as in the paper.
pub fn run_table3() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let n = queries_from_env();
    let mut outputs = Vec::new();
    for (attrs, edges) in [
        (
            4usize,
            vec![(0, 0), (1, 2), (3, 4), (5, 6), (7, 8), (9, 16)],
        ),
        (
            5usize,
            vec![(0, 0), (1, 4), (5, 8), (9, 12), (13, 16), (17, 32)],
        ),
    ] {
        let sc = scenario(
            DatasetKind::Twitter,
            scale,
            500.0,
            &QueryGenConfig::with_filters(attrs),
            n,
            SEED,
        );
        let hist = viable_plan_histogram(sc.db(), &sc.split.eval, 500.0).expect("histogram");
        let count = |lo: usize, hi: usize| -> usize {
            hist.iter()
                .filter(|(k, _)| **k >= lo && **k <= hi)
                .map(|(_, v)| *v)
                .sum()
        };
        let mut headers = vec!["# viable plans".to_string()];
        let mut row = vec!["# of queries".to_string()];
        for &(lo, hi) in &edges {
            headers.push(if lo == hi {
                format!("{lo}")
            } else {
                format!("{lo}-{hi}")
            });
            row.push(format!("{}", count(lo, hi)));
        }
        outputs.push(ExperimentOutput {
            id: format!("table3_{}opts", 1 << attrs),
            title: format!(
                "Workload with {} rewrite options ({} filtering conditions)",
                1 << attrs,
                attrs
            ),
            headers,
            rows: vec![row],
        });
    }
    outputs
}

/// Shared implementation for Figures 12 and 13 (and their variants): evaluates a
/// rewriter line-up per bucket and emits a VQP table and an AQRT table.
fn vqp_aqrt_outputs(
    id_vqp: &str,
    id_aqrt: &str,
    title: &str,
    sc: &Scenario,
    rewriters: &[Box<dyn QueryRewriter>],
    edges: &[(usize, usize)],
) -> Vec<ExperimentOutput> {
    let report = evaluate_by_bucket(sc.db(), rewriters, &sc.split.eval, sc.tau_ms, edges);

    let mut headers = vec!["# viable plans (n)".to_string()];
    for r in rewriters {
        headers.push(r.name());
    }
    let mut vqp_rows = Vec::new();
    let mut aqrt_rows = Vec::new();
    for (label, per_rewriter) in &report.buckets {
        let n = report.bucket_sizes.get(label).copied().unwrap_or(0);
        let mut vqp_row = vec![format!("{label} (n={n})")];
        let mut aqrt_row = vec![format!("{label} (n={n})")];
        for r in rewriters {
            match per_rewriter.get(&r.name()) {
                Some(m) => {
                    vqp_row.push(f1(m.vqp));
                    aqrt_row.push(secs(m.aqrt_ms));
                }
                None => {
                    vqp_row.push("-".into());
                    aqrt_row.push("-".into());
                }
            }
        }
        vqp_rows.push(vqp_row);
        aqrt_rows.push(aqrt_row);
    }
    let vqp = ExperimentOutput {
        id: id_vqp.to_string(),
        title: format!("{title} — viable query percentage (%)"),
        headers: headers.clone(),
        rows: vqp_rows,
    };
    let aqrt = ExperimentOutput {
        id: id_aqrt.to_string(),
        title: format!("{title} — average query response time (s)"),
        headers,
        rows: aqrt_rows,
    };
    crate::harness::save_json(&vqp, json!({ "report": report }));
    crate::harness::save_json(&aqrt, json!({}));
    vec![vqp, aqrt]
}

/// Figures 12 & 13: VQP and AQRT on Twitter (τ=500 ms), NYC Taxi (τ=1 s) and TPC-H
/// (τ=500 ms) with 8 rewrite options.
pub fn run_fig12_13() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let n = queries_from_env();
    let mut outputs = Vec::new();
    for (kind, sub) in [
        (DatasetKind::Twitter, "a"),
        (DatasetKind::NycTaxi, "b"),
        (DatasetKind::Tpch, "c"),
    ] {
        let tau = kind.default_tau_ms();
        let sc = scenario(kind, scale, tau, &QueryGenConfig::default(), n, SEED);
        let rewriters = standard_rewriters(&sc);
        outputs.extend(vqp_aqrt_outputs(
            &format!("fig12{sub}"),
            &format!("fig13{sub}"),
            &format!("{} (tau = {} ms)", kind.name(), tau),
            &sc,
            &rewriters,
            &bucket_edges_small(),
        ));
    }
    outputs
}

/// Figures 14 & 15: effect of the number of rewrite options (16 and 32) on Twitter.
pub fn run_fig14_15() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let n = queries_from_env();
    let mut outputs = Vec::new();
    for (attrs, edges, sub) in [
        (4usize, vec![(1, 2), (3, 4), (5, 6), (7, 8)], "a"),
        (5usize, vec![(1, 4), (5, 8), (9, 12), (13, 16)], "b"),
    ] {
        let sc = scenario(
            DatasetKind::Twitter,
            scale,
            500.0,
            &QueryGenConfig::with_filters(attrs),
            n,
            SEED,
        );
        let mut rewriters = standard_rewriters(&sc);
        if attrs == 4 {
            // The paper additionally reports the brute-force Naive (Approximate-QTE)
            // strategy for the 16-option workload (Fig. 14a).
            rewriters.push(naive_rewriter(&sc));
        }
        outputs.extend(vqp_aqrt_outputs(
            &format!("fig14{sub}"),
            &format!("fig15{sub}"),
            &format!("{} rewrite options (Twitter, tau = 500 ms)", 1 << attrs),
            &sc,
            &rewriters,
            &edges,
        ));
    }
    outputs
}

/// Figures 16 & 17: effect of the time budget (0.25 s, 0.75 s, 1.0 s) on Twitter.
pub fn run_fig16_17() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let n = queries_from_env();
    let mut outputs = Vec::new();
    for (tau, sub) in [(250.0, "a"), (750.0, "b"), (1000.0, "c")] {
        let sc = scenario(
            DatasetKind::Twitter,
            scale,
            tau,
            &QueryGenConfig::default(),
            n,
            SEED,
        );
        let rewriters = standard_rewriters(&sc);
        outputs.extend(vqp_aqrt_outputs(
            &format!("fig16{sub}"),
            &format!("fig17{sub}"),
            &format!("Twitter, time budget tau = {} ms", tau),
            &sc,
            &rewriters,
            &bucket_edges_small(),
        ));
    }
    outputs
}

/// Figure 18: join queries (tweets ⋈ users, 21 rewrite options).
pub fn run_fig18() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let n = queries_from_env();
    let sc = scenario(
        DatasetKind::Twitter,
        scale,
        500.0,
        &QueryGenConfig::join(),
        n,
        SEED,
    );
    let rewriters = standard_rewriters(&sc);
    let edges = vec![(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)];
    vqp_aqrt_outputs(
        "fig18a",
        "fig18b",
        "Join queries (Twitter ⋈ users, tau = 500 ms)",
        &sc,
        &rewriters,
        &edges,
    )
}

/// Figure 19(a): generalisation to unseen query shapes — agents trained on
/// single-table queries, evaluated on join queries (the rewrite space stays the 8
/// index-hint sets over the three fact-table predicates).
pub fn run_fig19a() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let n = queries_from_env();
    let sc = scenario(
        DatasetKind::Twitter,
        scale,
        500.0,
        &QueryGenConfig::default(),
        n,
        SEED,
    );
    // Evaluation workload: join queries (unseen shape).
    let join_queries = generate_queries(&sc.dataset, n / 2, &QueryGenConfig::join(), SEED ^ 0x77);
    let eval_split = split_workload(&join_queries, SEED);

    let space_builder: Box<dyn Fn(&Query) -> RewriteSpace + Send + Sync> =
        Box::new(|_q: &Query| RewriteSpace::index_hints(3));
    let (accurate, approximate) = build_qtes(&sc);
    let config = experiment_config(sc.tau_ms);
    let mdp_approx = train_mdp_rewriter(
        &sc,
        approximate,
        "MDP (Approximate-QTE)",
        Box::new(|_q: &Query| RewriteSpace::index_hints(3)),
        &config,
    );
    let mdp_accurate =
        train_mdp_rewriter(&sc, accurate, "MDP (Accurate-QTE)", space_builder, &config);
    let rewriters: Vec<Box<dyn QueryRewriter>> = vec![
        Box::new(BaselineRewriter::new()),
        Box::new(mdp_approx),
        Box::new(mdp_accurate),
    ];
    let mut outputs = vqp_aqrt_outputs(
        "fig19a",
        "fig19a_aqrt",
        "Unseen query shapes (trained on single-table, tested on join queries)",
        &Scenario {
            dataset: sc.dataset,
            split: eval_split,
            tau_ms: sc.tau_ms,
        },
        &rewriters,
        &bucket_edges_small(),
    );
    // The paper only reports VQP for Fig. 19(a); keep the AQRT table as supplementary.
    outputs[1].title = format!("{} (supplementary)", outputs[1].title);
    outputs
}

/// Figure 19(b): a commercial database profile (smaller table, τ = 250 ms, noisy
/// execution times that break the selectivity-only Approximate-QTE).
pub fn run_fig19b() -> Vec<ExperimentOutput> {
    let n = queries_from_env();
    let scale = DatasetScale {
        rows: scale_from_env().rows / 2,
        dim_rows: scale_from_env().dim_rows,
    };
    let tau = 250.0;
    let dataset =
        maliva_workload::twitter::build_twitter_with_config(scale, SEED, DbConfig::commercial());
    let queries = generate_queries(&dataset, n, &QueryGenConfig::default(), SEED ^ 0xBEEF);
    let split = split_workload(&queries, SEED);
    let sc = Scenario {
        dataset,
        split,
        tau_ms: tau,
    };
    let (accurate, approximate) = build_qtes(&sc);
    let config = experiment_config(tau);
    let mdp_approx = train_mdp_rewriter(
        &sc,
        approximate,
        "MDP (Approximate-QTE)",
        Box::new(RewriteSpace::hints_only),
        &config,
    );
    let mdp_accurate = train_mdp_rewriter(
        &sc,
        accurate,
        "MDP (Accurate-QTE)",
        Box::new(RewriteSpace::hints_only),
        &config,
    );
    let rewriters: Vec<Box<dyn QueryRewriter>> = vec![
        Box::new(BaselineRewriter::new()),
        Box::new(mdp_approx),
        Box::new(mdp_accurate),
    ];
    let edges = vec![(1, 2), (3, 4), (5, 6), (7, 8)];
    vqp_aqrt_outputs(
        "fig19b",
        "fig19b_aqrt",
        "Commercial database profile (tau = 250 ms)",
        &sc,
        &rewriters,
        &edges,
    )
}

/// Figure 20: quality-aware rewriting (one-stage vs two-stage vs exact-only MDP vs
/// baseline) — VQP, AQRT and average Jaccard quality per bucket.
pub fn run_fig20() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let n = queries_from_env();
    let sc = scenario(
        DatasetKind::Twitter,
        scale,
        500.0,
        &QueryGenConfig::default(),
        n,
        SEED,
    );
    let db = sc.db().clone();
    let accurate: Arc<dyn QueryTimeEstimator> = Arc::new(AccurateQte::new(db.clone()));
    let config = experiment_config(sc.tau_ms).with_beta(0.5);
    let rules = ApproxRule::paper_limit_rules();

    let one_stage = QualityAwareRewriter::train(
        db.clone(),
        accurate.clone(),
        &sc.split.train,
        rules.clone(),
        QualityAwareMode::OneStage,
        QualityFunction::Jaccard,
        &config,
    )
    .expect("one-stage training");
    let two_stage = QualityAwareRewriter::train(
        db.clone(),
        accurate.clone(),
        &sc.split.train,
        rules,
        QualityAwareMode::TwoStage,
        QualityFunction::Jaccard,
        &config,
    )
    .expect("two-stage training");
    let exact_mdp = train_mdp_rewriter(
        &sc,
        accurate,
        "MDP (Accu.-QTE)",
        Box::new(RewriteSpace::hints_only),
        &experiment_config(sc.tau_ms),
    );
    let rewriters: Vec<Box<dyn QueryRewriter>> = vec![
        Box::new(BaselineRewriter::new()),
        Box::new(exact_mdp),
        Box::new(two_stage),
        Box::new(one_stage),
    ];

    // Bucket the evaluation queries including the 0-viable-plan bucket.
    let edges = vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)];
    let buckets =
        maliva::metrics::bucket_by_viable_plans(sc.db(), &sc.split.eval, sc.tau_ms, &edges)
            .expect("bucketing");

    let mut headers = vec!["# viable plans (n)".to_string()];
    for r in &rewriters {
        headers.push(r.name());
    }
    let mut vqp_rows = Vec::new();
    let mut aqrt_rows = Vec::new();
    let mut quality_rows = Vec::new();
    for (label, indices) in &buckets {
        let subset: Vec<Query> = indices.iter().map(|&i| sc.split.eval[i].clone()).collect();
        if subset.is_empty() {
            continue;
        }
        let mut vqp_row = vec![format!("{label} (n={})", subset.len())];
        let mut aqrt_row = vec![format!("{label} (n={})", subset.len())];
        let mut quality_row = vec![format!("{label} (n={})", subset.len())];
        for r in &rewriters {
            let mut viable = 0usize;
            let mut total_ms = 0.0;
            let mut total_quality = 0.0;
            for q in &subset {
                let decision = r.rewrite(q).expect("rewrite");
                let exec = sc
                    .db()
                    .execution_time_ms(q, &decision.rewrite)
                    .expect("execution time");
                let total = decision.planning_ms + exec;
                if total <= sc.tau_ms {
                    viable += 1;
                }
                total_ms += total;
                let quality = if decision.rewrite.is_exact() {
                    1.0
                } else {
                    let exact = sc
                        .db()
                        .run(q, &RewriteOption::original())
                        .expect("exact run")
                        .result;
                    let approx = sc
                        .db()
                        .run(q, &decision.rewrite)
                        .expect("approx run")
                        .result;
                    jaccard_quality(&exact, &approx)
                };
                total_quality += quality;
            }
            let nq = subset.len() as f64;
            vqp_row.push(f1(viable as f64 / nq * 100.0));
            aqrt_row.push(secs(total_ms / nq));
            quality_row.push(format!("{:.2}", total_quality / nq));
        }
        vqp_rows.push(vqp_row);
        aqrt_rows.push(aqrt_row);
        quality_rows.push(quality_row);
    }

    let outputs = vec![
        ExperimentOutput {
            id: "fig20a".into(),
            title: "Quality-aware rewriting — viable query percentage (%)".into(),
            headers: headers.clone(),
            rows: vqp_rows,
        },
        ExperimentOutput {
            id: "fig20b".into(),
            title: "Quality-aware rewriting — average query response time (s)".into(),
            headers: headers.clone(),
            rows: aqrt_rows,
        },
        ExperimentOutput {
            id: "fig20c".into(),
            title: "Quality-aware rewriting — average Jaccard quality".into(),
            headers,
            rows: quality_rows,
        },
    ];
    for o in &outputs {
        crate::harness::save_json(o, json!({}));
    }
    outputs
}

/// Figure 21: learning curves (training vs validation VQP) and training time as the
/// number of training queries grows, for 8 / 16 / 32 rewrite options.
pub fn run_fig21() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let n = queries_from_env();
    let mut curve_rows = Vec::new();
    let mut time_rows = Vec::new();
    for (attrs, unit_cost) in [(3usize, 100.0), (4, 60.0), (5, 50.0)] {
        let options = 1usize << attrs;
        let sc = scenario(
            DatasetKind::Twitter,
            scale,
            500.0,
            &QueryGenConfig::with_filters(attrs),
            n,
            SEED,
        );
        let qte = AccurateQte::with_unit_cost(sc.db().clone(), unit_cost);
        let max_train = sc.split.train.len();
        for &train_size in &[10usize, 25, 50, 100, 200] {
            let size = train_size.min(max_train);
            let subset: Vec<Query> = sc.split.train.iter().take(size).cloned().collect();
            if subset.is_empty() {
                continue;
            }
            let config = MalivaConfig {
                tau_ms: 500.0,
                max_epochs: 5,
                epsilon_decay_episodes: (size * 3).max(30),
                ..MalivaConfig::default()
            };
            let trained = train_agent(
                sc.db(),
                &qte,
                &subset,
                &RewriteSpace::hints_only,
                RewardSpec::efficiency_only(),
                &config,
            )
            .expect("training");
            // Validation VQP: greedy planning on the validation workload.
            let mut viable = 0usize;
            for q in &sc.split.validation {
                let space = RewriteSpace::hints_only(q);
                let outcome =
                    plan_online(&trained.agent, sc.db(), &qte, q, &space, 500.0).expect("plan");
                if outcome.viable {
                    viable += 1;
                }
            }
            let val_vqp = viable as f64 / sc.split.validation.len().max(1) as f64 * 100.0;
            curve_rows.push(vec![
                format!("{options} options"),
                format!("{size}"),
                f1(trained.report.final_vqp()),
                f1(val_vqp),
            ]);
            time_rows.push(vec![
                format!("{options} options"),
                format!("{size}"),
                format!("{:.1}", trained.report.wall_clock_secs),
                format!("{}", trained.report.epochs),
            ]);
            if size == max_train {
                break;
            }
        }
    }
    let outputs = vec![
        ExperimentOutput {
            id: "fig21ab".into(),
            title: "Learning curves: training vs validation VQP by number of training queries"
                .into(),
            headers: vec![
                "Rewrite options".into(),
                "# training queries".into(),
                "Training VQP (%)".into(),
                "Validation VQP (%)".into(),
            ],
            rows: curve_rows,
        },
        ExperimentOutput {
            id: "fig21c".into(),
            title: "Training time by number of training queries".into(),
            headers: vec![
                "Rewrite options".into(),
                "# training queries".into(),
                "Training time (s)".into(),
                "Epochs".into(),
            ],
            rows: time_rows,
        },
    ];
    for o in &outputs {
        crate::harness::save_json(o, json!({}));
    }
    outputs
}

/// Every experiment id accepted by the `experiments` binary.
pub fn all_experiment_ids() -> Vec<&'static str> {
    vec![
        "table1", "table2", "table3", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        "fig18", "fig19a", "fig19b", "fig20", "fig21", "serve", "shard", "exec", "chaos",
    ]
}

/// Runs one experiment by id (figure pairs such as fig12/fig13 are produced together).
pub fn run_experiment(id: &str) -> Vec<ExperimentOutput> {
    match id {
        "table1" => run_table1(),
        "table2" => run_table2(),
        "table3" => run_table3(),
        "fig12" | "fig13" => run_fig12_13(),
        "fig14" | "fig15" => run_fig14_15(),
        "fig16" | "fig17" => run_fig16_17(),
        "fig18" => run_fig18(),
        "fig19a" => run_fig19a(),
        "fig19b" => run_fig19b(),
        "fig20" => run_fig20(),
        "fig21" => run_fig21(),
        "serve" => run_serve_throughput(),
        "shard" => run_shard_scaling(),
        "exec" => run_exec_engine(),
        "chaos" => run_chaos(),
        other => panic!("unknown experiment id: {other}"),
    }
}

/// A map from experiment id to a short description (used by `--list`).
pub fn experiment_descriptions() -> BTreeMap<&'static str, &'static str> {
    BTreeMap::from([
        ("table1", "Dataset inventory"),
        (
            "table2",
            "Evaluation-workload difficulty histogram (8 options)",
        ),
        ("table3", "Difficulty histograms for 16/32 rewrite options"),
        ("fig12", "VQP on Twitter / NYC Taxi / TPC-H"),
        ("fig13", "AQRT on Twitter / NYC Taxi / TPC-H"),
        ("fig14", "VQP for 16/32 rewrite options"),
        ("fig15", "AQRT for 16/32 rewrite options"),
        ("fig16", "VQP for time budgets 0.25/0.75/1.0 s"),
        ("fig17", "AQRT for time budgets 0.25/0.75/1.0 s"),
        ("fig18", "Join queries (VQP + AQRT)"),
        ("fig19a", "Unseen query shapes"),
        ("fig19b", "Commercial database profile"),
        (
            "fig20",
            "Quality-aware rewriting (VQP, AQRT, Jaccard quality)",
        ),
        ("fig21", "Learning curves and training time"),
        (
            "serve",
            "Serving throughput/latency at 1/2/4/8 workers + decision-cache ablation",
        ),
        (
            "shard",
            "Per-region shard scaling at 1/2/4/8 shards (speedup + result equivalence)",
        ),
        (
            "exec",
            "Interpreter vs compiled engine (wall-clock speedup + byte-identical results)",
        ),
        (
            "chaos",
            "Serving availability/p99 under injected shard faults at 0/5/20% rates",
        ),
    ])
}
