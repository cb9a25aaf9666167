//! The three served workloads: set-up (dataset, shard mirror, QTE, agent) and
//! the seeded request streams.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use maliva::train::SpaceBuilder;
use maliva::{train_agent, MalivaConfig, QAgent, RewardSpec, RewriteSpace};
use maliva_qte::approximate::ApproximateQteConfig;
use maliva_qte::{AccurateQte, ApproximateQte, QueryTimeEstimator};
use maliva_quality::QualityFunction;
use maliva_serve::{MalivaServer, ServeConfig, ServeRequest};
use maliva_workload::{build_twitter, generate_queries, Dataset, DatasetScale, QueryGenConfig};
use vizdb::approx::ApproxRule;
use vizdb::error::Result;
use vizdb::fingerprint::query_fingerprint;
use vizdb::hints::RewriteOption;
use vizdb::query::Query;
use vizdb::{QueryBackend, ShardedBackend, ShardedBackendBuilder};

/// The visualization time budget τ of every workload (the paper's Twitter τ).
pub const TAU_MS: f64 = 500.0;
/// Seed of the dataset, the training queries and the agent. Set-up is fixed,
/// so every run measures the same trained system; the workload seed draws
/// only the served requests. (A per-seed agent made cold-plan's median
/// latency vary tenfold between seeds, drowning any change under test.)
pub const SETUP_SEED: u64 = 1;
/// Queries the agent (and the approximate QTE's cost model) train on.
const TRAINING_QUERIES: usize = 100;
/// Shards of the hot-repeat-sharded mirror.
pub const SHARDS: usize = 4;
/// hot-repeat-sharded opens a new viewport every this many requests (a 5%
/// decision-cache miss rate)...
const HOT_NEW_EVERY: usize = 20;
/// ...and pans back to one of this many most recently opened viewports.
const HOT_RECENT: usize = 1000;
/// Upper bounds on the stream a run can draw from, in requests per second of
/// the timed phase; far above what the host serves, so the clock, not the
/// stream, ends a phase.
const COLD_PLAN_RATE_CAP: usize = 2_000;
const HOT_REPEAT_RATE_CAP: usize = 20_000;
const APPROX_RATE_CAP: usize = 8_000;

/// Which workload to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdPlan,
    HotRepeatSharded,
    ApproxQuality,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdPlan,
        Workload::HotRepeatSharded,
        Workload::ApproxQuality,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPlan => "cold-plan",
            Workload::HotRepeatSharded => "hot-repeat-sharded",
            Workload::ApproxQuality => "approx-quality",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn gen_config(self) -> QueryGenConfig {
        QueryGenConfig {
            binned_output: self == Workload::HotRepeatSharded,
            ..QueryGenConfig::default()
        }
    }

    fn space_builder(self) -> Arc<SpaceBuilder> {
        match self {
            Workload::ApproxQuality => {
                let rules = ApproxRule::paper_limit_rules();
                Arc::new(move |q: &Query| RewriteSpace::with_approx_rules(q, &rules))
            }
            _ => Arc::new(RewriteSpace::hints_only),
        }
    }

    fn reward(self) -> RewardSpec {
        match self {
            Workload::ApproxQuality => RewardSpec::quality_aware(0.5, QualityFunction::Jaccard),
            _ => RewardSpec::efficiency_only(),
        }
    }

    /// (max epochs, ε-decay episodes) of agent training: the repository's
    /// experiment schedule, cut to 3 epochs for approx-quality, whose
    /// episodes cost about ten times more (a 48-way Q-network, and a quality
    /// reward that materialises both the original and the rewritten result).
    fn training_schedule(self) -> (usize, usize) {
        match self {
            Workload::ApproxQuality => (3, 300),
            _ => (6, 400),
        }
    }

    fn rate_cap(self) -> usize {
        match self {
            Workload::ColdPlan => COLD_PLAN_RATE_CAP,
            Workload::HotRepeatSharded => HOT_REPEAT_RATE_CAP,
            Workload::ApproxQuality => APPROX_RATE_CAP,
        }
    }
}

/// Wall seconds each set-up step took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub dataset_s: f64,
    pub mirror_s: f64,
    pub qte_fit_s: f64,
    pub train_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.dataset_s + self.mirror_s + self.qte_fit_s + self.train_s
    }
}

/// A workload ready to serve.
pub struct Setup {
    pub workload: Workload,
    pub dataset: Dataset,
    /// The 4-shard mirror (hot-repeat-sharded only).
    pub sharded: Option<Arc<ShardedBackend>>,
    /// What the server executes on: the mirror or the database itself.
    pub serving: Arc<dyn QueryBackend>,
    pub qte: Arc<dyn QueryTimeEstimator>,
    pub agent: Arc<QAgent>,
    pub space: Arc<SpaceBuilder>,
    pub training: Vec<Query>,
    pub times: SetupTimes,
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Derives an independent stream seed for one purpose.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose
}

/// Builds the QTE a workload plans with over `backend`. The approximate QTE
/// fits its linear cost model on the training queries' hint-only options.
pub fn build_qte(
    workload: Workload,
    backend: Arc<dyn QueryBackend>,
    training: &[Query],
) -> Result<Arc<dyn QueryTimeEstimator>> {
    Ok(match workload {
        Workload::ApproxQuality => {
            let pairs: Vec<(Query, Vec<RewriteOption>)> = training
                .iter()
                .map(|q| (q.clone(), RewriteSpace::hints_only(q).options().to_vec()))
                .collect();
            Arc::new(ApproximateQte::fit(
                backend,
                ApproximateQteConfig::default(),
                &pairs,
            )?)
        }
        _ => Arc::new(AccurateQte::new(backend)),
    })
}

/// Builds the dataset, the mirror, the QTE and the trained agent, timing each.
pub fn set_up(workload: Workload) -> Result<Setup> {
    let seed = SETUP_SEED;
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let dataset = build_twitter(DatasetScale::large(), seed);
    times.dataset_s = seconds_since(t);

    let t = Instant::now();
    let sharded = match workload {
        Workload::HotRepeatSharded => Some(Arc::new(ShardedBackendBuilder::mirror(
            &dataset.db,
            SHARDS,
        )?)),
        _ => None,
    };
    times.mirror_s = seconds_since(t);
    let serving: Arc<dyn QueryBackend> = match &sharded {
        Some(s) => s.clone(),
        None => dataset.db.clone(),
    };

    let training = generate_queries(
        &dataset,
        TRAINING_QUERIES,
        &workload.gen_config(),
        sub_seed(seed, 1),
    );

    let t = Instant::now();
    let qte = build_qte(workload, serving.clone(), &training)?;
    times.qte_fit_s = seconds_since(t);

    let t = Instant::now();
    let space = workload.space_builder();
    let (max_epochs, epsilon_decay_episodes) = workload.training_schedule();
    let config = MalivaConfig {
        tau_ms: TAU_MS,
        max_epochs,
        epsilon_decay_episodes,
        seed: sub_seed(seed, 2),
        ..MalivaConfig::default()
    };
    let trained = train_agent(
        serving.as_ref(),
        qte.as_ref(),
        &training,
        space.as_ref(),
        workload.reward(),
        &config,
    )?;
    times.train_s = seconds_since(t);

    Ok(Setup {
        workload,
        dataset,
        sharded,
        serving,
        qte,
        agent: Arc::new(trained.agent),
        space,
        training,
        times,
    })
}

/// The request stream of one run: stream position `i` requests viewport
/// `order[i]`, one of the pairwise distinct requests in `viewports`.
pub struct Stream {
    pub viewports: Vec<ServeRequest>,
    pub order: Vec<usize>,
}

impl Stream {
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// The request at stream position `i`.
    pub fn request(&self, i: usize) -> &ServeRequest {
        &self.viewports[self.order[i]]
    }
}

/// Up to `n` generated queries, pairwise distinct and distinct from `exclude`,
/// in seeded random order.
fn distinct_queries(
    dataset: &Dataset,
    config: &QueryGenConfig,
    n: usize,
    exclude: &[Query],
    seed: u64,
) -> Vec<Query> {
    let mut seen: HashSet<u64> = exclude.iter().map(query_fingerprint).collect();
    let mut out = Vec::with_capacity(n);
    // The generator draws seed records with replacement, so a batch repeats
    // some viewports; top up with fresh batches until `n` distinct remain.
    for round in 0..8u64 {
        let want = n - out.len();
        if want == 0 {
            break;
        }
        let batch = generate_queries(dataset, want + want / 8, config, sub_seed(seed, round));
        for q in batch {
            if out.len() < n && seen.insert(query_fingerprint(&q)) {
                out.push(q);
            }
        }
    }
    // Deduplication keeps the first draw of each viewport, so late positions
    // lean towards rarely drawn shapes. Shuffling makes every prefix a uniform
    // sample: a run that serves more requests serves the same mix, not a
    // different one.
    out.shuffle(&mut ChaCha8Rng::seed_from_u64(sub_seed(seed, 8)));
    out
}

/// Generates the stream for a timed phase of `seconds`.
///
/// * cold-plan and approx-quality: every request is a distinct viewport drawn
///   from `seed`;
/// * hot-repeat-sharded: every [`HOT_NEW_EVERY`]-th request opens a new
///   viewport and the others pan back to one of the last [`HOT_RECENT`]
///   viewports, chosen by `seed`. The new viewports come from
///   [`SETUP_SEED`], like the dataset, so every seed plans the same ones.
///   The miss rate is the same over any prefix of the stream, so a faster
///   commit serves the same mix, not a more cache-friendly one.
pub fn stream(setup: &Setup, seed: u64, seconds: u64) -> Stream {
    let workload = setup.workload;
    let cap = workload.rate_cap() * seconds.max(1) as usize;
    let config = workload.gen_config();
    let (distinct_n, pool_seed) = match workload {
        Workload::HotRepeatSharded => (cap.div_ceil(HOT_NEW_EVERY), SETUP_SEED),
        _ => (cap, seed),
    };
    let pool = distinct_queries(
        &setup.dataset,
        &config,
        distinct_n,
        &setup.training,
        sub_seed(pool_seed, 3),
    );
    let order: Vec<usize> = match workload {
        Workload::HotRepeatSharded => {
            let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 4));
            let mut opened = 0usize;
            let mut order = Vec::with_capacity(cap);
            for i in 0..cap {
                if i % HOT_NEW_EVERY == 0 {
                    if opened == pool.len() {
                        break;
                    }
                    order.push(opened);
                    opened += 1;
                } else {
                    order.push(rng.gen_range(opened.saturating_sub(HOT_RECENT)..opened));
                }
            }
            order
        }
        _ => (0..pool.len()).collect(),
    };
    Stream {
        viewports: pool
            .into_iter()
            .map(|q| ServeRequest::with_tau(q, TAU_MS))
            .collect(),
        order,
    }
}

/// A server over `backend` and `qte` with the workload's agent and space and
/// the default decision cache.
pub fn server(
    setup: &Setup,
    backend: Arc<dyn QueryBackend>,
    qte: Arc<dyn QueryTimeEstimator>,
) -> MalivaServer {
    MalivaServer::new(
        backend,
        setup.agent.clone(),
        qte,
        setup.space.clone(),
        ServeConfig {
            workers: crate::CLIENTS,
            shards: if setup.sharded.is_some() { SHARDS } else { 1 },
            default_tau_ms: TAU_MS,
            ..ServeConfig::default()
        },
    )
}
