//! The Maliva serving benchmark.
//!
//! Serves one seeded Twitter workload through `MalivaServer::serve_one` from a
//! closed loop of two clients, checks every answer against an unsharded
//! `Database::run`, and prints the end-to-end metrics (`--trace 0`) or, from a
//! traced run, the per-layer metrics (`--trace 1`). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-plan --seed 1 --seconds 10 --trace 0
//! ```

mod calibrate;
mod check;
mod layers;
mod load;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use maliva_qte::QueryTimeEstimator;
use maliva_serve::{MalivaServer, ServeResponse};
use vizdb::QueryBackend;

use crate::check::Answer;
use crate::load::{closed_loop, Client, Phase};
use crate::workloads::{Setup, Stream, Workload};

/// Closed-loop clients: one per core of the 2-core reference host.
pub const CLIENTS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// A tail percentile needs at least this many samples beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <cold-plan|hot-repeat-sharded|approx-quality> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or(bad("not in 1..=3600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What the phase keeps per request.
pub type Outcome = Result<Answer, String>;

/// The untraced client: `serve_one` and nothing else on the clock.
struct Plain<'a> {
    server: &'a MalivaServer,
    stream: &'a Stream,
}

impl Client for Plain<'_> {
    type Raw = vizdb::error::Result<ServeResponse>;
    type Out = Outcome;

    fn serve(&self, index: usize) -> Self::Raw {
        self.server.serve_one(index, self.stream.request(index))
    }

    fn record(&self, _index: usize, raw: Self::Raw) -> Outcome {
        raw.as_ref().map(Answer::of).map_err(|e| e.to_string())
    }
}

/// The traced client: a request span around `serve_one`; each thread's spans
/// are collected when it finishes.
struct Traced<'a> {
    plain: Plain<'a>,
    traces: Mutex<Vec<trace::ThreadTrace>>,
}

impl Client for Traced<'_> {
    type Raw = vizdb::error::Result<ServeResponse>;
    type Out = Outcome;

    fn start(&self, client: usize) {
        trace::start_thread(client as u64 + 1);
    }

    fn serve(&self, index: usize) -> Self::Raw {
        trace::set_request(index);
        let _span = trace::span(trace::REQUEST);
        self.plain.serve(index)
    }

    fn record(&self, index: usize, raw: Self::Raw) -> Outcome {
        self.plain.record(index, raw)
    }

    fn finish(&self, _client: usize) {
        self.traces
            .lock()
            .expect("trace list poisoned")
            .push(trace::finish_thread());
    }
}

/// The timed phase runs in slices of about this many seconds, with a
/// calibration burst before the first slice and after each one.
const SLICE_S: f64 = 2.0;

/// Serves `stream` for `seconds` in slices, timing the calibration kernel
/// around each slice while no request is in flight.
fn serve_phase<C: Client<Out = Outcome>>(
    client: &C,
    stream: &Stream,
    seconds: f64,
    kernel: &calibrate::Kernel,
) -> Timed {
    let slices = (seconds / SLICE_S).ceil().max(1.0) as usize;
    let budget = Duration::from_secs_f64(seconds / slices as f64);
    let mut bursts = vec![kernel.burst(CLIENTS, calibrate::BURST)];
    let mut phase = Phase::empty();
    let mut next = 0;
    for _ in 0..slices {
        let slice = closed_loop(CLIENTS, next..stream.len(), budget, client);
        next = slice.served.last().map_or(next, |s| s.index + 1);
        phase.append(slice);
        bursts.push(kernel.burst(CLIENTS, calibrate::BURST));
    }
    Timed {
        phase,
        speed: calibrate::Speed::from_bursts(&bursts),
    }
}

/// A served phase and the host speed it ran at.
pub struct Timed {
    pub phase: Phase<Outcome>,
    pub speed: calibrate::Speed,
}

/// Serves the training queries once (untimed), so page faults and the shard
/// pool's first wake-ups stay out of the timed phase, then empties the
/// backend's time and selectivity caches: every phase starts cold.
fn warm_up(setup: &Setup) {
    let server = workloads::server(setup, setup.serving.clone(), setup.qte.clone());
    for (i, q) in setup.training.iter().enumerate() {
        let _ = server.serve_one(i, &maliva_serve::ServeRequest::new(q.clone()));
    }
    setup.serving.clear_caches();
}

/// Everything a checked phase contributes to the report.
pub struct Checked {
    pub phase: Phase<Outcome>,
    pub speed: calibrate::Speed,
    pub verdicts: check::Verdicts,
}

impl Checked {
    fn new(setup: &Setup, stream: &Stream, timed: Timed) -> Self {
        let verdicts = check::check(&setup.dataset.db, stream, &timed.phase.served, CLIENTS);
        Self {
            phase: timed.phase,
            speed: timed.speed,
            verdicts,
        }
    }

    pub fn attempted(&self) -> usize {
        self.phase.served.len()
    }

    pub fn failed(&self) -> usize {
        self.verdicts.failures.len()
    }

    /// Answers that passed the check, with their quality.
    pub fn passed(&self) -> impl Iterator<Item = (&Answer, f64)> {
        self.phase
            .served
            .iter()
            .zip(&self.verdicts.quality)
            .filter_map(|(s, q)| Some((s.outcome.as_ref().ok()?, (*q)?)))
    }

    /// Wall-clock throughput, as measured.
    pub fn throughput_rps(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.phase.wall.as_secs_f64().max(1e-9)
    }

    /// Throughput scaled to the reference host's speed.
    pub fn throughput_norm_rps(&self) -> f64 {
        self.speed.normalise_rate(self.throughput_rps())
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        stats::sorted(
            &self
                .phase
                .served
                .iter()
                .map(|s| s.latency.as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    }
}

struct Report {
    metrics: Vec<Metric>,
    meta: Vec<(String, String)>,
    attempted: usize,
    failures: Vec<(usize, String)>,
}

fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the set-ups of a run took.
pub struct SetupRuns {
    pub times: Vec<workloads::SetupTimes>,
    /// Host speed around each set-up, from the bursts just before and after.
    pub speeds: Vec<calibrate::Speed>,
}

impl SetupRuns {
    /// Median set-up time scaled to the reference host's speed (`setup_s`).
    pub fn norm_s(&self) -> f64 {
        stats::median(&stats::sorted(
            &self
                .times
                .iter()
                .zip(&self.speeds)
                .map(|(t, speed)| speed.normalise_time(t.total_s()))
                .collect::<Vec<_>>(),
        ))
    }

    /// Median set-up time as measured.
    pub fn raw_s(&self) -> f64 {
        stats::median(&stats::sorted(
            &self.times.iter().map(|t| t.total_s()).collect::<Vec<_>>(),
        ))
    }
}

fn set_up(args: &Args, kernel: &calibrate::Kernel) -> Result<(Setup, SetupRuns), String> {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut runs = SetupRuns {
        times: Vec::with_capacity(repeats),
        speeds: Vec::with_capacity(repeats),
    };
    let mut before = kernel.burst(CLIENTS, calibrate::BURST);
    let mut setup = None;
    for _ in 0..repeats {
        // Drop the previous set-up first so only one dataset is alive.
        drop(setup.take());
        let s = workloads::set_up(args.workload).map_err(|e| format!("set-up failed: {e}"))?;
        let after = kernel.burst(CLIENTS, calibrate::BURST);
        runs.times.push(s.times);
        runs.speeds
            .push(calibrate::Speed::from_bursts(&[before, after]));
        before = after;
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up ran");
    Ok((setup, runs))
}

fn run(args: &Args) -> Result<Report, String> {
    let kernel = calibrate::Kernel::new();
    let (setup, setup_runs) = set_up(args, &kernel)?;
    let t = Instant::now();
    let stream = workloads::stream(&setup, args.seed, args.seconds);
    if stream.viewports.is_empty() {
        return Err("the generator produced no requests".into());
    }
    let stream_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    warm_up(&setup);
    let warm_up_s = t.elapsed().as_secs_f64();
    let last = setup.times;

    let mut meta = vec![
        ("workload".into(), args.workload.name().to_string()),
        ("seed".into(), args.seed.to_string()),
        ("setup_seed".into(), workloads::SETUP_SEED.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        (
            "host_cores".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("clients".into(), CLIENTS.to_string()),
        ("dataset_rows".into(), setup.dataset.row_count().to_string()),
        ("tau_ms".into(), workloads::TAU_MS.to_string()),
        ("training_queries".into(), setup.training.len().to_string()),
        (
            "distinct_viewports".into(),
            stream.viewports.len().to_string(),
        ),
        ("stream_len".into(), stream.len().to_string()),
        ("setup_repeats".into(), setup_runs.times.len().to_string()),
        ("commit".into(), commit()),
        (
            "setup_steps_s".into(),
            format!(
                "dataset {:.3} mirror {:.3} qte_fit {:.3} train {:.3}",
                last.dataset_s, last.mirror_s, last.qte_fit_s, last.train_s
            ),
        ),
        ("stream_gen_s".into(), format!("{stream_s:.3}")),
        ("warm_up_s".into(), format!("{warm_up_s:.3}")),
    ];

    let plain = Plain {
        server: &workloads::server(&setup, setup.serving.clone(), setup.qte.clone()),
        stream: &stream,
    };
    if !args.trace {
        let phase = serve_phase(&plain, &stream, args.seconds as f64, &kernel);
        let t = Instant::now();
        let checked = Checked::new(&setup, &stream, phase);
        let indices: Vec<usize> = checked.phase.served.iter().map(|s| s.index).collect();
        let baseline = check::baseline(setup.serving.as_ref(), &stream, &indices, CLIENTS)
            .map_err(|e| format!("baseline failed: {e}"))?;
        meta.push((
            "check_s".into(),
            format!("{:.3}", t.elapsed().as_secs_f64()),
        ));
        let (metrics, more_meta) = layers::end_to_end(&checked, baseline, &setup_runs);
        meta.extend(more_meta);
        return Ok(Report {
            metrics,
            meta,
            attempted: checked.attempted(),
            failures: checked.verdicts.failures,
        });
    }

    // Traced run: the first half serves untraced as the overhead reference,
    // the second half serves the same stream from cold caches, traced.
    let half = args.seconds as f64 / 2.0;
    let untraced = Checked::new(&setup, &stream, serve_phase(&plain, &stream, half, &kernel));
    setup.serving.clear_caches();

    let traced_backend: Arc<dyn QueryBackend> = trace::TimedBackend::wrap(setup.serving.clone());
    let traced_qte: Arc<dyn QueryTimeEstimator> = trace::TimedQte::wrap(
        workloads::build_qte(
            args.workload,
            trace::TimedBackend::wrap(setup.serving.clone()),
            &setup.training,
        )
        .map_err(|e| format!("building the traced QTE failed: {e}"))?,
    );
    setup.serving.clear_caches();
    let server = workloads::server(&setup, traced_backend, traced_qte);
    let traced_client = Traced {
        plain: Plain {
            server: &server,
            stream: &stream,
        },
        traces: Mutex::new(Vec::new()),
    };
    let before = layers::Counters::take(&setup);
    let phase = serve_phase(&traced_client, &stream, half, &kernel);
    let after = layers::Counters::take(&setup);
    let traced = Checked::new(&setup, &stream, phase);
    let traces = traced_client
        .traces
        .into_inner()
        .expect("trace list poisoned");

    let spans_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
    let all_spans: Vec<trace::Span> = traces.iter().flat_map(|t| t.spans.clone()).collect();
    trace::write_spans(&spans_path, &all_spans)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    meta.push(("span_file".into(), spans_path.display().to_string()));
    meta.push(("spans".into(), all_spans.len().to_string()));

    let (metrics, more_meta) = layers::per_layer(&layers::TracedRun {
        setup: &setup,
        stream: &stream,
        untraced: &untraced,
        traced: &traced,
        traces: &traces,
        cache: server.cache_stats(),
        before,
        after,
        setup_times: &setup_runs.times,
    });
    meta.extend(more_meta);
    let mut failures = untraced.verdicts.failures;
    failures.extend(traced.verdicts.failures);
    Ok(Report {
        metrics,
        meta,
        attempted: untraced.phase.served.len() + traced.phase.served.len(),
        failures,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let meta: Vec<String> = report
        .meta
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect();
    println!("meta {{{}}}", meta.join(","));
    for m in &report.metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let failed = report.failures.len();
    println!(
        "failed_pct {:.4} % ({failed} of {} attempted)",
        100.0 * failed as f64 / report.attempted.max(1) as f64,
        report.attempted
    );
    for (index, reason) in &report.failures {
        println!("FAILED request {index}: {reason}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0,
        report.attempted,
        failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
