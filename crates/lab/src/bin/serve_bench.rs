//! Synthetic open-loop serving benchmark.
//!
//! Drives the `tdc-serve` engine with a multi-client, open-loop workload
//! (clients submit at a fixed rate regardless of completions — the standard
//! way to surface queueing delay), prints throughput and latency
//! percentiles, demonstrates at least one plan-cache hit via a warm engine
//! restart, and records everything as a `BENCH_serve.json` artifact
//! (schema 10) so later changes can track the serving-performance trajectory.
//!
//! Modes (composable):
//!
//! * default — one model, measured per execution backend (`runs`, with the
//!   sim-GPU backend's per-layer simulated latency breakdown);
//! * `--models N` — additionally, N models behind a [`ModelRegistry`] with
//!   clients round-robining mixed traffic across them; the artifact gains
//!   per-model latency summaries plus admission rejections (`multi_model`).
//!   Composes with `--backend`: a single backend pins every model, the
//!   default `both` alternates cpu / sim-gpu across the fleet.
//! * `--deadline-ms D` — every benchmark request carries a `D` ms deadline;
//!   requests expiring unserved are counted per run (`deadline_exceeded`).
//! * `--keep-alive` — adds an HTTP phase: the single model behind the
//!   HTTP/1.1 front end, driven over persistent connections; the artifact's
//!   `http` section records connection-reuse and timeout counts.
//! * `--router` — adds the fleet phase: three in-process replicas (each a
//!   registry behind its own HTTP front end) behind a `tdc-router`
//!   [`Router`], hammered over keep-alive connections while one replica is
//!   shut down mid-load and later restarted on its old port. The artifact's
//!   `router` section records per-replica forward counts plus the
//!   failover/ejection/readmission counters; the phase asserts zero
//!   client-visible failures.
//! * `--qos` — adds the mixed-priority phase: three models — one per QoS
//!   class (`interactive`, `standard`, `batch`) — behind one registry on
//!   the shared fleet executor, driven with interleaved mixed traffic; the
//!   artifact's `qos` section records per-class completion counts and
//!   latency percentiles plus the executor's fleet telemetry (worker
//!   utilization, steal totals).
//! * `--trace <spec.json>` — adds the trace phase: a `tdc-lab`
//!   [`WorkloadSpec`] is expanded into its
//!   byte-reproducible trace (seeded arrival processes, heavy-tailed size
//!   mix, multi-model zoo) and replayed open-loop against a live registry;
//!   the artifact's `trace` section records the trace fingerprint, the
//!   full outcome accounting (`submitted == completed + expired + failed`,
//!   sheds separate) and the completed-output fingerprint. Two runs of the
//!   same spec produce identical request streams — the deterministic core
//!   the `lab_gate` regression gate compares.
//! * `--controller` — adds the joint-knob controller phase: one sim-GPU
//!   model registered with a deliberately sluggish batching window, tuned
//!   by the `tdc-ctrl` coordinate-descent controller against a
//!   measured-latency SLO (all four knobs: budget, batch size, batch
//!   delay, fair-share weight), then browned out with an injected backend
//!   delay so the next controller tick detects drift and re-tunes through
//!   the zero-drop swap path. The artifact's `controller` section records
//!   the knob movement, the measured p99 trajectory (untuned → tuned →
//!   drifted → recovered) and the drift/retune counters. The SLO defaults
//!   to half the untuned measured p99 and can be pinned with
//!   `SERVE_BENCH_TARGET_P99_MS`.
//! * `--check-schema` — no benchmark: read the existing artifact and
//!   validate it against whatever `schema_version` it declares (every
//!   historical version 1..=10 is understood; see `tdc_lab::artifact`).
//!   CI runs this after the bench smoke steps to catch schema drift
//!   between the writer and its consumers.
//!
//! Usage:
//!
//! ```text
//! serve_bench [--backend cpu|sim-gpu|both] [--models N] [--deadline-ms D]
//!             [--keep-alive] [--router] [--qos] [--controller]
//!             [--trace spec.json] [--check-schema]
//! ```
//!
//! Any other `--flag` is rejected with this usage line and exit code 2.
//!
//! Environment knobs (all optional):
//!
//! * `SERVE_BENCH_REQUESTS`  — total requests in the measured phase (default 960;
//!   enough to make the measured window long enough to damp scheduler noise)
//! * `SERVE_BENCH_WARMUP`    — unmeasured warmup requests per backend (default 256)
//! * `SERVE_BENCH_CLIENTS`   — concurrent client threads (default 4)
//! * `SERVE_BENCH_WORKERS`   — executor worker threads (default 4)
//! * `SERVE_BENCH_RATE_HZ`   — per-client submission rate (default 4000)
//! * `SERVE_BENCH_BACKEND`   — same as `--backend` (the flag wins)
//! * `SERVE_BENCH_MODELS`    — same as `--models` (the flag wins)
//! * `SERVE_BENCH_DEADLINE_MS` — same as `--deadline-ms` (the flag wins)
//! * `SERVE_BENCH_TARGET_P99_MS` — `--controller` SLO target override, ms
//! * `SERVE_BENCH_TRACE`     — same as `--trace` (the flag wins)
//! * `SERVE_BENCH_TRACE_TIME_SCALE` — trace-clock multiplier (default 1.0)
//! * `SERVE_BENCH_OUT`       — artifact path (default `BENCH_serve.json`)

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdc_lab::runner::{deploy, reconcile, replay, ReplayOptions};
use tdc_lab::spec::WorkloadSpec;
use tdc_router::{Router, RouterOptions, RoutingPolicy};
use tdc_serve::http::{http_request, InferBody};
use tdc_serve::{
    serving_descriptor, BackendKind, BatchingOptions, CacheOutcome, HttpClient, HttpServer,
    LatencySummary, LayerSimLatency, ModelConfig, ModelRegistry, PlanCache, PlanningOptions,
    RuntimeOptions, ServeEngine, ServeError,
};
use tdc_tensor::init;

/// The schema this binary writes; `--check-schema` additionally accepts
/// every *older* version via [`tdc_lab::artifact::validate`].
const EXPECTED_SCHEMA_VERSION: u32 = tdc_lab::artifact::CURRENT_SCHEMA_VERSION;

/// The `BENCH_serve.json` schema, versioned so later PRs can extend it.
/// Schema 10 (over 9): a `controller` section — the joint-knob tune's
/// before/after knob sets, the measured p99 trajectory across the phase's
/// stages and the drift-triggered re-tune count, pinning the control
/// loop's convergence in the artifact trajectory.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct ServeBenchArtifact {
    schema_version: u32,
    bench: String,
    model: String,
    device: String,
    budget: f64,
    workers: usize,
    clients: usize,
    max_batch_size: usize,
    max_batch_delay_ms: f64,
    deadline_ms: Option<u64>,
    runs: Vec<BackendRun>,
    multi_model: Option<MultiModelRun>,
    http: Option<HttpRun>,
    router: Option<RouterRun>,
    qos: Option<QosRun>,
    trace: Option<TraceRun>,
    kernels: Option<KernelsRun>,
    controller: Option<ControllerRun>,
}

/// The `--controller` phase (schema 10): the joint-knob tune against a
/// measured SLO, plus one injected brown-out caught by the drift check.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct ControllerRun {
    /// The model the controller tuned.
    model: String,
    /// The SLO the search aimed at, ms.
    target_p99_ms: f64,
    /// The knob set the model was registered with.
    knobs_before: tdc_serve::KnobSet,
    /// The knob set the search applied.
    knobs_after: tdc_serve::KnobSet,
    /// Measured p99 before the tune, ms.
    untuned_p99_ms: f64,
    /// Measured closed-loop throughput before the tune, req/s.
    untuned_throughput_rps: f64,
    /// Measured p99 on the tuned knobs, ms.
    tuned_p99_ms: f64,
    /// Measured closed-loop throughput on the tuned knobs, req/s.
    tuned_throughput_rps: f64,
    /// Did the search meet the SLO (by its calibrated estimate)?
    converged: bool,
    /// Were the winning knobs hot-swapped in?
    applied: bool,
    /// Coordinate-descent probes the search evaluated.
    probes: u64,
    /// The model's tuning generation at the end of the phase (>= 2: the
    /// explicit tune plus the drift-triggered re-tune).
    tuning_generation: u64,
    /// Drift events the controller recorded for the model.
    drift_events: u64,
    /// Re-tunes triggered by the drift tick (>= 1 by construction).
    drift_retunes: u64,
    /// Deadline-aware early batch releases observed across the phase.
    early_releases: u64,
    /// Measured p99 per stage: untuned, tuned, drifted, recovered; ms.
    p99_trajectory: Vec<f64>,
}

/// The CPU hot-path kernel telemetry (schema 9): blocked-GEMM tile shape
/// plus the serving engine's f32 buffer-pool counters over the CPU
/// backend's **measured window** (warmup traffic excluded).
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct KernelsRun {
    /// Register tile rows of the blocked GEMM (`GEMM_MR`).
    gemm_tile_mr: u64,
    /// Register tile columns of the blocked GEMM (`GEMM_NR`).
    gemm_tile_nr: u64,
    /// Maximum f32 capacity simultaneously checked out of the pool
    /// (absolute over the engine's lifetime, warmup included).
    arena_high_water_f32: u64,
    /// Fresh `Vec<f32>` allocations the pool performed inside the measured
    /// window — the warm steady state performs none.
    arena_allocated_buffers: u64,
    /// Pool takes inside the measured window.
    arena_takes: u64,
    /// Fraction of measured-window takes served by a recycled buffer.
    arena_hit_rate: f64,
    /// Measured-window fresh pool allocations divided by completed
    /// requests — the zero-allocation criterion is this staying at zero.
    allocs_per_request: f64,
}

/// The `--trace` phase: one workload spec replayed end to end.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct TraceRun {
    /// Path of the workload spec that was replayed.
    spec: String,
    /// The spec's workload name.
    workload: String,
    /// The spec's PRNG seed.
    seed: u64,
    /// FNV-1a fingerprint of the generated trace, hex — identical across
    /// machines for the same spec.
    trace_fingerprint: String,
    /// Trace events dispatched.
    events: u64,
    /// Samples dispatched (`submitted + shed`).
    requests: u64,
    /// Samples admitted.
    submitted: u64,
    /// Samples shed with typed `Overloaded`.
    shed: u64,
    /// Samples completed.
    completed: u64,
    /// Samples expired with typed `DeadlineExceeded`.
    expired: u64,
    /// Samples failed with typed `ExecutionFailed`.
    failed: u64,
    /// Client-visible outcomes outside the typed contract (must be 0).
    unexpected_failures: u64,
    /// FNV-1a over the completed outputs' bits in submission order, hex.
    output_fingerprint: String,
    /// Wall-clock seconds for the replay.
    elapsed_s: f64,
    /// Completed samples per wall-clock second.
    throughput_rps: f64,
    /// Median total latency of the busiest model, ms.
    p50_ms: f64,
    /// Worst per-model p99 total latency, ms.
    p99_ms: f64,
    /// Events per phase, in phase order.
    per_phase_events: Vec<u64>,
    /// Trace-clock multiplier the replay ran at.
    time_scale: f64,
    /// Per-model outcome rows, in zoo order.
    per_model: Vec<TraceModelRun>,
}

/// One model's row in the trace phase.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct TraceModelRun {
    /// Registered model name.
    model: String,
    /// QoS class label, if the spec pinned one.
    qos: Option<String>,
    /// Per-request deadline, if the spec set one.
    deadline_ms: Option<u64>,
    /// Samples the trace aimed at this model.
    samples: u64,
    /// Samples completed.
    completed: u64,
    /// Samples expired.
    expired: u64,
    /// Samples failed.
    failed: u64,
    /// The model's p99 total latency, ms.
    p99_ms: f64,
}

/// The `--qos` mixed-priority phase: one model per QoS class behind one
/// registry, all scheduled by the shared fleet executor.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct QosRun {
    /// Requests submitted to each class's model.
    requests_per_class: u64,
    /// One row per QoS class, in `interactive`, `standard`, `batch` order.
    per_class: Vec<QosClassRun>,
    /// Worker threads in the shared executor pool.
    executor_workers: usize,
    /// Batches dispatched by stealing another worker's token, fleet-wide.
    steals_total: u64,
    /// Fraction of executor worker time spent running batches across the
    /// pool's lifetime, `0.0..=1.0`.
    worker_utilization: f64,
}

/// One QoS class's share of the mixed-priority phase.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct QosClassRun {
    /// QoS class label (`"interactive"`, `"standard"`, `"batch"`).
    qos: String,
    /// Registered model name serving this class.
    model: String,
    /// Fair-share weight the model was registered with.
    fair_share_weight: usize,
    /// Requests completed.
    completed: u64,
    /// Requests expired past their deadline.
    deadline_exceeded: u64,
    /// This model's batches that ran on a stolen dispatch token.
    stolen_batches: u64,
    /// End-to-end latency percentiles for the class.
    total_latency: LatencySummary,
    /// Queue-wait latency percentiles for the class.
    queue_latency: LatencySummary,
}

/// The `--router` fleet phase: a 3-replica topology behind the router,
/// with one replica killed under load and restarted.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct RouterRun {
    /// Replicas in the fleet.
    replicas: usize,
    /// Routing policy label.
    policy: String,
    /// Client requests fired at the router across the phase.
    requests: u64,
    /// Requests answered `200 OK`. Must equal `requests`.
    completed: u64,
    /// Client-visible failures (non-200, transport errors). Must be zero —
    /// failover masks the killed replica.
    failed: u64,
    /// Attempts beyond the first replica (failover masking in action).
    failovers_total: u64,
    /// Prober ejections across the phase (the killed replica).
    ejections_total: u64,
    /// Prober readmissions across the phase (the restarted replica).
    readmissions_total: u64,
    /// Requests each replica answered, in replica-id order.
    per_replica_forwarded: Vec<u64>,
}

/// The `--keep-alive` HTTP phase: requests driven through the front end
/// over persistent connections.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct HttpRun {
    keep_alive: bool,
    requests: u64,
    /// TCP connections opened for `requests` (1 per client with keep-alive;
    /// 1 per request without).
    connections_opened: u64,
    /// Requests that reused an existing connection instead of opening one.
    connection_reuse: u64,
    /// Mean requests served per connection.
    requests_per_connection: f64,
    /// `200 OK` responses.
    completed: u64,
    /// `504 Gateway Timeout` responses (deadline expiries over HTTP).
    timeouts: u64,
}

/// The `--models N` measured phase: mixed traffic through one registry.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct MultiModelRun {
    models: usize,
    requests_submitted: usize,
    elapsed_s: f64,
    total_throughput_rps: f64,
    total_completed: u64,
    total_rejected: u64,
    total_deadline_exceeded: u64,
    per_model: Vec<ModelRun>,
}

/// One model's share of the mixed-traffic phase.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct ModelRun {
    model: String,
    backend: String,
    requests: u64,
    rejected: u64,
    deadline_exceeded: u64,
    throughput_rps: f64,
    total_latency: LatencySummary,
    queue_latency: LatencySummary,
    exec_latency: LatencySummary,
    mean_batch_size: f64,
    plan_fingerprint: String,
}

/// One backend's measured phase.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct BackendRun {
    backend: String,
    requests: u64,
    rejected: u64,
    deadline_exceeded: u64,
    elapsed_s: f64,
    throughput_rps: f64,
    total_latency: LatencySummary,
    queue_latency: LatencySummary,
    exec_latency: LatencySummary,
    mean_batch_size: f64,
    max_batch_observed: u64,
    predicted_gpu_ms_per_sample: f64,
    predicted_gpu_ms_total: f64,
    simulated_gpu_ms_total: f64,
    /// Per-sample (batch 1) simulated per-layer breakdown — absent on
    /// backends that do not simulate.
    simulated_per_layer: Option<Vec<LayerSimLatency>>,
    plan_fingerprint: String,
    plan_outcome_cold: String,
    plan_outcome_warm: String,
    decomposed_layers: usize,
    achieved_flops_reduction: f64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Resolve `--flag value` / `--flag=value` (last occurrence wins) with `env`
/// as the fallback when the flag is absent.
fn flag_or_env(flag: &str, env: &str) -> Option<String> {
    let mut choice = std::env::var(env).ok();
    let args: Vec<String> = std::env::args().collect();
    let prefix = format!("{flag}=");
    for (i, arg) in args.iter().enumerate() {
        if let Some(value) = arg.strip_prefix(&prefix) {
            choice = Some(value.to_string());
        } else if arg == flag {
            match args.get(i + 1) {
                Some(value) => choice = Some(value.clone()),
                None => {
                    eprintln!("serve_bench: {flag} needs a value");
                    std::process::exit(2);
                }
            }
        }
    }
    choice
}

fn backend_selection() -> Vec<BackendKind> {
    match flag_or_env("--backend", "SERVE_BENCH_BACKEND").as_deref() {
        None | Some("both") | Some("all") => BackendKind::all().to_vec(),
        Some(label) => match BackendKind::parse(label) {
            Some(kind) => vec![kind],
            None => {
                eprintln!("serve_bench: unknown backend {label:?}; use cpu, sim-gpu or both");
                std::process::exit(2);
            }
        },
    }
}

fn models_selection() -> usize {
    match flag_or_env("--models", "SERVE_BENCH_MODELS").map(|v| v.parse()) {
        None => 1,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => {
            eprintln!("serve_bench: --models needs a positive integer");
            std::process::exit(2);
        }
    }
}

fn deadline_selection() -> Option<u64> {
    match flag_or_env("--deadline-ms", "SERVE_BENCH_DEADLINE_MS").map(|v| v.parse()) {
        None => None,
        Some(Ok(ms)) if ms > 0 => Some(ms),
        Some(_) => {
            eprintln!("serve_bench: --deadline-ms needs a positive integer");
            std::process::exit(2);
        }
    }
}

/// Flags that take a value, as `--flag value` or `--flag=value`.
const VALUE_FLAGS: [&str; 4] = ["--backend", "--models", "--deadline-ms", "--trace"];

/// Flags that stand alone.
const SWITCHES: [&str; 5] = [
    "--keep-alive",
    "--router",
    "--qos",
    "--controller",
    "--check-schema",
];

const USAGE: &str = "usage: serve_bench [--backend cpu|sim-gpu|both] [--models N] \
                     [--deadline-ms D] [--keep-alive] [--router] [--qos] [--controller] \
                     [--trace spec.json] [--check-schema]";

/// Exit 2 with the usage line on any `--flag` outside the known set, so a
/// mistyped or retired flag fails loudly instead of silently running a
/// different benchmark.
fn reject_unknown_flags() {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            args.next();
            continue;
        }
        let known = SWITCHES.contains(&arg.as_str())
            || VALUE_FLAGS
                .iter()
                .any(|flag| arg.strip_prefix(flag).is_some_and(|v| v.starts_with('=')));
        if arg.starts_with("--") && !known {
            eprintln!("serve_bench: unknown flag {arg:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn bool_flag(flag: &str) -> bool {
    std::env::args().any(|arg| arg == flag)
}

/// `--check-schema`: validate the artifact on disk against whatever
/// schema version it declares — every version the benchmark has ever
/// written (1..=[`EXPECTED_SCHEMA_VERSION`]) is accepted, each against
/// its own required-field list ([`tdc_lab::artifact::validate`]). A
/// current-version artifact is additionally round-tripped through the
/// typed struct so field drift fails the check too. Exits the process.
fn check_schema(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("serve_bench --check-schema: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let value: serde::Value = match serde_json::parse_value(&text) {
        Ok(value) => value,
        Err(e) => {
            eprintln!(
                "serve_bench --check-schema: {path} is not valid JSON: {}",
                e.message
            );
            std::process::exit(1);
        }
    };
    match tdc_lab::artifact::validate(&value) {
        Ok(version) if version == EXPECTED_SCHEMA_VERSION => {
            // Round-trip through the typed artifact so field drift (not just
            // the version number) fails the check too.
            if let Err(e) = serde_json::from_str::<ServeBenchArtifact>(&text) {
                eprintln!(
                    "serve_bench --check-schema: {path} has schema_version \
                     {version} but does not parse as the expected artifact: {}",
                    e.message
                );
                std::process::exit(1);
            }
            println!("serve_bench --check-schema: {path} ok (schema_version {version})");
            std::process::exit(0);
        }
        Ok(version) => {
            println!(
                "serve_bench --check-schema: {path} ok (historical schema_version \
                 {version}; this binary writes {EXPECTED_SCHEMA_VERSION})"
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("serve_bench --check-schema: {path} invalid: {e}");
            std::process::exit(1);
        }
    }
}

fn cache_outcome_label(outcome: CacheOutcome) -> &'static str {
    match outcome {
        CacheOutcome::MemoryHit => "memory-hit",
        CacheOutcome::DiskHit => "disk-hit",
        CacheOutcome::Miss => "miss",
    }
}

struct BenchSettings {
    requests: usize,
    clients: usize,
    workers: usize,
    rate_hz: f64,
    planning: PlanningOptions,
    batching: BatchingOptions,
}

fn run_backend(
    descriptor: &tdc_nn::models::ModelDescriptor,
    cache: &PlanCache,
    kind: BackendKind,
    s: &BenchSettings,
) -> (BackendRun, tdc_serve::PoolStats) {
    let build = |settings: &BenchSettings| {
        ServeEngine::builder(descriptor)
            .planning(settings.planning.clone())
            .batching(settings.batching.clone())
            .runtime(RuntimeOptions {
                workers: settings.workers,
                backend: kind,
                ..RuntimeOptions::default()
            })
            .plan_cache(cache)
            .build()
            .expect("build engine")
    };

    println!("\n== backend: {kind} ==");

    // Cold start: planning is a cache miss (each backend keys separately).
    let plan_started = Instant::now();
    let engine = build(s);
    let cold_plan_ms = plan_started.elapsed().as_secs_f64() * 1e3;
    let plan_outcome_cold = engine.plan_outcome();
    println!(
        "  cold start: planned in {cold_plan_ms:.1} ms ({} of {} layers decomposed, \
         {:.0}% FLOPs reduction)",
        engine.model().decomposed_layers(),
        engine.plan().decisions.len(),
        engine.plan().achieved_reduction * 100.0
    );

    // Warm restart: same (model, device, backend, budget) key must hit.
    drop(engine);
    let warm_started = Instant::now();
    let engine = Arc::new(build(s));
    let warm_plan_ms = warm_started.elapsed().as_secs_f64() * 1e3;
    let plan_outcome_warm = engine.plan_outcome();
    assert_eq!(plan_outcome_warm, CacheOutcome::MemoryHit);
    println!(
        "  warm restart: plan cache hit, engine up in {warm_plan_ms:.1} ms \
         ({}x faster than cold)",
        (cold_plan_ms / warm_plan_ms.max(1e-9)).round()
    );

    let spatial = descriptor.convs[0].h;
    let channels = descriptor.convs[0].c;

    // Unmeasured warmup: enough concurrent traffic to populate the buffer
    // pool at the engine's full checkout depth and fault in every hot page,
    // then reset the metrics so the measured window reports steady state.
    // The pool counters are monotonic, so snapshotting them here lets the
    // measured window report its *own* allocation delta — zero, once warm.
    let warmup = env_usize("SERVE_BENCH_WARMUP", 256);
    {
        let mut rng = StdRng::seed_from_u64(7);
        let pool = engine.buffer_pool();
        let mut submitted = 0usize;
        while submitted < warmup {
            // Whole-warmup bursts reach the same concurrent checkout depth
            // the measured phase will (notably responses awaiting their
            // client), so every size class is pre-populated to it.
            let burst = warmup - submitted;
            let pending: Vec<_> = (0..burst)
                .map(|_| {
                    let input =
                        init::uniform(vec![spatial, spatial, channels], -1.0, 1.0, &mut rng);
                    engine.submit(input).expect("warmup submit")
                })
                .collect();
            for p in pending {
                let response = p.wait().expect("warmup response");
                pool.give(response.output.into_data());
            }
            submitted += burst;
        }
    }
    engine.reset_metrics();
    let pool_at_window_start = engine.pool_stats();

    // Open-loop measured phase.
    let interval = Duration::from_secs_f64(1.0 / s.rate_hz.max(1.0));
    let per_client = s.requests.div_ceil(s.clients);
    let measured_started = Instant::now();
    let client_threads: Vec<_> = (0..s.clients)
        .map(|client_index| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + client_index as u64);
                let pool = engine.buffer_pool();
                // Materialise the inputs up front so the measured window
                // times the server, not the client's RNG.
                let inputs: Vec<_> = (0..per_client)
                    .map(|_| init::uniform(vec![spatial, spatial, channels], -1.0, 1.0, &mut rng))
                    .collect();
                // Responses are consumed as they arrive (a drain thread per
                // client), not hoarded until the end of the run: recycling
                // each output promptly keeps the pool's checkout depth — and
                // therefore its steady-state allocation count — bounded, as
                // a real response-consuming client would.
                let (tx, rx) = std::sync::mpsc::channel::<tdc_serve::PendingResponse>();
                let drain_pool = Arc::clone(&pool);
                let drain = std::thread::spawn(move || {
                    let mut timed_out = 0u64;
                    for p in rx {
                        match p.wait() {
                            Ok(response) => drain_pool.give(response.output.into_data()),
                            Err(ServeError::DeadlineExceeded { .. }) => timed_out += 1,
                            Err(e) => panic!("response: {e}"),
                        }
                    }
                    timed_out
                });
                let mut rejected = 0u64;
                // Open-loop pacing against an *absolute* arrival schedule:
                // request `i` is due at `start + i·interval`, and a client
                // that wakes late submits back-to-back until it has caught
                // up. A per-request relative sleep would compound the
                // scheduler's wake-up latency into the offered rate.
                let start = Instant::now();
                for (i, input) in inputs.into_iter().enumerate() {
                    let due = start + interval * i as u32;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                    }
                    // Under a sustained backlog the admission bound sheds
                    // load; an open-loop client records the rejection and
                    // keeps its arrival schedule.
                    match engine.submit(input) {
                        Ok(p) => tx.send(p).expect("drain thread alive"),
                        Err(ServeError::Overloaded { .. }) => rejected += 1,
                        Err(e) => panic!("submit: {e}"),
                    }
                }
                // Closing the channel lets the drain thread finish once the
                // last outstanding response has been consumed (arrivals stay
                // open-loop; the join just bounds the run). A deadline
                // expiry is an expected open-loop outcome, not a client
                // failure.
                drop(tx);
                let timed_out = drain.join().expect("drain thread");
                (rejected, timed_out)
            })
        })
        .collect();
    let mut rejected = 0u64;
    let mut client_timeouts = 0u64;
    for t in client_threads {
        let (r, d) = t.join().expect("client thread");
        rejected += r;
        client_timeouts += d;
    }

    let engine =
        Arc::try_unwrap(engine).unwrap_or_else(|_| panic!("clients still hold the engine"));
    // The measured window's pool activity: everything since the post-warmup
    // snapshot. `high_water_f32` stays absolute (it is a maximum, not a
    // counter).
    let pool_end = engine.pool_stats();
    let pool_stats = tdc_serve::PoolStats {
        allocated_buffers: pool_end.allocated_buffers - pool_at_window_start.allocated_buffers,
        allocated_f32: pool_end.allocated_f32 - pool_at_window_start.allocated_f32,
        high_water_f32: pool_end.high_water_f32,
        takes: pool_end.takes - pool_at_window_start.takes,
        hits: pool_end.hits - pool_at_window_start.hits,
    };
    let predicted_gpu_ms_per_sample = engine.predicted_gpu_ms_per_sample();
    let decomposed_layers = engine.model().decomposed_layers();
    let achieved_flops_reduction = engine.plan().achieved_reduction;
    let report = engine.shutdown();
    let elapsed_s = measured_started.elapsed().as_secs_f64();
    let metrics = &report.metrics;
    let throughput_rps = metrics.completed_requests as f64 / elapsed_s.max(1e-9);

    assert_eq!(
        metrics.deadline_exceeded, client_timeouts,
        "engine deadline counter must match the client-side count"
    );
    println!("  measured phase: {:.2} s wall clock", elapsed_s);
    println!(
        "  completed        : {} requests in {} batches ({} rejected at admission, \
         {} expired past deadline)",
        metrics.completed_requests, metrics.batches, rejected, metrics.deadline_exceeded
    );
    println!("  throughput       : {throughput_rps:.1} req/s");
    println!(
        "  latency (total)  : p50 {:.2} ms  p90 {:.2} ms  p99 {:.2} ms  max {:.2} ms",
        metrics.total_latency.p50_ms,
        metrics.total_latency.p90_ms,
        metrics.total_latency.p99_ms,
        metrics.total_latency.max_ms
    );
    println!(
        "  latency (queue)  : p50 {:.2} ms  p99 {:.2} ms",
        metrics.queue_latency.p50_ms, metrics.queue_latency.p99_ms
    );
    println!(
        "  latency (exec)   : p50 {:.2} ms  p99 {:.2} ms",
        metrics.exec_latency.p50_ms, metrics.exec_latency.p99_ms
    );
    println!(
        "  batching         : mean {:.2} req/batch, max {}",
        metrics.mean_batch_size, metrics.max_batch_size
    );
    println!(
        "  predicted GPU    : {:.4} ms/sample, {:.2} ms total for this workload",
        predicted_gpu_ms_per_sample, metrics.predicted_gpu_ms_total
    );

    let simulated_per_layer = if kind == BackendKind::SimGpu {
        let breakdown = &report.backend_latency;
        println!(
            "  simulated GPU    : {:.2} ms total; per-sample breakdown on {}:",
            metrics.simulated_gpu_ms_total, breakdown.device
        );
        for layer in &breakdown.per_layer {
            println!(
                "    {:24} {:>9.4} ms  ({} kernel(s), {:.1}% SM util)",
                layer.label,
                layer.ms,
                layer.kernels,
                layer.sm_utilization * 100.0
            );
        }
        Some(breakdown.per_layer.clone())
    } else {
        None
    };

    if kind == BackendKind::Cpu {
        println!(
            "  arena pool       : high-water {} f32, {} fresh allocation(s) in the \
             measured window, {}/{} takes recycled",
            pool_stats.high_water_f32,
            pool_stats.allocated_buffers,
            pool_stats.hits,
            pool_stats.takes
        );
    }

    let run = BackendRun {
        backend: report.backend.clone(),
        requests: metrics.completed_requests,
        rejected,
        deadline_exceeded: metrics.deadline_exceeded,
        elapsed_s,
        throughput_rps,
        total_latency: metrics.total_latency,
        queue_latency: metrics.queue_latency,
        exec_latency: metrics.exec_latency,
        mean_batch_size: metrics.mean_batch_size,
        max_batch_observed: metrics.max_batch_size,
        predicted_gpu_ms_per_sample,
        predicted_gpu_ms_total: metrics.predicted_gpu_ms_total,
        simulated_gpu_ms_total: metrics.simulated_gpu_ms_total,
        simulated_per_layer,
        plan_fingerprint: format!("{:016x}", report.plan_fingerprint),
        plan_outcome_cold: cache_outcome_label(plan_outcome_cold).to_string(),
        plan_outcome_warm: cache_outcome_label(plan_outcome_warm).to_string(),
        decomposed_layers,
        achieved_flops_reduction,
    };
    (run, pool_stats)
}

/// The `--models N` phase: N distinct models behind one registry, every
/// client thread round-robining its submissions across all of them. The
/// `--backend` selection composes: a single backend pins every model to it,
/// the default `both` alternates cpu / sim-gpu across the fleet.
fn run_multi_model(n: usize, backends: &[BackendKind], s: &BenchSettings) -> MultiModelRun {
    let registry = ModelRegistry::new(n.max(2));
    for index in 0..n {
        // Genuinely different networks (growing spatial size), large enough
        // that the planner decomposes at least one layer per model.
        let descriptor = serving_descriptor(&format!("svc-{index}"), 12 + 2 * (index % 4), 8, 10);
        let backend = backends[index % backends.len()];
        registry
            .register(
                &descriptor.slug(),
                &descriptor,
                ModelConfig {
                    planning: s.planning.clone(),
                    batching: s.batching.clone(),
                    runtime: RuntimeOptions {
                        workers: s.workers,
                        backend,
                        ..RuntimeOptions::default()
                    },
                    ..ModelConfig::default()
                },
            )
            .expect("register model");
    }
    let names: Vec<String> = registry.names().iter().map(|x| x.to_string()).collect();
    let dims: Vec<Vec<usize>> = registry
        .model_info()
        .iter()
        .map(|i| i.input_dims.clone())
        .collect();
    println!("\n== multi-model: {} models ==", n);
    for info in registry.model_info() {
        println!(
            "  {:12} {} on {} ({} of {} layers decomposed, queue bound {})",
            info.name,
            info.backend,
            info.device,
            info.decomposed_layers,
            info.conv_layers,
            info.max_queue_depth
        );
    }

    let registry = Arc::new(registry);
    let interval = Duration::from_secs_f64(1.0 / s.rate_hz.max(1.0));
    let per_client = s.requests.div_ceil(s.clients);
    let measured_started = Instant::now();
    let client_threads: Vec<_> = (0..s.clients)
        .map(|client_index| {
            let registry = Arc::clone(&registry);
            let names = names.clone();
            let dims = dims.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(500 + client_index as u64);
                let mut pending = Vec::with_capacity(per_client);
                let mut rejected = 0u64;
                for r in 0..per_client {
                    // Mixed traffic: successive requests hit different
                    // models, and the clients' disjoint global offsets cover
                    // every model even when there are more models than any
                    // one client's request budget.
                    let m = (client_index * per_client + r) % names.len();
                    let input = init::uniform(dims[m].clone(), -1.0, 1.0, &mut rng);
                    match registry.submit(&names[m], input) {
                        Ok(p) => pending.push(p),
                        Err(ServeError::Overloaded { .. }) => rejected += 1,
                        Err(e) => panic!("submit to {}: {e}", names[m]),
                    }
                    std::thread::sleep(interval);
                }
                let mut timed_out = 0u64;
                for p in pending {
                    match p.wait() {
                        Ok(_) => {}
                        Err(ServeError::DeadlineExceeded { .. }) => timed_out += 1,
                        Err(e) => panic!("response: {e}"),
                    }
                }
                (rejected, timed_out)
            })
        })
        .collect();
    let mut client_rejected = 0u64;
    let mut client_timeouts = 0u64;
    for t in client_threads {
        let (r, d) = t.join().expect("client thread");
        client_rejected += r;
        client_timeouts += d;
    }
    let elapsed_s = measured_started.elapsed().as_secs_f64();

    let metrics = registry.metrics();
    assert_eq!(
        metrics.total_rejected_requests, client_rejected,
        "registry rejection counters must match the client-side count"
    );
    assert_eq!(
        metrics.total_deadline_exceeded, client_timeouts,
        "registry deadline counters must match the client-side count"
    );
    let registry =
        Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("clients still hold the registry"));
    // metrics.models and model_info() share the registry's name order.
    let per_model: Vec<ModelRun> = metrics
        .models
        .iter()
        .zip(registry.model_info())
        .map(|(entry, info)| ModelRun {
            model: entry.model.clone(),
            backend: info.backend,
            requests: entry.metrics.completed_requests,
            rejected: entry.rejected_requests,
            deadline_exceeded: entry.metrics.deadline_exceeded,
            throughput_rps: entry.metrics.completed_requests as f64 / elapsed_s.max(1e-9),
            total_latency: entry.metrics.total_latency,
            queue_latency: entry.metrics.queue_latency,
            exec_latency: entry.metrics.exec_latency,
            mean_batch_size: entry.metrics.mean_batch_size,
            plan_fingerprint: info.plan_fingerprint,
        })
        .collect();
    registry.shutdown();

    println!("  measured phase: {:.2} s wall clock", elapsed_s);
    for run in &per_model {
        println!(
            "  {:12} {:>5} req ({} rejected) @ {:>7.1} req/s  \
             p50 {:.2} ms  p99 {:.2} ms  mean batch {:.2}",
            run.model,
            run.requests,
            run.rejected,
            run.throughput_rps,
            run.total_latency.p50_ms,
            run.total_latency.p99_ms,
            run.mean_batch_size
        );
    }
    MultiModelRun {
        models: n,
        requests_submitted: per_client * s.clients,
        elapsed_s,
        total_throughput_rps: metrics.total_completed_requests as f64 / elapsed_s.max(1e-9),
        total_completed: metrics.total_completed_requests,
        total_rejected: metrics.total_rejected_requests,
        total_deadline_exceeded: metrics.total_deadline_exceeded,
        per_model,
    }
}

/// The `--keep-alive` HTTP phase: one model behind the front end, driven by
/// this thread over persistent connections (or one connection per request
/// when `keep_alive` is false — kept as a comparison point in the code
/// path). Counts connection reuse and `504` timeouts.
fn run_http_phase(
    descriptor: &tdc_nn::models::ModelDescriptor,
    s: &BenchSettings,
    keep_alive: bool,
) -> HttpRun {
    let registry = ModelRegistry::new(2);
    registry
        .register(
            &descriptor.slug(),
            descriptor,
            ModelConfig {
                planning: s.planning.clone(),
                batching: s.batching.clone(),
                runtime: RuntimeOptions {
                    workers: s.workers,
                    ..RuntimeOptions::default()
                },
                ..ModelConfig::default()
            },
        )
        .expect("register http-phase model");
    let name = descriptor.slug();
    let dims: Vec<usize> = registry.model_info()[0].input_dims.clone();
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(registry)).expect("bind http phase");
    let addr = server.local_addr();
    let path = format!("/v1/models/{name}/infer");

    // A modest request budget: the HTTP phase measures connection behavior,
    // not executor throughput (the per-backend runs already do that).
    let requests: u64 = (s.requests as u64).clamp(8, 48);
    let connections: u64 = (s.clients as u64).clamp(1, 4);
    let mut rng = StdRng::seed_from_u64(900);
    let mut completed = 0u64;
    let mut timeouts = 0u64;
    let mut connections_opened = 0u64;
    let mut sent = 0u64;
    let body_for = |rng: &mut StdRng| {
        let input = init::uniform(dims.clone(), -1.0, 1.0, rng);
        serde_json::to_string(&InferBody {
            input: input.data().to_vec(),
            dims: Some(dims.clone()),
            deadline_ms: None,
        })
        .expect("serialize http body")
    };
    if keep_alive {
        let per_connection = requests.div_ceil(connections);
        'outer: for _ in 0..connections {
            let mut client = HttpClient::connect(&addr).expect("connect http phase");
            connections_opened += 1;
            for _ in 0..per_connection {
                if sent >= requests {
                    break 'outer;
                }
                let body = body_for(&mut rng);
                let (status, reply) = client
                    .request("POST", &path, Some(&body))
                    .expect("http request");
                sent += 1;
                match status {
                    200 => completed += 1,
                    504 => timeouts += 1,
                    other => panic!("http phase: unexpected status {other}: {reply}"),
                }
            }
        }
    } else {
        for _ in 0..requests {
            let body = body_for(&mut rng);
            connections_opened += 1;
            let (status, reply) =
                http_request(&addr, "POST", &path, Some(&body)).expect("http request");
            sent += 1;
            match status {
                200 => completed += 1,
                504 => timeouts += 1,
                other => panic!("http phase: unexpected status {other}: {reply}"),
            }
        }
    }
    let registry = server.shutdown();
    let registry =
        Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("http-phase registry still shared"));
    registry.shutdown();

    let run = HttpRun {
        keep_alive,
        requests: sent,
        connections_opened,
        connection_reuse: sent - connections_opened.min(sent),
        requests_per_connection: sent as f64 / connections_opened.max(1) as f64,
        completed,
        timeouts,
    };
    println!("\n== http phase: keep-alive {} ==", run.keep_alive);
    println!(
        "  {} request(s) over {} connection(s) ({:.1} req/conn, {} reused, \
         {} ok, {} timed out)",
        run.requests,
        run.connections_opened,
        run.requests_per_connection,
        run.connection_reuse,
        run.completed,
        run.timeouts
    );
    run
}

/// The `--controller` phase: register one sim-GPU model with a deliberately
/// sluggish 12 ms batch-formation delay, let the `tdc-ctrl` coordinate
/// descent tune all four knobs against a measured-latency SLO, then inject
/// a backend brown-out so the next controller tick detects the drift and
/// re-tunes through the zero-drop swap path. Every stage's p99 is measured
/// with closed-loop traffic, so the artifact records real convergence, not
/// just the simulator's opinion of it.
fn run_controller_phase(s: &BenchSettings) -> ControllerRun {
    use tdc_lab::fault::FaultInjector;
    use tdc_serve::{ControllerConfig, TuneRequest};

    let registry = ModelRegistry::new(4);
    registry.set_tune_driver(Arc::new(tdc_ctrl::Controller::new()));
    registry
        .set_controller_config(ControllerConfig {
            min_samples: 16,
            ..ControllerConfig::default()
        })
        .expect("set controller config");

    let injector = FaultInjector::new();
    let descriptor = serving_descriptor("svc-ctrl", 12, 8, 10);
    let name = descriptor.slug();
    registry
        .register(
            &name,
            &descriptor,
            ModelConfig {
                planning: s.planning.clone(),
                batching: BatchingOptions {
                    max_batch_size: 8,
                    // Deliberately sluggish: closed-loop traffic never fills
                    // a batch, so every request eats the full formation delay
                    // and the tuner has real latency to claw back.
                    max_batch_delay: Duration::from_millis(12),
                    ..BatchingOptions::default()
                },
                runtime: RuntimeOptions {
                    workers: s.workers,
                    backend: BackendKind::SimGpu,
                    ..RuntimeOptions::default()
                },
                backend_wrapper: Some(
                    Arc::new(injector.clone()) as Arc<dyn tdc_serve::BackendWrapper>
                ),
            },
        )
        .expect("register controller model");

    // Closed-loop measurement against whichever engine currently serves
    // the model (re-fetched per stage, so post-swap stages measure the
    // swapped-in engine, not the retired one).
    let measure = |label: &str, requests: u64| -> (f64, f64) {
        let engine = registry.engine(&name).expect("controller model engine");
        engine.reset_metrics();
        let mut rng = StdRng::seed_from_u64(0x0c17);
        let started = Instant::now();
        for _ in 0..requests {
            registry
                .infer(&name, init::uniform(vec![12, 12, 8], -1.0, 1.0, &mut rng))
                .expect("controller phase inference");
        }
        let elapsed = started.elapsed().as_secs_f64();
        let p99 = engine.metrics().total_latency.p99_ms;
        let throughput = requests as f64 / elapsed.max(1e-9);
        println!("  {label:<9} : measured p99 {p99:.3} ms, {throughput:.0} req/s ({requests} closed-loop requests)");
        (p99, throughput)
    };

    println!("\n== controller phase: joint-knob tune + drift re-tune ==");
    let (untuned_p99_ms, untuned_throughput_rps) = measure("untuned", 48);

    // The SLO: half the untuned measured p99 unless the operator pinned
    // one. The untuned plan misses a derived target by construction, so
    // the search has real work to do.
    let pinned_target = std::env::var("SERVE_BENCH_TARGET_P99_MS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());
    let target_derived = pinned_target.is_none();
    let target_p99_ms = pinned_target.unwrap_or(untuned_p99_ms * 0.5);
    println!("  SLO target: p99 {target_p99_ms:.3} ms");

    // Tune before resetting anything: the 48 untuned samples seed the
    // search's measurement calibration.
    let report = registry
        .tune(
            &name,
            &TuneRequest {
                target_p99_ms: Some(target_p99_ms),
                ..TuneRequest::default()
            },
        )
        .expect("joint-knob tune");
    println!(
        "  tune: {} probe(s), knobs {:?} -> {:?} (estimated p99 {:.3} ms, converged {}, applied {})",
        report.probes.len(),
        report.before,
        report.after,
        report.estimated_p99_ms,
        report.converged,
        report.applied
    );
    if target_derived {
        assert!(
            report.converged,
            "halving a 12 ms formation delay must reach a half-p99 target"
        );
    } else if !report.converged {
        println!("  note: pinned target is not reachable; recording the non-converged trace");
    }

    let (tuned_p99_ms, tuned_throughput_rps) = measure("tuned", 48);

    // Brown-out: stall every batch 20 ms. Measured p99 blows through the
    // drift band around the tune's expected p99 and the next tick must
    // both record the drift and re-tune the model.
    injector.arm_delays(10_000, Duration::from_millis(20));
    let (drifted_p99_ms, _) = measure("drifted", 24);
    let tick = registry.controller_tick();
    println!(
        "  tick: examined {}, drifted {:?}, retuned {:?} (injected {} stall(s))",
        tick.examined,
        tick.drifted,
        tick.retuned,
        injector.injected_delays()
    );
    assert_eq!(tick.drifted, vec![name.clone()], "the brown-out must drift");
    assert_eq!(tick.retuned, vec![name.clone()], "a drifted model re-tunes");
    let drift_retunes = tick.retuned.len() as u64;

    injector.disarm();
    let (recovered_p99_ms, _) = measure("recovered", 24);

    let status = registry.controller_status();
    let model_status = status
        .models
        .iter()
        .find(|m| m.model == name)
        .expect("controller state for the tuned model")
        .clone();
    println!(
        "  state: tuning generation {}, {} drift event(s), {} early release(s)",
        model_status.tuning_generation, model_status.drift_events, model_status.early_releases
    );

    let run = ControllerRun {
        model: name,
        target_p99_ms,
        knobs_before: report.before,
        knobs_after: report.after,
        untuned_p99_ms,
        untuned_throughput_rps,
        tuned_p99_ms,
        tuned_throughput_rps,
        converged: report.converged,
        applied: report.applied,
        probes: report.probes.len() as u64,
        tuning_generation: model_status.tuning_generation,
        drift_events: model_status.drift_events,
        drift_retunes,
        early_releases: model_status.early_releases,
        p99_trajectory: vec![
            untuned_p99_ms,
            tuned_p99_ms,
            drifted_p99_ms,
            recovered_p99_ms,
        ],
    };
    registry.shutdown();
    run
}

/// The `--qos` phase: one model per QoS class — `interactive`, `standard`,
/// `batch` — behind one registry, every batch scheduled by the registry's
/// shared fleet executor. Clients interleave traffic across the three
/// classes (open loop, per-class request budgets equal), so the per-class
/// percentiles show what priority banding buys the interactive tier under
/// contention with batch work.
fn run_qos_phase(s: &BenchSettings) -> QosRun {
    use tdc_serve::QosClass;

    let registry = ModelRegistry::new(4);
    let classes = [QosClass::Interactive, QosClass::Standard, QosClass::Batch];
    let mut names = Vec::new();
    for (index, &qos) in classes.iter().enumerate() {
        let descriptor = serving_descriptor(&format!("svc-qos-{qos}"), 12 + 2 * index, 8, 10);
        registry
            .register(
                &descriptor.slug(),
                &descriptor,
                ModelConfig {
                    planning: s.planning.clone(),
                    batching: s.batching.clone(),
                    runtime: RuntimeOptions {
                        workers: s.workers,
                        qos,
                        ..RuntimeOptions::default()
                    },
                    ..ModelConfig::default()
                },
            )
            .expect("register qos model");
        names.push(descriptor.slug());
    }
    // model_info() is name-sorted; re-order dims to match the class order
    // of `names`.
    let info = registry.model_info();
    let dims: Vec<Vec<usize>> = names
        .iter()
        .map(|name| {
            info.iter()
                .find(|i| &i.name == name)
                .expect("registered qos model")
                .input_dims
                .clone()
        })
        .collect();
    println!("\n== qos phase: one model per class on the shared executor ==");

    let registry = Arc::new(registry);
    let interval = Duration::from_secs_f64(1.0 / s.rate_hz.max(1.0));
    // A modest per-class budget: the phase measures class separation, not
    // raw throughput (the per-backend runs already do that).
    let per_class: u64 = (s.requests as u64 / 3).clamp(12, 60);
    let client_threads: Vec<_> = (0..s.clients.clamp(2, 4))
        .map(|client_index| {
            let registry = Arc::clone(&registry);
            let names = names.clone();
            let dims = dims.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(700 + client_index as u64);
                let mut pending = Vec::new();
                // Interleave classes request by request so every batch
                // window sees mixed-priority arrivals.
                for r in 0..per_class {
                    for m in 0..names.len() {
                        let input = init::uniform(dims[m].clone(), -1.0, 1.0, &mut rng);
                        match registry.submit(&names[m], input) {
                            Ok(p) => pending.push(p),
                            Err(ServeError::Overloaded { .. }) => {}
                            Err(e) => panic!("submit to {}: {e}", names[m]),
                        }
                    }
                    if r + 1 < per_class {
                        std::thread::sleep(interval);
                    }
                }
                for p in pending {
                    match p.wait() {
                        Ok(_) | Err(ServeError::DeadlineExceeded { .. }) => {}
                        Err(e) => panic!("response: {e}"),
                    }
                }
            })
        })
        .collect();
    for t in client_threads {
        t.join().expect("qos client thread");
    }

    let metrics = registry.metrics();
    let per_class_runs: Vec<QosClassRun> = names
        .iter()
        .map(|name| {
            let entry = metrics
                .models
                .iter()
                .find(|m| &m.model == name)
                .expect("qos model metrics");
            QosClassRun {
                qos: entry.executor.qos.clone(),
                model: name.clone(),
                fair_share_weight: entry.executor.weight,
                completed: entry.metrics.completed_requests,
                deadline_exceeded: entry.metrics.deadline_exceeded,
                stolen_batches: entry.metrics.stolen_batches,
                total_latency: entry.metrics.total_latency,
                queue_latency: entry.metrics.queue_latency,
            }
        })
        .collect();
    for run in &per_class_runs {
        println!(
            "  {:12} {:>5} completed ({} expired, {} stolen batch(es))  \
             p50 {:.2} ms  p99 {:.2} ms",
            run.qos,
            run.completed,
            run.deadline_exceeded,
            run.stolen_batches,
            run.total_latency.p50_ms,
            run.total_latency.p99_ms
        );
    }
    println!(
        "  executor: {} worker(s), {} steal(s), {:.1}% utilization",
        metrics.executor.workers,
        metrics.executor.steals_total,
        metrics.executor.utilization * 100.0
    );
    let run = QosRun {
        requests_per_class: per_class,
        per_class: per_class_runs,
        executor_workers: metrics.executor.workers,
        steals_total: metrics.executor.steals_total,
        worker_utilization: metrics.executor.utilization,
    };
    let registry =
        Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("qos-phase registry still shared"));
    registry.shutdown();
    run
}

/// One in-process replica for the `--router` phase: a registry serving the
/// fleet model behind its own HTTP front end.
fn bind_fleet_replica(
    descriptor: &tdc_nn::models::ModelDescriptor,
    s: &BenchSettings,
    addr: &str,
) -> HttpServer {
    // The shared fleet testkit supplies the stock replica shape; only the
    // bench's planning options ride on top.
    let config = ModelConfig {
        planning: s.planning.clone(),
        ..tdc_router::testkit::fleet_config()
    };
    tdc_router::testkit::bind_replica(addr, &descriptor.slug(), descriptor, config)
}

/// Fully drain one fleet replica: stop its front end, then its engines.
fn drain_fleet_replica(server: HttpServer) {
    tdc_router::testkit::drain_replica(server);
}

/// The `--router` phase: three in-process replicas behind a least-loaded
/// [`Router`], hammered over keep-alive connections while replica 0 is
/// drained mid-load (failover must mask it — zero client-visible failures),
/// ejected by the prober, restarted on its old port and re-admitted.
fn run_router_phase(s: &BenchSettings) -> RouterRun {
    const REPLICAS: usize = 3;
    let descriptor = serving_descriptor("svc-fleet", 10, 4, 6);
    let name = descriptor.slug();
    let mut servers: Vec<HttpServer> = (0..REPLICAS)
        .map(|_| bind_fleet_replica(&descriptor, s, "127.0.0.1:0"))
        .collect();
    let addrs: Vec<std::net::SocketAddr> = servers.iter().map(|sv| sv.local_addr()).collect();
    let router = Arc::new(Router::new(
        &addrs,
        RouterOptions {
            policy: RoutingPolicy::LeastLoaded,
            probe_interval: Duration::from_millis(50),
            probe_timeout: Duration::from_millis(250),
            ..RouterOptions::default()
        },
    ));
    let front = HttpServer::bind_with_handler("127.0.0.1:0", Arc::clone(&router) as _)
        .expect("bind router");
    let front_addr = front.local_addr();
    println!("\n== router phase: {REPLICAS} replicas behind http://{front_addr} ==");

    let path = format!("/v1/models/{name}/infer");
    let body = serde_json::to_string(&InferBody {
        input: vec![0.5f32; 10 * 10 * 4],
        dims: None,
        deadline_ms: None,
    })
    .expect("serialize fleet body");

    // Keep-alive hammer clients; each records ok/failed and reconnects if
    // the router drops its connection.
    let clients = s.clients.clamp(2, 4);
    let per_client: u64 = (s.requests as u64 / clients as u64).clamp(24, 80);
    let hammer_threads: Vec<_> = (0..clients)
        .map(|_| {
            let body = body.clone();
            let path = path.clone();
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut failed = 0u64;
                let mut first_failure: Option<String> = None;
                let mut client: Option<HttpClient> = None;
                for _ in 0..per_client {
                    if client.is_none() {
                        client = HttpClient::connect(&front_addr).ok();
                    }
                    let outcome = match client.as_mut() {
                        Some(live) => live.request("POST", &path, Some(&body)),
                        None => http_request(&front_addr, "POST", &path, Some(&body)),
                    };
                    match outcome {
                        Ok((200, _)) => ok += 1,
                        Ok((status, reply)) => {
                            failed += 1;
                            first_failure.get_or_insert(format!("{status} {reply}"));
                            client = None;
                        }
                        Err(e) => {
                            failed += 1;
                            first_failure.get_or_insert(format!("transport error: {e}"));
                            client = None;
                        }
                    }
                }
                (ok, failed, first_failure)
            })
        })
        .collect();

    // Mid-load: drain replica 0 completely (listener closed, engines
    // stopped). The router's pooled connections to it go stale and its
    // later connects are refused — failover must absorb all of it.
    std::thread::sleep(Duration::from_millis(30));
    let victim_addr = addrs[0];
    drain_fleet_replica(servers.remove(0));

    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut first_failure: Option<String> = None;
    for thread in hammer_threads {
        let (ok, bad, first) = thread.join().expect("hammer thread");
        completed += ok;
        failed += bad;
        if first_failure.is_none() {
            first_failure = first;
        }
    }
    assert_eq!(
        failed,
        0,
        "kill-under-load leaked a client-visible failure: {}",
        first_failure.unwrap_or_default()
    );

    // The prober (50 ms period, eject_after 2) must eject the dead replica.
    let wait_until = |what: &str, pred: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !pred() {
            assert!(
                Instant::now() < deadline,
                "router phase: {what} not reached"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    wait_until("ejection", &|| router.metrics().ejections_total >= 1);

    // Restart the replica on its old port; the prober must re-admit it.
    servers.insert(
        0,
        bind_fleet_replica(&descriptor, s, &victim_addr.to_string()),
    );
    wait_until("readmission", &|| {
        let m = router.metrics();
        m.readmissions_total >= 1 && m.replicas.iter().all(|r| r.healthy)
    });

    // A final burst over the healed fleet must stay clean.
    let post_requests = 8u64;
    for _ in 0..post_requests {
        let (status, reply) =
            http_request(&front_addr, "POST", &path, Some(&body)).expect("post-heal request");
        assert_eq!(status, 200, "post-heal request failed: {reply}");
        completed += 1;
    }

    let metrics = router.metrics();
    let run = RouterRun {
        replicas: REPLICAS,
        policy: metrics.policy.clone(),
        requests: clients as u64 * per_client + post_requests,
        completed,
        failed,
        failovers_total: metrics.failovers_total,
        ejections_total: metrics.ejections_total,
        readmissions_total: metrics.readmissions_total,
        per_replica_forwarded: metrics.replicas.iter().map(|r| r.forwarded_total).collect(),
    };
    println!(
        "  {} requests, {} completed, {} failed ({} failover(s), \
         {} ejection(s), {} readmission(s))",
        run.requests,
        run.completed,
        run.failed,
        run.failovers_total,
        run.ejections_total,
        run.readmissions_total
    );
    println!("  per-replica forwards: {:?}", run.per_replica_forwarded);

    router.stop();
    front.stop();
    for server in servers {
        drain_fleet_replica(server);
    }
    run
}

/// The `--trace` phase: expand a workload spec into its deterministic
/// trace and replay it open-loop against a live registry built from the
/// spec's model zoo. The recorded fingerprints (trace + completed
/// outputs) are machine-independent — `lab_gate` compares them exactly
/// between the committed baseline and a fresh CI run.
fn run_trace_phase(spec_path: &str, s: &BenchSettings) -> TraceRun {
    let spec = WorkloadSpec::load(std::path::Path::new(spec_path)).unwrap_or_else(|e| {
        eprintln!("serve_bench --trace: {e}");
        std::process::exit(2);
    });
    let trace = tdc_lab::generate(&spec);
    let options = ReplayOptions {
        workers: s.workers.clamp(1, 4),
        max_batch_size: s.batching.max_batch_size,
        max_batch_delay: s.batching.max_batch_delay,
        time_scale: env_f64("SERVE_BENCH_TRACE_TIME_SCALE", 1.0).clamp(0.01, 100.0),
        ..ReplayOptions::default()
    };
    println!(
        "\n== trace phase: {} ({} events, {} samples, fingerprint {:016x}) ==",
        spec.name,
        trace.events.len(),
        trace.total_samples(),
        trace.fingerprint
    );
    for (index, phase) in spec.phases.iter().enumerate() {
        println!(
            "  phase {index} {:<10} {:>4} ms, {} event(s)",
            phase.label,
            phase.duration_ms,
            trace.per_phase_events(spec.phases.len())[index]
        );
    }

    let deployment = deploy(&spec, &trace, &options).expect("deploy trace zoo");
    let report = replay(&deployment, &spec, &trace, &options);
    assert!(
        report.unexpected.is_empty(),
        "trace phase leaked untyped failures: {:?}",
        report.unexpected
    );
    assert_eq!(
        report.submitted,
        report.completed + report.expired + report.failed,
        "trace phase accounting must balance"
    );
    let totals = reconcile(&deployment.registry).expect("trace phase reconciliation");
    assert_eq!(
        totals.submitted, report.submitted,
        "engine-side submitted count disagrees with the client"
    );

    let metrics = deployment.registry.metrics();
    let per_model_samples = trace.per_model_samples(spec.models.len());
    let per_model: Vec<TraceModelRun> = spec
        .models
        .iter()
        .enumerate()
        .map(|(index, model)| {
            let entry = metrics
                .models
                .iter()
                .find(|m| m.model == model.name)
                .expect("trace model metrics");
            TraceModelRun {
                model: model.name.clone(),
                qos: model.qos.map(|q| q.label().to_string()),
                deadline_ms: model.deadline_ms,
                samples: per_model_samples[index],
                completed: entry.metrics.completed_requests,
                expired: entry.metrics.deadline_exceeded,
                failed: entry.metrics.failed_requests,
                p99_ms: entry.metrics.total_latency.p99_ms,
            }
        })
        .collect();
    drop(deployment.registry.shutdown());

    let run = TraceRun {
        spec: spec_path.to_string(),
        workload: spec.name.clone(),
        seed: spec.seed,
        trace_fingerprint: format!("{:016x}", trace.fingerprint),
        events: report.events,
        requests: report.requests,
        submitted: report.submitted,
        shed: report.shed,
        completed: report.completed,
        expired: report.expired,
        failed: report.failed,
        unexpected_failures: report.unexpected.len() as u64,
        output_fingerprint: format!("{:016x}", report.output_fingerprint),
        elapsed_s: report.elapsed_s,
        throughput_rps: report.throughput_rps,
        p50_ms: report.p50_ms,
        p99_ms: report.p99_ms,
        per_phase_events: trace.per_phase_events(spec.phases.len()),
        time_scale: options.time_scale,
        per_model,
    };
    println!(
        "  {} sample(s): {} completed, {} shed, {} expired, {} failed \
         ({:.1} rps, p99 {:.2} ms, outputs {})",
        run.requests,
        run.completed,
        run.shed,
        run.expired,
        run.failed,
        run.throughput_rps,
        run.p99_ms,
        run.output_fingerprint
    );
    run
}

fn main() {
    reject_unknown_flags();
    let out_path =
        std::env::var("SERVE_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    if bool_flag("--check-schema") {
        check_schema(&out_path);
    }
    let deadline_ms = deadline_selection();
    let settings = BenchSettings {
        requests: env_usize("SERVE_BENCH_REQUESTS", 960),
        clients: env_usize("SERVE_BENCH_CLIENTS", 4).max(1),
        workers: env_usize("SERVE_BENCH_WORKERS", 4).max(1),
        rate_hz: env_f64("SERVE_BENCH_RATE_HZ", 4000.0),
        planning: PlanningOptions::default(),
        batching: BatchingOptions {
            max_batch_size: 8,
            max_batch_delay: Duration::from_millis(2),
            default_deadline: deadline_ms.map(Duration::from_millis),
            ..BatchingOptions::default()
        },
    };
    let backends = backend_selection();
    let models = models_selection();
    let keep_alive = bool_flag("--keep-alive");
    let router_mode = bool_flag("--router");
    let qos_mode = bool_flag("--qos");
    let controller_mode = bool_flag("--controller");
    let trace_spec = flag_or_env("--trace", "SERVE_BENCH_TRACE");

    let descriptor = serving_descriptor("svc-mini", 16, 8, 10);
    let cache = Arc::new(PlanCache::new(4));

    println!(
        "tdc-serve bench: model {} on {}",
        descriptor.name, settings.planning.device.name
    );
    println!(
        "  {} requests, {} clients @ {:.0} req/s each, {} workers, batch <= {} / {:?}",
        settings.requests,
        settings.clients,
        settings.rate_hz,
        settings.workers,
        settings.batching.max_batch_size,
        settings.batching.max_batch_delay
    );

    println!(
        "  backends: {}",
        backends
            .iter()
            .map(|b| b.label())
            .collect::<Vec<_>>()
            .join(", ")
    );
    // The per-backend single-model runs always execute, so the artifact's
    // backend trajectory stays comparable PR over PR; --models N adds the
    // mixed registry phase on top.
    let measured: Vec<(BackendRun, tdc_serve::PoolStats)> = backends
        .iter()
        .map(|&kind| run_backend(&descriptor, &cache, kind, &settings))
        .collect();
    // The kernels section reports the CPU backend's pool telemetry, so its
    // figures stay comparable with artifacts written before the sim-GPU
    // backend also staged through the arena.
    let kernels = backends
        .iter()
        .zip(&measured)
        .find(|(kind, _)| **kind == BackendKind::Cpu)
        .map(|(_, (run, stats))| KernelsRun {
            gemm_tile_mr: tdc_tensor::matmul::GEMM_MR as u64,
            gemm_tile_nr: tdc_tensor::matmul::GEMM_NR as u64,
            arena_high_water_f32: stats.high_water_f32,
            arena_allocated_buffers: stats.allocated_buffers,
            arena_takes: stats.takes,
            arena_hit_rate: stats.hits as f64 / (stats.takes.max(1)) as f64,
            allocs_per_request: stats.allocated_buffers as f64 / run.requests.max(1) as f64,
        });
    let runs: Vec<BackendRun> = measured.into_iter().map(|(run, _)| run).collect();
    let multi_model = if models >= 2 {
        println!("\n  mode: + multi-model registry ({models} models, mixed traffic)");
        Some(run_multi_model(models, &backends, &settings))
    } else {
        None
    };
    let http = if keep_alive {
        Some(run_http_phase(&descriptor, &settings, true))
    } else {
        None
    };
    let router = if router_mode {
        Some(run_router_phase(&settings))
    } else {
        None
    };
    let qos = if qos_mode {
        Some(run_qos_phase(&settings))
    } else {
        None
    };
    let controller = if controller_mode {
        Some(run_controller_phase(&settings))
    } else {
        None
    };
    let trace = trace_spec.map(|path| run_trace_phase(&path, &settings));

    // The top-level model field names what was actually benchmarked: the
    // single-model descriptor, or the registry fleet in --models mode.
    let artifact = ServeBenchArtifact {
        schema_version: EXPECTED_SCHEMA_VERSION,
        bench: "serve".into(),
        model: descriptor.name.clone(),
        device: settings.planning.device.name.clone(),
        budget: settings.planning.budget,
        workers: settings.workers,
        clients: settings.clients,
        max_batch_size: settings.batching.max_batch_size,
        max_batch_delay_ms: settings.batching.max_batch_delay.as_secs_f64() * 1e3,
        deadline_ms,
        runs,
        multi_model,
        http,
        router,
        qos,
        trace,
        kernels,
        controller,
    };
    let json = serde_json::to_string_pretty(&artifact).expect("serialize artifact");
    std::fs::write(&out_path, json).expect("write artifact");
    println!("\n  artifact written : {out_path}");

    if let Some(multi) = &artifact.multi_model {
        assert_eq!(multi.per_model.len(), models);
        assert_eq!(
            multi.total_completed + multi.total_rejected + multi.total_deadline_exceeded,
            multi.requests_submitted as u64,
            "every submitted request must be completed, rejected or expired"
        );
        if multi.requests_submitted >= models {
            for run in &multi.per_model {
                assert!(
                    run.requests + run.rejected + run.deadline_exceeded > 0,
                    "model {} saw no traffic in the mixed phase",
                    run.model
                );
            }
        }
    }
    if let Some(http) = &artifact.http {
        assert_eq!(http.completed + http.timeouts, http.requests);
        if http.keep_alive && http.requests > http.connections_opened {
            assert!(
                http.connection_reuse > 0,
                "keep-alive phase opened one connection per request"
            );
        }
    }
    if let Some(fleet) = &artifact.router {
        assert_eq!(fleet.failed, 0, "the router phase must mask every failure");
        assert_eq!(fleet.completed, fleet.requests);
        assert!(
            fleet.ejections_total >= 1,
            "the killed replica was never ejected"
        );
        assert!(
            fleet.readmissions_total >= 1,
            "the restarted replica was never re-admitted"
        );
        assert_eq!(fleet.per_replica_forwarded.len(), fleet.replicas);
    }
    if let Some(qos) = &artifact.qos {
        assert_eq!(qos.per_class.len(), 3, "one row per QoS class");
        assert_eq!(
            qos.per_class
                .iter()
                .map(|c| c.qos.as_str())
                .collect::<Vec<_>>(),
            vec!["interactive", "standard", "batch"]
        );
        assert!(qos.executor_workers >= 1, "the shared executor must exist");
        for class in &qos.per_class {
            assert!(
                class.completed + class.deadline_exceeded > 0,
                "class {} saw no traffic in the qos phase",
                class.qos
            );
        }
    }
    if let Some(trace) = &artifact.trace {
        assert_eq!(
            trace.unexpected_failures, 0,
            "the trace phase must only ever surface typed errors"
        );
        assert_eq!(trace.requests, trace.submitted + trace.shed);
        assert_eq!(
            trace.submitted,
            trace.completed + trace.expired + trace.failed
        );
        assert_eq!(
            trace.per_phase_events.iter().sum::<u64>(),
            trace.events,
            "every trace event belongs to a phase"
        );
    }
    if let Some(ctrl) = &artifact.controller {
        assert_eq!(
            ctrl.p99_trajectory.len(),
            4,
            "the trajectory records untuned, tuned, drifted and recovered"
        );
        assert!(
            ctrl.drift_retunes >= 1,
            "the injected brown-out never triggered a drift re-tune"
        );
        assert!(
            ctrl.tuning_generation >= 2,
            "the explicit tune plus the drift re-tune must both be recorded"
        );
        if ctrl.converged {
            assert!(
                ctrl.tuned_p99_ms <= ctrl.target_p99_ms,
                "tuned measured p99 {:.3} ms misses the SLO {:.3} ms",
                ctrl.tuned_p99_ms,
                ctrl.target_p99_ms
            );
            assert!(
                ctrl.tuned_throughput_rps >= ctrl.untuned_throughput_rps,
                "tuning must not cost closed-loop throughput ({:.0} -> {:.0} req/s)",
                ctrl.untuned_throughput_rps,
                ctrl.tuned_throughput_rps
            );
        }
    }

    let stats = cache.stats();
    println!(
        "  plan cache       : {} memory hit(s), {} disk hit(s), {} miss(es)",
        stats.memory_hits, stats.disk_hits, stats.misses
    );
    assert!(
        stats.hits() >= artifact.runs.len() as u64,
        "every backend's warm restart must produce a plan-cache hit"
    );
    for run in &artifact.runs {
        assert!(
            (run.requests + run.rejected + run.deadline_exceeded) as usize >= settings.requests,
            "every request must be completed, rejected or expired on backend {}",
            run.backend
        );
    }
}
