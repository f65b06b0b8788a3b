//! Pieces the serving workloads share, and the `engine-saturate` workload.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdc::{CompressionPlan, TdcPipeline};
use tdc_nn::models::ModelDescriptor;
use tdc_serve::{
    serving_descriptor, CompressedModel, Executor, ExecutorOptions, PendingResponse, PlanCache,
    PlanningOptions, PoolStats, RuntimeOptions, ServeEngine, ServeMetrics,
};

use crate::common::{derive_seed, Ctx, InputPool, Outcome};
use crate::host::cpu_seconds;
use crate::spans::{SpanId, SpanLog};

/// Outstanding requests of the `engine-saturate` closed loop.
const OUTSTANDING: usize = 32;
/// Engine workers of `engine-saturate`.
pub const ENGINE_WORKERS: usize = 2;
/// Distinct inputs (with reference outputs) a serving workload cycles.
pub const POOL_INPUTS: usize = 64;
/// Unmeasured warm-up before a window, s.
pub const WARMUP_S: f64 = 0.5;
/// `slo_met_share` limit of `engine-saturate`, ms.
const SATURATE_SLO_MS: f64 = 50.0;
/// `engine-saturate` reports medians over slices of this length, so that a
/// second of interference from other tenants of the host moves one slice,
/// not the result.
const SATURATE_SLICE_S: f64 = 1.0;

/// The served model of the `engine-saturate` and `http-fleet` workloads.
pub fn svc_mini() -> ModelDescriptor {
    serving_descriptor("svc-mini", 16, 8, 10)
}

/// The reference for bit checks: the allocating model materialized from the
/// same descriptor, plan and seed as the served one.
pub fn reference(
    descriptor: &ModelDescriptor,
    plan: &CompressionPlan,
) -> Result<CompressedModel, String> {
    CompressedModel::materialize(descriptor, plan, RuntimeOptions::default().seed)
        .map_err(|e| format!("reference materialization failed: {e}"))
}

/// Compress `descriptor` the way an engine build does (plan at the default
/// planning options, then materialize), with each step as a span. Returns
/// the wall time of both steps, s.
pub fn compress(
    log: &mut SpanLog,
    descriptor: &ModelDescriptor,
    request: u64,
) -> Result<f64, String> {
    let planning = PlanningOptions::default();
    let start = Instant::now();
    let plan = log
        .time("core.plan", SpanId::root(), request, || {
            TdcPipeline::new(planning.device.clone(), planning.strategy)
                .plan_with_config(descriptor, &planning.selection_config())
        })
        .map_err(|e| e.to_string())?;
    let seed = RuntimeOptions::default().seed;
    log.time("serve.model.materialize", SpanId::root(), request, || {
        CompressedModel::materialize(descriptor, &plan, seed)
    })
    .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64();
    if log.enabled() {
        // Rebuilding the layers times the Tucker-2 decompositions that
        // materialization runs, on their own.
        crate::probes::stages(log, descriptor, &plan, seed)?;
    }
    Ok(elapsed)
}

/// Child side of the compression timing for a serving workload.
pub fn compress_child(ctx: &Ctx, descriptors: &[ModelDescriptor]) -> Result<(), String> {
    let mut log = ctx.log(ctx.trace);
    let mut total = 0.0;
    for (i, d) in descriptors.iter().enumerate() {
        total += compress(&mut log, d, i as u64)?;
    }
    println!("compress_s {total}");
    crate::common::print_span(&log);
    Ok(())
}

/// Set-up stage values from a traced compression child, summed over the
/// workload's models, plus the time of an engine build that hits the plan
/// cache.
pub fn setup_stages(
    out: &mut Outcome,
    child: &crate::common::ChildReport,
    descriptor: &ModelDescriptor,
) -> Result<(), String> {
    let total = |name: &str| -> f64 {
        child
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    };
    out.layer("core.plan_ms", total("core.plan"));
    out.layer("tucker.tucker2_ms", total("tucker.tucker2"));
    out.layer(
        "serve.model.materialize_ms",
        total("serve.model.materialize"),
    );
    let cache = PlanCache::new(2);
    let mut times = Vec::new();
    for _ in 0..4 {
        let start = Instant::now();
        let engine = ServeEngine::builder(descriptor)
            .plan_cache(&cache)
            .build()
            .map_err(|e| e.to_string())?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
        engine.shutdown();
    }
    // The first build misses the cache; the rest hit.
    out.layer(
        "serve.plan_cache.hit_build_ms",
        crate::stats::median(&times[1..]),
    );
    Ok(())
}

/// One engine's metrics over a window, with its buffer-pool counters at
/// both ends.
pub type EngineWindow = (ServeMetrics, PoolStats, PoolStats);

/// Batcher, executor-latency and arena layer values of a window, merged over
/// engines: request-weighted means for medians and means, the maximum for
/// tails and high-water marks, sums for counts.
pub fn engine_layers(out: &mut Outcome, windows: &[EngineWindow]) {
    let completed: Vec<f64> = windows
        .iter()
        .map(|(m, _, _)| m.completed_requests as f64)
        .collect();
    let total = completed.iter().sum::<f64>().max(1.0);
    let weighted = |f: &dyn Fn(&EngineWindow) -> f64| -> f64 {
        windows
            .iter()
            .zip(&completed)
            .map(|(w, n)| n * f(w))
            .sum::<f64>()
            / total
    };
    let max =
        |f: &dyn Fn(&EngineWindow) -> f64| -> f64 { windows.iter().map(f).fold(0.0, f64::max) };
    let sum = |f: &dyn Fn(&EngineWindow) -> u64| -> u64 { windows.iter().map(f).sum() };
    out.layer(
        "serve.batcher.queue_wait_p50_ms",
        weighted(&|(m, _, _)| m.queue_latency.p50_ms),
    );
    out.layer(
        "serve.batcher.queue_wait_p99_ms",
        max(&|(m, _, _)| m.queue_latency.p99_ms),
    );
    out.layer(
        "serve.batcher.batch_size_mean",
        weighted(&|(m, _, _)| m.mean_batch_size),
    );
    out.layer(
        "serve.batcher.early_releases",
        sum(&|(m, _, _)| m.early_releases) as f64,
    );
    out.layer(
        "exec.batch_exec_p50_ms",
        weighted(&|(m, _, _)| m.exec_latency.p50_ms),
    );
    out.layer(
        "exec.batch_exec_p99_ms",
        max(&|(m, _, _)| m.exec_latency.p99_ms),
    );
    let takes = sum(&|(_, b, a)| a.takes.saturating_sub(b.takes));
    let hits = sum(&|(_, b, a)| a.hits.saturating_sub(b.hits));
    let allocs = sum(&|(_, b, a)| a.allocated_buffers.saturating_sub(b.allocated_buffers));
    out.layer(
        "serve.arena.hit_rate",
        if takes > 0 {
            hits as f64 / takes as f64
        } else {
            0.0
        },
    );
    out.layer("serve.arena.allocs_per_request", allocs as f64 / total);
    out.layer(
        "serve.arena.high_water_mb",
        max(&|(_, _, a)| a.high_water_f32 as f64 * 4.0 / 1e6),
    );
}

/// Executor utilization over a window, from two lifetime snapshots taken
/// `t0` and `t1` seconds after the executor started.
pub fn window_utilization(u0: f64, t0: f64, u1: f64, t1: f64) -> f64 {
    if t1 <= t0 {
        0.0
    } else {
        ((u1 * t1 - u0 * t0) / (t1 - t0)).clamp(0.0, 1.0)
    }
}

/// `engine-saturate`: one engine with two workers, one thread keeping 32
/// requests outstanding.
pub struct EngineSaturate {
    engine: ServeEngine,
    executor: Arc<Executor>,
    executor_started: Instant,
    descriptor: ModelDescriptor,
}

impl EngineSaturate {
    /// Build the engine (plan, materialize, warm up) on its own executor.
    pub fn setup() -> Result<EngineSaturate, String> {
        let descriptor = svc_mini();
        let executor = Arc::new(
            Executor::new(ExecutorOptions {
                workers: ENGINE_WORKERS,
                ..ExecutorOptions::default()
            })
            .map_err(|e| format!("cannot start the executor: {e}"))?,
        );
        let executor_started = Instant::now();
        let engine = ServeEngine::builder(&descriptor)
            .executor(&executor)
            .runtime(RuntimeOptions {
                workers: ENGINE_WORKERS,
                ..RuntimeOptions::default()
            })
            .build()
            .map_err(|e| format!("engine build failed: {e}"))?;
        Ok(EngineSaturate {
            engine,
            executor,
            executor_started,
            descriptor,
        })
    }

    /// The served plan.
    pub fn plans(&self) -> Vec<CompressionPlan> {
        vec![self.engine.plan().clone()]
    }

    /// Tear down: drain the engine, then stop the executor.
    pub fn teardown(self) {
        self.engine.shutdown();
        self.executor.shutdown();
    }

    /// Run the whole workload: warm-up, the measured window(s), probes.
    pub fn run(self, ctx: &Ctx, log: &mut SpanLog) -> Result<(Outcome, Option<Outcome>), String> {
        let plan = Arc::new(self.engine.plan().clone());
        let model = Arc::new(reference(&self.descriptor, &plan)?);
        let pool = InputPool::new(&model, POOL_INPUTS, derive_seed(ctx.seed, 1))?;
        self.closed_loop(&pool, WARMUP_S, &mut ctx.log(false));
        let untraced = self.window(ctx, &pool, &mut ctx.log(false));
        let traced = if ctx.trace {
            let mut out = self.window(ctx, &pool, log);
            crate::probes::kernels(
                &mut out,
                log,
                &self.descriptor,
                &plan,
                &model,
                RuntimeOptions::default().seed,
                &pool.inputs[0],
            )?;
            crate::probes::forward(
                &mut out,
                log,
                &self.descriptor,
                &plan,
                &model,
                RuntimeOptions::default().seed,
                &pool.inputs,
            )?;
            let child = crate::common::run_child(ctx, "compress")?;
            setup_stages(&mut out, &child, &self.descriptor)?;
            Some(out)
        } else {
            None
        };
        self.teardown();
        Ok((untraced, traced))
    }

    fn window(&self, ctx: &Ctx, pool: &InputPool, log: &mut SpanLog) -> Outcome {
        self.engine.reset_metrics();
        let pool_before = self.engine.pool_stats();
        let t0 = self.executor_started.elapsed().as_secs_f64();
        let u0 = self.executor.metrics();
        let cpu0 = cpu_seconds();
        let mut out = self.closed_loop(pool, ctx.seconds, log);
        let cpu1 = cpu_seconds();
        let u1 = self.executor.metrics();
        let t1 = self.executor_started.elapsed().as_secs_f64();
        let metrics = self.engine.metrics();
        engine_layers(
            &mut out,
            &[(metrics, pool_before, self.engine.pool_stats())],
        );
        out.layer(
            "exec.utilization",
            window_utilization(u0.utilization, t0, u1.utilization, t1),
        );
        out.layer("exec.steals", (u1.steals_total - u0.steals_total) as f64);
        out.layer("process.cpu_cores", (cpu1 - cpu0) / out.window_s);
        out
    }

    /// Keep [`OUTSTANDING`] requests in flight for `seconds`, verifying every
    /// answer. Requests still in flight at the deadline are verified but
    /// neither timed nor counted as attempted.
    fn closed_loop(&self, pool: &InputPool, seconds: f64, log: &mut SpanLog) -> Outcome {
        let mut out = Outcome {
            slo_limit_ms: SATURATE_SLO_MS,
            ..Outcome::default()
        };
        let mut inflight: VecDeque<Inflight> = VecDeque::new();
        let mut next = 0u64;
        let mut short_refills = 0u64;
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        loop {
            while inflight.len() < OUTSTANDING {
                let input = (next as usize) % pool.len();
                let root = log.begin("request", SpanId::root(), next);
                let sent = Instant::now();
                let submitted = log.time("serve.submit", root, next, || {
                    self.engine.submit(pool.inputs[input].clone())
                });
                match submitted {
                    Ok(pending) => inflight.push_back(Inflight {
                        pending,
                        meta: Meta {
                            sent,
                            input,
                            root,
                            request: next,
                        },
                    }),
                    Err(e) => {
                        out.attempted += 1;
                        out.record_error(&e);
                        log.end(root);
                    }
                }
                next += 1;
            }
            // The loop only ever blocks with the window full; a refused
            // submission leaves it short.
            if inflight.len() < OUTSTANDING {
                short_refills += 1;
            }
            let Some(f) = inflight.pop_front() else { break };
            let answer = log.time("serve.wait", f.meta.root, f.meta.request, || {
                f.pending.wait()
            });
            settle(&mut out, log, pool, start, f.meta, answer);
            if Instant::now() >= deadline {
                break;
            }
        }
        out.window_s = start.elapsed().as_secs_f64();
        out.slice_bounds_s = crate::stats::time_bounds(SATURATE_SLICE_S, out.window_s);
        for f in inflight {
            match f.pending.wait() {
                Ok(r) if pool.matches(f.meta.input, r.output.data()) => {}
                Ok(_) => {
                    out.attempted += 1;
                    out.wrong += 1;
                }
                Err(e) => {
                    out.attempted += 1;
                    out.record_error(&e);
                }
            }
        }
        if short_refills > 0 {
            out.invalid = Some(format!(
                "closed loop waited with fewer than {OUTSTANDING} outstanding {short_refills} times"
            ));
        }
        out
    }
}

/// Verify and count one answer of the closed loop.
fn settle(
    out: &mut Outcome,
    log: &mut SpanLog,
    pool: &InputPool,
    start: Instant,
    f: Meta,
    answer: tdc_serve::Result<tdc_serve::InferenceResponse>,
) {
    out.attempted += 1;
    match answer {
        Ok(response) => {
            let ok = log.time("bench.verify", f.root, f.request, || {
                pool.matches(f.input, response.output.data())
            });
            if ok {
                out.record_ok(
                    f.sent.elapsed().as_secs_f64() * 1e3,
                    start.elapsed().as_secs_f64(),
                );
            } else {
                out.wrong += 1;
            }
        }
        Err(e) => out.record_error(&e),
    }
    log.end(f.root);
}

/// One request of the closed loop.
struct Inflight {
    pending: PendingResponse,
    meta: Meta,
}

/// What the closed loop remembers of a request besides its answer.
#[derive(Clone, Copy)]
struct Meta {
    sent: Instant,
    input: usize,
    root: SpanId,
    request: u64,
}
