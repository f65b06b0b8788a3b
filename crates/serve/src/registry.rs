//! The multi-model registry: N named engines behind one router.
//!
//! A production deployment rarely serves exactly one network. The registry
//! hosts any number of named models, each with its **own**
//! [`ServeEngine`](crate::ServeEngine)
//! (backend, dynamic batcher, worker pool, metrics) so that one model's
//! traffic cannot starve another's workers, while sharing one [`PlanCache`]
//! so models planned under the same `(model, device, backend, budget)` key
//! skip rank selection on re-registration.
//!
//! The registry is **shareable and live**: routing goes through the
//! [`ControlPlane`]'s epoch-swapped table, so every operation — including
//! [`register`](ModelRegistry::register),
//! [`retire`](ModelRegistry::retire) and the plan hot-swap
//! ([`replan`](ModelRegistry::replan) /
//! [`tune`](ModelRegistry::tune)) — takes `&self`. A registry behind
//! an `Arc`, with an HTTP server attached, can gain, lose and re-plan models
//! while serving; readers never block on writers (see [`crate::control`]).
//!
//! Routing is by registered name. Admission control is per model: every
//! engine's queue is bounded by its
//! [`max_queue_depth`](crate::BatchingOptions::max_queue_depth), and a flood
//! against one model is shed at that model's front door with a typed
//! [`ServeError::Overloaded`](crate::ServeError::Overloaded) rejection — counted per model by the registry —
//! instead of queueing without bound. [`ModelRegistry::metrics`] aggregates
//! every model's [`ServeMetrics`] plus the rejection counters, the
//! control-plane lifecycle counters (table epoch, registers, retires,
//! replans) and the shared plan cache's telemetry into one
//! [`RegistryMetrics`] snapshot, which is what the HTTP front end
//! ([`crate::http`]) serializes at `GET /metrics`.
//!
//! Registered names must be URL-safe (they become `/v1/models/{name}/infer`
//! path segments); [`ModelDescriptor::slug`] produces a canonical safe name
//! from any descriptor.

use crate::arena::PoolStats;
use crate::batcher::{InferenceResponse, PendingResponse};
use crate::control::{
    ControlPlane, ControllerConfig, ControllerStatus, ControllerWatch, EngineHandle, KnobEstimate,
    KnobSet, MeasuredSlo, ReplanReport, TickReport, TuneDriver, TuneReport, TuneRequest,
};
use crate::metrics::ServeMetrics;
use crate::options::{BatchingOptions, PlanningOptions, RuntimeOptions};
use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::server::ServeReport;
use crate::Result;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use tdc_exec::Executor;
use tdc_nn::models::ModelDescriptor;
use tdc_tensor::Tensor;

/// Everything one registered model needs: the three engine option groups.
///
/// Each model in a registry gets its own configuration — different budgets,
/// backends, batch shapes and admission bounds can coexist behind one router.
#[derive(Clone, Default)]
pub struct ModelConfig {
    /// Plan identity: device, strategy, budget, rank step, θ.
    pub planning: PlanningOptions,
    /// Batch shape and admission bound.
    pub batching: BatchingOptions,
    /// Worker pool, weight seed, dense algorithm, execution backend.
    pub runtime: RuntimeOptions,
    /// Optional backend interposer (fault injection, call recording),
    /// applied to every engine built for this model — including the rebuilt
    /// engines a replan or tune hot-swaps in, so a harness wrapper
    /// survives plan rotations. `None` (the default) serves the bare
    /// backend.
    pub backend_wrapper: Option<Arc<dyn crate::backend::BackendWrapper>>,
}

impl std::fmt::Debug for ModelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelConfig")
            .field("planning", &self.planning)
            .field("batching", &self.batching)
            .field("runtime", &self.runtime)
            .field(
                "backend_wrapper",
                &self
                    .backend_wrapper
                    .as_ref()
                    .map(|_| "<dyn BackendWrapper>"),
            )
            .finish()
    }
}

/// Static description of one registered model, as listed at
/// `GET /v1/models`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelInfo {
    /// Registered (routing) name.
    pub name: String,
    /// Execution backend identity (`"cpu"`, `"sim-gpu"`).
    pub backend: String,
    /// Device the plan was selected for.
    pub device: String,
    /// Expected HWC dims of one input sample.
    pub input_dims: Vec<usize>,
    /// Logits the model produces per sample.
    pub output_classes: usize,
    /// Convolution layers running in Tucker-decomposed form.
    pub decomposed_layers: usize,
    /// Convolution layers in the plan.
    pub conv_layers: usize,
    /// FLOPs budget the served plan was selected under (what
    /// [`replan`](ModelRegistry::replan) and a tune adjust).
    pub budget: f64,
    /// FLOPs reduction the plan achieved.
    pub achieved_flops_reduction: f64,
    /// Fingerprint of the served plan, hex.
    pub plan_fingerprint: String,
    /// Plan generation: 1 at registration, bumped once per hot-swap.
    pub generation: u64,
    /// Most requests per executed batch.
    pub max_batch_size: usize,
    /// Admission bound of this model's queue.
    pub max_queue_depth: usize,
    /// Default per-request deadline in milliseconds; `None` disables
    /// deadline enforcement for requests without an explicit override.
    pub default_deadline_ms: Option<u64>,
    /// QoS class the model was registered under (`"interactive"`,
    /// `"standard"` or `"batch"`): which executor priority band dispatches
    /// its batches and whether overload shedding applies at admission.
    pub qos: String,
    /// Fair-share weight on the fleet executor: the model's deficit
    /// round-robin quantum (batches per scheduling turn) and concurrent
    /// dispatch ramp, relative to other models in the same QoS band.
    pub fair_share_weight: usize,
}

/// One model's row in a [`RegistryMetrics`] snapshot.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelMetricsEntry {
    /// Registered name.
    pub model: String,
    /// Plan generation currently serving (1 = as registered).
    pub generation: u64,
    /// Requests rejected at admission with [`ServeError::Overloaded`](crate::ServeError::Overloaded).
    /// A route-lifetime counter: survives plan hot-swaps.
    pub rejected_requests: u64,
    /// Requests completed over the route's lifetime — the current engine's
    /// count plus everything drained engines served before their hot-swaps.
    /// Unlike `metrics.completed_requests` (which is per plan generation),
    /// this never regresses on a replan.
    pub lifetime_completed_requests: u64,
    /// Deadline expiries over the route's lifetime (same accumulation).
    pub lifetime_deadline_exceeded: u64,
    /// Requests queued but not yet dispatched at snapshot time.
    pub queue_depth: usize,
    /// The current engine's full metrics snapshot. Latency percentiles and
    /// batch statistics are per plan generation: a hot-swap starts them
    /// fresh (mixing percentile samples across different plans would
    /// misattribute tail behaviour).
    pub metrics: ServeMetrics,
    /// The model's row on the fleet executor: QoS class, fair-share weight,
    /// queued/running dispatch tokens, and how many of its batches ran on a
    /// stolen token.
    pub executor: tdc_exec::SourceMetrics,
    /// The engine's scratch-arena buffer pool: allocation high-water mark
    /// and take/hit counters. Per plan generation (a hot-swap builds a
    /// fresh pool with the engine).
    pub pool: PoolStats,
}

/// Aggregated metrics across every registered model, plus the control-plane
/// lifecycle counters and the shared plan cache's telemetry.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RegistryMetrics {
    /// Per-model snapshots, in registration-name order.
    pub models: Vec<ModelMetricsEntry>,
    /// Completed requests fleet-wide: live engines plus everything served
    /// by engines drained since startup (replans and retires) — monotonic
    /// across lifecycle operations, so a monitoring delta never sees it
    /// regress when a plan hot-swaps or a model retires.
    pub total_completed_requests: u64,
    /// Sum of admission rejections across models.
    pub total_rejected_requests: u64,
    /// Deadline expiries fleet-wide, accumulated the same monotonic way as
    /// `total_completed_requests`
    /// ([`ServeMetrics::deadline_exceeded`]).
    pub total_deadline_exceeded: u64,
    /// Sum of executed batches across models.
    pub total_batches: u64,
    /// Sum of predicted GPU milliseconds across models.
    pub predicted_gpu_ms_total: f64,
    /// Sum of simulated GPU milliseconds across models.
    pub simulated_gpu_ms_total: f64,
    /// Routing-table epoch (swaps since start: registers + retires +
    /// replans).
    pub epoch: u64,
    /// Models registered over the process lifetime.
    pub models_registered_total: u64,
    /// Models retired over the process lifetime.
    pub models_retired_total: u64,
    /// Plan hot-swaps over the process lifetime.
    pub replans_total: u64,
    /// Shared plan cache counters, per-key hit counts and the evicted-key
    /// log.
    pub plan_cache: PlanCacheStats,
    /// Fleet executor snapshot: worker count and utilization, total steals,
    /// per-QoS-band queue depths and every registered source's row. All
    /// zeros (with empty bands) when the registry fell back to per-engine
    /// private pools.
    pub executor: tdc_exec::ExecutorMetrics,
    /// SLO-controller snapshot: watch config, tick/tune/drift counters and
    /// per-model tuning state (generation, target, expected vs measured
    /// p99, early-release counts, current knob values).
    pub controller: ControllerStatus,
}

/// N named serving engines behind one name-based router.
///
/// # Examples
///
/// ```
/// use tdc_serve::{serving_descriptor, ModelConfig, ModelRegistry};
///
/// let registry = ModelRegistry::new(4);
/// registry
///     .register("small", &serving_descriptor("small", 8, 4, 4), ModelConfig::default())
///     .unwrap();
/// registry
///     .register("wide", &serving_descriptor("wide", 8, 6, 6), ModelConfig::default())
///     .unwrap();
/// assert_eq!(registry.names(), vec!["small", "wide"]);
///
/// let input = tdc_tensor::Tensor::zeros(vec![8, 8, 4]);
/// let response = registry.infer("small", input).unwrap();
/// assert_eq!(response.output.dims(), &[4]);
/// assert!(registry.infer("ghost", tdc_tensor::Tensor::zeros(vec![1])).is_err());
///
/// // Registration takes `&self`: a live, shared registry can lose models
/// // too — retire drains gracefully and frees the engine.
/// let report = registry.retire("wide").unwrap();
/// assert_eq!(report.metrics.completed_requests, 0);
///
/// let metrics = registry.metrics();
/// assert_eq!(metrics.total_completed_requests, 1);
/// assert_eq!(metrics.models_retired_total, 1);
/// registry.shutdown();
/// ```
pub struct ModelRegistry {
    control: ControlPlane,
}

impl ModelRegistry {
    /// An empty registry whose shared plan cache holds up to
    /// `plan_capacity` plans.
    pub fn new(plan_capacity: usize) -> Self {
        Self::with_cache(PlanCache::new(plan_capacity))
    }

    /// An empty registry planning through `cache` (e.g. one configured with a
    /// spill directory, so every registered model skips rank selection after
    /// a process restart).
    pub fn with_cache(cache: PlanCache) -> Self {
        ModelRegistry {
            control: ControlPlane::new(cache),
        }
    }

    /// An empty registry planning through `cache` and scheduling every
    /// engine on `executor` — a pool shared with other registries in the
    /// process, or a deterministic paused pool in tests.
    pub fn with_executor(cache: PlanCache, executor: Arc<Executor>) -> Self {
        ModelRegistry {
            control: ControlPlane::with_executor(cache, executor),
        }
    }

    /// The control plane this registry routes through: the epoch-swapped
    /// table, lifecycle counters and the controller ledger.
    pub fn control(&self) -> &ControlPlane {
        &self.control
    }

    /// Whether `name` can be registered: non-empty and made of URL-safe
    /// characters (`[A-Za-z0-9._-]`), so it can appear verbatim as the
    /// `/v1/models/{name}/infer` path segment.
    pub fn is_valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    }

    /// Build an engine for `descriptor` under `config` and route `name` to
    /// it — on a live registry, through `&self` — returning the routed
    /// model's description. Fails with
    /// [`ServeError::BadConfig`](crate::ServeError::BadConfig) on an invalid or duplicate name and
    /// propagates any engine-build failure. Planning goes through the
    /// registry's shared cache; the cache key carries the *descriptor* name,
    /// so two registrations of the same descriptor share a plan while
    /// same-shaped descriptors with different names never do.
    pub fn register(
        &self,
        name: &str,
        descriptor: &ModelDescriptor,
        config: ModelConfig,
    ) -> Result<ModelInfo> {
        self.control
            .register(name, descriptor, config)
            .map(|(info, _epoch)| info)
    }

    /// Gracefully retire `name`: unroute it (immediate 404 for new
    /// requests), stop admission, drain every admitted request, free the
    /// engine and return its final report. See [`ControlPlane::retire`].
    pub fn retire(&self, name: &str) -> Result<ServeReport> {
        self.control.retire(name).map(|(report, _epoch)| report)
    }

    /// Hot-swap the plan serving `name` by re-planning under `planning`;
    /// zero requests are dropped across the swap boundary. See
    /// [`ControlPlane::replan`].
    pub fn replan(&self, name: &str, planning: PlanningOptions) -> Result<ReplanReport> {
        self.control.replan(name, planning)
    }

    /// [`replan`](ModelRegistry::replan) with the new planning options
    /// derived from the model's current ones under the control plane's
    /// writer lock, so partial overrides compose with concurrent admin
    /// operations. See [`ControlPlane::replan_with`].
    pub fn replan_with(
        &self,
        name: &str,
        update: impl FnOnce(PlanningOptions) -> PlanningOptions,
    ) -> Result<ReplanReport> {
        self.control.replan_with(name, update)
    }

    /// Hot-swap `name`'s whole [`ModelConfig`] (budget, batch shape,
    /// runtime) in one zero-drop swap. See
    /// [`ControlPlane::reconfigure_with`].
    pub fn reconfigure_with(
        &self,
        name: &str,
        update: impl FnOnce(ModelConfig) -> ModelConfig,
    ) -> Result<ReplanReport> {
        self.control.reconfigure_with(name, update)
    }

    /// Score a [`KnobSet`] candidate for `name` on the wave simulator. See
    /// [`ControlPlane::estimate_knobs`].
    pub fn estimate_knobs(&self, name: &str, knobs: &KnobSet) -> Result<KnobEstimate> {
        self.control.estimate_knobs(name, knobs)
    }

    /// Install the controller's knob search. See
    /// [`ControlPlane::set_tune_driver`].
    pub fn set_tune_driver(&self, driver: Arc<dyn TuneDriver>) {
        self.control.set_tune_driver(driver)
    }

    /// Run one controller tune for `name` through the installed driver. See
    /// [`ControlPlane::tune`].
    pub fn tune(&self, name: &str, request: &TuneRequest) -> Result<TuneReport> {
        self.control.tune(name, request)
    }

    /// The live watch-loop configuration. See
    /// [`ControlPlane::controller_config`].
    pub fn controller_config(&self) -> ControllerConfig {
        self.control.controller_config()
    }

    /// Replace the watch-loop configuration (picked up by a running watch
    /// on its next tick). See [`ControlPlane::set_controller_config`].
    pub fn set_controller_config(&self, config: ControllerConfig) -> Result<ControllerConfig> {
        self.control.set_controller_config(config)
    }

    /// Controller snapshot: config, counters, per-model tuning state. See
    /// [`ControlPlane::controller_status`].
    pub fn controller_status(&self) -> ControllerStatus {
        self.control.controller_status()
    }

    /// One controller tick on live engine metrics. See
    /// [`ControlPlane::controller_tick`].
    pub fn controller_tick(&self) -> TickReport {
        self.control.controller_tick()
    }

    /// One controller tick on a scripted measurement feed (the
    /// deterministic test seam). See
    /// [`ControlPlane::controller_tick_with`].
    pub fn controller_tick_with(&self, feed: &[(String, MeasuredSlo)]) -> TickReport {
        self.control.controller_tick_with(feed)
    }

    /// Start the background watch loop against this registry; the returned
    /// handle stops and joins the thread on drop. See
    /// [`ControlPlane::watch`].
    pub fn watch(self: &Arc<Self>) -> ControllerWatch {
        ControlPlane::watch(self)
    }

    /// Registered model count.
    pub fn len(&self) -> usize {
        self.control.snapshot().len()
    }

    /// Whether no model is registered.
    pub fn is_empty(&self) -> bool {
        self.control.snapshot().is_empty()
    }

    /// Registered names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.control.snapshot().keys().cloned().collect()
    }

    /// A read handle on the engine serving `model`, if registered. The
    /// handle pins the model's current engine: a concurrent retire or replan
    /// waits for it to drop before freeing that engine.
    pub fn engine(&self, model: &str) -> Result<EngineHandle> {
        self.control.engine(model)
    }

    /// Static descriptions of every registered model, in name order.
    pub fn model_info(&self) -> Vec<ModelInfo> {
        self.control
            .snapshot()
            .values()
            .map(|m| m.info.clone())
            .collect()
    }

    /// Routing-table epoch: how many times the model table has been swapped.
    pub fn epoch(&self) -> u64 {
        self.control.epoch()
    }

    /// Submit one input to `model` under the model's default deadline;
    /// returns a handle to await the response. Admission rejections
    /// ([`ServeError::Overloaded`](crate::ServeError::Overloaded)) are counted per model and surface in
    /// [`ModelRegistry::metrics`].
    pub fn submit(&self, model: &str, input: Tensor) -> Result<PendingResponse> {
        let entry = self.control.lookup(model)?;
        let deadline = entry.engine.default_deadline();
        entry.submit_counted(input, deadline)
    }

    /// Submit one input to `model` with an explicit per-request deadline
    /// (`None` disables enforcement for this request), overriding the
    /// model's configured default.
    pub fn submit_with_deadline(
        &self,
        model: &str,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<PendingResponse> {
        let entry = self.control.lookup(model)?;
        entry.submit_counted(input, deadline)
    }

    /// Submit a group of inputs to `model` atomically under one deadline
    /// (see [`ServeEngine::submit_many`](crate::ServeEngine::submit_many)):
    /// the group is contiguous in the model's queue, so a group no larger
    /// than the model's batch size rides one executor batch on an idle
    /// queue. An admission rejection rejects the group whole and counts one
    /// rejection per request in it.
    pub fn submit_many(
        &self,
        model: &str,
        inputs: Vec<Tensor>,
        deadline: Option<Duration>,
    ) -> Result<Vec<PendingResponse>> {
        let entry = self.control.lookup(model)?;
        entry.submit_many_counted(inputs, deadline)
    }

    /// Submit to `model` and block for the response.
    pub fn infer(&self, model: &str, input: Tensor) -> Result<InferenceResponse> {
        self.submit(model, input)?.wait()
    }

    /// Submit to `model` with an explicit deadline and block for the
    /// response.
    pub fn infer_with_deadline(
        &self,
        model: &str,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<InferenceResponse> {
        self.submit_with_deadline(model, input, deadline)?.wait()
    }

    /// Aggregate every model's metrics, the per-model admission rejection
    /// counters, the control-plane lifecycle counters and the plan cache's
    /// telemetry.
    pub fn metrics(&self) -> RegistryMetrics {
        let snapshot = self.control.snapshot();
        let models: Vec<ModelMetricsEntry> = snapshot
            .iter()
            .map(|(name, m)| {
                let metrics = m.engine.metrics();
                ModelMetricsEntry {
                    model: name.clone(),
                    generation: m.info.generation,
                    rejected_requests: m.rejected.load(Ordering::Relaxed),
                    lifetime_completed_requests: m.prior.completed.load(Ordering::Relaxed)
                        + metrics.completed_requests,
                    lifetime_deadline_exceeded: m.prior.deadline_exceeded.load(Ordering::Relaxed)
                        + metrics.deadline_exceeded,
                    queue_depth: m.engine.queue_depth(),
                    metrics,
                    executor: m.engine.executor_source(),
                    pool: m.engine.pool_stats(),
                }
            })
            .collect();
        let lifecycle = self.control.counters();
        // Fleet totals stay monotonic across hot-swaps and retires: live
        // engines plus everything drained engines served before they were
        // rotated out. (Per-route `prior` totals are a subset of the
        // drained totals, so summing live engines + drained counts each
        // request exactly once.)
        let (drained_completed, drained_deadline_exceeded) = self.control.drained_totals();
        RegistryMetrics {
            total_completed_requests: models
                .iter()
                .map(|m| m.metrics.completed_requests)
                .sum::<u64>()
                + drained_completed,
            total_rejected_requests: models.iter().map(|m| m.rejected_requests).sum(),
            total_deadline_exceeded: models
                .iter()
                .map(|m| m.metrics.deadline_exceeded)
                .sum::<u64>()
                + drained_deadline_exceeded,
            total_batches: models.iter().map(|m| m.metrics.batches).sum(),
            predicted_gpu_ms_total: models
                .iter()
                .map(|m| m.metrics.predicted_gpu_ms_total)
                .sum(),
            simulated_gpu_ms_total: models
                .iter()
                .map(|m| m.metrics.simulated_gpu_ms_total)
                .sum(),
            epoch: lifecycle.epoch,
            models_registered_total: lifecycle.models_registered_total,
            models_retired_total: lifecycle.models_retired_total,
            replans_total: lifecycle.replans_total,
            plan_cache: self.control.cache().stats(),
            executor: self.control.executor_metrics(),
            controller: self.control.controller_status(),
            models,
        }
    }

    /// Counters and telemetry of the shared plan cache.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.control.cache().stats()
    }

    /// Shut every engine down (graceful drain each) and return the final
    /// reports in name order.
    pub fn shutdown(self) -> Vec<(String, ServeReport)> {
        self.control.shutdown_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving_descriptor;
    use crate::{BackendKind, CacheOutcome, ServeError};
    use std::time::Duration;

    fn quick_config() -> ModelConfig {
        ModelConfig {
            batching: BatchingOptions {
                max_batch_size: 4,
                max_batch_delay: Duration::from_millis(1),
                ..BatchingOptions::default()
            },
            ..ModelConfig::default()
        }
    }

    #[test]
    fn routes_by_name_and_rejects_unknown_models() {
        let registry = ModelRegistry::new(4);
        registry
            .register("a", &serving_descriptor("reg-a", 10, 4, 6), quick_config())
            .unwrap();
        registry
            .register("b", &serving_descriptor("reg-b", 8, 4, 4), quick_config())
            .unwrap();
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names(), vec!["a", "b"]);
        assert_eq!(registry.epoch(), 2, "one table swap per registration");

        let ra = registry.infer("a", Tensor::zeros(vec![10, 10, 4])).unwrap();
        assert_eq!(ra.output.dims(), &[6]);
        let rb = registry.infer("b", Tensor::zeros(vec![8, 8, 4])).unwrap();
        assert_eq!(rb.output.dims(), &[4]);

        let missing = registry.infer("c", Tensor::zeros(vec![1]));
        assert!(matches!(missing, Err(ServeError::UnknownModel { name }) if name == "c"));

        let metrics = registry.metrics();
        assert_eq!(metrics.total_completed_requests, 2);
        assert_eq!(metrics.models.len(), 2);
        assert_eq!(metrics.models[0].metrics.completed_requests, 1);
        assert_eq!(metrics.models[0].generation, 1);
        assert_eq!(metrics.total_rejected_requests, 0);
        assert_eq!(metrics.models_registered_total, 2);
        assert_eq!(metrics.models_retired_total, 0);
        assert_eq!(
            metrics.plan_cache.misses, 2,
            "/metrics embeds the plan cache telemetry"
        );

        let reports = registry.shutdown();
        assert_eq!(reports.len(), 2);
        assert!(reports
            .iter()
            .all(|(_, r)| r.metrics.completed_requests == 1));
    }

    #[test]
    fn rejects_invalid_and_duplicate_names() {
        let registry = ModelRegistry::new(2);
        let descriptor = serving_descriptor("reg-names", 8, 4, 4);
        for bad in ["", "has space", "slash/y", "q?query", "p%cent"] {
            assert!(
                matches!(
                    registry.register(bad, &descriptor, quick_config()),
                    Err(ServeError::BadConfig { .. })
                ),
                "name {bad:?} must be rejected"
            );
        }
        registry
            .register("ok-1", &descriptor, quick_config())
            .unwrap();
        assert!(matches!(
            registry.register("ok-1", &descriptor, quick_config()),
            Err(ServeError::BadConfig { .. })
        ));
        // The descriptor's slug is always a valid name.
        assert!(ModelRegistry::is_valid_name(&descriptor.slug()));
    }

    #[test]
    fn same_shapes_under_different_descriptor_names_plan_separately() {
        // The plan-cache key carries the descriptor name, so two models with
        // identical shapes but different identities never share a plan entry.
        let registry = ModelRegistry::new(4);
        registry
            .register(
                "first",
                &serving_descriptor("ident-a", 10, 4, 6),
                quick_config(),
            )
            .unwrap();
        registry
            .register(
                "second",
                &serving_descriptor("ident-b", 10, 4, 6),
                quick_config(),
            )
            .unwrap();
        assert_eq!(registry.cache_stats().misses, 2);
        // Re-registering the same descriptor under a new route shares the
        // cached plan.
        registry
            .register(
                "alias",
                &serving_descriptor("ident-a", 10, 4, 6),
                quick_config(),
            )
            .unwrap();
        assert_eq!(registry.cache_stats().memory_hits, 1);
        assert_eq!(
            registry.engine("alias").unwrap().plan_outcome(),
            CacheOutcome::MemoryHit
        );
        registry.shutdown();
    }

    #[test]
    fn expiring_flood_on_one_model_does_not_inflate_a_sibling_p99() {
        let registry = ModelRegistry::new(4);
        // "expiry": a long batch delay so every impossible-deadline request
        // is released (and expired) at its own deadline instead of riding a
        // real batch; "steady": a normal low-latency sibling.
        registry
            .register(
                "expiry",
                &serving_descriptor("dl-expiry", 10, 4, 6),
                ModelConfig {
                    batching: BatchingOptions {
                        max_batch_size: 16,
                        max_batch_delay: Duration::from_millis(400),
                        ..BatchingOptions::default()
                    },
                    runtime: RuntimeOptions {
                        workers: 1,
                        ..RuntimeOptions::default()
                    },
                    ..quick_config()
                },
            )
            .unwrap();
        registry
            .register(
                "steady",
                &serving_descriptor("dl-steady", 10, 4, 6),
                quick_config(),
            )
            .unwrap();

        // Flood "expiry" with impossible 1 ms deadlines…
        const FLOOD: usize = 10;
        for _ in 0..FLOOD {
            let err = registry
                .infer_with_deadline(
                    "expiry",
                    Tensor::zeros(vec![10, 10, 4]),
                    Some(Duration::from_millis(1)),
                )
                .unwrap_err();
            assert!(matches!(err, ServeError::DeadlineExceeded { .. }));
        }
        // …while "steady" keeps serving normally.
        for _ in 0..8 {
            registry
                .infer("steady", Tensor::zeros(vec![10, 10, 4]))
                .unwrap();
        }

        let metrics = registry.metrics();
        assert_eq!(metrics.total_deadline_exceeded, FLOOD as u64);
        let expiry = metrics.models.iter().find(|m| m.model == "expiry").unwrap();
        assert_eq!(expiry.metrics.deadline_exceeded, FLOOD as u64);
        assert_eq!(expiry.metrics.completed_requests, 0);
        assert_eq!(
            expiry.metrics.total_latency.count, 0,
            "expired requests must not leave latency samples behind"
        );
        let steady = metrics.models.iter().find(|m| m.model == "steady").unwrap();
        assert_eq!(steady.metrics.completed_requests, 8);
        assert_eq!(steady.metrics.deadline_exceeded, 0);
        assert!(
            steady.metrics.total_latency.p99_ms < 200.0,
            "steady p99 {:.2} ms was inflated by the sibling's expiring flood",
            steady.metrics.total_latency.p99_ms
        );
        registry.shutdown();
    }

    #[test]
    fn per_model_backends_and_metrics_stay_separate() {
        let registry = ModelRegistry::new(4);
        registry
            .register(
                "cpu",
                &serving_descriptor("mix-cpu", 10, 4, 6),
                quick_config(),
            )
            .unwrap();
        registry
            .register(
                "sim",
                &serving_descriptor("mix-sim", 10, 4, 6),
                ModelConfig {
                    runtime: RuntimeOptions {
                        backend: BackendKind::SimGpu,
                        ..RuntimeOptions::default()
                    },
                    ..quick_config()
                },
            )
            .unwrap();
        let info = registry.model_info();
        assert_eq!(info[0].backend, "cpu");
        assert_eq!(info[1].backend, "sim-gpu");
        assert_eq!(info[0].input_dims, vec![10, 10, 4]);
        assert_eq!(info[0].output_classes, 6);
        assert_eq!(info[0].budget, 0.5);
        assert_eq!(info[0].generation, 1);

        for _ in 0..3 {
            registry
                .infer("sim", Tensor::zeros(vec![10, 10, 4]))
                .unwrap();
        }
        let metrics = registry.metrics();
        let cpu = &metrics.models[0];
        let sim = &metrics.models[1];
        assert_eq!(cpu.metrics.completed_requests, 0);
        assert_eq!(sim.metrics.completed_requests, 3);
        assert!(sim.metrics.simulated_gpu_ms_total > 0.0);
        assert_eq!(metrics.total_completed_requests, 3);
        assert_eq!(
            metrics.simulated_gpu_ms_total,
            sim.metrics.simulated_gpu_ms_total
        );
        registry.shutdown();
    }

    #[test]
    fn retire_unroutes_immediately_and_reports_the_drained_engine() {
        let registry = ModelRegistry::new(4);
        registry
            .register(
                "keep",
                &serving_descriptor("ret-keep", 10, 4, 6),
                quick_config(),
            )
            .unwrap();
        registry
            .register(
                "gone",
                &serving_descriptor("ret-gone", 10, 4, 6),
                quick_config(),
            )
            .unwrap();
        for _ in 0..3 {
            registry
                .infer("gone", Tensor::zeros(vec![10, 10, 4]))
                .unwrap();
        }
        let report = registry.retire("gone").unwrap();
        assert_eq!(report.metrics.completed_requests, 3);
        assert_eq!(registry.names(), vec!["keep"]);
        assert!(matches!(
            registry.infer("gone", Tensor::zeros(vec![10, 10, 4])),
            Err(ServeError::UnknownModel { .. })
        ));
        // The survivor is untouched.
        registry
            .infer("keep", Tensor::zeros(vec![10, 10, 4]))
            .unwrap();
        let metrics = registry.metrics();
        assert_eq!(metrics.models.len(), 1);
        assert_eq!(metrics.models_retired_total, 1);
        registry.shutdown();
    }
}
