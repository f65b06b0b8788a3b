//! The chaos scenario catalog.
//!
//! Each scenario drives live serving machinery (engines, registries, a
//! routed fleet) through one scripted failure and asserts the same
//! three-part contract:
//!
//! 1. **typed errors only** — nothing a client observes falls outside
//!    the typed `ServeError` surface (`Overloaded`, `DeadlineExceeded`,
//!    `ExecutionFailed`) or, over HTTP, its status-code mapping;
//! 2. **counters reconcile** — after a drain, every submitted request is
//!    accounted for exactly once
//!    (`submitted == completed + expired + failed`, sheds counted
//!    separately);
//! 3. **bit-parity after heal** — once the fault clears, replaying the
//!    same trace produces byte-identical outputs to a fault-free run.
//!
//! Scenarios panic with a descriptive message on violation (they are
//! test bodies first), and return a [`ChaosReport`] so callers — the
//! crate's integration tests, the repository-level `lab_chaos` test —
//! can log what actually happened.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tdc_router::testkit::{self, drain_replica, fleet_config, hammer, manual_probe_options};
use tdc_router::{Router, RoutingPolicy};
use tdc_serve::http::{http_request, route_full, InferBody, InferReply};
use tdc_serve::{
    serving_descriptor, BatchingOptions, HttpHandler, HttpServer, ModelConfig, ModelRegistry,
    PlanCache, PlanningOptions, RoutedResponse, ServeError,
};
use tdc_tensor::Tensor;

use crate::runner::{deploy, reconcile, replay, ReplayOptions};
use crate::spec::WorkloadSpec;
use crate::trace::generate;

/// What one scenario run observed — returned for logging, never the
/// pass/fail signal (violations panic).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Scenario label.
    pub scenario: &'static str,
    /// Requests (samples) the scenario drove.
    pub requests: u64,
    /// Typed failures the fault caused (`ExecutionFailed`, sheds, …).
    pub typed_failures: u64,
    /// One-line outcome summary.
    pub outcome: String,
}

fn backend_fault_spec(name: &str, kind: &str) -> WorkloadSpec {
    WorkloadSpec::parse(&format!(
        r#"{{"name": "{name}", "seed": 1300,
            "models": [{{"name": "{name}-m", "spatial": 8, "base_channels": 4, "classes": 4}}],
            "size_mix": {{"kind": "bounded-pareto", "alpha": 1.5, "min": 1, "max": 3}},
            "phases": [{{"label": "steady", "duration_ms": 240,
                        "arrival": {{"kind": "uniform", "rate_hz": 300}}}}],
            "faults": [{{"at_ms": 80, "kind": "{kind}", "model": "{name}-m", "count": 2}}]}}"#
    ))
    .expect("scenario spec")
}

fn backend_fault_scenario(
    scenario: &'static str,
    spec: WorkloadSpec,
    expect_panics: bool,
) -> ChaosReport {
    let trace = generate(&spec);
    let options = ReplayOptions::default();

    // Fault-free reference: same spec minus the fault script, same seed,
    // so the trace — and therefore the submitted tensors — are identical.
    let reference_spec = WorkloadSpec {
        faults: vec![],
        ..spec.clone()
    };
    let reference = deploy(&reference_spec, &trace, &options).expect("deploy reference");
    let baseline = replay(&reference, &reference_spec, &trace, &options);
    assert!(
        baseline.unexpected.is_empty() && baseline.failed == 0 && baseline.shed == 0,
        "{scenario}: reference run must be clean: {baseline:?}"
    );
    drop(reference.registry.shutdown());

    // Fault run: the injector arms mid-trace and kills/fails two batches.
    let deployment = deploy(&spec, &trace, &options).expect("deploy faulted");
    let faulted = replay(&deployment, &spec, &trace, &options);
    assert!(
        faulted.unexpected.is_empty(),
        "{scenario}: clients saw untyped failures: {:?}",
        faulted.unexpected
    );
    assert!(
        faulted.failed > 0,
        "{scenario}: the scripted fault never fired (completed {}, failed 0)",
        faulted.completed
    );
    let injector = &deployment.injectors[spec.faults[0].action.model()];
    assert!(
        injector.is_idle(),
        "{scenario}: fault budget must be exhausted after the run"
    );
    if expect_panics {
        assert!(injector.injected_panics() > 0, "{scenario}: no panic fired");
        assert_eq!(
            injector.injected_errors(),
            0,
            "{scenario}: wrong fault kind"
        );
    } else {
        assert!(injector.injected_errors() > 0, "{scenario}: no error fired");
        assert_eq!(
            injector.injected_panics(),
            0,
            "{scenario}: wrong fault kind"
        );
    }

    // Heal: the same deployment replayed without the fault script (a
    // replay arms whatever faults its spec lists, so the heal pass uses
    // the fault-free spec) — outputs must be bit-identical to the
    // fault-free reference.
    let healed = replay(&deployment, &reference_spec, &trace, &options);
    assert!(
        healed.unexpected.is_empty() && healed.failed == 0,
        "{scenario}: post-heal replay not clean: {healed:?}"
    );
    assert_eq!(
        healed.output_fingerprint, baseline.output_fingerprint,
        "{scenario}: post-heal outputs drifted from the fault-free reference"
    );

    // Engine books reconcile across both runs on this deployment.
    let totals = reconcile(&deployment.registry).expect("reconcile");
    assert_eq!(
        totals.submitted,
        faulted.submitted + healed.submitted,
        "{scenario}: engine-side submitted count disagrees with the client"
    );
    assert_eq!(
        totals.completed + totals.expired + totals.failed,
        faulted.completed + faulted.expired + faulted.failed + healed.completed,
        "{scenario}: outcome totals disagree"
    );

    ChaosReport {
        scenario,
        requests: faulted.requests + healed.requests,
        typed_failures: faulted.failed,
        outcome: format!(
            "{} samples failed typed, healed fingerprint {:016x} matches reference",
            faulted.failed, healed.output_fingerprint
        ),
    }
}

/// Worker panic inside `forward_batch_in`: the engine's unwind containment
/// turns a panicking backend into per-request typed `ExecutionFailed`,
/// the worker survives, and after the panic budget drains the engine
/// serves bit-identically to a never-faulted one.
pub fn worker_panic_recovers() -> ChaosReport {
    backend_fault_scenario(
        "worker-panic",
        backend_fault_spec("chaos-panic", "backend-panic"),
        true,
    )
}

/// Backend error storm: `forward_batch_in` returns typed errors for a
/// stretch of batches; clients see `ExecutionFailed` only, and the
/// stream heals bit-identically.
pub fn error_storm_recovers() -> ChaosReport {
    backend_fault_scenario(
        "error-storm",
        backend_fault_spec("chaos-storm", "backend-error"),
        false,
    )
}

/// Replica kill and restart under load, behind the router: one replica
/// of a three-replica in-process fleet is drained mid-hammer; the
/// router's failover masks it (zero client-visible failures), the
/// prober ejects the corpse and readmits the restarted replica, and a
/// routed request after heal is bit-identical to one from before the
/// kill.
pub fn replica_kill_mid_drain_masked() -> ChaosReport {
    const MODEL: &str = "chaos-fleet";
    let descriptor = serving_descriptor(MODEL, 10, 4, 6);
    let config = fleet_config();
    let (mut servers, router, front) = testkit::bind_fleet(
        3,
        manual_probe_options(RoutingPolicy::LeastLoaded),
        MODEL,
        &descriptor,
        &config,
    );
    let front_addr = front.local_addr();
    let input = vec![0.25f32; 10 * 10 * 4];

    let probe = |n: usize| {
        for _ in 0..n {
            router.probe_once();
        }
    };
    probe(2);

    let infer = |label: &str| -> Vec<f32> {
        let body = serde_json::to_string(&InferBody {
            input: input.clone(),
            dims: None,
            deadline_ms: None,
        })
        .expect("serialize infer body");
        let (status, reply) = http_request(
            &front_addr,
            "POST",
            &format!("/v1/models/{MODEL}/infer"),
            Some(&body),
        )
        .unwrap_or_else(|e| panic!("replica-kill: {label} infer transport error: {e}"));
        assert_eq!(status, 200, "replica-kill: {label} infer failed: {reply}");
        let reply: InferReply = serde_json::from_str(&reply).expect("parse infer reply");
        reply.output
    };
    let before = infer("pre-kill");

    // Hammer from three clients while a coordinator kills replica 0 the
    // moment the fleet is warm.
    let progress = Arc::new(AtomicU64::new(0));
    let hammers: Vec<_> = (0..3)
        .map(|_| {
            let progress = Arc::clone(&progress);
            let input = input.clone();
            std::thread::spawn(move || hammer(front_addr, MODEL, &input, 60, Some(progress)))
        })
        .collect();
    while progress.load(Ordering::Relaxed) < 30 {
        std::thread::sleep(Duration::from_millis(2));
    }
    let victim_addr = servers[0].local_addr();
    drain_replica(servers.remove(0));

    let mut ok = 0u64;
    for handle in hammers {
        let report = handle.join().expect("hammer thread");
        assert_eq!(
            report.failures, 0,
            "replica-kill: client-visible failure while a replica died: {:?}",
            report.first_failure
        );
        ok += report.ok;
    }
    assert_eq!(ok, 180, "replica-kill: every hammered request must answer");

    // The prober notices the corpse (eject_after = 2 consecutive probe
    // failures), then readmits the restarted replica.
    probe(2);
    let metrics = router.metrics();
    assert_eq!(
        metrics.ejections_total, 1,
        "replica-kill: prober must eject the killed replica"
    );
    servers.insert(
        0,
        testkit::bind_replica(&victim_addr.to_string(), MODEL, &descriptor, config.clone()),
    );
    probe(2);
    let metrics = router.metrics();
    assert!(
        metrics.replicas.iter().all(|r| r.healthy),
        "replica-kill: restarted replica must be readmitted: {metrics:?}"
    );

    let after = infer("post-heal");
    assert_eq!(
        before, after,
        "replica-kill: post-heal output drifted from pre-kill"
    );

    router.stop();
    front.stop();
    for server in servers {
        drain_replica(server);
    }
    ChaosReport {
        scenario: "replica-kill",
        requests: 182,
        typed_failures: 0,
        outcome: format!(
            "180 hammered + 2 probes answered across kill/restart, {} failover(s)",
            metrics.failovers_total
        ),
    }
}

/// An [`HttpHandler`] that stalls every request — health probes included —
/// by the armed duration before delegating to the stock registry route
/// table. The HTTP-level analogue of [`FaultInjector::arm_delays`]
/// (`crate::fault::FaultInjector`): that models a slow *backend* inside
/// one engine, this models a slow *replica* as the router observes one.
struct SlowHandler {
    registry: Arc<ModelRegistry>,
    stall_ms: AtomicU64,
}

impl HttpHandler for SlowHandler {
    fn handle(&self, method: &str, path: &str, body: &str) -> RoutedResponse {
        let stall = self.stall_ms.load(Ordering::SeqCst);
        if stall > 0 {
            std::thread::sleep(Duration::from_millis(stall));
        }
        route_full(&self.registry, method, path, body)
    }
}

/// Slow-replica brown-out behind the router: one replica of a
/// three-replica fleet starts stalling every request — its health probe
/// included — well past the prober's timeout. Nothing dies and nothing
/// errors, so this pins ejection on *latency alone*: the prober must
/// count timed-out probes as failed sweeps and eject at `eject_after`,
/// routed traffic must come back fast and bit-identical from the healthy
/// pair, and once the stall clears the replica must be readmitted.
pub fn slow_replica_ejected_on_latency() -> ChaosReport {
    const MODEL: &str = "chaos-slow";
    let descriptor = serving_descriptor(MODEL, 10, 4, 6);
    let config = fleet_config();

    // Replica 0 binds through the stalling handler so the brown-out
    // covers the whole HTTP surface — a backend-level delay fault would
    // leave `/healthz` fast and the prober blind to it.
    let slow_registry = ModelRegistry::new(2);
    slow_registry
        .register(MODEL, &descriptor, config.clone())
        .expect("register slow replica");
    let slow = Arc::new(SlowHandler {
        registry: Arc::new(slow_registry),
        stall_ms: AtomicU64::new(0),
    });
    let slow_server = HttpServer::bind_with_handler("127.0.0.1:0", Arc::clone(&slow) as _)
        .expect("bind slow replica");

    let healthy: Vec<HttpServer> = (0..2)
        .map(|_| testkit::bind_replica("127.0.0.1:0", MODEL, &descriptor, config.clone()))
        .collect();
    let mut addrs = vec![slow_server.local_addr()];
    addrs.extend(healthy.iter().map(|s| s.local_addr()));
    let options = manual_probe_options(RoutingPolicy::LeastLoaded);
    let probe_timeout = options.probe_timeout;
    let router = Arc::new(Router::new(&addrs, options));
    let front = HttpServer::bind_with_handler("127.0.0.1:0", Arc::clone(&router) as _)
        .expect("bind router front end");
    let front_addr = front.local_addr();

    let probe = |n: usize| {
        for _ in 0..n {
            router.probe_once();
        }
    };
    probe(2);
    assert!(
        router.metrics().replicas.iter().all(|r| r.healthy),
        "slow-replica: the fleet must start healthy"
    );

    let input = vec![0.75f32; 10 * 10 * 4];
    let infer = |label: &str| -> Vec<f32> {
        let body = serde_json::to_string(&InferBody {
            input: input.clone(),
            dims: None,
            deadline_ms: None,
        })
        .expect("serialize infer body");
        let (status, reply) = http_request(
            &front_addr,
            "POST",
            &format!("/v1/models/{MODEL}/infer"),
            Some(&body),
        )
        .unwrap_or_else(|e| panic!("slow-replica: {label} infer transport error: {e}"));
        assert_eq!(status, 200, "slow-replica: {label} infer failed: {reply}");
        let reply: InferReply = serde_json::from_str(&reply).expect("parse infer reply");
        reply.output
    };
    let before = infer("pre-stall");

    // The brown-out: every request to replica 0 now stalls for three
    // probe timeouts. Two sweeps (eject_after) later it must be out.
    slow.stall_ms
        .store(probe_timeout.as_millis() as u64 * 3, Ordering::SeqCst);
    probe(2);
    let metrics = router.metrics();
    assert_eq!(
        metrics.ejections_total, 1,
        "slow-replica: latency alone must eject: {metrics:?}"
    );
    assert!(
        !metrics.replicas[0].healthy,
        "slow-replica: the stalled replica must leave the rotation"
    );

    // The healthy pair carries routed traffic — fast (the stalled
    // replica is no longer a candidate) and bit-identical.
    let started = std::time::Instant::now();
    let during = infer("mid-stall");
    assert!(
        started.elapsed() < probe_timeout,
        "slow-replica: routed traffic still touches the stalled replica"
    );
    assert_eq!(
        before, during,
        "slow-replica: failover output drifted from pre-stall"
    );

    // Heal: the stall clears and readmit_after clean sweeps readmit.
    slow.stall_ms.store(0, Ordering::SeqCst);
    probe(2);
    let metrics = router.metrics();
    assert_eq!(
        metrics.readmissions_total, 1,
        "slow-replica: the healed replica must be readmitted: {metrics:?}"
    );
    assert!(
        metrics.replicas.iter().all(|r| r.healthy),
        "slow-replica: fleet not fully healthy after the heal"
    );
    let after = infer("post-heal");
    assert_eq!(
        before, after,
        "slow-replica: post-heal output drifted from pre-stall"
    );

    router.stop();
    front.stop();
    for server in healthy {
        drain_replica(server);
    }
    slow_server.stop();
    let slow = Arc::try_unwrap(slow).unwrap_or_else(|_| panic!("slow handler still shared"));
    let registry =
        Arc::try_unwrap(slow.registry).unwrap_or_else(|_| panic!("slow registry still shared"));
    registry.shutdown();

    ChaosReport {
        scenario: "slow-replica",
        requests: 3,
        typed_failures: 0,
        outcome: format!(
            "ejected on probe latency after 2 sweeps, served bit-identically \
             from the healthy pair, readmitted after heal ({} failover(s))",
            metrics.failovers_total
        ),
    }
}

/// Plan spill-directory loss: the plan cache's spill tier disappears
/// mid-serve (disk wiped, permissions revoked). Serving must not depend
/// on spill-disk health — lookups degrade to memory-only, replans still
/// hot-swap, new models still register.
pub fn spill_dir_loss_survives() -> ChaosReport {
    let spill_dir = std::env::temp_dir().join(format!("tdc-lab-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill_dir);
    let cache = PlanCache::new(4)
        .with_spill_dir(&spill_dir)
        .expect("create spill dir");
    let registry = ModelRegistry::with_cache(cache);

    const MODEL: &str = "chaos-spill";
    let descriptor = serving_descriptor(MODEL, 8, 4, 4);
    registry
        .register(MODEL, &descriptor, ModelConfig::default())
        .expect("register with live spill dir");
    let input = || Tensor::from_vec(vec![8, 8, 4], vec![0.5; 8 * 8 * 4]).expect("input");
    let before = registry.infer(MODEL, input()).expect("pre-loss infer");

    // The chaos event: the spill tier vanishes out from under the cache.
    std::fs::remove_dir_all(&spill_dir).expect("remove spill dir");

    // Serving continues...
    let during = registry.infer(MODEL, input()).expect("post-loss infer");
    assert_eq!(
        before.output.data(),
        during.output.data(),
        "spill-loss: output drifted after the spill dir vanished"
    );

    // ...replans (which compute + try to spill a fresh plan) still work...
    registry
        .replan(
            MODEL,
            PlanningOptions {
                budget: 0.45,
                ..PlanningOptions::default()
            },
        )
        .expect("replan without spill dir");
    let replanned = registry.infer(MODEL, input()).expect("post-replan infer");
    assert_eq!(
        replanned.output.dims(),
        before.output.dims(),
        "spill-loss: replanned output shape drifted"
    );

    // ...and new registrations still land.
    registry
        .register(
            "chaos-spill-b",
            &serving_descriptor("chaos-spill-b", 8, 4, 4),
            ModelConfig::default(),
        )
        .expect("register after spill loss");
    registry
        .infer("chaos-spill-b", input())
        .expect("infer on post-loss registration");

    let totals = reconcile(&registry).expect("reconcile");
    assert_eq!(totals.rejected, 0, "spill-loss: nothing should shed");
    let stats = registry.cache_stats();
    drop(registry.shutdown());
    ChaosReport {
        scenario: "spill-dir-loss",
        requests: 4,
        typed_failures: 0,
        outcome: format!(
            "served across spill loss, replan and new registration \
             (cache: {} memory hits, {} misses)",
            stats.memory_hits, stats.misses
        ),
    }
}

/// Admission-queue saturation: a flood past `max_queue_depth` sheds with
/// typed `Overloaded` carrying the configured limit, admitted work still
/// completes, and the engine's books balance — overload never corrupts
/// accounting or takes the engine down.
pub fn queue_saturation_sheds_typed() -> ChaosReport {
    const MODEL: &str = "chaos-flood";
    let registry = ModelRegistry::new(2);
    registry
        .register(
            MODEL,
            &serving_descriptor(MODEL, 8, 4, 4),
            ModelConfig {
                batching: BatchingOptions {
                    max_batch_size: 8,
                    // A long batching window pins admitted requests in
                    // batch formation, so the flood below deterministically
                    // overruns the two-slot queue.
                    max_batch_delay: Duration::from_millis(400),
                    max_queue_depth: 2,
                    ..BatchingOptions::default()
                },
                ..ModelConfig::default()
            },
        )
        .expect("register flood model");
    let input = || Tensor::from_vec(vec![8, 8, 4], vec![0.25; 8 * 8 * 4]).expect("input");

    let mut admitted = Vec::new();
    let mut shed = 0u64;
    for i in 0..8 {
        match registry.submit(MODEL, input()) {
            Ok(handle) => admitted.push(handle),
            Err(ServeError::Overloaded { limit }) => {
                assert_eq!(limit, 2, "saturation: Overloaded must carry the bound");
                shed += 1;
            }
            Err(other) => panic!("saturation: untyped admission failure at {i}: {other}"),
        }
    }
    assert!(shed > 0, "saturation: the flood never overran the queue");
    assert!(
        !admitted.is_empty(),
        "saturation: the queue must admit up to its bound"
    );

    let admitted_count = admitted.len() as u64;
    for handle in admitted {
        handle.wait().expect("admitted request completes");
    }

    // Post-saturation health plus reconciliation.
    registry.infer(MODEL, input()).expect("post-flood infer");
    let totals = reconcile(&registry).expect("reconcile");
    assert_eq!(totals.submitted, admitted_count + 1);
    assert_eq!(totals.completed, admitted_count + 1);
    assert_eq!(totals.rejected, shed, "saturation: shed count disagrees");
    drop(registry.shutdown());
    ChaosReport {
        scenario: "queue-saturation",
        requests: 9,
        typed_failures: shed,
        outcome: format!("{shed} typed Overloaded sheds, {admitted_count} admitted all served"),
    }
}
