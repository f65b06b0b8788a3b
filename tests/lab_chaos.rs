//! End-to-end lab drill through the umbrella crate: a seeded square-wave
//! burst trace over a two-model registry with a worker panic scripted
//! mid-trace. The contract under fire:
//!
//! * clients only ever see **typed** errors (`ExecutionFailed` from the
//!   engine's unwind containment — never a poisoned lock, a hung
//!   channel, or a transport-level surprise);
//! * the engine's books reconcile — every submitted request is
//!   accounted as completed, expired, or failed;
//! * after the fault budget drains, a replay on the **same** deployment
//!   produces outputs bit-identical to a never-faulted run.

use tdc_repro::lab::runner::{deploy, reconcile, replay, ReplayOptions};
use tdc_repro::lab::spec::WorkloadSpec;
use tdc_repro::lab::trace::generate;

const SPEC: &str = r#"{
  "name": "burst-panic-drill",
  "seed": 90,
  "models": [
    {"name": "drill-hot", "spatial": 8, "base_channels": 4, "classes": 4},
    {"name": "drill-bulk", "spatial": 10, "base_channels": 4, "classes": 6}
  ],
  "model_mix": [0.7, 0.3],
  "size_mix": {"kind": "bounded-pareto", "alpha": 1.5, "min": 1, "max": 4},
  "phases": [
    {"label": "burst", "duration_ms": 260,
     "arrival": {"kind": "square", "low_hz": 80, "high_hz": 380, "period_ms": 130}}
  ],
  "faults": [
    {"at_ms": 90, "kind": "backend-panic", "model": "drill-hot", "count": 2}
  ]
}"#;

#[test]
fn burst_trace_with_mid_trace_worker_panic_heals_bit_identically() {
    let spec = WorkloadSpec::parse(SPEC).expect("drill spec");
    let trace = generate(&spec);
    assert!(trace.events.len() > 20, "burst trace too small to drill");
    let options = ReplayOptions::default();

    // Reference: same trace, no fault script — the clean fingerprint.
    let clean_spec = WorkloadSpec {
        faults: vec![],
        ..spec.clone()
    };
    let reference = deploy(&clean_spec, &trace, &options).expect("deploy reference");
    let clean = replay(&reference, &clean_spec, &trace, &options);
    assert!(clean.unexpected.is_empty() && clean.failed == 0 && clean.shed == 0);
    drop(reference.registry.shutdown());

    // Drill: the injector panics `forward_batch_in` twice starting at 90ms.
    let deployment = deploy(&spec, &trace, &options).expect("deploy drill");
    let drill = replay(&deployment, &spec, &trace, &options);
    assert!(
        drill.unexpected.is_empty(),
        "untyped failures leaked to clients: {:?}",
        drill.unexpected
    );
    assert!(drill.failed > 0, "the scripted panic never fired");
    assert_eq!(
        drill.shed, 0,
        "queues are sized to the trace; nothing sheds"
    );
    let injector = &deployment.injectors["drill-hot"];
    assert!(injector.is_idle(), "panic budget must be spent");
    assert!(injector.injected_panics() > 0);
    assert_eq!(injector.injected_errors(), 0);

    // Heal: same deployment, fault-free spec — bit-parity with reference.
    let healed = replay(&deployment, &clean_spec, &trace, &options);
    assert!(healed.unexpected.is_empty() && healed.failed == 0);
    assert_eq!(
        healed.output_fingerprint, clean.output_fingerprint,
        "post-heal outputs drifted from the fault-free reference"
    );

    // Books balance across the drill and the heal on this deployment.
    let totals = reconcile(&deployment.registry).expect("metrics reconcile");
    assert_eq!(totals.submitted, drill.submitted + healed.submitted);
    assert_eq!(
        totals.completed + totals.expired + totals.failed,
        drill.completed + drill.expired + drill.failed + healed.completed
    );
    assert_eq!(totals.rejected, 0);
}
