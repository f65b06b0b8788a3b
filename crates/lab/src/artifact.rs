//! `BENCH_serve.json` schema validation, across every version the
//! benchmark has ever written.
//!
//! The artifact schema has grown monotonically — each serving-tier PR
//! appended an optional section and bumped `schema_version`:
//!
//! | version | added |
//! |---------|-------|
//! | 1 | flat single-backend report |
//! | 2 | header + per-backend `runs[]` (cold/warm plan outcomes, simulated GPU account) |
//! | 3 | `multi_model` registry phase |
//! | 4 | `deadline_ms`, `http` phase, per-run `rejected` / `deadline_exceeded` |
//! | 5 | `autotune` phase (retired: no longer written, still accepted) |
//! | 6 | `router` fleet phase |
//! | 7 | `qos` phase |
//! | 8 | `trace` phase (this crate's trace-driven workload engine) |
//! | 9 | `kernels` section (blocked-GEMM tile dims, arena pool telemetry) |
//! | 10 | `controller` phase (joint-knob tune convergence + drift retune trace) |
//!
//! [`validate`] accepts **any** historical version and checks the fields
//! that version is required to carry — so `serve_bench --check-schema`
//! can vet an artifact written by any released benchmark, and the
//! regression gate can reject a baseline/fresh pair before comparing
//! them. Sections from a *newer* version appearing in an older artifact
//! are an error: that artifact lies about its version.

use serde_json::Value;

/// The schema version the benchmark currently writes.
pub const CURRENT_SCHEMA_VERSION: u32 = 10;

/// When each optional section entered the schema.
const SECTIONS: [(&str, u32); 8] = [
    ("multi_model", 3),
    ("http", 4),
    ("autotune", 5),
    ("router", 6),
    ("qos", 7),
    ("trace", 8),
    ("kernels", 9),
    ("controller", 10),
];

/// Sections the benchmark no longer writes. Artifacts from their era still
/// carry them, so they stay valid from their introduction version on, but
/// a newer artifact may omit the key entirely.
const RETIRED_SECTIONS: [&str; 1] = ["autotune"];

fn is_present(artifact: &Value, key: &str) -> bool {
    matches!(artifact.get(key), Some(v) if !matches!(v, Value::Null))
}

fn require(value: &Value, keys: &[&str], ctx: &str) -> Result<(), String> {
    for key in keys {
        if value.get(key).is_none() {
            return Err(format!("{ctx}: missing required field {key:?}"));
        }
    }
    Ok(())
}

fn require_latency(value: &Value, key: &str, ctx: &str) -> Result<(), String> {
    let summary = value
        .get(key)
        .ok_or_else(|| format!("{ctx}: missing latency summary {key:?}"))?;
    require(
        summary,
        &["count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"],
        &format!("{ctx}.{key}"),
    )
}

fn validate_run(run: &Value, version: u32, ctx: &str) -> Result<(), String> {
    require(
        run,
        &[
            "backend",
            "requests",
            "elapsed_s",
            "throughput_rps",
            "mean_batch_size",
            "max_batch_observed",
            "predicted_gpu_ms_per_sample",
            "predicted_gpu_ms_total",
            "simulated_gpu_ms_total",
            "plan_fingerprint",
            "plan_outcome_cold",
            "plan_outcome_warm",
            "decomposed_layers",
            "achieved_flops_reduction",
        ],
        ctx,
    )?;
    for key in ["total_latency", "queue_latency", "exec_latency"] {
        require_latency(run, key, ctx)?;
    }
    if version >= 4 {
        require(run, &["rejected", "deadline_exceeded"], ctx)?;
    }
    Ok(())
}

fn validate_trace_section(trace: &Value) -> Result<(), String> {
    require(
        trace,
        &[
            "spec",
            "workload",
            "seed",
            "trace_fingerprint",
            "events",
            "requests",
            "submitted",
            "shed",
            "completed",
            "expired",
            "failed",
            "unexpected_failures",
            "output_fingerprint",
            "elapsed_s",
            "throughput_rps",
            "p50_ms",
            "p99_ms",
            "per_phase_events",
            "time_scale",
        ],
        "trace",
    )?;
    let phases = trace
        .get("per_phase_events")
        .and_then(|v| v.as_array())
        .ok_or_else(|| "trace.per_phase_events must be an array".to_string())?;
    if phases.is_empty() {
        return Err("trace.per_phase_events must not be empty".into());
    }
    Ok(())
}

/// Validate an artifact against the schema version it declares, returning
/// that version. Accepts every version the benchmark has ever written.
pub fn validate(artifact: &Value) -> Result<u32, String> {
    let version = artifact
        .get("schema_version")
        .and_then(|v| v.as_f64())
        .filter(|v| v.fract() == 0.0 && *v >= 0.0)
        .ok_or_else(|| "missing or non-integer schema_version".to_string())?
        as u32;
    if version == 0 || version > CURRENT_SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {version} (this build understands 1..={CURRENT_SCHEMA_VERSION})"
        ));
    }

    require(
        artifact,
        &[
            "bench",
            "model",
            "device",
            "budget",
            "workers",
            "clients",
            "max_batch_size",
            "max_batch_delay_ms",
        ],
        "artifact",
    )?;

    if version == 1 {
        require(
            artifact,
            &[
                "requests",
                "elapsed_s",
                "throughput_rps",
                "mean_batch_size",
                "max_batch_observed",
                "predicted_gpu_ms_per_sample",
                "predicted_gpu_ms_total",
                "plan_fingerprint",
                "plan_cache_memory_hits",
                "plan_cache_disk_hits",
                "plan_cache_misses",
                "decomposed_layers",
                "achieved_flops_reduction",
            ],
            "artifact",
        )?;
        for key in ["total_latency", "queue_latency", "exec_latency"] {
            require_latency(artifact, key, "artifact")?;
        }
    } else {
        let runs = artifact
            .get("runs")
            .and_then(|v| v.as_array())
            .ok_or_else(|| "artifact: missing or non-array \"runs\"".to_string())?;
        if runs.is_empty() {
            return Err("artifact: \"runs\" must not be empty".into());
        }
        for (i, run) in runs.iter().enumerate() {
            validate_run(run, version, &format!("runs[{i}]"))?;
        }
    }
    if version >= 4 && artifact.get("deadline_ms").is_none() {
        return Err("artifact: schema_version >= 4 requires a \"deadline_ms\" key".into());
    }

    for (section, introduced) in SECTIONS {
        if version < introduced {
            if is_present(artifact, section) {
                return Err(format!(
                    "artifact: section {section:?} requires schema_version >= {introduced}, \
                     but artifact declares {version}"
                ));
            }
        } else if artifact.get(section).is_none() && !RETIRED_SECTIONS.contains(&section) {
            return Err(format!(
                "artifact: schema_version {version} requires a {section:?} key (null when the \
                 phase did not run)"
            ));
        }
    }

    if is_present(artifact, "multi_model") {
        require(
            artifact.get("multi_model").unwrap(),
            &[
                "models",
                "requests_submitted",
                "total_completed",
                "per_model",
            ],
            "multi_model",
        )?;
    }
    if is_present(artifact, "http") {
        require(
            artifact.get("http").unwrap(),
            &["requests", "completed"],
            "http",
        )?;
    }
    if is_present(artifact, "autotune") {
        require(artifact.get("autotune").unwrap(), &["model"], "autotune")?;
    }
    if is_present(artifact, "router") {
        require(
            artifact.get("router").unwrap(),
            &["replicas", "policy", "requests", "completed"],
            "router",
        )?;
    }
    if is_present(artifact, "qos") {
        require(artifact.get("qos").unwrap(), &["per_class"], "qos")?;
    }
    if is_present(artifact, "trace") {
        validate_trace_section(artifact.get("trace").unwrap())?;
    }
    if is_present(artifact, "kernels") {
        require(
            artifact.get("kernels").unwrap(),
            &[
                "gemm_tile_mr",
                "gemm_tile_nr",
                "arena_high_water_f32",
                "arena_allocated_buffers",
                "arena_hit_rate",
                "allocs_per_request",
            ],
            "kernels",
        )?;
    }
    if is_present(artifact, "controller") {
        let controller = artifact.get("controller").unwrap();
        require(
            controller,
            &[
                "model",
                "target_p99_ms",
                "knobs_before",
                "knobs_after",
                "untuned_p99_ms",
                "untuned_throughput_rps",
                "tuned_p99_ms",
                "tuned_throughput_rps",
                "converged",
                "drift_retunes",
                "p99_trajectory",
            ],
            "controller",
        )?;
        let trajectory = controller
            .get("p99_trajectory")
            .and_then(|v| v.as_array())
            .ok_or_else(|| "controller.p99_trajectory must be an array".to_string())?;
        if trajectory.is_empty() {
            return Err("controller.p99_trajectory must not be empty".into());
        }
    }

    Ok(version)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::parse_value;

    fn lat() -> String {
        r#"{"count": 10, "mean_ms": 1.0, "p50_ms": 1.0, "p90_ms": 1.5,
            "p99_ms": 2.0, "max_ms": 3.0}"#
            .to_string()
    }

    fn header() -> String {
        r#""bench": "serve", "model": "m", "device": "a100", "budget": 0.5,
           "workers": 2, "clients": 4, "max_batch_size": 8, "max_batch_delay_ms": 2.0"#
            .to_string()
    }

    fn run(version: u32) -> String {
        let deadline_fields = if version >= 4 {
            r#""rejected": 0, "deadline_exceeded": 0,"#
        } else {
            ""
        };
        format!(
            r#"{{"backend": "cpu", "requests": 64, {deadline_fields}
                "elapsed_s": 0.5, "throughput_rps": 128.0,
                "total_latency": {lat}, "queue_latency": {lat}, "exec_latency": {lat},
                "mean_batch_size": 4.0, "max_batch_observed": 8,
                "predicted_gpu_ms_per_sample": 0.1, "predicted_gpu_ms_total": 6.4,
                "simulated_gpu_ms_total": 0.0, "simulated_per_layer": null,
                "plan_fingerprint": "abc", "plan_outcome_cold": "computed",
                "plan_outcome_warm": "memory", "decomposed_layers": 3,
                "achieved_flops_reduction": 0.4}}"#,
            lat = lat()
        )
    }

    fn sections(version: u32) -> String {
        let mut parts = Vec::new();
        if version >= 3 {
            parts.push(
                r#""multi_model": {"models": 2, "requests_submitted": 10,
                    "total_completed": 10, "per_model": []}"#
                    .to_string(),
            );
        }
        if version >= 4 {
            parts.push(r#""deadline_ms": 5000"#.to_string());
            parts.push(r#""http": {"requests": 10, "completed": 10}"#.to_string());
        }
        if version >= 5 {
            parts.push(r#""autotune": {"model": "m"}"#.to_string());
        }
        if version >= 6 {
            parts.push(
                r#""router": {"replicas": 2, "policy": "hash", "requests": 10,
                    "completed": 10}"#
                    .to_string(),
            );
        }
        if version >= 7 {
            parts.push(r#""qos": {"per_class": []}"#.to_string());
        }
        if version >= 8 {
            parts.push(
                r#""trace": {"spec": "examples/traces/x.json", "workload": "x",
                    "seed": 7, "trace_fingerprint": "deadbeef", "events": 5,
                    "requests": 9, "submitted": 9, "shed": 0, "completed": 9,
                    "expired": 0, "failed": 0, "unexpected_failures": 0,
                    "output_fingerprint": "cafe", "elapsed_s": 0.5,
                    "throughput_rps": 18.0, "p50_ms": 1.0, "p99_ms": 2.0,
                    "per_phase_events": [3, 2], "time_scale": 1.0,
                    "per_model": []}"#
                    .to_string(),
            );
        }
        if version >= 9 {
            parts.push(
                r#""kernels": {"gemm_tile_mr": 4, "gemm_tile_nr": 8,
                    "arena_high_water_f32": 65536, "arena_allocated_buffers": 24,
                    "arena_hit_rate": 0.99, "allocs_per_request": 0.1}"#
                    .to_string(),
            );
        }
        if version >= 10 {
            parts.push(
                r#""controller": {"model": "m", "target_p99_ms": 5.0,
                    "knobs_before": {"flops_budget": 0.5, "max_batch_size": 8,
                        "max_batch_delay_us": 2000, "fair_share_weight": 1},
                    "knobs_after": {"flops_budget": 0.5, "max_batch_size": 16,
                        "max_batch_delay_us": 1000, "fair_share_weight": 1},
                    "untuned_p99_ms": 6.0, "untuned_throughput_rps": 100.0,
                    "tuned_p99_ms": 4.0, "tuned_throughput_rps": 140.0,
                    "converged": true, "drift_retunes": 1,
                    "p99_trajectory": [6.0, 4.0, 4.1]}"#
                    .to_string(),
            );
        }
        parts.join(", ")
    }

    fn artifact(version: u32) -> String {
        if version == 1 {
            return format!(
                r#"{{"schema_version": 1, {header}, "requests": 64,
                    "elapsed_s": 0.5, "throughput_rps": 128.0,
                    "total_latency": {lat}, "queue_latency": {lat},
                    "exec_latency": {lat}, "mean_batch_size": 4.0,
                    "max_batch_observed": 8, "predicted_gpu_ms_per_sample": 0.1,
                    "predicted_gpu_ms_total": 6.4, "plan_fingerprint": "abc",
                    "plan_cache_memory_hits": 1, "plan_cache_disk_hits": 0,
                    "plan_cache_misses": 1, "decomposed_layers": 3,
                    "achieved_flops_reduction": 0.4}}"#,
                header = header(),
                lat = lat()
            );
        }
        let sections = sections(version);
        let sep = if sections.is_empty() { "" } else { ", " };
        format!(
            r#"{{"schema_version": {version}, {header}, "runs": [{run}]{sep}{sections}}}"#,
            header = header(),
            run = run(version)
        )
    }

    #[test]
    fn accepts_every_historical_version() {
        for version in 1..=CURRENT_SCHEMA_VERSION {
            let text = artifact(version);
            let value = parse_value(&text).expect("fixture parses");
            assert_eq!(
                validate(&value),
                Ok(version),
                "schema {version} fixture must validate: {text}"
            );
        }
    }

    #[test]
    fn rejects_version_zero_and_future() {
        for bad in [0, CURRENT_SCHEMA_VERSION + 1] {
            let text = artifact(2).replace(
                "\"schema_version\": 2",
                &format!("\"schema_version\": {bad}"),
            );
            let value = parse_value(&text).expect("parses");
            assert!(validate(&value).is_err(), "version {bad} must be rejected");
        }
    }

    #[test]
    fn rejects_missing_run_fields() {
        let text = artifact(2).replace("\"plan_outcome_cold\": \"computed\",", "");
        let value = parse_value(&text).expect("parses");
        let err = validate(&value).expect_err("must fail");
        assert!(err.contains("plan_outcome_cold"), "{err}");
    }

    #[test]
    fn rejects_section_from_the_future() {
        // A v2 artifact carrying a router section lies about its version.
        let text = artifact(2).replace(
            "\"runs\":",
            r#""router": {"replicas": 2, "policy": "hash", "requests": 1,
               "completed": 1}, "runs":"#,
        );
        let value = parse_value(&text).expect("parses");
        let err = validate(&value).expect_err("must fail");
        assert!(err.contains("router"), "{err}");
    }

    #[test]
    fn requires_declared_sections_even_when_null() {
        // v8 must carry a "trace" key; dropping it entirely is an error,
        // but an explicit null (phase skipped) is fine.
        let with_null = artifact(8).replace("\"trace\": {", "\"trace_skipped\": {");
        let value = parse_value(&with_null).expect("parses");
        let err = validate(&value).expect_err("must fail");
        assert!(err.contains("trace"), "{err}");

        let mut kept = artifact(7).replace("\"schema_version\": 7", "\"schema_version\": 8");
        kept.truncate(kept.len() - 1);
        kept.push_str(", \"trace\": null}");
        let value = parse_value(&kept).expect("parses");
        assert_eq!(validate(&value), Ok(8));
    }

    #[test]
    fn retired_sections_are_accepted_but_not_required() {
        // The retired autotune section validates when present (older
        // artifacts and the committed baseline carry it) and may be absent
        // from a current one.
        let with = artifact(CURRENT_SCHEMA_VERSION);
        assert!(with.contains("\"autotune\": {\"model\": \"m\"}"));
        let value = parse_value(&with).expect("parses");
        assert_eq!(validate(&value), Ok(CURRENT_SCHEMA_VERSION));

        let without = with.replace(r#""autotune": {"model": "m"}, "#, "");
        assert!(!without.contains("autotune"));
        let value = parse_value(&without).expect("parses");
        assert_eq!(validate(&value), Ok(CURRENT_SCHEMA_VERSION));

        // Present but malformed is still an error, and still a future
        // section in a pre-v5 artifact.
        let malformed = with.replace(r#""autotune": {"model": "m"}"#, r#""autotune": {}"#);
        let value = parse_value(&malformed).expect("parses");
        assert!(validate(&value).is_err());
        let early = artifact(4).replace("\"runs\":", r#""autotune": {"model": "m"}, "runs":"#);
        let value = parse_value(&early).expect("parses");
        assert!(validate(&value).unwrap_err().contains("autotune"));
    }

    #[test]
    fn rejects_missing_deadline_key_after_v4() {
        let text = artifact(4).replace(r#""deadline_ms": 5000, "#, "");
        let value = parse_value(&text).expect("parses");
        let err = validate(&value).expect_err("must fail");
        assert!(err.contains("deadline_ms"), "{err}");
    }

    #[test]
    fn accepts_the_committed_baseline() {
        // The repository's committed artifact must always validate.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_serve.json"
        ))
        .expect("committed BENCH_serve.json");
        let value = parse_value(&text).expect("baseline parses");
        let version = validate(&value).expect("baseline validates");
        assert_eq!(version, CURRENT_SCHEMA_VERSION);
    }
}
