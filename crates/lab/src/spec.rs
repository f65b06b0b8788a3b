//! Workload specifications: the JSON format describing a reproducible
//! serving workload.
//!
//! A [`WorkloadSpec`] composes
//!
//! * a **model zoo** — one [`ModelSpec`] per served model, with optional
//!   per-model QoS class and deadline;
//! * a **model mix** — stationary sampling weights over the zoo;
//! * a **request-size mix** — fixed or bounded-Pareto (heavy-tailed)
//!   samples per request;
//! * **phases** — consecutive segments, each with its own [`Arrival`]
//!   process (open-loop uniform / Poisson, diurnal sine, square-wave
//!   burst);
//! * **faults** — scripted [`FaultSpec`] events fired at trace
//!   timestamps by the replay runner.
//!
//! Parsing is hand-rolled over [`serde_json::Value`] rather than derived,
//! so malformed specs produce pinpointed validation messages instead of a
//! generic deserialization failure, and so enum-ish `kind` tags stay
//! readable in the JSON.

use serde_json::{parse_value, Value};
use tdc_serve::{ModelRegistry, QosClass};

/// One served model in the workload's zoo.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Registry name for the model.
    pub name: String,
    /// Spatial extent of the serving descriptor (square feature maps).
    pub spatial: usize,
    /// Base channel count of the serving descriptor.
    pub base_channels: usize,
    /// Classifier output width of the serving descriptor.
    pub classes: usize,
    /// QoS class label (`interactive` / `standard` / `batch`), if pinned.
    pub qos: Option<QosClass>,
    /// Per-request deadline applied to every request for this model.
    pub deadline_ms: Option<u64>,
}

/// An arrival process for one phase. All rates are open-loop: the trace
/// fixes timestamps up front and the runner dispatches on that clock
/// regardless of how the system under test responds.
#[derive(Debug, Clone, PartialEq)]
pub enum Arrival {
    /// Evenly spaced arrivals at `rate_hz`.
    Uniform {
        /// Requests per second.
        rate_hz: f64,
    },
    /// Poisson process: exponential inter-arrival gaps at `rate_hz`.
    Poisson {
        /// Mean requests per second.
        rate_hz: f64,
    },
    /// Diurnal sine: rate(t) = base + amplitude * sin(2πt / period).
    Sine {
        /// Mean requests per second.
        base_hz: f64,
        /// Peak deviation from the base rate (must stay below it).
        amplitude_hz: f64,
        /// Period of one full oscillation.
        period_ms: u64,
    },
    /// Square-wave burst: `high_hz` for the first half of each period,
    /// `low_hz` for the second half.
    Square {
        /// Off-burst requests per second.
        low_hz: f64,
        /// On-burst requests per second.
        high_hz: f64,
        /// Period of one burst cycle.
        period_ms: u64,
    },
}

/// One consecutive segment of the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Human-readable phase label (shows up in artifacts).
    pub label: String,
    /// Phase length in trace (virtual) milliseconds.
    pub duration_ms: u64,
    /// Arrival process active during this phase.
    pub arrival: Arrival,
}

/// Samples-per-request distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeMix {
    /// Every request carries exactly `samples` inputs.
    Fixed {
        /// Samples per request.
        samples: usize,
    },
    /// Bounded Pareto on `[min, max]` with tail exponent `alpha`: most
    /// requests are small, a heavy tail is large — the classic serving
    /// size mix.
    BoundedPareto {
        /// Tail exponent (> 0; smaller is heavier-tailed).
        alpha: f64,
        /// Smallest request size in samples.
        min: usize,
        /// Largest request size in samples.
        max: usize,
    },
}

/// What a scripted fault does when it fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Panic inside the model's `forward_batch_in` for the next `count`
    /// batches.
    BackendPanic {
        /// Target model name.
        model: String,
        /// Number of consecutive batches to kill.
        count: u32,
    },
    /// Return typed `ExecutionFailed` errors from the model's
    /// `forward_batch_in` for the next `count` batches.
    BackendError {
        /// Target model name.
        model: String,
        /// Number of consecutive batches to fail.
        count: u32,
    },
    /// Stall the model's `forward_batch_in` for `delay_ms` on each of the
    /// next `count` batches — a brown-out: outputs stay bit-correct,
    /// only measured latency degrades.
    BackendDelay {
        /// Target model name.
        model: String,
        /// Number of consecutive batches to stall.
        count: u32,
        /// Stall per batch, in milliseconds.
        delay_ms: u64,
    },
}

/// One scripted fault event, fired when the trace clock passes `at_ms`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Trace timestamp at which the fault arms.
    pub at_ms: u64,
    /// What the fault does.
    pub action: FaultAction,
}

/// A complete, self-contained workload description. Together with the
/// seed it determines the trace byte-for-byte — see [`crate::trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (recorded in artifacts).
    pub name: String,
    /// PRNG seed; same seed + same spec ⇒ byte-identical trace.
    pub seed: u64,
    /// The model zoo.
    pub models: Vec<ModelSpec>,
    /// Sampling weight per model (same length as `models`, sums > 0).
    pub model_mix: Vec<f64>,
    /// Samples-per-request distribution.
    pub size_mix: SizeMix,
    /// Consecutive workload phases.
    pub phases: Vec<PhaseSpec>,
    /// Scripted fault events, sorted by `at_ms`.
    pub faults: Vec<FaultSpec>,
}

fn field<'v>(value: &'v Value, key: &str, ctx: &str) -> Result<&'v Value, String> {
    value
        .get(key)
        .filter(|v| !matches!(v, Value::Null))
        .ok_or_else(|| format!("{ctx}: missing field {key:?}"))
}

fn string(value: &Value, key: &str, ctx: &str) -> Result<String, String> {
    field(value, key, ctx)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: field {key:?} must be a string"))
}

fn number(value: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    let raw = field(value, key, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: field {key:?} must be a number"))?;
    if !raw.is_finite() {
        return Err(format!("{ctx}: field {key:?} must be finite"));
    }
    Ok(raw)
}

fn unsigned(value: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    let raw = number(value, key, ctx)?;
    if raw < 0.0 || raw.fract() != 0.0 {
        return Err(format!(
            "{ctx}: field {key:?} must be a non-negative integer"
        ));
    }
    Ok(raw as u64)
}

fn positive(value: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    let raw = number(value, key, ctx)?;
    if raw <= 0.0 {
        return Err(format!("{ctx}: field {key:?} must be positive"));
    }
    Ok(raw)
}

fn array<'v>(value: &'v Value, key: &str, ctx: &str) -> Result<&'v [Value], String> {
    field(value, key, ctx)?
        .as_array()
        .ok_or_else(|| format!("{ctx}: field {key:?} must be an array"))
}

impl Arrival {
    fn parse(value: &Value, ctx: &str) -> Result<Self, String> {
        let kind = string(value, "kind", ctx)?;
        match kind.as_str() {
            "uniform" => Ok(Arrival::Uniform {
                rate_hz: positive(value, "rate_hz", ctx)?,
            }),
            "poisson" => Ok(Arrival::Poisson {
                rate_hz: positive(value, "rate_hz", ctx)?,
            }),
            "sine" => {
                let base_hz = positive(value, "base_hz", ctx)?;
                let amplitude_hz = number(value, "amplitude_hz", ctx)?;
                if amplitude_hz < 0.0 || amplitude_hz >= base_hz {
                    return Err(format!(
                        "{ctx}: amplitude_hz must satisfy 0 <= amplitude_hz < base_hz \
                         (the rate must stay positive at the trough)"
                    ));
                }
                let period_ms = unsigned(value, "period_ms", ctx)?;
                if period_ms == 0 {
                    return Err(format!("{ctx}: period_ms must be positive"));
                }
                Ok(Arrival::Sine {
                    base_hz,
                    amplitude_hz,
                    period_ms,
                })
            }
            "square" => {
                let low_hz = positive(value, "low_hz", ctx)?;
                let high_hz = positive(value, "high_hz", ctx)?;
                if high_hz < low_hz {
                    return Err(format!("{ctx}: high_hz must be >= low_hz"));
                }
                let period_ms = unsigned(value, "period_ms", ctx)?;
                if period_ms == 0 {
                    return Err(format!("{ctx}: period_ms must be positive"));
                }
                Ok(Arrival::Square {
                    low_hz,
                    high_hz,
                    period_ms,
                })
            }
            other => Err(format!(
                "{ctx}: unknown arrival kind {other:?} \
                 (expected uniform, poisson, sine or square)"
            )),
        }
    }
}

impl SizeMix {
    fn parse(value: Option<&Value>) -> Result<Self, String> {
        let value = match value {
            None | Some(Value::Null) => return Ok(SizeMix::Fixed { samples: 1 }),
            Some(v) => v,
        };
        let ctx = "size_mix";
        let kind = string(value, "kind", ctx)?;
        match kind.as_str() {
            "fixed" => {
                let samples = unsigned(value, "samples", ctx)? as usize;
                if samples == 0 {
                    return Err(format!("{ctx}: samples must be >= 1"));
                }
                Ok(SizeMix::Fixed { samples })
            }
            "bounded-pareto" => {
                let alpha = positive(value, "alpha", ctx)?;
                let min = unsigned(value, "min", ctx)? as usize;
                let max = unsigned(value, "max", ctx)? as usize;
                if min == 0 || max < min {
                    return Err(format!("{ctx}: need 1 <= min <= max"));
                }
                Ok(SizeMix::BoundedPareto { alpha, min, max })
            }
            other => Err(format!(
                "{ctx}: unknown size mix kind {other:?} (expected fixed or bounded-pareto)"
            )),
        }
    }
}

impl FaultSpec {
    fn parse(value: &Value, ctx: &str) -> Result<Self, String> {
        let at_ms = unsigned(value, "at_ms", ctx)?;
        let kind = string(value, "kind", ctx)?;
        let model = string(value, "model", ctx)?;
        let count = unsigned(value, "count", ctx)? as u32;
        if count == 0 {
            return Err(format!("{ctx}: count must be >= 1"));
        }
        let action = match kind.as_str() {
            "backend-panic" => FaultAction::BackendPanic { model, count },
            "backend-error" => FaultAction::BackendError { model, count },
            "backend-delay" => {
                let delay_ms = unsigned(value, "delay_ms", ctx)?;
                if delay_ms == 0 {
                    return Err(format!("{ctx}: delay_ms must be >= 1"));
                }
                FaultAction::BackendDelay {
                    model,
                    count,
                    delay_ms,
                }
            }
            other => Err(format!(
                "{ctx}: unknown fault kind {other:?} \
                 (expected backend-panic, backend-error or backend-delay)"
            ))?,
        };
        Ok(FaultSpec { at_ms, action })
    }
}

impl FaultAction {
    /// The model this fault targets.
    pub fn model(&self) -> &str {
        match self {
            FaultAction::BackendPanic { model, .. }
            | FaultAction::BackendError { model, .. }
            | FaultAction::BackendDelay { model, .. } => model,
        }
    }
}

impl WorkloadSpec {
    /// Parse and validate a workload spec from JSON text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let value = parse_value(text).map_err(|e| format!("workload spec: {}", e.message))?;
        Self::from_value(&value)
    }

    /// Read, parse and validate a workload spec from a file.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("workload spec {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parse and validate a workload spec from an already-parsed value.
    pub fn from_value(value: &Value) -> Result<Self, String> {
        let ctx = "workload spec";
        let name = string(value, "name", ctx)?;
        let seed = unsigned(value, "seed", ctx)?;

        let mut models = Vec::new();
        for (i, entry) in array(value, "models", ctx)?.iter().enumerate() {
            let ctx = format!("models[{i}]");
            let name = string(entry, "name", &ctx)?;
            if !ModelRegistry::is_valid_name(&name) {
                return Err(format!("{ctx}: {name:?} is not a valid registry name"));
            }
            let spatial = unsigned(entry, "spatial", &ctx)? as usize;
            let base_channels = unsigned(entry, "base_channels", &ctx)? as usize;
            let classes = unsigned(entry, "classes", &ctx)? as usize;
            if spatial == 0 || base_channels == 0 || classes == 0 {
                return Err(format!(
                    "{ctx}: spatial, base_channels and classes must be positive"
                ));
            }
            let qos = match entry.get("qos").filter(|v| !matches!(v, Value::Null)) {
                None => None,
                Some(v) => {
                    let label = v
                        .as_str()
                        .ok_or_else(|| format!("{ctx}: field \"qos\" must be a string"))?;
                    Some(
                        QosClass::parse(label)
                            .ok_or_else(|| format!("{ctx}: unknown QoS class {label:?}"))?,
                    )
                }
            };
            let deadline_ms = match entry
                .get("deadline_ms")
                .filter(|v| !matches!(v, Value::Null))
            {
                None => None,
                Some(_) => Some(unsigned(entry, "deadline_ms", &ctx)?),
            };
            models.push(ModelSpec {
                name,
                spatial,
                base_channels,
                classes,
                qos,
                deadline_ms,
            });
        }
        if models.is_empty() {
            return Err(format!("{ctx}: need at least one model"));
        }
        for i in 1..models.len() {
            if models[..i].iter().any(|m| m.name == models[i].name) {
                return Err(format!("{ctx}: duplicate model name {:?}", models[i].name));
            }
        }

        let model_mix = match value.get("model_mix").filter(|v| !matches!(v, Value::Null)) {
            None => vec![1.0; models.len()],
            Some(_) => {
                let entries = array(value, "model_mix", ctx)?;
                if entries.len() != models.len() {
                    return Err(format!(
                        "{ctx}: model_mix has {} weights for {} models",
                        entries.len(),
                        models.len()
                    ));
                }
                let mut weights = Vec::with_capacity(entries.len());
                for (i, entry) in entries.iter().enumerate() {
                    let w = entry
                        .as_f64()
                        .filter(|w| w.is_finite() && *w >= 0.0)
                        .ok_or_else(|| {
                            format!("{ctx}: model_mix[{i}] must be a non-negative number")
                        })?;
                    weights.push(w);
                }
                if weights.iter().sum::<f64>() <= 0.0 {
                    return Err(format!("{ctx}: model_mix weights must sum to > 0"));
                }
                weights
            }
        };

        let size_mix = SizeMix::parse(value.get("size_mix"))?;

        let mut phases = Vec::new();
        for (i, entry) in array(value, "phases", ctx)?.iter().enumerate() {
            let ctx = format!("phases[{i}]");
            let label = string(entry, "label", &ctx)?;
            let duration_ms = unsigned(entry, "duration_ms", &ctx)?;
            if duration_ms == 0 {
                return Err(format!("{ctx}: duration_ms must be positive"));
            }
            let arrival = Arrival::parse(field(entry, "arrival", &ctx)?, &ctx)?;
            phases.push(PhaseSpec {
                label,
                duration_ms,
                arrival,
            });
        }
        if phases.is_empty() {
            return Err(format!("{ctx}: need at least one phase"));
        }

        let mut faults = Vec::new();
        if let Some(v) = value.get("faults").filter(|v| !matches!(v, Value::Null)) {
            let entries = v
                .as_array()
                .ok_or_else(|| format!("{ctx}: field \"faults\" must be an array"))?;
            for (i, entry) in entries.iter().enumerate() {
                let ctx = format!("faults[{i}]");
                let fault = FaultSpec::parse(entry, &ctx)?;
                if !models.iter().any(|m| m.name == fault.action.model()) {
                    return Err(format!(
                        "{ctx}: fault targets unknown model {:?}",
                        fault.action.model()
                    ));
                }
                faults.push(fault);
            }
            faults.sort_by_key(|f| f.at_ms);
        }

        Ok(WorkloadSpec {
            name,
            seed,
            models,
            model_mix,
            size_mix,
            phases,
            faults,
        })
    }

    /// Total trace duration across all phases, in virtual milliseconds.
    pub fn duration_ms(&self) -> u64 {
        self.phases.iter().map(|p| p.duration_ms).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "name": "unit",
        "seed": 42,
        "models": [
            {"name": "hot", "spatial": 10, "base_channels": 4, "classes": 6,
             "qos": "interactive", "deadline_ms": 250},
            {"name": "bulk", "spatial": 12, "base_channels": 8, "classes": 10}
        ],
        "model_mix": [0.8, 0.2],
        "size_mix": {"kind": "bounded-pareto", "alpha": 1.5, "min": 1, "max": 8},
        "phases": [
            {"label": "ramp", "duration_ms": 200,
             "arrival": {"kind": "uniform", "rate_hz": 100}},
            {"label": "wave", "duration_ms": 400,
             "arrival": {"kind": "sine", "base_hz": 150, "amplitude_hz": 100,
                         "period_ms": 200}},
            {"label": "burst", "duration_ms": 200,
             "arrival": {"kind": "square", "low_hz": 40, "high_hz": 300,
                         "period_ms": 100}},
            {"label": "tail", "duration_ms": 200,
             "arrival": {"kind": "poisson", "rate_hz": 120}}
        ],
        "faults": [
            {"at_ms": 300, "kind": "backend-panic", "model": "hot", "count": 2}
        ]
    }"#;

    #[test]
    fn parses_full_spec() {
        let spec = WorkloadSpec::parse(SPEC).expect("parse");
        assert_eq!(spec.name, "unit");
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.models.len(), 2);
        assert_eq!(spec.models[0].qos, Some(QosClass::Interactive));
        assert_eq!(spec.models[0].deadline_ms, Some(250));
        assert_eq!(spec.models[1].qos, None);
        assert_eq!(spec.model_mix, vec![0.8, 0.2]);
        assert_eq!(
            spec.size_mix,
            SizeMix::BoundedPareto {
                alpha: 1.5,
                min: 1,
                max: 8
            }
        );
        assert_eq!(spec.phases.len(), 4);
        assert_eq!(spec.duration_ms(), 1000);
        assert_eq!(spec.faults.len(), 1);
        assert_eq!(spec.faults[0].at_ms, 300);
    }

    #[test]
    fn defaults_mix_and_sizes() {
        let spec = WorkloadSpec::parse(
            r#"{"name": "d", "seed": 1,
                "models": [{"name": "m", "spatial": 8, "base_channels": 4, "classes": 4}],
                "phases": [{"label": "p", "duration_ms": 100,
                            "arrival": {"kind": "uniform", "rate_hz": 50}}]}"#,
        )
        .expect("parse");
        assert_eq!(spec.model_mix, vec![1.0]);
        assert_eq!(spec.size_mix, SizeMix::Fixed { samples: 1 });
        assert!(spec.faults.is_empty());
    }

    #[test]
    fn rejects_malformed_specs() {
        for (broken, needle) in [
            (r#"{"seed": 1}"#, "missing field \"name\""),
            (
                r#"{"name": "x", "seed": 1, "models": [], "phases": []}"#,
                "at least one model",
            ),
            (
                r#"{"name": "x", "seed": 1,
                    "models": [{"name": "m", "spatial": 8, "base_channels": 4, "classes": 4},
                               {"name": "m", "spatial": 8, "base_channels": 4, "classes": 4}],
                    "phases": [{"label": "p", "duration_ms": 100,
                                "arrival": {"kind": "uniform", "rate_hz": 50}}]}"#,
                "duplicate model name",
            ),
            (
                r#"{"name": "x", "seed": 1,
                    "models": [{"name": "m", "spatial": 8, "base_channels": 4, "classes": 4}],
                    "model_mix": [0.5, 0.5],
                    "phases": [{"label": "p", "duration_ms": 100,
                                "arrival": {"kind": "uniform", "rate_hz": 50}}]}"#,
                "model_mix has 2 weights",
            ),
            (
                r#"{"name": "x", "seed": 1,
                    "models": [{"name": "m", "spatial": 8, "base_channels": 4, "classes": 4}],
                    "phases": [{"label": "p", "duration_ms": 100,
                                "arrival": {"kind": "sine", "base_hz": 50,
                                            "amplitude_hz": 60, "period_ms": 100}}]}"#,
                "amplitude_hz",
            ),
            (
                r#"{"name": "x", "seed": 1,
                    "models": [{"name": "m", "spatial": 8, "base_channels": 4, "classes": 4}],
                    "phases": [{"label": "p", "duration_ms": 100,
                                "arrival": {"kind": "warp", "rate_hz": 50}}]}"#,
                "unknown arrival kind",
            ),
            (
                r#"{"name": "x", "seed": 1,
                    "models": [{"name": "m", "spatial": 8, "base_channels": 4, "classes": 4}],
                    "phases": [{"label": "p", "duration_ms": 100,
                                "arrival": {"kind": "uniform", "rate_hz": 50}}],
                    "faults": [{"at_ms": 10, "kind": "backend-panic",
                                "model": "ghost", "count": 1}]}"#,
                "unknown model",
            ),
            (
                r#"{"name": "x", "seed": 1,
                    "models": [{"name": "m", "spatial": 8, "base_channels": 4,
                                "classes": 4, "qos": "platinum"}],
                    "phases": [{"label": "p", "duration_ms": 100,
                                "arrival": {"kind": "uniform", "rate_hz": 50}}]}"#,
                "unknown QoS class",
            ),
        ] {
            let err = WorkloadSpec::parse(broken).expect_err("must fail");
            assert!(
                err.contains(needle),
                "error {err:?} does not mention {needle:?}"
            );
        }
    }
}
