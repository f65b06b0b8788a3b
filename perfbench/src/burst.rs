//! `trace-burst`: an open loop replaying the committed diurnal-burst trace
//! zoo (one interactive and one batch model on one registry), its phases
//! repeated to fill the window and its rates scaled up.

use std::time::{Duration, Instant};

use tdc_lab::spec::{Arrival, WorkloadSpec};
use tdc_lab::trace::{generate, Fnv1a};
use tdc_nn::models::ModelDescriptor;
use tdc_serve::{
    serving_descriptor, InferenceResponse, ModelConfig, ModelRegistry, PendingResponse, PoolStats,
    QosClass, RuntimeOptions,
};

use crate::common::{derive_seed, Ctx, InputPool, Outcome};
use crate::host::cpu_seconds;
use crate::serving::{engine_layers, reference, window_utilization, POOL_INPUTS, WARMUP_S};
use crate::spans::{SpanId, SpanLog};

/// The committed trace spec the workload replays.
const SPEC: &str = include_str!("../../examples/traces/diurnal_burst.json");
/// Multiplier on every arrival rate of the spec. Chosen so the burst peak
/// offers about a third of `engine-saturate`'s throughput in requests.
pub const RATE_SCALE: f64 = 6.0;
/// `slo_met_share` limit of `trace-burst`, ms.
const BURST_SLO_MS: f64 = 10.0;
/// A run whose generator was, at the median, later than the latency limit
/// fell behind its schedule and did not offer the scheduled load: it is
/// invalid. (Single late submissions are host noise; their lateness counts
/// in their latency, which is timed from the due time.)
const MAX_LAG_P50_MS: f64 = BURST_SLO_MS;

/// One scheduled submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Due time, µs from the start of the window.
    pub due_us: u64,
    /// Index into the spec's model zoo.
    pub model: usize,
    /// Samples carried.
    pub samples: usize,
}

/// The spec with every arrival rate multiplied by `scale`.
pub fn scaled_spec(scale: f64) -> Result<WorkloadSpec, String> {
    let mut spec = WorkloadSpec::parse(SPEC)?;
    for phase in &mut spec.phases {
        phase.arrival = match phase.arrival.clone() {
            Arrival::Uniform { rate_hz } => Arrival::Uniform {
                rate_hz: rate_hz * scale,
            },
            Arrival::Poisson { rate_hz } => Arrival::Poisson {
                rate_hz: rate_hz * scale,
            },
            Arrival::Sine {
                base_hz,
                amplitude_hz,
                period_ms,
            } => Arrival::Sine {
                base_hz: base_hz * scale,
                amplitude_hz: amplitude_hz * scale,
                period_ms,
            },
            Arrival::Square {
                low_hz,
                high_hz,
                period_ms,
            } => Arrival::Square {
                low_hz: low_hz * scale,
                high_hz: high_hz * scale,
                period_ms,
            },
        };
    }
    Ok(spec)
}

/// Cycle the spec's phases until `seconds` are covered. Cycle `k` is the
/// trace `tdc_lab::trace::generate` expands from a seed derived from
/// `(seed, k)`, shifted by `k` spec lengths. Returns the events and a
/// fingerprint of the whole schedule.
pub fn schedule(spec: &WorkloadSpec, seed: u64, seconds: f64) -> (Vec<Event>, u64) {
    let cycle_us = spec.duration_ms() * 1000;
    let window_us = (seconds * 1e6) as u64;
    let mut events = Vec::new();
    let mut fingerprint = Fnv1a::new();
    let mut k = 0u64;
    while k * cycle_us < window_us {
        let cycle = WorkloadSpec {
            seed: derive_seed(seed, 1000 + k),
            ..spec.clone()
        };
        let trace = generate(&cycle);
        fingerprint.update(&trace.fingerprint.to_le_bytes());
        events.extend(
            trace
                .events
                .iter()
                .map(|e| Event {
                    due_us: k * cycle_us + e.timestamp_us,
                    model: e.model,
                    samples: e.samples,
                })
                .filter(|e| e.due_us < window_us),
        );
        k += 1;
    }
    (events, fingerprint.finish())
}

fn descriptor(spec: &WorkloadSpec, model: usize) -> ModelDescriptor {
    let m = &spec.models[model];
    serving_descriptor(&m.name, m.spatial, m.base_channels, m.classes)
}

/// The running zoo.
pub struct TraceBurst {
    registry: ModelRegistry,
    started: Instant,
    spec: WorkloadSpec,
}

impl TraceBurst {
    /// Register every zoo model (plan, materialize, warm up) on one registry.
    pub fn setup() -> Result<TraceBurst, String> {
        let spec = scaled_spec(RATE_SCALE)?;
        let started = Instant::now();
        let registry = ModelRegistry::new(2);
        for (i, m) in spec.models.iter().enumerate() {
            let config = ModelConfig {
                runtime: RuntimeOptions {
                    qos: m.qos.unwrap_or_default(),
                    ..RuntimeOptions::default()
                },
                ..ModelConfig::default()
            };
            registry
                .register(&m.name, &descriptor(&spec, i), config)
                .map_err(|e| format!("register {} failed: {e}", m.name))?;
        }
        Ok(TraceBurst {
            registry,
            started,
            spec,
        })
    }

    /// The zoo's descriptors.
    pub fn descriptors() -> Result<Vec<ModelDescriptor>, String> {
        let spec = scaled_spec(RATE_SCALE)?;
        Ok((0..spec.models.len())
            .map(|i| descriptor(&spec, i))
            .collect())
    }

    /// Plans of the zoo's served models.
    pub fn plans(&self) -> Result<Vec<tdc::CompressionPlan>, String> {
        self.spec
            .models
            .iter()
            .map(|m| {
                self.registry
                    .engine(&m.name)
                    .map(|e| e.plan().clone())
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// Run the whole workload: warm-up, the measured window(s).
    pub fn run(self, ctx: &Ctx, log: &mut SpanLog) -> Result<(Outcome, Option<Outcome>), String> {
        let plans = self.plans()?;
        let pools = (0..self.spec.models.len())
            .map(|i| {
                let model = reference(&descriptor(&self.spec, i), &plans[i])?;
                InputPool::new(&model, POOL_INPUTS, derive_seed(ctx.seed, 10 + i as u64))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let (warmup, _) = schedule(&self.spec, derive_seed(ctx.seed, 99), WARMUP_S);
        self.open_loop(&warmup, &pools, &mut ctx.log(false));
        let (events, fingerprint) = schedule(&self.spec, ctx.seed, ctx.seconds);
        let mut untraced = self.window(&events, &pools, &mut ctx.log(false))?;
        untraced.notes.push(format!(
            "schedule: {} submissions over {} spec cycles at {RATE_SCALE}x rates, fingerprint {fingerprint:016x}",
            events.len(),
            (ctx.seconds * 1000.0 / self.spec.duration_ms() as f64).ceil()
        ));
        let traced = if ctx.trace {
            let mut out = self.window(&events, &pools, log)?;
            let child = crate::common::run_child(ctx, "compress")?;
            crate::serving::setup_stages(&mut out, &child, &descriptor(&self.spec, 0))?;
            Some(out)
        } else {
            None
        };
        self.registry.shutdown();
        Ok((untraced, traced))
    }

    fn engine_windows(&self) -> Result<Vec<(tdc_serve::ServeMetrics, PoolStats)>, String> {
        self.spec
            .models
            .iter()
            .map(|m| {
                let e = self.registry.engine(&m.name).map_err(|e| e.to_string())?;
                Ok((e.metrics(), e.pool_stats()))
            })
            .collect()
    }

    fn window(
        &self,
        events: &[Event],
        pools: &[InputPool],
        log: &mut SpanLog,
    ) -> Result<Outcome, String> {
        for m in &self.spec.models {
            self.registry
                .engine(&m.name)
                .map_err(|e| e.to_string())?
                .reset_metrics();
        }
        let before = self.engine_windows()?;
        let t0 = self.started.elapsed().as_secs_f64();
        let u0 = self.registry.metrics().executor;
        let cpu0 = cpu_seconds();
        let mut out = self.open_loop(events, pools, log);
        // One slice per cycle of the spec's phases, so every slice offers
        // the same mix of ramp, sine, burst and tail.
        out.slice_bounds_s =
            crate::stats::time_bounds(self.spec.duration_ms() as f64 / 1000.0, out.window_s);
        let cpu1 = cpu_seconds();
        let t1 = self.started.elapsed().as_secs_f64();
        let u1 = self.registry.metrics().executor;
        let after = self.engine_windows()?;
        let windows: Vec<_> = before
            .into_iter()
            .zip(after)
            .map(|((_, pool_before), (metrics, pool_after))| (metrics, pool_before, pool_after))
            .collect();
        engine_layers(&mut out, &windows);
        out.layer(
            "exec.utilization",
            window_utilization(u0.utilization, t0, u1.utilization, t1),
        );
        out.layer("exec.steals", (u1.steals_total - u0.steals_total) as f64);
        out.layer("process.cpu_cores", (cpu1 - cpu0) / out.window_s);
        Ok(out)
    }

    /// Submit every event at its due time. The same thread takes the answers
    /// that came in while it waited for the next due time, so the load
    /// generator adds one thread, not two, to the cores the engines run on.
    fn open_loop(&self, events: &[Event], pools: &[InputPool], log: &mut SpanLog) -> Outcome {
        let start = Instant::now();
        let mut out = Outcome {
            slo_limit_ms: BURST_SLO_MS,
            ..Outcome::default()
        };
        let qos: Vec<QosClass> = self
            .spec
            .models
            .iter()
            .map(|m| m.qos.unwrap_or_default())
            .collect();
        let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); 2];
        let mut settle = |out: &mut Outcome, log: &mut SpanLog, s: Submitted| {
            let (request, model) = (s.request, s.model);
            let latency = log.time("bench.verify", SpanId::root(), request, || {
                s.verify(start, &pools[model], out)
            });
            match (latency, qos[model]) {
                (Some(ms), QosClass::Interactive) => by_class[0].push(ms),
                (Some(ms), QosClass::Batch) => by_class[1].push(ms),
                _ => {}
            }
        };
        let mut outstanding: Vec<Submitted> = Vec::new();
        let mut next_input = vec![0usize; pools.len()];
        let mut lags = Vec::with_capacity(events.len());
        for (n, event) in events.iter().enumerate() {
            let mut i = 0;
            while i < outstanding.len() {
                if outstanding[i].poll() {
                    let done = outstanding.swap_remove(i);
                    settle(&mut out, log, done);
                } else {
                    i += 1;
                }
            }
            let due = start + Duration::from_micros(event.due_us);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let request = n as u64;
            let root = log.begin("lab.dispatch", SpanId::root(), request);
            let submitted_at = Instant::now();
            lags.push(submitted_at.duration_since(due).as_secs_f64() * 1e3);
            let pool = &pools[event.model];
            let inputs: Vec<usize> = (0..event.samples)
                .map(|_| {
                    next_input[event.model] += 1;
                    next_input[event.model] % pool.len()
                })
                .collect();
            let tensors = inputs.iter().map(|&i| pool.inputs[i].clone()).collect();
            let pending = log.time("serve.registry.submit_many", root, request, || {
                self.registry
                    .submit_many(&self.spec.models[event.model].name, tensors, None)
            });
            log.end(root);
            out.attempted += 1;
            match pending {
                Ok(pending) => outstanding.push(Submitted {
                    request,
                    model: event.model,
                    due,
                    submitted_at,
                    inputs,
                    answers: pending.into_iter().map(|p| (p, None)).collect(),
                }),
                Err(e) => out.record_error(&e),
            }
        }
        for s in outstanding {
            settle(&mut out, log, s);
        }
        out.window_s = start.elapsed().as_secs_f64();
        for (name, values) in ["exec.qos.interactive_p99_ms", "exec.qos.batch_p99_ms"]
            .iter()
            .zip(by_class)
        {
            let p = crate::stats::percentile(&crate::stats::sorted(values), 0.99);
            out.layer(*name, p.map_or(0.0, |p| p.value));
        }
        let lags = crate::stats::sorted(lags);
        let lag = |q| crate::stats::percentile(&lags, q).map_or(0.0, |p| p.value);
        let (lag_p50, lag_p99) = (lag(0.5), lag(0.99));
        out.layer("lab.send_lag_p99_ms", lag_p99);
        out.notes.push(format!(
            "generator lag p50 {lag_p50:.3} ms, p99 {lag_p99:.3} ms over {} submissions",
            events.len()
        ));
        if lag_p50 > MAX_LAG_P50_MS {
            out.invalid = Some(format!(
                "generator fell behind its schedule: lag p50 {lag_p50:.3} ms > {MAX_LAG_P50_MS} ms"
            ));
        }
        out
    }
}

/// One dispatched submission and the answers taken so far.
struct Submitted {
    request: u64,
    model: usize,
    due: Instant,
    submitted_at: Instant,
    inputs: Vec<usize>,
    answers: Vec<(
        PendingResponse,
        Option<tdc_serve::Result<InferenceResponse>>,
    )>,
}

impl Submitted {
    /// Take the answers that are in; whether all of them are.
    fn poll(&mut self) -> bool {
        for (pending, answer) in &mut self.answers {
            if answer.is_none() {
                *answer = pending.try_wait();
            }
        }
        self.answers.iter().all(|(_, a)| a.is_some())
    }

    /// Wait for the rest of the answers, verify them all and count the
    /// submission. Its latency runs from its due time to the moment its last
    /// sample's answer was ready at the engine (submission time plus the
    /// engine's queue and execution time), so when the answers are taken here
    /// adds nothing to it. Returns the latency of a correct answer.
    fn verify(self, start: Instant, pool: &InputPool, out: &mut Outcome) -> Option<f64> {
        let mut ready_ms: f64 = 0.0;
        let mut wrong = false;
        let mut error = None;
        for ((pending, answer), &i) in self.answers.into_iter().zip(&self.inputs) {
            match answer.unwrap_or_else(|| pending.wait()) {
                Ok(r) => {
                    wrong |= !pool.matches(i, r.output.data());
                    ready_ms = ready_ms.max(r.queue_ms + r.exec_ms);
                }
                Err(e) => {
                    error.get_or_insert(e);
                }
            }
        }
        if let Some(e) = error {
            out.record_error(&e);
            None
        } else if wrong {
            out.wrong += 1;
            None
        } else {
            let latency = self.submitted_at.duration_since(self.due).as_secs_f64() * 1e3 + ready_ms;
            out.record_ok(
                latency,
                self.due.duration_since(start).as_secs_f64() + latency / 1e3,
            );
            Some(latency)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycled_schedules_repeat_per_seed_and_differ_across_seeds() {
        let spec = scaled_spec(RATE_SCALE).unwrap();
        let (a, fa) = schedule(&spec, 7, 4.0);
        let (b, fb) = schedule(&spec, 7, 4.0);
        let (c, fc) = schedule(&spec, 8, 4.0);
        assert_eq!((a.clone(), fa), (b, fb));
        assert_ne!(fa, fc);
        assert_ne!(a, c);
        // The phases repeat to fill the window, in order, and stop at its end.
        assert!(a.windows(2).all(|w| w[0].due_us < w[1].due_us));
        let cycle_us = spec.duration_ms() * 1000;
        assert!(a.iter().any(|e| e.due_us >= 2 * cycle_us));
        assert!(a.last().unwrap().due_us < 4_000_000);
        assert!(a.iter().all(|e| (1..=6).contains(&e.samples)));
    }

    #[test]
    fn scaling_multiplies_every_rate() {
        let base = scaled_spec(1.0).unwrap();
        let double = scaled_spec(2.0).unwrap();
        let (a, _) = schedule(&base, 3, 3.0);
        let (b, _) = schedule(&double, 3, 3.0);
        let ratio = b.len() as f64 / a.len() as f64;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }
}
