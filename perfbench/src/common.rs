//! Pieces every workload shares: run settings, the outcome of a measured
//! window, seeded inputs with their reference outputs, and the fresh-process
//! protocol used to time set-up and compression cold.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tdc_serve::CompressedModel;
use tdc_tensor::{init, Tensor};

use crate::spans::{Span, SpanLog};

/// Settings of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of one measured window, s.
    pub seconds: f64,
    /// Traced run?
    pub trace: bool,
    /// Clock origin of every span of the run.
    pub epoch: Instant,
}

impl Ctx {
    /// A fresh span log on the run's clock.
    pub fn log(&self, enabled: bool) -> SpanLog {
        SpanLog::new(enabled, self.epoch)
    }
}

/// What one measured window observed.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Requests (or jobs) started in the window.
    pub attempted: u64,
    /// Requests answered with a verified output in the window.
    pub completed: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Requests whose deadline passed.
    pub expired: u64,
    /// Requests answered with any other error.
    pub errors: u64,
    /// Requests answered with an output that differs from the reference.
    pub wrong: u64,
    /// Latency of every completed request, ms.
    pub latencies_ms: Vec<f64>,
    /// When each completed request finished, s from the window's start.
    pub done_s: Vec<f64>,
    /// Wall length of the window, s.
    pub window_s: f64,
    /// Boundaries of consecutive slices of the window, s from its start.
    /// When set, the end-to-end statistics are medians over slices instead of
    /// pooled over the window.
    pub slice_bounds_s: Vec<f64>,
    /// Latency limit of `slo_met_share`, ms.
    pub slo_limit_ms: f64,
    /// Requests answered correctly within the limit.
    pub slo_met: u64,
    /// Why the generator's load is not the load the workload promises.
    pub invalid: Option<String>,
    /// Per-layer values measured in this window.
    pub layers: BTreeMap<String, f64>,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Requests that did not end in a verified answer.
    pub fn failed(&self) -> u64 {
        self.rejected + self.expired + self.errors + self.wrong
    }

    /// Count one answered request.
    pub fn record_ok(&mut self, latency_ms: f64, done_s: f64) {
        self.completed += 1;
        self.latencies_ms.push(latency_ms);
        self.done_s.push(done_s);
        if latency_ms <= self.slo_limit_ms {
            self.slo_met += 1;
        }
    }

    /// Count one serving error by kind.
    pub fn record_error(&mut self, error: &tdc_serve::ServeError) {
        match error {
            tdc_serve::ServeError::Overloaded { .. } => self.rejected += 1,
            tdc_serve::ServeError::DeadlineExceeded { .. } => self.expired += 1,
            _ => self.errors += 1,
        }
    }

    /// Set one per-layer value.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }
}

/// Seeded inputs and the bits of their reference outputs.
pub struct InputPool {
    /// Input tensors, HWC.
    pub inputs: Vec<Tensor>,
    /// `f32::to_bits` of each input's reference logits.
    pub expected: Vec<Vec<u32>>,
}

impl InputPool {
    /// `n` uniform inputs in [-1, 1) drawn from `seed`, each with the output
    /// of `reference`'s allocating forward pass.
    pub fn new(reference: &CompressedModel, n: usize, seed: u64) -> Result<InputPool, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = reference.input_dims().to_vec();
        let inputs: Vec<Tensor> = (0..n)
            .map(|_| init::uniform(dims.clone(), -1.0, 1.0, &mut rng))
            .collect();
        let expected = inputs
            .iter()
            .map(|x| reference.forward(x).map(|y| bits(y.data())))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("reference forward failed: {e}"))?;
        Ok(InputPool { inputs, expected })
    }

    /// Number of inputs.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether `output` is bit-identical to input `i`'s reference.
    pub fn matches(&self, i: usize, output: &[f32]) -> bool {
        output.len() == self.expected[i].len()
            && output
                .iter()
                .zip(&self.expected[i])
                .all(|(y, e)| y.to_bits() == *e)
    }
}

/// Bit patterns of an f32 slice.
pub fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Derive an independent seed for one purpose from the run seed.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    key[8..].copy_from_slice(&purpose.to_le_bytes());
    tdc_lab::trace::fnv1a(&key)
}

/// Span names a child process may report (spans carry static names).
const CHILD_SPAN_NAMES: &[&str] = &[
    "core.plan",
    "core.select_ranks",
    "core.latency_reports",
    "core.lower",
    "gpu-sim.wave",
    "tucker.tucker2",
    "serve.model.materialize",
    "zoo.job",
];

/// What a fresh bench process reported.
#[derive(Debug, Default)]
pub struct ChildReport {
    /// Spawn → `ready` line, s.
    pub ready_s: Option<f64>,
    /// Every other line it printed.
    pub lines: Vec<String>,
    /// Spans it recorded, shifted onto the parent's clock.
    pub spans: Vec<Span>,
}

impl ChildReport {
    /// The value of the first `key <value>` line.
    pub fn value(&self, key: &str) -> Option<f64> {
        self.lines.iter().find_map(|l| {
            l.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .and_then(|v| v.trim().parse().ok())
        })
    }
}

/// Run this benchmark binary as a fresh process in `mode` for the same
/// workload and seed, and collect what it printed. A fresh process is the
/// only way to time work that the program memoizes process-wide (tiling
/// selection) the way a user meets it: cold.
pub fn run_child(ctx: &Ctx, mode: &str) -> Result<ChildReport, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the bench binary: {e}"))?;
    let spawned_at = Instant::now();
    let offset_ns = ctx.epoch.elapsed().as_nanos() as u64;
    let mut child = Command::new(exe)
        .args([
            "--child",
            mode,
            "--workload",
            &ctx.workload,
            "--seed",
            &ctx.seed.to_string(),
            "--seconds",
            &ctx.seconds.to_string(),
            "--trace",
            if ctx.trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn a {mode} child: {e}"))?;
    let stdout = child.stdout.take().expect("child stdout is piped");
    let mut report = ChildReport::default();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading the {mode} child: {e}"))?;
        if line == "ready" {
            report.ready_s = Some(spawned_at.elapsed().as_secs_f64());
        } else if let Some(span) = parse_span_line(&line, offset_ns) {
            report.spans.push(span);
        } else {
            report.lines.push(line);
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the {mode} child: {e}"))?;
    if !status.success() {
        return Err(format!("{mode} child exited with {status}"));
    }
    Ok(report)
}

/// Print a span so the parent can import it (child side).
pub fn print_span(log: &SpanLog) {
    for s in log.spans() {
        println!(
            "span {} {} {} {} {}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("-".to_string(), |p| p.to_string()),
            s.request
        );
    }
}

fn parse_span_line(line: &str, offset_ns: u64) -> Option<Span> {
    let mut f = line.strip_prefix("span ")?.split(' ');
    let name = f.next()?;
    let name = CHILD_SPAN_NAMES.iter().find(|n| **n == name)?;
    let start_ns: u64 = f.next()?.parse().ok()?;
    let end_ns: u64 = f.next()?.parse().ok()?;
    let parent = match f.next()? {
        "-" => None,
        p => Some(p.parse().ok()?),
    };
    Some(Span {
        name,
        start_ns: start_ns + offset_ns,
        end_ns: end_ns + offset_ns,
        parent,
        request: f.next()?.parse().ok()?,
    })
}

/// Time several fresh processes from spawn to ready; the median, s.
pub fn setup_seconds(ctx: &Ctx, processes: usize) -> Result<f64, String> {
    let mut times = Vec::with_capacity(processes);
    for _ in 0..processes {
        let report = run_child(ctx, "setup")?;
        times.push(report.ready_s.ok_or("setup child never became ready")?);
    }
    Ok(crate::stats::median(&times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_lines_round_trip_with_the_parent_offset() {
        let line = "span core.plan 5 9 - 3";
        let s = parse_span_line(line, 100).unwrap();
        assert_eq!(
            (s.name, s.start_ns, s.end_ns, s.parent, s.request),
            ("core.plan", 105, 109, None, 3)
        );
        assert!(parse_span_line("span unknown.name 1 2 - 0", 0).is_none());
        assert!(parse_span_line("compress_s 1.5", 0).is_none());
    }

    #[test]
    fn derived_seeds_differ_by_purpose_and_seed() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }
}
