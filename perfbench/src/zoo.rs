//! `plan-zoo`: offline planning of the paper's five CNNs for two device
//! models at the paper's settings, each plan lowered to kernel launches and
//! replayed on the wave simulator.
//!
//! Tiling selection is memoized for the life of a process, so every zoo
//! pass runs in a fresh process: the way a user who compresses a model zoo
//! meets the planner.

use std::time::Instant;

use tdc::inference::{all_backends, Backend};
use tdc::rank_select::{select_ranks, Decision, RankSelectionConfig};
use tdc::{lower_plan, TdcPipeline, TilingStrategy};
use tdc_gpu_sim::{DeviceSpec, WaveEngine};
use tdc_nn::models::{all_descriptors, ModelDescriptor};

use crate::common::{print_span, run_child, Ctx, Outcome};
use crate::spans::{SpanId, SpanLog};

/// The paper's FLOPs budget (θ = 0.15 and rank step 32 are the
/// `RankSelectionConfig` defaults).
const BUDGET: f64 = 0.6;
/// `slo_met_share` limit of one plan job, ms.
const JOB_SLO_MS: f64 = 10_000.0;

/// The zoo, in a fixed order: every seed plans the same jobs.
pub fn jobs() -> Vec<(ModelDescriptor, DeviceSpec)> {
    let mut out = Vec::new();
    for device in [DeviceSpec::a100(), DeviceSpec::rtx2080ti()] {
        for model in all_descriptors() {
            out.push((model, device.clone()));
        }
    }
    out
}

fn device_label(device: &DeviceSpec) -> &'static str {
    if device.name.contains("A100") {
        "a100"
    } else {
        "2080ti"
    }
}

/// Plan, lower and simulate one job; the plan's simulated speed-up over the
/// original model, or why its plan is malformed.
fn job(
    log: &mut SpanLog,
    model: &ModelDescriptor,
    device: &DeviceSpec,
    request: u64,
) -> Result<f64, String> {
    let root = log.begin("zoo.job", SpanId::root(), request);
    let plan = log
        .time("core.plan", root, request, || {
            TdcPipeline::new(device.clone(), TilingStrategy::Model).plan(model, BUDGET)
        })
        .map_err(|e| e.to_string())?;
    let lowered = log
        .time("core.lower", root, request, || lower_plan(&plan, device, 1))
        .map_err(|e| e.to_string())?;
    let engine = WaveEngine::new(device.clone());
    let simulated_ms: f64 = log
        .time("gpu-sim.wave", root, request, || {
            lowered
                .iter()
                .map(|l| engine.run_sequence_stats(&l.launches).map(|s| s.total_ms))
                .sum::<Result<f64, _>>()
        })
        .map_err(|e| e.to_string())?;
    log.end(root);
    check_plan(model, &plan.decisions)?;
    if lowered.len() != plan.decisions.len() || !(simulated_ms.is_finite() && simulated_ms > 0.0) {
        return Err(format!(
            "{}: lowering or simulation is malformed",
            model.name
        ));
    }
    plan.speedup_over_original(Backend::TuckerTdcModel)
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or_else(|| format!("{}: no TDC-model speed-up", model.name))
}

/// Every conv has a decision, in order, and every rank lies within its
/// layer's channels.
fn check_plan(model: &ModelDescriptor, decisions: &[tdc::LayerDecision]) -> Result<(), String> {
    if decisions.len() != model.convs.len() {
        return Err(format!(
            "{}: {} decisions for {} convolutions",
            model.name,
            decisions.len(),
            model.convs.len()
        ));
    }
    for (i, (d, shape)) in decisions.iter().zip(&model.convs).enumerate() {
        if d.layer_index != i || d.shape != *shape {
            return Err(format!("{}: decision {i} is for another layer", model.name));
        }
        if let Decision::Decompose { rank, .. } = d.decision {
            if rank.d1 == 0 || rank.d1 > shape.c || rank.d2 == 0 || rank.d2 > shape.n {
                return Err(format!(
                    "{}: layer {i} rank ({}, {}) outside its {}→{} channels",
                    model.name, rank.d1, rank.d2, shape.c, shape.n
                ));
            }
        }
    }
    Ok(())
}

/// Child side: one zoo pass (mode `compress`), or the per-stage probe
/// (mode `zoo-stages`).
pub fn child(ctx: &Ctx, mode: &str) -> Result<(), String> {
    let jobs = jobs();
    println!("ready");
    let mut log = ctx.log(ctx.trace);
    let start = Instant::now();
    if mode == "zoo-stages" {
        for (n, (model, device)) in jobs.iter().enumerate() {
            let request = n as u64;
            let cfg = RankSelectionConfig {
                budget: BUDGET,
                ..RankSelectionConfig::default()
            };
            let summary = log
                .time("core.select_ranks", SpanId::root(), request, || {
                    select_ranks(model, device, &cfg)
                })
                .map_err(|e| e.to_string())?;
            log.time("core.latency_reports", SpanId::root(), request, || {
                all_backends(model, &summary.decisions, device)
            })
            .map_err(|e| e.to_string())?;
        }
    } else {
        for (n, (model, device)) in jobs.iter().enumerate() {
            let t = Instant::now();
            let outcome = job(&mut log, model, device, n as u64);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match outcome {
                Ok(speedup) => println!(
                    "job {} {} {ms} 1 {speedup}",
                    model.slug(),
                    device_label(device)
                ),
                Err(e) => {
                    eprintln!("plan-zoo: {e}");
                    println!("job {} {} {ms} 0 0", model.slug(), device_label(device));
                }
            }
        }
        println!("compress_s {}", start.elapsed().as_secs_f64());
    }
    println!("rss_mb {}", crate::host::peak_rss_mb());
    print_span(&log);
    Ok(())
}

/// Speed-ups of the first pass, by job, to check later passes against.
type Speedups = Vec<String>;

/// What the zoo passes of one window observed.
pub struct ZooWindow {
    /// Requests are plan jobs.
    pub outcome: Outcome,
    /// Wall time of each pass, s.
    pub pass_s: Vec<f64>,
    /// Largest resident set of any pass, MB.
    pub peak_rss_mb: f64,
    /// Simulated speed-up of each job of the first pass.
    pub speedups: Vec<f64>,
}

/// Run zoo passes in fresh processes until `ctx.seconds` have passed.
pub fn window(ctx: &Ctx, log: &mut SpanLog) -> Result<ZooWindow, String> {
    let mut out = Outcome {
        slo_limit_ms: JOB_SLO_MS,
        ..Outcome::default()
    };
    let mut pass_s = Vec::new();
    let mut peak_rss_mb: f64 = 0.0;
    let mut first: Option<Speedups> = None;
    let mut speedups = Vec::new();
    let cpu0 = crate::host::cpu_seconds();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let child_ctx = Ctx {
            trace: log.enabled(),
            ..ctx.clone()
        };
        let report = run_child(&child_ctx, "compress")?;
        pass_s.push(
            report
                .value("compress_s")
                .ok_or("zoo pass reported no time")?,
        );
        peak_rss_mb = peak_rss_mb.max(report.value("rss_mb").unwrap_or(0.0));
        let mut this: Speedups = Vec::new();
        for line in report.lines.iter().filter(|l| l.starts_with("job ")) {
            let f: Vec<&str> = line.split(' ').collect();
            let (ms, ok, speedup) = (
                f[3].parse::<f64>().map_err(|e| e.to_string())?,
                f[4] == "1",
                f[5],
            );
            out.attempted += 1;
            if ok {
                out.record_ok(ms, start.elapsed().as_secs_f64());
            } else {
                out.wrong += 1;
            }
            this.push(format!("{} {} {speedup}", f[1], f[2]));
        }
        match &first {
            None => {
                speedups = this
                    .iter()
                    .filter_map(|s| s.rsplit(' ').next()?.parse().ok())
                    .collect();
                first = Some(this);
            }
            Some(expected) if *expected != this => {
                out.notes
                    .push("plan-zoo: a pass planned differently from the first".into());
                out.wrong += 1;
            }
            Some(_) => {}
        }
        let mut child_log = log.fork();
        report.spans.into_iter().for_each(|s| child_log.push(s));
        log.absorb(child_log);
    }
    out.window_s = start.elapsed().as_secs_f64();
    if out.attempted != (pass_s.len() * jobs().len()) as u64 {
        out.wrong += 1;
        out.notes
            .push("plan-zoo: a pass did not report every job".into());
    }
    out.layer(
        "process.cpu_cores",
        (crate::host::cpu_seconds() - cpu0) / out.window_s,
    );
    Ok(ZooWindow {
        outcome: out,
        pass_s,
        peak_rss_mb,
        speedups,
    })
}

/// Per-model planning-stage values: rank selection and latency reports from
/// a cold stage probe, wave replay from the traced window; each summed over
/// both devices (one pass's worth).
pub fn stage_layers(
    ctx: &Ctx,
    out: &mut Outcome,
    window_log: &SpanLog,
    passes: usize,
) -> Result<(), String> {
    let stages = run_child(ctx, "zoo-stages")?;
    let jobs = jobs();
    let per_model =
        |spans: &mut dyn Iterator<Item = &crate::spans::Span>, name: &str, slug: &str| -> f64 {
            spans
                .filter(|s| {
                    s.name == name
                        && jobs
                            .get(s.request as usize)
                            .is_some_and(|(m, _)| m.slug() == slug)
                })
                .map(|s| s.duration_ns() as f64 / 1e6)
                .sum()
        };
    for model in all_descriptors() {
        let slug = model.slug();
        out.layer(
            format!("core.select_ranks_ms.{slug}"),
            per_model(&mut stages.spans.iter(), "core.select_ranks", &slug),
        );
        out.layer(
            format!("core.latency_reports_ms.{slug}"),
            per_model(&mut stages.spans.iter(), "core.latency_reports", &slug),
        );
        out.layer(
            format!("gpu-sim.wave_ms.{slug}"),
            per_model(&mut window_log.spans().iter(), "gpu-sim.wave", &slug) / passes.max(1) as f64,
        );
    }
    Ok(())
}
