//! Per-layer probes of the served model: each kernel stage of the plan, the
//! model's forward pass at batch 1 and 8, and the uncompressed model.
//!
//! The probes rebuild the model's weights exactly as
//! `CompressedModel::materialize` draws them (same seeded generator, same
//! order), run the stages with the same kernels the serving path calls, and
//! check that the chained stages reproduce the served logits bit for bit
//! before reporting any time.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tdc::rank_select::Decision;
use tdc::{CompressionPlan, TdcPipeline};
use tdc_conv::{direct, im2col, layout, ConvShape};
use tdc_nn::models::ModelDescriptor;
use tdc_serve::{
    BufferPool, CompressedModel, CpuBackend, ExecutionBackend, PlanningOptions, ScratchArena,
};
use tdc_tensor::matmul::gemm_blocked_into;
use tdc_tensor::{init, Tensor};
use tdc_tucker::tkd::tucker2;
use tdc_tucker::TuckerConv;

use crate::common::Outcome;
use crate::spans::{SpanId, SpanLog};

/// Repetitions per timed stage: at least this many, and at least
/// [`MIN_PROBE_S`] of calls.
const MIN_REPS: usize = 30;
const MIN_PROBE_S: f64 = 0.05;

/// One convolution layer's operands, as the serving path holds them.
pub enum Stage {
    /// Kept dense: the im2col GEMM operand.
    Dense { shape: ConvShape, kmat: Tensor },
    /// Decomposed: the Tucker factors and the core in RSCN layout.
    Tucker {
        shape: ConvShape,
        conv: Box<TuckerConv>,
        core_rscn: Tensor,
    },
}

/// Median µs per call of `f`, each call wrapped in a span.
fn time_us(log: &mut SpanLog, name: &'static str, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < MIN_REPS || start.elapsed().as_secs_f64() < MIN_PROBE_S {
        let t = Instant::now();
        log.time(name, SpanId::root(), times.len() as u64, &mut f);
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    crate::stats::median(&times)
}

/// Rebuild the per-layer operands of `plan` for `descriptor` with the
/// weights `CompressedModel::materialize` draws from `seed`, timing each
/// Tucker-2 decomposition as a span.
pub fn stages(
    log: &mut SpanLog,
    descriptor: &ModelDescriptor,
    plan: &CompressionPlan,
    seed: u64,
) -> Result<(Vec<Stage>, Vec<Tensor>), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for (shape, decision) in descriptor.convs.iter().zip(&plan.decisions) {
        let fan = (shape.c * shape.r * shape.s) as f32;
        let bound = (3.0 / fan).sqrt();
        let kernel = init::uniform(shape.kernel_dims(), -bound, bound, &mut rng);
        out.push(match decision.decision {
            Decision::Keep { .. } => Stage::Dense {
                shape: *shape,
                kmat: im2col::kernel_matrix(&kernel, shape).map_err(|e| e.to_string())?,
            },
            Decision::Decompose { rank, .. } => {
                let factors = log
                    .time("tucker.tucker2", SpanId::root(), 0, || {
                        tucker2(&kernel, rank.d1, rank.d2)
                    })
                    .map_err(|e| e.to_string())?;
                let conv = TuckerConv::from_factors(*shape, &factors).map_err(|e| e.to_string())?;
                let core_rscn = layout::cnrs_to_rscn(&conv.core).map_err(|e| e.to_string())?;
                Stage::Tucker {
                    shape: *shape,
                    conv: Box::new(conv),
                    core_rscn,
                }
            }
        });
    }
    let fc = descriptor
        .fc
        .iter()
        .map(|&(i, o)| {
            let bound = (3.0 / i as f32).sqrt();
            init::uniform(vec![i, o], -bound, bound, &mut rng)
        })
        .collect();
    Ok((out, fc))
}

fn gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_blocked_into(a, b, &mut c, m, k, n);
    c
}

fn core_conv(x: &[f32], core_rscn: &Tensor, core: &ConvShape) -> Vec<f32> {
    let mut z = vec![0.0f32; core.out_h() * core.out_w() * core.n];
    direct::conv2d_rscn_into(x, core_rscn.data(), &mut z, core);
    z
}

fn pool_fc(x: &[f32], hw: usize, c: usize, fc: &[Tensor]) -> Vec<f32> {
    let mut pooled = vec![0.0f32; c];
    for pos in 0..hw {
        for (ch, p) in pooled.iter_mut().enumerate() {
            *p += x[pos * c + ch];
        }
    }
    let scale = 1.0 / hw as f32;
    for p in &mut pooled {
        *p *= scale;
    }
    let mut features = pooled;
    for w in fc {
        let (i, o) = (w.dims()[0], w.dims()[1]);
        features = gemm(&features, w.data(), 1, i, o);
    }
    features
}

/// Time every kernel stage of `plan` on one input (`.us` per call and
/// `.gflops`, or `.gbytes_s` for the data-movement im2col), after checking
/// that the chained stages reproduce `model.forward` bit for bit.
pub fn kernels(
    out: &mut Outcome,
    log: &mut SpanLog,
    descriptor: &ModelDescriptor,
    plan: &CompressionPlan,
    model: &CompressedModel,
    seed: u64,
    input: &Tensor,
) -> Result<(), String> {
    let (stages, fc) = stages(&mut log.fork(), descriptor, plan, seed)?;
    let mut x = input.data().to_vec();
    let (mut h, mut w, mut c) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    for (i, stage) in stages.iter().enumerate() {
        x = match stage {
            Stage::Dense { shape, kmat } => {
                let m = shape.out_h() * shape.out_w();
                let kdim = shape.c * shape.r * shape.s;
                let mut patches = vec![0.0f32; m * kdim];
                let us = time_us(log, "conv.im2col", || {
                    im2col::im2col_into(&x, &mut patches, shape)
                });
                let bytes = 4.0 * (x.len() + patches.len()) as f64;
                out.layer(format!("conv.layer{i}.im2col.us"), us);
                out.layer(format!("conv.layer{i}.im2col.gbytes_s"), bytes / us / 1e3);
                let mut y = vec![0.0f32; m * shape.n];
                let us = time_us(log, "conv.gemm", || {
                    gemm_blocked_into(&patches, kmat.data(), &mut y, m, kdim, shape.n)
                });
                out.layer(format!("conv.layer{i}.gemm.us"), us);
                out.layer(
                    format!("conv.layer{i}.gemm.gflops"),
                    2.0 * (m * kdim * shape.n) as f64 / us / 1e3,
                );
                (h, w, c) = (shape.out_h(), shape.out_w(), shape.n);
                y
            }
            Stage::Tucker {
                shape,
                conv,
                core_rscn,
            } => {
                let d1 = conv.u1.dims()[1];
                let mut z1 = vec![0.0f32; h * w * d1];
                let us = time_us(log, "conv.stage1", || {
                    gemm_blocked_into(&x, conv.u1.data(), &mut z1, h * w, c, d1)
                });
                out.layer(format!("conv.layer{i}.stage1.us"), us);
                out.layer(
                    format!("conv.layer{i}.stage1.gflops"),
                    2.0 * (h * w * c * d1) as f64 / us / 1e3,
                );
                let core = conv.core_shape();
                let mut z2 = Vec::new();
                let us = time_us(log, "conv.core", || z2 = core_conv(&z1, core_rscn, &core));
                out.layer(format!("conv.layer{i}.core.us"), us);
                out.layer(
                    format!("conv.layer{i}.core.gflops"),
                    core.flops() / us / 1e3,
                );
                let (oh, ow, d2, n) = (core.out_h(), core.out_w(), core.n, shape.n);
                let mut y = vec![0.0f32; oh * ow * n];
                let us = time_us(log, "conv.stage3", || {
                    gemm_blocked_into(&z2, conv.u2_t.data(), &mut y, oh * ow, d2, n)
                });
                out.layer(format!("conv.layer{i}.stage3.us"), us);
                out.layer(
                    format!("conv.layer{i}.stage3.gflops"),
                    2.0 * (oh * ow * d2 * n) as f64 / us / 1e3,
                );
                (h, w, c) = (oh, ow, n);
                y
            }
        };
    }
    let mut logits = Vec::new();
    let us = time_us(log, "serve.model.pool_fc", || {
        logits = pool_fc(&x, h * w, c, &fc)
    });
    let fc_flops: usize = fc.iter().map(|t| 2 * t.dims()[0] * t.dims()[1]).sum();
    out.layer("serve.model.pool_fc.us", us);
    out.layer(
        "serve.model.pool_fc.gflops",
        (h * w * c + fc_flops) as f64 / us / 1e3,
    );
    let served = model.forward(input).map_err(|e| e.to_string())?;
    if crate::common::bits(&logits) != crate::common::bits(served.data()) {
        return Err("kernel probe chain disagrees with CompressedModel::forward".into());
    }
    Ok(())
}

/// Time the model's forward pass: `forward_in` at batch 1, the CPU backend's
/// batched path at batch 8 (per sample), and the same descriptor planned with
/// θ = 1 (every layer dense: the paper's original model) at batch 1.
pub fn forward(
    out: &mut Outcome,
    log: &mut SpanLog,
    descriptor: &ModelDescriptor,
    plan: &Arc<CompressionPlan>,
    model: &Arc<CompressedModel>,
    seed: u64,
    inputs: &[Tensor],
) -> Result<(), String> {
    let planning = PlanningOptions::default();
    let mut arena = ScratchArena::new(Arc::new(BufferPool::new()));
    let mut run_b1 = |log: &mut SpanLog, name: &'static str, m: &CompressedModel| {
        let mut failed = None;
        let us = time_us(log, name, || match m.forward_in(&inputs[0], &mut arena) {
            Ok(y) => arena.give(y.into_data()),
            Err(e) => failed = Some(e.to_string()),
        });
        failed.map_or(Ok(us), Err)
    };
    out.layer(
        "serve.model.forward_us.b1",
        run_b1(log, "serve.model.forward_b1", model)?,
    );

    let dense_cfg = PlanningOptions {
        theta: 1.0,
        ..planning.clone()
    }
    .selection_config();
    let dense_plan = TdcPipeline::new(planning.device.clone(), planning.strategy)
        .plan_with_config(descriptor, &dense_cfg)
        .map_err(|e| e.to_string())?;
    if dense_plan.decisions.iter().any(|d| d.rank().is_some()) {
        return Err("a θ = 1 plan decomposed a layer".into());
    }
    let dense =
        CompressedModel::materialize(descriptor, &dense_plan, seed).map_err(|e| e.to_string())?;
    out.layer(
        "serve.model.forward_us.dense_b1",
        run_b1(log, "serve.model.forward_dense_b1", &dense)?,
    );

    let backend = CpuBackend::new(
        Arc::clone(model),
        Arc::clone(plan),
        planning.device.clone(),
        descriptor.fc.clone(),
    );
    let batch: Vec<&Tensor> = inputs.iter().cycle().take(8).collect();
    let mut failed = None;
    let us = time_us(log, "serve.model.forward_b8", || {
        match backend.forward_batch_in(&batch, &mut arena) {
            Ok(done) => done
                .outputs
                .into_iter()
                .for_each(|y| arena.give(y.into_data())),
            Err(e) => failed = Some(e.to_string()),
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    out.layer("serve.model.forward_us.b8", us / 8.0);
    Ok(())
}
