//! Layer probes: direct calls into each compute crate's public functions
//! at a workload's own shapes, timed one call at a time.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ilt_autodiff::Graph;
use ilt_core::{IltConfig, MultiLevelIlt, Stage, StageKind};
use ilt_fft::{Complex64, Fft2d, Fft2dScratch};
use ilt_field::{avg_pool_down, avg_pool_same, Field2D};
use ilt_metrics::{EpeChecker, EvalReport};
use ilt_optics::{LithoSimulator, ProcessCondition};

use crate::stats::median;
use crate::trace::Tracer;
use crate::Report;

/// Iteration budgets of the two single-stage runs behind `core.iter_*_ms`:
/// their time difference over their iteration difference cancels the fixed
/// cost of a run (initial pooling, region masks, final synthesis).
const STAGE_ITERS: (usize, usize) = (2, 8);

/// Median microseconds of `reps` calls of `f`, each inside a span.
fn time_us(tracer: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy plans
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        tracer.span(name, 0, &mut f);
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

/// The low-resolution iteration graph of `ilt-core`, rebuilt from public
/// `Graph` ops: smoothing pool, binarization, both process corners through
/// Hopkins and the resist, and the Eq. 5 loss.
fn iteration_graph(sim: &Arc<LithoSimulator>, cfg: &IltConfig, m_raw: &Field2D, z_t: &Field2D) -> (Graph, ilt_autodiff::Var) {
    let alpha = sim.config().resist_steepness;
    let i_th = sim.config().resist_threshold;
    let (outer, inner) = (ProcessCondition::outer(), ProcessCondition::inner());
    let mut g = Graph::new(sim.clone());
    let v = g.leaf(m_raw.clone());
    let smoothed = g.avg_pool_same(v, cfg.smoothing.map_or(3, |s| s.kernel));
    let m = cfg.binary.apply(&mut g, smoothed);
    let i_out = g.hopkins(m, outer.defocus);
    let z_out = g.resist_sigmoid(i_out, alpha, outer.dose, i_th);
    let i_in = g.hopkins(m, inner.defocus);
    let z_in = g.resist_sigmoid(i_in, alpha, inner.dose, i_th);
    let loss = cfg.loss_weights.build(&mut g, z_out, z_in, z_t, m);
    (g, loss)
}

/// The compute layers a workload's ILT runs on, probed at its shapes.
pub struct Shapes<'a> {
    pub sim: &'a Arc<LithoSimulator>,
    pub target: &'a Field2D,
    pub schedule: &'a [Stage],
    pub ilt: &'a IltConfig,
    /// A finished mask of `target`, for the evaluation probes.
    pub mask: &'a Field2D,
}

/// Probes `ilt-fft`, `ilt-field`, `ilt-optics`, `ilt-autodiff`, the
/// per-iteration cost of `ilt-core` and `ilt-metrics` at `shapes`.
pub fn probe_layers(tracer: &Tracer, shapes: &Shapes, report: &mut Report) {
    let Shapes { sim, target, schedule, ilt, mask } = *shapes;
    let n = sim.config().grid;
    let low_scale = schedule.iter().find(|s| s.kind == StageKind::LowRes).map_or(1, |s| s.scale);
    let nl = n / low_scale;
    let p = sim.kernels(false).p();
    let m_low = avg_pool_down(target, low_scale);

    // ilt-fft at the low-resolution simulation size.
    let fft = Fft2d::new(nl, nl);
    let mut scratch = Fft2dScratch::new();
    let mut spec = vec![Complex64::ZERO; p * p];
    let mut dense = vec![Complex64::ZERO; nl * nl];
    let reps = 40;
    let fwd = time_us(tracer, "fft.forward_real", reps, || {
        fft.forward_real_cropped_with(m_low.as_slice(), p, &mut spec, &mut scratch)
    });
    let inv = time_us(tracer, "fft.inverse_padded", reps, || {
        fft.inverse_padded_with(&spec, p, &mut dense, &mut scratch)
    });
    let crop = time_us(tracer, "fft.forward_cropped", reps, || {
        fft.forward_cropped_with(&dense, p, &mut spec, &mut scratch)
    });
    // Computed, not counted: a pruned inverse does p column transforms and
    // nl row transforms of length nl, at 5 N log2 N flops per transform.
    let flops = 5.0 * nl as f64 * (nl as f64).log2() * (p + nl) as f64;
    let r = &mut report.layers;
    r.insert("fft.forward_real_us", fwd);
    r.insert("fft.inverse_padded_us", inv);
    r.insert("fft.forward_cropped_us", crop);
    r.insert("fft.inverse_padded_gflops", flops / inv / 1e3);

    r.insert("field.avg_pool_same_us", time_us(tracer, "field.avg_pool_same", reps, || {
        black_box(avg_pool_same(&m_low, 3));
    }));

    // ilt-optics: the low-resolution aerial image and its VJP, the full
    // grid aerial image of the high-resolution stage, and the corner prints
    // of the evaluation.
    let (aerial, cache) = sim.aerial_with_cache(&m_low, false);
    let grad = &m_low - &aerial;
    r.insert("optics.aerial_us", time_us(tracer, "optics.aerial", 10, || {
        black_box(sim.aerial_with_cache(&m_low, false));
    }));
    r.insert("optics.vjp_us", time_us(tracer, "optics.vjp", 10, || {
        black_box(sim.aerial_vjp(&cache, &grad));
    }));
    r.insert("optics.aerial_full_us", time_us(tracer, "optics.aerial_full", 5, || {
        black_box(sim.aerial_with_cache(target, false));
    }));
    r.insert("optics.print_corners_ms", time_us(tracer, "optics.print_corners", 5, || {
        black_box(sim.print_corners(mask));
    }) / 1e3);

    // ilt-autodiff: build and sweep the low-resolution iteration graph.
    let build = time_us(tracer, "autodiff.forward_build", 10, || {
        black_box(iteration_graph(sim, ilt, &m_low, &m_low));
    });
    let (g, loss) = iteration_graph(sim, ilt, &m_low, &m_low);
    let backward = time_us(tracer, "autodiff.backward", 10, || {
        black_box(g.backward(loss));
    });
    r.insert("autodiff.forward_build_us", build);
    r.insert("autodiff.backward_us", backward);

    // ilt-core: per-iteration cost of each stage kind, from single-stage
    // runs with early exit off.
    let no_exit = IltConfig { early_exit_window: None, ..ilt.clone() };
    let engine = MultiLevelIlt::new(sim.clone(), no_exit);
    for (kind, key, span) in [
        (StageKind::LowRes, "core.iter_low_ms", "core.stage_low"),
        (StageKind::HighRes, "core.iter_high_ms", "core.stage_high"),
    ] {
        let Some(stage) = schedule.iter().find(|s| s.kind == kind) else { continue };
        let ms = |iterations: usize| {
            let one = [Stage { iterations, ..*stage }];
            let t = Instant::now();
            tracer.span(span, 0, || black_box(engine.run(target, &one)));
            t.elapsed().as_secs_f64() * 1e3
        };
        let (a, b) = STAGE_ITERS;
        let (ta, tb) = (ms(a), ms(b));
        r.insert(key, (tb - ta) / (b - a) as f64);
    }

    // ilt-metrics / ilt-geom: the evaluation, fracture shot count included.
    let corners = sim.print_corners(mask);
    let checker = EpeChecker { nm_per_px: sim.config().nm_per_px, ..EpeChecker::default() };
    r.insert("metrics.evaluate_ms", time_us(tracer, "metrics.evaluate", 5, || {
        black_box(EvalReport::evaluate(
            target,
            mask,
            &corners.nominal,
            &corners.inner,
            &corners.outer,
            &checker,
            std::time::Duration::ZERO,
        ));
    }) / 1e3);
}

/// Adds `core.unattributed_frac`: the share of `optimize_ms` (the summed
/// optimize time of the clips counted in `core.iters_*`) that the iteration
/// counts times the per-iteration costs do not explain.
pub fn attribute_core(report: &mut Report, optimize_ms: f64) {
    let r = &mut report.layers;
    let get = |k: &str| r.get(k).copied().unwrap_or(0.0);
    let explained = get("core.iters_low") * get("core.iter_low_ms") + get("core.iters_high") * get("core.iter_high_ms");
    if optimize_ms > 0.0 {
        r.insert("core.unattributed_frac", 1.0 - explained / optimize_ms);
    }
}
