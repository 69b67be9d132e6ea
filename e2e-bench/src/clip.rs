//! `clip_m1_fast`: the paper's Table II unit. ICCAD M1 cases 1-10 at
//! 512 px (4 nm/px), our-fast schedule, 10 kernels, early-exit window 15,
//! one clip at a time on one thread. The seed sets the case order.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ilt_core::{schedules, IltConfig, MultiLevelIlt, StageKind};
use ilt_field::Field2D;
use ilt_layouts::iccad2013_case;
use ilt_metrics::{EpeChecker, EvalReport};
use ilt_optics::{LithoSimulator, OpticsConfig};

use crate::probes::{self, Shapes};
use crate::stats::{median, sum};
use crate::{check_mask, repeated_setup, Ctx, Report, Rng};

const GRID: usize = 512;
const KERNELS: usize = 10;
const CASES: std::ops::RangeInclusive<usize> = 1..=10;

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let targets: Vec<(usize, Field2D)> = CASES.map(|id| (id, iccad2013_case(id).rasterize(GRID))).collect();
    let nm_per_px = iccad2013_case(1).nm_per_px(GRID);
    if CASES.clone().any(|id| iccad2013_case(id).nm_per_px(GRID) != nm_per_px) {
        return Err("M1 cases disagree on the pixel pitch".into());
    }
    let optics = OpticsConfig { grid: GRID, nm_per_px, num_kernels: KERNELS, ..OpticsConfig::default() };
    let tracer = &ctx.tracer;
    let (setup_s, repeats, sim) =
        repeated_setup(|| tracer.span("optics.build", 0, || LithoSimulator::new(optics.clone()).map(Arc::new)))?;
    report.setup_s = setup_s;
    report.setup_repeats = repeats;

    let schedule = schedules::clamp_scales(
        &schedules::clamp_effective_pitch(&schedules::our_fast(), nm_per_px, 8.0),
        GRID,
        32,
    );
    let ilt_cfg = IltConfig { early_exit_window: Some(15), ..IltConfig::default() };
    let ilt = MultiLevelIlt::new(sim.clone(), ilt_cfg.clone());
    let checker = EpeChecker { nm_per_px, ..EpeChecker::default() };
    let mut order: Vec<usize> = (0..targets.len()).collect();
    Rng::new(ctx.seed, 1).shuffle(&mut order);

    let mut tat_ms: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let (mut iters_low, mut iters_high, mut optimize_ms) = (0usize, 0usize, Vec::new());
    let mut last_mask = None;
    let t0 = Instant::now();
    let mut sweeps = 0;
    let mut last_sweep_s = 0.0;
    while ctx.another_fits(t0, sweeps, last_sweep_s) {
        let sweep_t = Instant::now();
        for &i in &order {
            let (id, target) = &targets[i];
            let job = *id as u64;
            let t = Instant::now();
            let result = tracer.span("core.optimize", job, || ilt.run(target, &schedule));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if let Err(e) = check_mask(&result.mask, GRID, GRID) {
                report.check_failed(format!("case {id}: {e}"));
                continue;
            }
            report.op(Ok(()));
            tat_ms.entry(*id).or_default().push(ms);
            if sweeps == 0 {
                optimize_ms.push(ms);
                for rec in &result.loss_history {
                    match schedule[rec.stage].kind {
                        StageKind::LowRes => iters_low += 1,
                        StageKind::HighRes => iters_high += 1,
                    }
                }
                let eval = tracer.span("clip.evaluate", job, || {
                    let corners = sim.print_corners(&result.mask);
                    EvalReport::evaluate(
                        target,
                        &result.mask,
                        &corners.nominal,
                        &corners.inner,
                        &corners.outer,
                        &checker,
                        t.elapsed(),
                    )
                });
                report.quality.add(&eval, &result.mask);
            }
            last_mask = Some((i, result.mask));
        }
        sweeps += 1;
        last_sweep_s = sweep_t.elapsed().as_secs_f64();
    }
    report.window = Some((t0, Instant::now()));

    // One latency per case (the median over sweeps), so every run reports
    // over the same ten clips whatever the seed.
    let per_case: Vec<f64> = tat_ms.values().map(|v| median(v)).collect();
    let tat_sum_ms = sum(&per_case);
    report.ops_per_s = per_case.len() as f64 / (tat_sum_ms / 1e3);
    report.notes.push(format!(
        "clip_tat_p50_s={:.4} clip_tat_sum_s={:.4} over {} cases x {sweeps} sweep(s); quality over the first sweep",
        median(&per_case) / 1e3,
        tat_sum_ms / 1e3,
        per_case.len()
    ));
    report.op_ms = per_case;

    if tracer.enabled() {
        let r = &mut report.layers;
        r.insert("core.optimize_ms", median(&optimize_ms));
        r.insert("core.iters_low", iters_low as f64);
        r.insert("core.iters_high", iters_high as f64);
        if let Some((i, mask)) = &last_mask {
            let shapes = Shapes { sim: &sim, target: &targets[*i].1, schedule: &schedule, ilt: &ilt_cfg, mask };
            probes::probe_layers(tracer, &shapes, &mut report);
        }
        probes::attribute_core(&mut report, sum(&optimize_ms));
    }
    Ok(report)
}
