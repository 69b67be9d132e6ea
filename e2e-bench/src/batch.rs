//! `batch_tiled`: two 1024-px M1 clips with blank regions (2 nm/px), split
//! into 512-px tiles with a 64-px halo and run through `run_batch_resume`
//! on 2 pool threads with a shared `SimulatorCache`, the checkpoint WAL
//! and stitched evaluation. The seed sets the order of the two clips.

use std::time::Instant;

use ilt_core::{schedules, IltConfig};
use ilt_field::Field2D;
use ilt_layouts::iccad2013_case;
use ilt_optics::OpticsConfig;
use ilt_runtime::{
    field_hash, planned_job_list, run_batch_resume, BatchCase, BatchConfig, SimulatorCache, TileGrid,
};

use crate::probes::{self, Shapes};
use crate::stats::{median, sum};
use crate::{check_mask, repeated_setup, Ctx, Report, Rng};

const GRID: usize = 1024;
const TILE: usize = 512;
const HALO: usize = 64;
const THREADS: usize = 2;
/// Case 4 leaves 6 of its 9 tiles blank, case 10 leaves 3.
const CASES: [usize; 2] = [4, 10];

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let tracer = &ctx.tracer;
    let mut cases: Vec<BatchCase> = CASES
        .iter()
        .map(|&id| {
            let layout = iccad2013_case(id);
            BatchCase { name: format!("case{id}"), target: layout.rasterize(GRID), nm_per_px: layout.nm_per_px(GRID) }
        })
        .collect();
    Rng::new(ctx.seed, 2).shuffle(&mut cases);
    let ckpt = ctx.out_dir.join(format!("batch-wal-{}", std::process::id()));
    let config = BatchConfig {
        threads: THREADS,
        tile: TILE,
        halo: HALO,
        optics: OpticsConfig { num_kernels: 10, ..OpticsConfig::default() },
        ilt: IltConfig { early_exit_window: Some(15), ..IltConfig::default() },
        schedule: schedules::our_fast(),
        evaluate_stitched: true,
        checkpoint: Some(ckpt.clone()),
        ..BatchConfig::default()
    };
    let tile_optics = OpticsConfig { grid: TILE, nm_per_px: cases[0].nm_per_px, ..config.optics.clone() };
    let eval_optics = OpticsConfig { grid: GRID, ..tile_optics.clone() };
    let (setup_s, repeats, cache) = repeated_setup(|| {
        let cache = SimulatorCache::new();
        for cfg in [&tile_optics, &eval_optics] {
            tracer.span("optics.build", 0, || cache.get_or_build(cfg))?;
        }
        Ok(cache)
    })?;
    report.setup_s = setup_s;
    report.setup_repeats = repeats;

    let t = Instant::now();
    let plan = tracer.span("runtime.plan", 0, || planned_job_list(&cases, &config))?;
    let plan_ms = t.elapsed().as_secs_f64() * 1e3;
    let tiles = TileGrid::new(GRID, TILE, HALO)?;
    let empty: Vec<bool> = plan
        .iter()
        .map(|job| {
            let case = cases.iter().find(|c| c.name == job.case).expect("planned case exists");
            let (gr, gc) = job.tile.expect("clips are tiled");
            let spec = tiles.specs().into_iter().find(|s| (s.grid_row, s.grid_col) == (gr, gc)).expect("tile exists");
            tiles.extract(&case.target, &spec).as_slice().iter().all(|v| *v == 0.0)
        })
        .collect();

    let (hits0, misses0) = (cache.hits(), cache.misses());
    let mut reference: Option<Vec<u64>> = None;
    let (mut tile_ms, mut batch_s) = (Vec::new(), Vec::new());
    let mut first = None;
    let t0 = Instant::now();
    let (mut attempts, mut last_s) = (0, 0.0);
    while ctx.another_fits(t0, attempts, last_s) {
        attempts += 1;
        let _ = std::fs::remove_dir_all(&ckpt);
        let t = Instant::now();
        let outcome = tracer.span("runtime.batch", attempts as u64, || {
            run_batch_resume(&cases, &config, &cache, false)
        });
        let wall = t.elapsed().as_secs_f64();
        last_s = wall;
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                report.op(Err(e));
                continue;
            }
        };
        batch_s.push(wall);
        for rec in &outcome.report.records {
            let ok = rec.status.is_done();
            report.op(if ok { Ok(()) } else { Err(format!("tile job {} ended {:?}", rec.job_id, rec.status)) });
            tile_ms.push(rec.wall_ms);
        }
        let hashes: Vec<u64> = outcome.cases.iter().map(|c| field_hash(&c.mask)).collect();
        for c in &outcome.cases {
            if let Err(e) = check_mask(&c.mask, GRID, GRID) {
                report.check_failed(format!("{}: {e}", c.name));
            }
            if c.failed_tiles + c.degraded_tiles + c.cancelled_tiles > 0 {
                report.check_failed(format!("{}: {} failed, {} degraded tiles", c.name, c.failed_tiles, c.degraded_tiles));
            }
        }
        match &reference {
            None => {
                for c in &outcome.cases {
                    match &c.eval {
                        Some(e) => report.quality.add(e, &c.mask),
                        None => report.check_failed(format!("{}: no stitched evaluation", c.name)),
                    }
                }
                reference = Some(hashes);
                first = Some(outcome);
            }
            Some(want) if *want != hashes => report.check_failed("stitched masks differ between repeats".into()),
            Some(_) => {}
        }
    }
    report.window = Some((t0, Instant::now()));
    let _ = std::fs::remove_dir_all(&ckpt);
    let Some(first) = first else { return Err("no batch completed".into()) };
    report.ops_per_s = tile_ms.len() as f64 / sum(&batch_s);
    report.notes.push(format!(
        "batch_tiles_per_s={:.4} over {} batch(es) of {} tiles, batch walls {:.3?} s",
        report.ops_per_s,
        batch_s.len(),
        plan.len(),
        batch_s
    ));
    report.op_ms = tile_ms;

    if tracer.enabled() {
        let recs = &first.report.records;
        let walls: Vec<f64> = recs.iter().map(|r| r.wall_ms).collect();
        let busy = sum(&walls);
        let batch_ms = batch_s[0] * 1e3;
        let lookups = (cache.hits() - hits0 + cache.misses() - misses0) as f64;
        let empty_ms: f64 = recs.iter().filter(|r| empty[r.job_id]).map(|r| r.times.optimize_ms).sum();
        let r = &mut report.layers;
        r.insert("runtime.plan_ms", plan_ms);
        r.insert("runtime.tile_wall_ms_p50", median(&walls));
        r.insert("runtime.tile_sim_ms_sum", recs.iter().map(|r| r.times.sim_ms).sum());
        r.insert("runtime.tile_optimize_ms_sum", recs.iter().map(|r| r.times.optimize_ms).sum());
        r.insert("runtime.tile_evaluate_ms_sum", recs.iter().map(|r| r.times.evaluate_ms).sum());
        r.insert("runtime.pool_busy_frac", busy / (THREADS as f64 * batch_ms));
        r.insert("runtime.tail_ms", batch_ms - busy / THREADS as f64);
        if lookups > 0.0 {
            r.insert("runtime.cache_hit_ratio", (cache.hits() - hits0) as f64 / lookups);
        }
        r.insert("runtime.empty_tile_frac", empty.iter().filter(|e| **e).count() as f64 / empty.len() as f64);
        r.insert("runtime.empty_tile_ms_sum", empty_ms);
        r.insert("runtime.retries", first.report.total_retries() as f64);
        r.insert("runtime.degraded", first.report.degraded_jobs() as f64);
        r.insert("core.optimize_ms", median(&recs.iter().map(|r| r.times.optimize_ms).collect::<Vec<_>>()));

        // Probe the compute layers on the busiest tile of the first clip.
        let case = &first.cases[0];
        let src = cases.iter().find(|c| c.name == case.name).expect("case exists");
        let spec = tiles
            .specs()
            .into_iter()
            .max_by(|a, b| {
                let ink = |s| tiles.extract(&src.target, s).as_slice().iter().sum::<f64>();
                ink(a).total_cmp(&ink(b))
            })
            .expect("tiles exist");
        let target: Field2D = tiles.extract(&src.target, &spec);
        let mask = tiles.extract(&case.mask, &spec);
        let sim = cache.get_or_build(&tile_optics)?;
        let schedule = schedules::clamp_scales(
            &schedules::clamp_effective_pitch(&config.schedule, src.nm_per_px, config.max_eff_nm),
            TILE,
            32,
        );
        let shapes = Shapes { sim: &sim, target: &target, schedule: &schedule, ilt: &config.ilt, mask: &mask };
        probes::probe_layers(tracer, &shapes, &mut report);
    }
    Ok(report)
}
