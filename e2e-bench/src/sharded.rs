//! `sharded_job`: an `ilt-cluster` `Coordinator` over 2 in-process
//! loopback `Worker` replicas, each running one tile at a time. One client
//! runs back-to-back jobs of one 512-px M1 clip in 256-px tiles through
//! `run_job` + `assemble_batch`. The tile compute is small, so the wire
//! protocol (JSONL records, base64 masks, hash checks), dispatch and
//! reassembly are a visible share of each job.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::Instant;

use ilt_cluster::{ClusterConfig, Coordinator, ExecPolicy, JobParams, Worker, WorkerConfig};
use ilt_optics::LithoSimulator;
use ilt_runtime::{assemble_batch, field_hash, planned_job_list, run_batch, SimulatorCache};

use crate::stats::{median, sum};
use crate::{check_mask, repeated_setup, Ctx, Report, Rng};

const REPLICAS: usize = 2;
/// One clip per job, alternating between these; the seed picks which
/// comes first.
const QUERIES: [&str; 2] = [
    "case=1&grid=512&kernels=4&tile=256&halo=32&iters=3&threads=1&eval=0",
    "case=2&grid=512&kernels=4&tile=256&halo=32&iters=3&threads=1&eval=0",
];

fn spawn_worker() -> Result<(String, JoinHandle<()>), String> {
    let worker = Worker::bind(WorkerConfig { addr: "127.0.0.1:0".into(), ..WorkerConfig::default() })
        .map_err(|e| format!("bind worker: {e}"))?;
    let addr = worker.local_addr().map_err(|e| format!("worker addr: {e}"))?.to_string();
    Ok((addr, std::thread::spawn(move || worker.run())))
}

/// Posts `/v1/shutdown` to a worker and joins its thread.
fn stop_worker((addr, handle): (String, JoinHandle<()>)) {
    if let Ok(mut stream) = TcpStream::connect(&addr) {
        let _ = stream.write_all(
            format!("POST /v1/shutdown HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 0\r\nconnection: close\r\n\r\n")
                .as_bytes(),
        );
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
    }
    let _ = handle.join();
}

struct Job {
    query: &'static str,
    cases: Vec<ilt_runtime::BatchCase>,
    config: ilt_runtime::BatchConfig,
    plan: Vec<ilt_runtime::PlannedJob>,
    mask_hash: u64,
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let tracer = &ctx.tracer;
    let mut queries = QUERIES.to_vec();
    Rng::new(ctx.seed, 6).shuffle(&mut queries);
    let mut jobs = Vec::new();
    for query in queries {
        let (case, config) = JobParams::from_saved(query, Vec::new(), &ExecPolicy::default())?.plan()?;
        let cases = vec![case];
        let plan = planned_job_list(&cases, &config)?;
        jobs.push(Job { query, cases, config, plan, mask_hash: 0 });
    }

    // Set-up: the tile simulator, the worker replicas and the coordinator.
    let tile_optics = {
        let (case, config) = (&jobs[0].cases[0], &jobs[0].config);
        ilt_optics::OpticsConfig { grid: config.tile, nm_per_px: case.nm_per_px, ..config.optics.clone() }
    };
    let mut replica_sets: Vec<Vec<(String, JoinHandle<()>)>> = Vec::new();
    let (setup_s, repeats, coordinator) = repeated_setup(|| {
        tracer.span("optics.build", 0, || LithoSimulator::new(tile_optics.clone()))?;
        let workers = (0..REPLICAS).map(|_| spawn_worker()).collect::<Result<Vec<_>, _>>()?;
        let coordinator = Coordinator::new(ClusterConfig {
            workers: workers.iter().map(|(a, _)| a.clone()).collect(),
            // One shard at a time per replica: a replica is one thread.
            max_inflight_per_worker: 1,
            ..ClusterConfig::default()
        });
        replica_sets.push(workers);
        coordinator
    })?;
    report.setup_s = setup_s;
    report.setup_repeats = repeats;
    // Only the last replicas bound are used; the earlier ones stop now.
    let workers = replica_sets.pop().expect("set-up bound the replicas");
    for w in replica_sets.into_iter().flatten() {
        stop_worker(w);
    }

    // References: the same jobs in-process through run_batch, evaluated.
    let cache = SimulatorCache::new();
    for job in &mut jobs {
        let evaluated = ilt_runtime::BatchConfig { evaluate_stitched: true, ..job.config.clone() };
        let outcome = run_batch(&job.cases, &evaluated, &cache)?;
        let c = &outcome.cases[0];
        check_mask(&c.mask, 512, 512)?;
        report.quality.add(c.eval.as_ref().ok_or("reference run has no evaluation")?, &c.mask);
        job.mask_hash = field_hash(&c.mask);
    }

    let mut next_id = 0usize;
    let mut run_one = |job: &Job, report: &mut Report| -> Option<(f64, f64, f64)> {
        next_id += 1;
        let t = Instant::now();
        let outputs = tracer.span("cluster.run_job", next_id as u64, || {
            coordinator.run_job(next_id, job.query, &[], &job.plan, &job.config.cancel, &job.config.progress)
        });
        let run_ms = t.elapsed().as_secs_f64() * 1e3;
        let outputs = match outputs {
            Ok(o) => o,
            Err(e) => {
                report.op(Err(e));
                return None;
            }
        };
        let tile_ms: f64 = outputs.iter().map(|o| o.record.wall_ms).sum();
        let t = Instant::now();
        let outcome = tracer.span("cluster.assemble", next_id as u64, || {
            assemble_batch(&job.cases, &job.config, outputs, &cache, 0.0)
        });
        let assemble_ms = t.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Err(e) => report.op(Err(e)),
            Ok(o) => {
                let c = &o.cases[0];
                if c.failed_tiles + c.degraded_tiles + c.cancelled_tiles > 0 {
                    report.check_failed(format!("job {next_id}: {} failed tiles", c.failed_tiles));
                } else if let Err(e) = check_mask(&c.mask, 512, 512) {
                    report.check_failed(format!("job {next_id}: {e}"));
                } else if field_hash(&c.mask) != job.mask_hash {
                    report.check_failed(format!("job {next_id}: stitched mask differs from run_batch"));
                } else {
                    report.op(Ok(()));
                    return Some((run_ms, assemble_ms, tile_ms));
                }
            }
        }
        None
    };

    // Warm the workers' simulator caches: one checked job per clip.
    for job in &jobs {
        run_one(job, &mut report);
    }
    let stats0 = (coordinator.stats().shard_ms.count(), coordinator.stats().shard_ms.sum_ms());
    let (mut job_ms, mut run_ms, mut assemble_ms, mut tile_ms) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut clip_ms = vec![Vec::new(); jobs.len()];
    let mut attempts = 0;
    let t0 = Instant::now();
    let mut last_s = 0.0;
    while ctx.another_fits(t0, attempts, last_s) {
        let k = attempts % jobs.len();
        attempts += 1;
        let t = Instant::now();
        if let Some((r, a, w)) = run_one(&jobs[k], &mut report) {
            clip_ms[k].push(r + a);
            job_ms.push(r + a);
            run_ms.push(r);
            assemble_ms.push(a);
            tile_ms.push(w);
        }
        last_s = t.elapsed().as_secs_f64();
    }
    report.window = Some((t0, Instant::now()));
    let stats = coordinator.stats();
    let (redispatched, speculated) = (stats.shards_redispatched.get(), stats.shards_speculated.get());
    let shards = stats.shard_ms.count() - stats0.0;
    let shard_mean_ms = (stats.shard_ms.sum_ms() - stats0.1) / shards.max(1) as f64;
    drop(coordinator);
    for w in workers {
        stop_worker(w);
    }

    report.ops_per_s = job_ms.len() as f64 / (sum(&job_ms) / 1e3);
    // The two clips cost different amounts, so a median over all jobs would
    // sit between two clusters; each clip's median is stable.
    let per_clip: Vec<f64> = clip_ms.iter().map(|v| median(v)).collect();
    report.notes.push(format!(
        "sharded: {} jobs of {} tiles on {REPLICAS} replicas, {shards} shards; per-clip median job {per_clip:.3?} ms",
        job_ms.len(),
        jobs[0].plan.len()
    ));
    report.op_p50_ms = Some(sum(&per_clip) / per_clip.len() as f64);
    report.op_ms = job_ms;
    if tracer.enabled() {
        let r = &mut report.layers;
        r.insert("cluster.run_job_ms_p50", median(&run_ms));
        r.insert("cluster.assemble_ms_p50", median(&assemble_ms));
        r.insert("cluster.shard_latency_ms_mean", shard_mean_ms);
        r.insert("cluster.dispatch_overhead_frac", 1.0 - sum(&tile_ms) / (REPLICAS as f64 * sum(&run_ms)));
        r.insert("cluster.redispatched", redispatched as f64);
        r.insert("cluster.speculated", speculated as f64);
    }
    Ok(report)
}
