//! `served_mixed`: an in-process `ilt-server` with 2 job workers, a state
//! directory and a resident-mask cap of 4, so older masks re-hydrate from
//! disk. An open loop of seeded Poisson arrivals below capacity submits
//! small clips, polls the job list until each is `done` and fetches its
//! mask; a seeded few are cancelled and some fetches go back to older
//! masks. A closed loop with the queue kept full then measures capacity.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ilt_field::pgm_bytes;
use ilt_optics::LithoSimulator;
use ilt_runtime::{fnv1a64, json_field_f64, json_field_raw, run_batch, SimulatorCache};
use ilt_server::harness::{self, Conn, Reply};
use ilt_server::{ExecPolicy, JobParams, ServerConfig};

use crate::stats::{median, quantile};
use crate::{repeated_setup, Ctx, Report, Rng};

/// The fixed job mix: small via clips and M1 cases, 4 kernels, each about
/// 0.1-0.2 s of compute. The seed picks the sequence, never the set.
const SPECS: [&str; 6] = [
    "via=1&grid=128&kernels=4&iters=12",
    "via=2&grid=128&kernels=4&iters=12",
    "via=3&grid=128&kernels=4&iters=12",
    "via=5&grid=128&kernels=4&iters=12",
    "case=1&grid=256&kernels=4&iters=4",
    "case=3&grid=256&kernels=4&iters=4",
];
const WORKERS: usize = 2;
const RESIDENT_MASKS: usize = 4;
/// Open-loop arrival rate, jobs/s: about 40% of the closed-loop capacity.
const OPEN_RATE: f64 = 4.0;
const CANCEL_SHARE: f64 = 0.05;
/// Share of submissions after which an older job's mask is fetched again.
const REFETCH_SHARE: f64 = 0.3;
/// Jobs kept in flight by the closed loop, and the jobs it runs.
const CLOSED_DEPTH: usize = 4;
const CLOSED_JOBS: usize = 48;
const POLL_PAUSE: Duration = Duration::from_millis(3);

/// What the checks compare a served mask with.
struct Reference {
    pgm_hash: u64,
    len: usize,
}

/// One submitted job the poller tracks.
struct Pending {
    id: usize,
    spec: usize,
    due: Instant,
    acked: Instant,
    cancel: bool,
}

/// A job whose mask arrived and matched its reference.
struct Finished {
    id: usize,
    spec: usize,
    acked: Instant,
    /// When the poll that saw it `done` returned.
    seen: Instant,
}

#[derive(Default)]
struct Samples {
    latency_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    fetch_ms: Vec<f64>,
    rehydrate_ms: Vec<f64>,
    gen_lag_ms: Vec<f64>,
    rejected: u64,
}

fn timed(conn: &mut Conn, method: &str, path: &str) -> Result<(Reply, f64), String> {
    let t = Instant::now();
    let reply = conn.request(method, path, b"").map_err(|e| format!("{method} {path}: {e}"))?;
    Ok((reply, t.elapsed().as_secs_f64() * 1e3))
}

/// Sum of every `"key":<number>` in `text` (the per-tile records).
fn sum_field(text: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    text.match_indices(&pat)
        .filter_map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse::<f64>().ok()
        })
        .sum()
}

/// Fetches job `id`'s mask and checks it against `want`.
fn fetch_mask(conn: &mut Conn, id: usize, want: &Reference) -> Result<f64, String> {
    let (reply, ms) = timed(conn, "GET", &format!("/v1/jobs/{id}/mask"))?;
    if reply.status != 200 {
        return Err(format!("mask of job {id} answered {}", reply.status));
    }
    if reply.body.len() != want.len || fnv1a64(reply.body.iter().copied()) != want.pgm_hash {
        return Err(format!("CHECK: mask of job {id} differs from the in-process run_batch reference"));
    }
    Ok(ms)
}

fn submit(conn: &mut Conn, spec: usize, s: &mut Samples) -> Result<(usize, Instant), String> {
    let (reply, ms) = timed(conn, "POST", &format!("/v1/jobs?{}", SPECS[spec]))?;
    if reply.status == 503 || reply.status == 429 {
        s.rejected += 1;
        return Err(format!("submit refused with {}", reply.status));
    }
    if reply.status != 202 {
        return Err(format!("submit answered {}: {}", reply.status, reply.text()));
    }
    s.submit_ms.push(ms);
    Ok((harness::job_id(&reply)?, Instant::now()))
}

/// `(id, summary)` for each job in a `GET /v1/jobs` reply.
fn job_summaries(list: &str) -> Vec<(usize, &str)> {
    list.split("{\"id\":")
        .skip(1)
        .filter_map(|chunk| Some((chunk[..chunk.find(',')?].parse().ok()?, chunk)))
        .collect()
}

/// Polls `GET /v1/jobs` once and settles every pending job that reached a
/// terminal state: a done job's mask is fetched and checked, a job we
/// cancelled may end `cancelled`. Each list poll sees every job, so one
/// slow job never holds up the detection of the others.
fn poll_pending(
    conn: &mut Conn,
    pending: &mut Vec<Pending>,
    refs: &[Reference],
    s: &mut Samples,
    report: &mut Report,
) -> Result<Vec<(Pending, Finished)>, String> {
    let (reply, ms) = timed(conn, "GET", "/v1/jobs")?;
    s.poll_ms.push(ms);
    let seen = Instant::now();
    if reply.status != 200 {
        return Err(format!("job list answered {}", reply.status));
    }
    let text = reply.text();
    let states: HashMap<usize, &str> = job_summaries(&text).into_iter().collect();
    let mut done = Vec::new();
    let mut i = 0;
    while i < pending.len() {
        let summary = states.get(&pending[i].id).copied().unwrap_or("");
        let state = ilt_runtime::json_field_str(summary, "state").unwrap_or_default();
        if !matches!(state.as_str(), "done" | "failed" | "cancelled") {
            i += 1;
            continue;
        }
        let p = pending.remove(i);
        let outcome = match state.as_str() {
            "done" if summary.contains("\"failed_tiles\":0,\"degraded_tiles\":0") => {
                fetch_mask(conn, p.id, &refs[p.spec]).map(|ms| {
                    s.fetch_ms.push(ms);
                    let f = Finished { id: p.id, spec: p.spec, acked: p.acked, seen };
                    done.push((p, f));
                })
            }
            "done" => Err(format!("CHECK: job {} finished with failed or degraded tiles", p.id)),
            "cancelled" if p.cancel => Ok(()),
            other => Err(format!("job {} ended {other}", p.id)),
        };
        record(report, outcome);
    }
    Ok(done)
}

/// Re-fetches an older finished job's mask; a fetch counts as a
/// re-hydration when the detail says the mask was not resident.
fn refetch(conn: &mut Conn, id: usize, spec: usize, refs: &[Reference], s: &mut Samples) -> Result<(), String> {
    let (reply, ms) = timed(conn, "GET", &format!("/v1/jobs/{id}"))?;
    s.poll_ms.push(ms);
    let resident = !reply.text().contains("\"mask_resident\":false");
    let ms = fetch_mask(conn, id, &refs[spec])?;
    if resident {
        s.fetch_ms.push(ms);
    } else {
        s.rehydrate_ms.push(ms);
    }
    Ok(())
}

fn record(report: &mut Report, outcome: Result<(), String>) {
    match outcome {
        Err(e) if e.starts_with("CHECK") => report.check_failed(e),
        other => report.op(other),
    }
}

/// Job specs in seeded order, in blocks that each hold every spec once,
/// so every run submits nearly the same mix.
struct SpecSequence {
    rng: Rng,
    block: Vec<usize>,
}

impl SpecSequence {
    fn new(seed: u64, stream: u64) -> Self {
        SpecSequence { rng: Rng::new(seed, stream), block: Vec::new() }
    }

    fn next(&mut self) -> usize {
        if self.block.is_empty() {
            self.block = (0..SPECS.len()).collect();
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop().expect("refilled above")
    }
}

/// The open loop: the calling thread submits on schedule over one
/// connection and, after some submissions, re-fetches an older mask; a
/// second thread polls the job list and fetches finished masks over
/// another. Returns the jobs that finished.
fn open_loop(
    ctx: &Ctx,
    addr: SocketAddr,
    refs: &[Reference],
    report: &mut Report,
    s: &mut Samples,
    span: Duration,
) -> Vec<Finished> {
    let mut rng = Rng::new(ctx.seed, 3);
    let mut specs = SpecSequence::new(ctx.seed, 4);
    let start = Instant::now() + Duration::from_millis(20);
    let (tx, rx) = mpsc::channel::<Pending>();
    let finished: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
    let (ps, poller_report, jobs) = std::thread::scope(|scope| {
        let finished = &finished;
        let poller = scope.spawn(move || {
            let mut conn = Conn::open(addr);
            let (mut ps, mut pr, mut jobs) = (Samples::default(), Report::default(), Vec::new());
            let mut pending = Vec::new();
            let mut open = true;
            while open || !pending.is_empty() {
                if pending.is_empty() {
                    match rx.recv() {
                        Ok(p) => pending.push(p),
                        Err(_) => break,
                    }
                }
                loop {
                    match rx.try_recv() {
                        Ok(p) => pending.push(p),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                match poll_pending(&mut conn, &mut pending, refs, &mut ps, &mut pr) {
                    Ok(done) => {
                        for (p, f) in done {
                            if !p.cancel {
                                let got = Instant::now();
                                ps.latency_ms.push((got - p.due).as_secs_f64() * 1e3);
                                ctx.tracer.record("served.job", p.id as u64, p.due, got);
                                finished.lock().unwrap().push((f.id, f.spec));
                                jobs.push(f);
                            }
                        }
                    }
                    Err(e) => {
                        pr.op(Err(e));
                        break;
                    }
                }
                std::thread::sleep(POLL_PAUSE);
            }
            (ps, pr, jobs)
        });
        let arrivals = (OPEN_RATE * span.as_secs_f64()).round() as usize;
        // A Poisson process conditioned on its count: a fixed number of
        // arrivals at sorted uniform times, so every seed offers the same load.
        let mut offsets: Vec<f64> = (0..arrivals).map(|_| rng.unit() * span.as_secs_f64()).collect();
        offsets.sort_by(f64::total_cmp);
        let mut conn = Conn::open(addr);
        for offset in offsets {
            let due = start + Duration::from_secs_f64(offset);
            let spec = specs.next();
            let cancel = rng.unit() < CANCEL_SHARE;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            s.gen_lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            match submit(&mut conn, spec, s) {
                Ok((id, acked)) => {
                    if cancel {
                        match timed(&mut conn, "DELETE", &format!("/v1/jobs/{id}")) {
                            // 409: the job raced to a terminal state first.
                            Ok((r, _)) if r.status == 202 || r.status == 409 => {}
                            Ok((r, _)) => record(report, Err(format!("cancel answered {}", r.status))),
                            Err(e) => record(report, Err(e)),
                        }
                    }
                    let _ = tx.send(Pending { id, spec, due, acked, cancel });
                }
                Err(e) => record(report, Err(e)),
            }
            let older = {
                let done = finished.lock().unwrap();
                (done.len() > RESIDENT_MASKS && rng.unit() < REFETCH_SHARE)
                    .then(|| done[rng.below(done.len() - RESIDENT_MASKS)])
            };
            if let Some((id, spec)) = older {
                let outcome = refetch(&mut conn, id, spec, refs, s);
                record(report, outcome);
            }
        }
        drop(tx);
        poller.join().expect("poller thread")
    });
    report.attempted += poller_report.attempted;
    report.failed += poller_report.failed;
    report.check_failures.extend(poller_report.check_failures);
    report.notes.extend(poller_report.notes);
    s.latency_ms.extend(ps.latency_ms);
    s.poll_ms.extend(ps.poll_ms);
    s.fetch_ms.extend(ps.fetch_ms);
    jobs
}

/// The closed loop: keeps `CLOSED_DEPTH` jobs in flight until
/// `CLOSED_JOBS` have finished; returns jobs completed per second between
/// the first `CLOSED_DEPTH` completions (ramp-up) and the last.
fn closed_loop(ctx: &Ctx, addr: SocketAddr, refs: &[Reference], report: &mut Report, s: &mut Samples) -> f64 {
    let mut specs = SpecSequence::new(ctx.seed, 5);
    let mut conn = Conn::open(addr);
    let mut pending: Vec<Pending> = Vec::new();
    let (mut submitted, mut completed) = (0usize, 0usize);
    let mut warm = None;
    let mut last = Instant::now();
    loop {
        while pending.len() < CLOSED_DEPTH && submitted < CLOSED_JOBS {
            let spec = specs.next();
            submitted += 1;
            match submit(&mut conn, spec, s) {
                Ok((id, acked)) => pending.push(Pending { id, spec, due: acked, acked, cancel: false }),
                Err(e) => record(report, Err(e)),
            }
        }
        if pending.is_empty() {
            break;
        }
        match poll_pending(&mut conn, &mut pending, refs, s, report) {
            Ok(done) if !done.is_empty() => {
                completed += done.len();
                last = Instant::now();
                if warm.is_none() && completed >= CLOSED_DEPTH {
                    warm = Some((completed, last));
                }
            }
            Ok(_) => std::thread::sleep(POLL_PAUSE),
            Err(e) => {
                report.op(Err(e));
                break;
            }
        }
    }
    match warm {
        Some((n0, t0)) if completed > n0 => (completed - n0) as f64 / (last - t0).as_secs_f64(),
        _ => f64::NAN,
    }
}

/// Server-side figures from each finished job's detail: its wall time,
/// the share of it outside the ILT stages, and its wait in the queue.
fn job_details(addr: SocketAddr, jobs: &[Finished]) -> Result<(Vec<f64>, Vec<f64>, Vec<f64>), String> {
    let mut conn = Conn::open(addr);
    let (mut wall, mut overhead, mut queue_wait) = (Vec::new(), Vec::new(), Vec::new());
    for f in jobs {
        let (reply, _) = timed(&mut conn, "GET", &format!("/v1/jobs/{}", f.id))?;
        let detail = reply.text();
        let wall_ms = json_field_f64(&detail, "wall_ms")?;
        let records = json_field_raw(&detail, "records").unwrap_or("");
        let stages = sum_field(records, "sim_ms") + sum_field(records, "optimize_ms") + sum_field(records, "evaluate_ms");
        wall.push(wall_ms);
        overhead.push(wall_ms - stages);
        queue_wait.push((f.seen - f.acked).as_secs_f64() * 1e3 - wall_ms);
    }
    Ok((wall, overhead, queue_wait))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

fn start_server(state_dir: &Path) -> Result<(SocketAddr, JoinHandle<std::io::Result<()>>), String> {
    let _ = std::fs::remove_dir_all(state_dir);
    let server = ilt_server::Server::bind(ServerConfig {
        workers: WORKERS,
        queue_cap: 64,
        state_dir: Some(state_dir.to_path_buf()),
        max_resident_masks: RESIDENT_MASKS,
        keep_alive_requests: 1_000_000,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind server: {e}"))?;
    let addr = server.local_addr();
    Ok((addr, std::thread::spawn(move || server.run())))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let tracer = &ctx.tracer;
    let plans = SPECS
        .iter()
        .map(|q| JobParams::from_saved(q, Vec::new(), &ExecPolicy::default())?.plan())
        .collect::<Result<Vec<_>, _>>()?;
    let state_root: PathBuf = ctx.out_dir.join(format!("served-state-{}", std::process::id()));

    // Set-up: the simulators every spec needs, and a bound server.
    let mut servers = Vec::new();
    let (setup_s, repeats, ()) = repeated_setup(|| {
        let mut built = HashSet::new();
        for (case, config) in &plans {
            let optics = ilt_optics::OpticsConfig {
                grid: case.target.shape().0,
                nm_per_px: case.nm_per_px,
                ..config.optics.clone()
            };
            if built.insert(SimulatorCache::key(&optics)) {
                tracer.span("optics.build", 0, || LithoSimulator::new(optics))?;
            }
        }
        let dir = state_root.join(format!("setup-{}", servers.len()));
        let (addr, handle) = start_server(&dir)?;
        servers.push((addr, handle, dir));
        Ok(())
    })?;
    report.setup_s = setup_s;
    report.setup_repeats = repeats;
    // Only the last server bound is used; the earlier ones drain now.
    let (addr, handle, state_dir) = servers.pop().expect("set-up bound a server");
    for (old, h, _) in servers {
        harness::shutdown(old, h);
    }

    // References: each spec run in-process through run_batch.
    let cache = SimulatorCache::new();
    let mut refs = Vec::new();
    for (case, config) in &plans {
        let outcome = run_batch(std::slice::from_ref(case), config, &cache)?;
        let c = &outcome.cases[0];
        crate::check_mask(&c.mask, case.target.shape().0, case.target.shape().1)?;
        let eval = c.eval.as_ref().ok_or("reference run has no evaluation")?;
        report.quality.add(eval, &c.mask);
        let pgm = pgm_bytes(&c.mask, 0.0, 1.0);
        refs.push(Reference { pgm_hash: fnv1a64(pgm.iter().copied()), len: pgm.len() });
    }

    // Warm the server's own simulator cache: one job per spec, checked.
    let (mut conn, mut warm) = (Conn::open(addr), Samples::default());
    let mut pending = Vec::new();
    for spec in 0..SPECS.len() {
        match submit(&mut conn, spec, &mut warm) {
            Ok((id, acked)) => pending.push(Pending { id, spec, due: acked, acked, cancel: false }),
            Err(e) => record(&mut report, Err(e)),
        }
    }
    while !pending.is_empty() {
        if let Err(e) = poll_pending(&mut conn, &mut pending, &refs, &mut warm, &mut report) {
            return Err(format!("warm-up: {e}"));
        }
        std::thread::sleep(POLL_PAUSE);
    }
    drop(conn);
    let mut s = Samples::default();
    let bytes0 = dir_bytes(&state_dir);

    let t0 = Instant::now();
    // The closed loop's fixed job count takes about a quarter of a 20 s run.
    let open = Duration::from_secs_f64(ctx.seconds * 0.7);
    let finished = open_loop(ctx, addr, &refs, &mut report, &mut s, open);
    let open_jobs = s.latency_ms.len() + s.rejected as usize;
    let capacity = tracer.span("served.closed_loop", 0, || closed_loop(ctx, addr, &refs, &mut report, &mut s));
    report.window = Some((t0, Instant::now()));
    let submitted = s.submit_ms.len().max(1) as f64;
    let state_bytes = dir_bytes(&state_dir).saturating_sub(bytes0) as f64 / submitted;
    let details = if tracer.enabled() { Some(job_details(addr, &finished)) } else { None };
    harness::shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state_root);

    report.ops_per_s = capacity;
    report.notes.push(format!(
        "served: {open_jobs} open-loop jobs at {OPEN_RATE}/s, capacity {capacity:.3} jobs/s, {} re-hydrated fetches, {} refused",
        s.rehydrate_ms.len(),
        s.rejected
    ));
    report.op_ms = s.latency_ms.clone();
    if tracer.enabled() {
        let r = &mut report.layers;
        r.insert("server.submit_ms_p50", median(&s.submit_ms));
        r.insert("server.poll_ms_p50", median(&s.poll_ms));
        r.insert("server.mask_fetch_ms_p50", median(&s.fetch_ms));
        r.insert("server.rehydrate_ms_p50", median(&s.rehydrate_ms));
        let (wall, overhead, queue_wait) = details.expect("traced runs collect details")?;
        r.insert("server.queue_wait_ms_p90", quantile(&queue_wait, 0.9));
        r.insert("server.job_wall_ms_p50", median(&wall));
        r.insert("server.job_overhead_ms_p50", median(&overhead));
        r.insert("server.state_bytes_per_job", state_bytes);
        r.insert("server.rejected", s.rejected as f64);
        r.insert("server.rehydrated", s.rehydrate_ms.len() as f64);
        r.insert("server.gen_lag_ms_p90", quantile(&s.gen_lag_ms, 0.9));
    }
    Ok(report)
}
