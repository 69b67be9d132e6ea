//! End-to-end and per-layer benchmark of the multilevel-ilt workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload clip_m1_fast --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- --self-test
//! ```
//!
//! One run sets up (simulators, server, workers), computes the reference
//! outputs its checks compare against, then drives one workload for about
//! `--seconds` seconds. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See README.md
//! for the workloads, the metrics and the map between them.

mod batch;
mod clip;
mod probes;
mod served;
mod selftest;
mod sharded;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ilt_field::Field2D;
use ilt_metrics::EvalReport;

use trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["clip_m1_fast", "batch_tiled", "served_mixed", "sharded_job"];

/// Bounds on how often set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPEATS: usize = 25;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Scratch space inside the checkout (server state dirs, trace files).
    pub out_dir: PathBuf,
}

impl Ctx {
    /// True while another operation that took `last_s` still fits in the
    /// measuring window started at `t0`; always true before the first one.
    pub fn another_fits(&self, t0: Instant, done: usize, last_s: f64) -> bool {
        done == 0 || t0.elapsed().as_secs_f64() + last_s <= self.seconds
    }
}

/// Mask quality summed over a workload's masks, and a digest of the masks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quality {
    pub l2_nm2: f64,
    pub pvb_nm2: f64,
    /// Sum of |EPE| over every measurement site: unlike the violation
    /// count it is never 0, so a relative bound applies to it.
    pub epe_abs_nm: f64,
    pub epe_violations: usize,
    pub shots: f64,
    pub masks: usize,
    /// Wrapping sum of the masks' `field_hash`es (order-independent).
    pub digest: u64,
}

impl Quality {
    pub fn add(&mut self, r: &EvalReport, mask: &Field2D) {
        self.l2_nm2 += r.l2_nm2;
        self.pvb_nm2 += r.pvband_nm2;
        self.epe_abs_nm += r.epe.sites.iter().map(|s| s.displacement_nm.abs()).sum::<f64>();
        self.epe_violations += r.epe_violations();
        self.shots += r.shots as f64;
        self.masks += 1;
        self.digest = self.digest.wrapping_add(ilt_runtime::field_hash(mask));
    }

    /// The `# quality` line the self-test compares across runs.
    pub fn line(&self) -> String {
        format!(
            "quality masks={} digest={:016x} l2_nm2={} pvb_nm2={} epe_abs_nm={} epe_violations={} shots={}",
            self.masks, self.digest, self.l2_nm2, self.pvb_nm2, self.epe_abs_nm, self.epe_violations, self.shots
        )
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed (errors, refusals, failed checks).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, with what was wrong.
    pub check_failures: Vec<String>,
    /// Median of the set-up repeats, seconds, and how many there were.
    pub setup_s: f64,
    pub setup_repeats: usize,
    /// Latency of each completed operation, ms.
    pub op_ms: Vec<f64>,
    /// `op_p50_ms` when the workload defines it otherwise than as the
    /// median of `op_ms`.
    pub op_p50_ms: Option<f64>,
    /// Completed work per second (clips, tiles or jobs).
    pub ops_per_s: f64,
    /// Quality summed over the workload's fixed input set.
    pub quality: Quality,
    /// Start and end of the measured phase.
    pub window: Option<(Instant, Instant)>,
    /// Per-layer metrics the workload itself measured (traced run).
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form `# ` lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn op_p50(&self) -> f64 {
        self.op_p50_ms.unwrap_or_else(|| stats::median(&self.op_ms))
    }

    /// Counts one attempted operation; `Err` counts it failed and keeps why.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(format!("failed: {e}"));
            }
        }
    }

    /// Records a failed output check: the operation counts as failed too.
    pub fn check_failed(&mut self, what: String) {
        self.failed += 1;
        self.check_failures.push(what);
    }
}

/// Checks a produced mask: right shape, finite, binary.
pub fn check_mask(mask: &Field2D, rows: usize, cols: usize) -> Result<(), String> {
    if mask.shape() != (rows, cols) {
        return Err(format!("mask is {:?}, expected {rows}x{cols}", mask.shape()));
    }
    if let Some(v) = mask.as_slice().iter().find(|v| !(**v == 0.0 || **v == 1.0)) {
        return Err(format!("mask holds non-binary value {v}"));
    }
    Ok(())
}

/// Runs set-up `f` at least `SETUP_REPEATS` times and until `SETUP_MIN_S`
/// seconds are spent (at most `SETUP_MAX_REPEATS` times), so a cheap set-up
/// is still timed over enough repeats to be steady. Returns the median
/// seconds, the repeat count and the value of the last repeat.
pub fn repeated_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(f64, usize, T), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let v = f()?;
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_REPEATS && start.elapsed().as_secs_f64() >= SETUP_MIN_S;
        if enough || times.len() >= SETUP_MAX_REPEATS {
            return Ok((stats::median(&times), times.len(), v));
        }
    }
}

/// Splitmix64: the seeded generator behind every workload's choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 30.0, trace: false, self_test: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value()? == "1",
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if !(args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// `git rev-parse HEAD` when the working directory is the top of a git
/// checkout; a directory above it does not count.
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// High-water resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn stamp(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"git_rev\":\"{}\",\"nproc\":{nproc},\"cpu\":\"{}\",\"fft_kernel\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        git_rev(),
        cpu_model().replace('"', "'"),
        ilt_fft::active_kernel()
    )
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Report, String> {
    match name {
        "clip_m1_fast" => clip::run(ctx),
        "batch_tiled" => batch::run(ctx),
        "served_mixed" => served::run(ctx),
        "sharded_job" => sharded::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn end_to_end(r: &Report) -> Vec<Metric> {
    let ok_frac = if r.attempted == 0 { 0.0 } else { 1.0 - r.failed as f64 / r.attempted as f64 };
    vec![
        Metric { name: "setup_s", value: r.setup_s, unit: "s" },
        Metric { name: "op_p50_ms", value: r.op_p50(), unit: "ms" },
        Metric { name: "ops_per_s", value: r.ops_per_s, unit: "1/s" },
        Metric { name: "ok_frac", value: ok_frac, unit: "frac" },
        Metric { name: "l2_nm2", value: r.quality.l2_nm2, unit: "nm2" },
        Metric { name: "pvb_nm2", value: r.quality.pvb_nm2, unit: "nm2" },
        Metric { name: "epe_abs_nm", value: r.quality.epe_abs_nm, unit: "nm" },
        Metric { name: "shots", value: r.quality.shots, unit: "count" },
        Metric { name: "peak_rss_mb", value: peak_rss_mb(), unit: "MB" },
    ]
}

/// Every per-layer metric with its unit, in report order. A workload that
/// does not run a layer, or a run with no sample of a metric, reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("fft.forward_real_us", "us"),
    ("fft.inverse_padded_us", "us"),
    ("fft.forward_cropped_us", "us"),
    ("fft.inverse_padded_gflops", "GFLOP/s"),
    ("field.avg_pool_same_us", "us"),
    ("optics.build_ms", "ms"),
    ("optics.aerial_us", "us"),
    ("optics.vjp_us", "us"),
    ("optics.aerial_full_us", "us"),
    ("optics.print_corners_ms", "ms"),
    ("autodiff.forward_build_us", "us"),
    ("autodiff.backward_us", "us"),
    ("core.optimize_ms", "ms"),
    ("core.iters_low", "count"),
    ("core.iters_high", "count"),
    ("core.iter_low_ms", "ms"),
    ("core.iter_high_ms", "ms"),
    ("core.unattributed_frac", "frac"),
    ("metrics.evaluate_ms", "ms"),
    ("runtime.plan_ms", "ms"),
    ("runtime.tile_wall_ms_p50", "ms"),
    ("runtime.tile_sim_ms_sum", "ms"),
    ("runtime.tile_optimize_ms_sum", "ms"),
    ("runtime.tile_evaluate_ms_sum", "ms"),
    ("runtime.pool_busy_frac", "frac"),
    ("runtime.tail_ms", "ms"),
    ("runtime.cache_hit_ratio", "frac"),
    ("runtime.empty_tile_frac", "frac"),
    ("runtime.empty_tile_ms_sum", "ms"),
    ("runtime.retries", "count"),
    ("runtime.degraded", "count"),
    ("server.submit_ms_p50", "ms"),
    ("server.poll_ms_p50", "ms"),
    ("server.mask_fetch_ms_p50", "ms"),
    ("server.rehydrate_ms_p50", "ms"),
    ("server.queue_wait_ms_p90", "ms"),
    ("server.job_wall_ms_p50", "ms"),
    ("server.job_overhead_ms_p50", "ms"),
    ("server.state_bytes_per_job", "B"),
    ("server.rejected", "count"),
    ("server.rehydrated", "count"),
    ("server.gen_lag_ms_p90", "ms"),
    ("cluster.run_job_ms_p50", "ms"),
    ("cluster.assemble_ms_p50", "ms"),
    ("cluster.shard_latency_ms_mean", "ms"),
    ("cluster.dispatch_overhead_frac", "frac"),
    ("cluster.redispatched", "count"),
    ("cluster.speculated", "count"),
    ("trace.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
];

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn result_line(correct: bool, r: &Report, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, json_number(m.value), m.unit))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.attempted,
        r.failed,
        body.join(",")
    )
}

/// Prints the human-readable lines that precede the result.
fn print_notes(r: &Report) {
    for note in &r.notes {
        println!("# {note}");
    }
    println!("# {}", r.quality.line());
    for f in &r.check_failures {
        println!("# CHECK FAILED: {f}");
    }
    let (n, p50, p90) = (r.op_ms.len(), stats::median(&r.op_ms), stats::quantile(&r.op_ms, 0.9));
    let tail = match stats::tail(&r.op_ms) {
        Some((p, v)) if p > 50.0 => format!("p{p}={v:.3} ms is the highest percentile with ten samples beyond it"),
        _ => "no percentile above p50 has ten samples beyond it".into(),
    };
    println!("# op latency: n={n} p50={p50:.3} ms p90={p90:.3} ms; {tail}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return selftest::run(args.seed);
    }
    println!("# stamp {}", stamp(&args));
    let out_dir = PathBuf::from("e2e-bench").join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("e2e-bench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    let mut ctx = Ctx { seed: args.seed, seconds: args.seconds, tracer: Tracer::new(false), out_dir };

    let plain = match run_workload(&args.workload, &ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2e-bench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    print_notes(&plain);
    let mut correct = plain.check_failures.is_empty();

    let (report, metrics) = if !args.trace {
        let m = end_to_end(&plain);
        (plain, m)
    } else {
        // The traced run repeats the workload with spans on; the untraced
        // run above is its overhead baseline.
        ctx.tracer = Tracer::new(true);
        let mut traced = match run_workload(&args.workload, &ctx) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("e2e-bench: {} (traced): {e}", args.workload);
                return ExitCode::from(1);
            }
        };
        print_notes(&traced);
        correct &= traced.check_failures.is_empty();
        let mut layers = std::mem::take(&mut traced.layers);
        let build_ms = stats::sum(&ctx.tracer.durations_ms("optics.build")) / traced.setup_repeats as f64;
        layers.insert("optics.build_ms", build_ms);
        if let Some((from, to)) = traced.window {
            let covered_s = ctx.tracer.top_level_covered_ms(from, to) / 1e3;
            layers.insert("trace.coverage", covered_s / (to - from).as_secs_f64());
        }
        layers.insert("trace.overhead_frac", traced.op_p50() / plain.op_p50() - 1.0);
        let path = ctx.out_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = ctx.tracer.write_jsonl(&path) {
            eprintln!("e2e-bench: writing {}: {e}", path.display());
        }
        println!("# spans {:?} -> {}", ctx.tracer.counts(), path.display());
        let metrics = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = layers.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
                Metric { name, value, unit }
            })
            .collect();
        let mut merged = traced;
        merged.attempted += plain.attempted;
        merged.failed += plain.failed;
        (merged, metrics)
    };
    if report.attempted == 0 {
        correct = false;
    }
    println!("{}", result_line(correct, &report, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
