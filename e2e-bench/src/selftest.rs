//! Sensitivity self-test: does the benchmark pin a known layer slowdown on
//! the right layer?
//!
//! `ILT_FFT_FORCE_SCALAR=1` makes `ilt-fft` take its scalar butterflies,
//! which are bit-identical to the SIMD ones but slower. The test runs the
//! traced `clip_m1_fast` workload twice in child processes, SIMD then
//! scalar, and passes when every `fft.*` time and both clip turnaround
//! times rise while the mask digest and every quality figure stay exactly
//! equal.

use std::process::{Command, ExitCode};

/// What one child run printed.
struct Child {
    kernel: String,
    quality: String,
    tat_p50_s: f64,
    tat_sum_s: f64,
    metrics: String,
}

/// The value after `key=` in `line`, up to the next space.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("{key}="))? + key.len() + 1;
    line[at..].split(' ').next()
}

fn metric(json: &str, name: &str) -> f64 {
    let at = json.find(&format!("\"{name}\":{{\"value\":")).map(|i| i + name.len() + 12);
    at.and_then(|i| json[i..].split([',', '}']).next()?.parse().ok()).unwrap_or(f64::NAN)
}

fn run_child(seed: u64, scalar: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", "clip_m1_fast", "--seed", &seed.to_string(), "--seconds", "1", "--trace", "1"]);
    if scalar {
        cmd.env("ILT_FFT_FORCE_SCALAR", "1");
    } else {
        cmd.env_remove("ILT_FFT_FORCE_SCALAR");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!("child (scalar={scalar}) failed: {text}"));
    }
    let line = |prefix: &str| text.lines().find(|l| l.starts_with(prefix)).unwrap_or("").to_string();
    let tat = line("# clip_tat_p50_s=");
    Ok(Child {
        kernel: line("# stamp").split("\"fft_kernel\":\"").nth(1).and_then(|r| r.split('"').next()).unwrap_or("").to_string(),
        quality: line("# quality"),
        tat_p50_s: field(&tat, "clip_tat_p50_s").and_then(|v| v.parse().ok()).unwrap_or(f64::NAN),
        tat_sum_s: field(&tat, "clip_tat_sum_s").and_then(|v| v.parse().ok()).unwrap_or(f64::NAN),
        metrics: text.lines().last().unwrap_or("").to_string(),
    })
}

pub fn run(seed: u64) -> ExitCode {
    let (simd, scalar) = match (run_child(seed, false), run_child(seed, true)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            println!("self-test: {e}");
            return ExitCode::from(1);
        }
    };
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        println!("{} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failures.push(what);
        }
    };
    check(simd.kernel != "scalar", format!("default run uses a SIMD kernel ({})", simd.kernel));
    check(scalar.kernel == "scalar", format!("forced run uses the scalar kernel ({})", scalar.kernel));
    for name in ["fft.forward_real_us", "fft.inverse_padded_us", "fft.forward_cropped_us"] {
        let (a, b) = (metric(&simd.metrics, name), metric(&scalar.metrics, name));
        check(b > a, format!("{name} rises: {a:.1} -> {b:.1} ({:+.1}%)", (b / a - 1.0) * 100.0));
    }
    for (name, a, b) in [
        ("clip_tat_p50_s", simd.tat_p50_s, scalar.tat_p50_s),
        ("clip_tat_sum_s", simd.tat_sum_s, scalar.tat_sum_s),
    ] {
        check(b > a, format!("{name} rises: {a:.3} -> {b:.3} ({:+.1}%)", (b / a - 1.0) * 100.0));
    }
    check(
        !simd.quality.is_empty() && simd.quality == scalar.quality,
        format!("mask digest and quality identical: {}", simd.quality.trim_start_matches("# ")),
    );
    if failures.is_empty() {
        println!("SELF_TEST_PASSED");
        ExitCode::SUCCESS
    } else {
        println!("SELF_TEST_FAILED: {}", failures.join("; "));
        ExitCode::from(1)
    }
}
