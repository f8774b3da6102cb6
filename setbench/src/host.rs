//! Provenance recorded with every result: which machine, which build,
//! which inputs.

use crate::json::quote;
use std::hint::black_box;
use std::time::Instant;

/// CPU model from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// How many cores' worth of throughput two busy threads actually get:
/// `2 · t(one thread) / t(two threads at once)` for a fixed spin. About
/// 2.0 on two dedicated cores, about 1.0 when they share one.
pub fn effective_parallelism() -> f64 {
    fn spin() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..40_000_000u64 {
            x = black_box(x.rotate_left(7) ^ 0x2545_f491_4f6c_dd1d).wrapping_mul(3);
        }
        black_box(x);
    }
    let t = Instant::now();
    spin();
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(spin);
        spin();
    });
    2.0 * one / t.elapsed().as_secs_f64()
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The provenance block as a JSON object.
pub fn provenance_json(seed: u64, mode: &str, trace: bool, seconds: f64) -> String {
    format!(
        "{{\"cpu\": {}, \"nproc\": {}, \"effective_parallelism\": {:.3}, \"simd\": {}, \
         \"git_rev\": {}, \"seed\": {seed}, \"mode\": {}, \"trace\": {trace}, \"seconds\": {seconds}}}",
        quote(&cpu_model()),
        nproc(),
        effective_parallelism(),
        quote(setstream_hash::backend().name()),
        quote(&git_rev()),
        quote(mode),
    )
}
