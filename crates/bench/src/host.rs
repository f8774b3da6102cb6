//! The host block every committed `BENCH_*.json` carries, so readers and
//! the tier-1 gates can tell which numbers are comparable: `cores` says
//! how much parallelism the host offered, speedups only compare within
//! one `simd` backend, and `git_rev` names the tree that was measured.

/// The host block as a JSON object: cores, SIMD backend, CPU model and
/// git revision.
pub fn host_json() -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let simd = setstream_hash::backend().name();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"cores\": {cores}, \"simd\": \"{simd}\", \"cpu\": \"{}\", \"git_rev\": \"{}\"}}",
        cpu.replace('"', "'"),
        git_rev()
    )
}

/// The commit checked out in the source tree this binary was built from,
/// suffixed `-dirty` when the tree has uncommitted changes, or
/// `"unknown"` where git cannot tell.
pub fn git_rev() -> String {
    let dir = env!("CARGO_MANIFEST_DIR");
    std::process::Command::new("git")
        .args(["-C", dir, "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}

/// Write a `BENCH_*.json` document to `path` and say so, exiting with
/// status 1 if it cannot be written.
pub fn write_json(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {path}");
}
