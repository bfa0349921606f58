//! Shared helpers for the two wall-clock gate harnesses,
//! `trial_latency` and `shard_throughput`: each times its workload,
//! emits a flat JSON report and compares it against a committed
//! `BENCH_*.json` baseline. The paper's experiments are reproduced by
//! `tests/experiments.rs` and `examples/full_report.rs`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Pulls `"key": value` out of a flat JSON report (the committed
/// `BENCH_*.json` baselines are emitted by the bench harnesses
/// themselves, so a scan is all the parsing the gates need).
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Resolves a bench report path: cargo runs bench binaries from the
/// package directory, but the committed `BENCH_*.json` baselines live
/// at the workspace root — so relative paths are anchored there.
pub fn resolve_baseline_path(path: &str) -> std::path::PathBuf {
    let path = std::path::Path::new(path);
    if path.is_absolute() {
        path.to_path_buf()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(path)
    }
}
