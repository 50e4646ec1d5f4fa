//! The CI perf-regression gate over the bench harness's JSON summary,
//! built on `asip_explorer::perf` (shared with the bench's own
//! end-of-run report).
//!
//! ```text
//! cargo bench --bench explore
//! cargo run --release -p asip-bench --bin perf -- check
//! cargo run --release -p asip-bench --bin perf -- update
//! ```
//!
//! - `check` diffs the current summary (default
//!   `target/asip-bench-explore.json`) against the blessed baseline
//!   (default `benches/baseline.json`), prints the comparison table,
//!   and exits **2** when any perf series regresses beyond the
//!   tolerance — so CI can gate on it after `cargo bench --bench
//!   explore`. Direction and noise rules are `asip_explorer::perf`'s:
//!   `*_ms` lower-is-better (with a 2 ms noise floor), `*_per_calib`
//!   lower-is-better at no more than 15 %, `*_ops_per_sec`
//!   higher-is-better, everything else informational.
//! - `update` blesses the current summary as the new baseline
//!   (overwrites `benches/baseline.json`); run it after an intentional
//!   perf change and commit the file.
//!
//! The tolerance is `--tolerance PCT` or the `ASIP_PERF_TOLERANCE`
//! environment variable (percent; default 25). CI machines vary, so
//! its job passes a wider tolerance than the local default — see
//! `docs/perf.md` for the workflow.

use asip_explorer::perf;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: perf <check | update> [--baseline PATH] [--current PATH] [--tolerance PCT]");
    std::process::exit(1)
}

/// `crates/asip-bench` → two levels up is the workspace root.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command: Option<String> = None;
    let mut baseline = workspace_root().join("benches/baseline.json");
    let mut current = workspace_root().join("target/asip-bench-explore.json");
    let mut tolerance = match std::env::var("ASIP_PERF_TOLERANCE") {
        Ok(v) if !v.is_empty() => v.parse().unwrap_or_else(|_| {
            eprintln!("perf: ASIP_PERF_TOLERANCE must be a number, got `{v}`");
            std::process::exit(1)
        }),
        _ => perf::DEFAULT_TOLERANCE_PCT,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                baseline = PathBuf::from(args.get(i + 1).unwrap_or_else(|| usage()));
                i += 2;
            }
            "--current" => {
                current = PathBuf::from(args.get(i + 1).unwrap_or_else(|| usage()));
                i += 2;
            }
            "--tolerance" => {
                tolerance = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            cmd @ ("check" | "update") if command.is_none() => {
                command = Some(cmd.to_string());
                i += 1;
            }
            _ => usage(),
        }
    }
    let Some(command) = command else { usage() };

    match command.as_str() {
        "update" => {
            let summary = match perf::load_summary(&current) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("perf: {e}");
                    eprintln!("perf: run `cargo bench --bench explore` first");
                    return ExitCode::FAILURE;
                }
            };
            let text = match std::fs::read_to_string(&current) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("perf: cannot re-read {}: {e}", current.display());
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(&baseline, text) {
                eprintln!("perf: cannot write {}: {e}", baseline.display());
                return ExitCode::FAILURE;
            }
            println!(
                "blessed {} series from {} into {}",
                summary.series.len(),
                current.display(),
                baseline.display()
            );
            ExitCode::SUCCESS
        }
        "check" => {
            let base = match perf::load_summary(&baseline) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("perf: {e}");
                    eprintln!("perf: bless one with `perf update` and commit it");
                    return ExitCode::FAILURE;
                }
            };
            let cur = match perf::load_summary(&current) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("perf: {e}");
                    eprintln!("perf: run `cargo bench --bench explore` first");
                    return ExitCode::FAILURE;
                }
            };
            let comparison = perf::compare(&base, &cur, tolerance);
            println!("baseline: {}", baseline.display());
            println!("current:  {}", current.display());
            println!("{comparison}");
            if comparison.is_pass() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        _ => unreachable!("parser only admits check|update"),
    }
}
