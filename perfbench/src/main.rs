//! `ngd-perfbench` — the repository benchmark.
//!
//! ```text
//! ngd-perfbench --workload <session_age|batch_detect> --seed <n>
//!               --seconds <s> --trace <0|1> --daemon <path to ngd-serve>
//! ```
//!
//! `batch_detect` re-runs this binary as `ngd-perfbench --detect-phase …`
//! for its timed rounds (see [`batch::detect_phase`]).
//!
//! Run from the repository root (normally through `perfbench/run.py`,
//! which builds both binaries first).  Diagnostics go to standard error;
//! the last line of standard output is the result object.  See
//! `perfbench/README.md` for the workloads and metrics.

mod batch;
mod common;
mod daemon;
mod inputs;
mod serve;
mod stats;
mod trace;

use common::{Checks, Ctx};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["session_age", "batch_detect"];

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "ngd-perfbench: {problem}\n\
         usage: ngd-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> --daemon <ngd-serve>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--detect-phase") {
        return batch::detect_phase(&argv[2..]);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut args = argv.into_iter().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("missing value for {flag}"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--daemon" => daemon = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown argument {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(daemon)) =
        (workload, seed, seconds, trace, daemon)
    else {
        return usage("every argument is required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = WorkDir(PathBuf::from(format!(
        ".perfbench_work/{workload}-{}",
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("ngd-perfbench: cannot create {}: {e}", work.0.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        daemon,
        work: work.0.clone(),
        out: PathBuf::from(format!(".perfbench_out/{workload}-seed{seed}")),
        parallelism: nproc.min(2),
    };
    eprintln!(
        "ngd-perfbench: workload {workload}, seed {seed}, {seconds} s, trace {}, nproc {nproc}, processors/workers {}",
        u8::from(trace),
        ctx.parallelism
    );

    let mut checks = Checks::default();
    let outcome = match workload.as_str() {
        "batch_detect" => batch::run(&ctx, &mut checks),
        _ => Ok(serve::run(&ctx, &mut checks)),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("ngd-perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    for (name, value, _) in &outcome.metrics {
        checks.expect(value.is_finite(), || format!("{name} is not a number"));
    }
    for message in &checks.messages {
        eprintln!("CHECK FAILED: {message}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failures == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
