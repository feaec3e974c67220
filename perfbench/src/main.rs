//! One end-to-end benchmark of the MOD server over its wire protocol.
//!
//! ```text
//! perfbench --workload <near_churn|adhoc_read> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The server runs in this process behind a loopback `NetServer`; the
//! load generator drives it only through `NetClient` / `Follower`
//! connections, from at most two threads over at most two connections.
//! Writers and readers are open loop: op `i` is due at `i / rate`, and
//! every latency counts from that due time, so a stall is charged to
//! every op queued behind it.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! wire phase, then replays the workload's op stream in-process on one
//! thread, timing each call into a layer's public function, and prints
//! the per-layer metrics (see `LAYERS.md`). Correctness gates run after
//! the timed section in both modes; any mismatch is counted in `failed`
//! and makes the command exit non-zero.
//!
//! The last stdout line is the result object; the line before it holds
//! the run metadata.

mod adhoc_read;
mod common;
mod layers;
mod near_churn;
mod stats;

use stats::Report;

/// Set-ups per `--trace 0` run, half before the measured phase and
/// half after it; `setup_s` reports their median.
pub const SETUP_REPS: usize = 12;

/// Run-local files (the `near_churn` WAL directories), relative to the
/// working directory and removed before exit.
pub const RUN_DIR: &str = ".perfbench_tmp";

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <near_churn|adhoc_read> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| *s > 0),
            "--trace" => trace = value.parse::<u8>().ok().filter(|t| *t <= 1),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let trace = trace == 1;
    let mut report = Report::default();
    let started = std::time::Instant::now();
    match workload.as_str() {
        "near_churn" => near_churn::run(seed, seconds, trace, &mut report),
        "adhoc_read" => adhoc_read::run(seed, seconds, trace, &mut report),
        _ => usage(),
    }
    let _ = std::fs::remove_dir(RUN_DIR);
    report.meta("workload", &workload);
    report.meta("seed", seed);
    report.meta("trace", trace as u8);
    report.meta(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report.meta("attempted", report.attempted);
    report.meta("failed", report.failed);
    report.meta(
        "failed_frac",
        stats::ratio(report.failed as f64, report.attempted as f64),
    );
    report.meta("wall_s", format!("{:.1}", started.elapsed().as_secs_f64()));
    for e in &report.errors {
        eprintln!("perfbench: {e}");
    }
    println!("{}", report.meta_json());
    println!("{}", report.result_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
