//! The repository benchmark: front-door latency on three seeded workloads,
//! plus a traced run that splits the same requests into per-layer spans.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <xsltmark_uncached|lookup_churn|scan_paged> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. The process exits
//! non-zero when any served byte differs from the reference. See
//! `perfbench/README.md` for the workloads and every metric.

mod oracle;
mod report;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Duration;
use workload::Workload;

/// Where the benchmark keeps what it writes: span dumps and the paged
/// catalog's heap files. Relative to the directory it runs from.
const OUT_DIR: &str = "perfbench/out";

/// What one invocation does.
enum Mode {
    /// A measured run (untraced or traced).
    Run { seconds: u64, trace: bool },
    /// Child process: print the workload's reference digests.
    References,
    /// Child process: set the workload up once and print the seconds taken.
    Setup,
}

struct Args {
    workload: Workload,
    seed: u64,
    mode: Mode,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--child" => child = Some(value),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let mode = match child.as_deref() {
        Some("references") => Mode::References,
        Some("setup") => Mode::Setup,
        Some(other) => return Err(format!("unknown child mode {other}")),
        None => Mode::Run {
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    };
    Ok(Args {
        workload,
        seed,
        mode,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The paged catalog puts its heap files in the OS temp directory; keep
    // them inside the checkout. Set before any thread exists.
    let tmp = std::path::Path::new(OUT_DIR).join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp);

    match args.mode {
        Mode::References => {
            print!(
                "{}",
                oracle::encode(&oracle::references(args.workload, args.seed))
            );
            ExitCode::SUCCESS
        }
        Mode::Setup => {
            let (_fixture, took) = workload::setup(args.workload, args.seed, Vec::new());
            println!("{}", took.as_secs_f64());
            ExitCode::SUCCESS
        }
        Mode::Run { seconds, trace } => {
            let outcome = run(
                &args.workload,
                args.seed,
                Duration::from_secs(seconds),
                trace,
            );
            match outcome {
                Ok(result) => {
                    println!("{}", result.json_line());
                    if result.correct {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            }
        }
    }
}

/// References first, in a child process, so neither their memory nor the
/// parsed reference documents count against `peak_rss_mb`; then the
/// measured run.
fn run(
    workload: &Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
) -> Result<report::RunResult, String> {
    let refs = oracle::decode(&child(workload, seed, "references")?)?;
    if refs.len() != workload.request_kinds() {
        return Err(format!(
            "{} references for {} requests",
            refs.len(),
            workload.request_kinds()
        ));
    }
    if trace {
        let (fixture, _) = workload::setup(*workload, seed, refs);
        Ok(trace::run_traced(&fixture, seconds))
    } else {
        // Set-up time is the median of several set-ups. The extra ones run
        // in child processes so the measured process's heap holds exactly
        // one catalog.
        let mut setups = Vec::with_capacity(workload::SETUP_REPEATS);
        for _ in 1..workload::SETUP_REPEATS {
            let out = child(workload, seed, "setup")?;
            setups.push(
                out.trim()
                    .parse::<f64>()
                    .map_err(|e| format!("setup child: {e}"))?,
            );
        }
        let (fixture, took) = workload::setup(*workload, seed, refs);
        setups.push(took.as_secs_f64());
        Ok(workload::run_untraced(
            &fixture,
            seconds,
            report::median(&mut setups),
        ))
    }
}

/// Run this binary again in a child mode and return its standard output.
/// `output()` waits for the child, so no process outlives the run.
fn child(workload: &Workload, seed: u64, mode: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--child",
            mode,
        ])
        .output()
        .map_err(|e| format!("spawning {mode} child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{mode} child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("{mode} child output: {e}"))
}
