//! trkx end-to-end benchmark.
//!
//! ```text
//! trkx-perf --workload <train-ctd|reco-pileup|serve-stdio> --seed N --seconds S
//!           --trace <0|1> --trkx <path to the trkx binary> --out <dir> [--rev R]
//! ```
//!
//! With `--trace 0` the named workload runs untraced and the last stdout
//! line carries the end-to-end metrics. With `--trace 1` it runs the
//! workload's traced loop instead and the last line carries its
//! per-layer metrics (named with the workload's prefix). `run.py` builds
//! this package and the `trkx` binary, then calls this program; see
//! README.md.

mod mem;
mod reco;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use report::{Provenance, Report};
use std::path::PathBuf;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trkx: PathBuf,
    pub out: PathBuf,
    pub rev: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let seconds = num("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
        trkx: PathBuf::from(get("--trkx")?),
        out: PathBuf::from(get("--out")?),
        rev: get("--rev").unwrap_or_else(|_| "unknown".to_string()),
    })
}

/// Set up `reps` times with the same seed and keep the last result; the
/// reported set-up time is the median, so one slow repetition (a cold
/// page cache, a busy neighbour) does not move it.
pub fn timed_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Free the previous repetition before building the next.
        drop(last.take());
        let t = Instant::now();
        last = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one repetition"),
        stats::median(&times),
    ))
}

const WORKLOADS: [&str; 3] = ["train-ctd", "reco-pileup", "serve-stdio"];

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("create {:?}: {e}", args.out))?;
    let mut prov = Provenance::new(args);
    let mut report = Report::default();
    let r = &mut report;
    match (args.workload.as_str(), args.trace) {
        ("train-ctd", false) => train::run(args, &mut prov, r)?,
        ("train-ctd", true) => train::traced(args, &mut prov, r)?,
        ("reco-pileup", false) => reco::run(args, &mut prov, r)?,
        ("reco-pileup", true) => reco::traced(args, &mut prov, r)?,
        ("serve-stdio", false) => serve::run(args, &mut prov, r)?,
        ("serve-stdio", true) => serve::traced(args, &mut prov, r)?,
        (other, _) => return Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    }
    report.provenance = prov;
    Ok(report)
}

/// `--train-bundle <path>`: the set-up child that trains the five-stage
/// pipeline and saves it (see `reco::bundle_in_child`).
fn train_bundle_mode() -> Option<Result<(), String>> {
    let argv: Vec<String> = std::env::args().collect();
    let i = argv.iter().position(|a| a == "--train-bundle")?;
    Some(match argv.get(i + 1) {
        Some(path) => reco::train_bundle(&PathBuf::from(path)),
        None => Err("--train-bundle needs a path".to_string()),
    })
}

fn main() {
    if let Some(result) = train_bundle_mode() {
        if let Err(e) = result {
            eprintln!("trkx-perf: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trkx-perf: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            let ok = report.emit(&args);
            std::process::exit(if ok { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("trkx-perf: {e}");
            std::process::exit(1);
        }
    }
}
