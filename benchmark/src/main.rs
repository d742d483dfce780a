//! `ccsql-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--out FILE]`
//! runs one workload and prints every metric, then the result as one
//! JSON line. It exits 1 when a verdict is wrong and 2 on a usage or
//! set-up error.
//!
//! Without `--workload` it runs every workload in a child process of
//! its own, untraced and then traced, and with `--out` collects the
//! children's detailed results into FILE.

use ccsql_benchmark::workloads::Workload;
use std::process::{Command, ExitCode};

/// Seconds one run measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: ccsql-benchmark [--workload asura-pipeline|zoo|mc-sym|mc-spill] \
                     --seed N [--seconds S] [--trace 0|1] [--out FILE]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} expects a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => a.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => a.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match a.workload {
        Some(w) => run_one(w, &a),
        None => run_all(&a),
    }
}

fn run_one(workload: Workload, a: &Args) -> ExitCode {
    let report = match ccsql_benchmark::run(workload, a.seed, a.seconds, a.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &a.out {
        if let Err(e) = std::fs::write(path, report.detail_json() + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    print!("{}", report.render());
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Every workload in a child process of its own, untraced then traced.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = ccsql_benchmark::out_dir();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let mut ok = true;
    let mut runs = Vec::new();
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let part = out_dir.join(format!("run-{}-trace{trace}.json", w.name()));
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .arg("--out")
                .arg(&part)
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("{} trace={trace}: {s}", w.name());
                    ok = false;
                }
                Err(e) => {
                    eprintln!("cannot start {}: {e}", exe.display());
                    return ExitCode::from(2);
                }
            }
            match std::fs::read_to_string(&part) {
                Ok(detail) => runs.push(detail.trim_end().to_string()),
                Err(_) => ok = false,
            }
            let _ = std::fs::remove_file(&part);
        }
    }
    if let Some(path) = &a.out {
        let json = format!(
            "{{\"seed\":{},\"seconds\":{},\"runs\":[\n{}\n]}}\n",
            a.seed,
            a.seconds,
            runs.join(",\n")
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!(
        "{} run(s): {}",
        runs.len(),
        if ok { "all correct" } else { "FAILED" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
