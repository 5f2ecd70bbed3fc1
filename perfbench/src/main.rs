//! `esm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--work-dir <dir>]`
//!
//! Prints one JSON result line last on stdout: end-to-end metrics when
//! untraced, per-layer metrics when traced (the per-layer table goes to
//! stderr and, with every span, to `<work-dir>/trace-<workload>-<seed>.json`).
//! Exits non-zero when a correctness check failed.

use std::path::PathBuf;
use std::process::ExitCode;

use esm_perfbench::{report, run, Config, WORKLOADS};

fn usage(why: &str) -> ExitCode {
    eprintln!("{why}");
    eprintln!(
        "usage: esm-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--work-dir <dir>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Parse the command line into a workload name and its settings.
fn parse(mut args: impl Iterator<Item = String>) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
        tiny: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
                    return Err(bad(&"must be a positive number"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--work-dir" => cfg.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(why) => return usage(&why),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::from(2);
    }
    let out = run(&workload, &cfg).expect("workload name checked by parse");
    if cfg.trace {
        eprint!("{}", report::layer_table(&workload, &out));
        let path = cfg
            .work_dir
            .join(format!("trace-{workload}-{}.json", cfg.seed));
        if let Err(e) = std::fs::write(&path, report::trace_json(&workload, cfg.seed, &out)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("spans and counters: {}", path.display());
    }
    println!("{}", report::result_line(&out, cfg.trace));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
