//! The standing mspec benchmark.
//!
//! ```text
//! perfbench --workload <build_dag|spec_run|daemon_mix> --seed N --seconds S
//!           --trace <0|1> [--mspec PATH] [--run-dir DIR]
//! ```
//!
//! Runs one seeded workload for `S` seconds, checks every output against
//! an oracle, and prints the full record and then, as the last line, the
//! result object: end-to-end metrics with `--trace 0`, per-layer metrics
//! from a separate traced run with `--trace 1`. Exits non-zero when any
//! op failed or any output was wrong. `perfbench/README.md` lists the
//! metrics and workloads.

mod build_dag;
mod daemon;
mod exec;
mod gen;
mod metrics;
mod report;
mod spec_run;
mod speed;
mod trace;

use report::{Cfg, Report};
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload <build_dag|spec_run|daemon_mix> --seed N \
                     --seconds S --trace <0|1> [--mspec PATH] [--run-dir DIR]";

fn parse_args(args: &[String]) -> Result<Cfg, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut mspec = None;
    let mut run_dir = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?.clone()),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--mspec" => mspec = Some(PathBuf::from(val()?)),
            "--run-dir" => run_dir = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !["build_dag", "spec_run", "daemon_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let run_dir = run_dir.unwrap_or_else(|| {
        PathBuf::from(".bench_runs").join(format!(
            "{workload}-s{seed}-t{}-p{}",
            u8::from(trace),
            std::process::id()
        ))
    });
    Ok(Cfg {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        mspec,
        run_dir,
        inject_wrong: false,
    })
}

/// Runs the configured workload on a thread with a deep stack (the engine
/// and the tree evaluator recurse on program depth).
fn run(cfg: Cfg) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.run_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.run_dir.display()))?;
    let handle = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(move || match cfg.workload.as_str() {
            "build_dag" => build_dag::run(&cfg),
            "spec_run" => spec_run::run(&cfg),
            _ => daemon::run(&cfg),
        })
        .map_err(|e| format!("cannot spawn the workload thread: {e}"))?;
    handle
        .join()
        .map_err(|_| "the workload panicked".to_string())?
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let record_cfg = cfg.clone();
    match run(cfg) {
        Ok(rep) => {
            for f in &rep.failures {
                eprintln!("perfbench: {f}");
            }
            let record = rep.record_json(&record_cfg);
            let _ = std::fs::write(
                record_cfg.run_dir.join("result.json"),
                format!("{record}\n"),
            );
            println!("{record}");
            println!("{}", rep.result_json());
            if !rep.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workload: &str, tag: &str) -> Cfg {
        let mut c = parse_args(
            &[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0.3",
                "--trace",
                "0",
            ]
            .map(String::from),
        )
        .expect("valid arguments");
        c.run_dir =
            std::env::temp_dir().join(format!("perfbench-test-{tag}-{}", std::process::id()));
        c
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seed".into(), "x".into()]).is_err());
        let ok = [
            "--workload",
            "spec_run",
            "--seed",
            "1",
            "--seconds",
            "2",
            "--trace",
            "1",
        ];
        assert!(parse_args(&ok.map(String::from)).expect("valid").trace);
    }

    /// The correctness gate: a clean run passes, and a run whose first
    /// output is corrupted before the oracle check fails.
    #[test]
    fn injected_wrong_value_fails_the_run() {
        for w in ["spec_run", "build_dag"] {
            let good = cfg(w, &format!("{w}-clean"));
            let good_dir = good.run_dir.clone();
            let clean = run(good).expect("runs");
            report::remove_tree(&good_dir);
            assert!(clean.correct(), "{w}: {:?}", clean.failures);
            assert!(clean.checked > 0);
            let mut bad = cfg(w, &format!("{w}-bad"));
            bad.inject_wrong = true;
            let dir = bad.run_dir.clone();
            let rep = run(bad).expect("runs");
            assert!(
                !rep.correct() && rep.mismatches == 1,
                "{w}: {:?}",
                rep.failures
            );
            assert!(rep.result_json().starts_with("{\"correct\":false"));
            report::remove_tree(&dir);
        }
    }
}
