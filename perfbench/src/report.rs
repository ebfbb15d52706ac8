//! Run configuration, the result record and small process helpers.

use crate::trace::median;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups made before the window (and, for `daemon_mix`, again after it).
pub const SETUP_REPEATS: usize = 7;
/// A workload that can set up again between ops does so once per this
/// much of its window. The machine's speed switches between levels that
/// can last seconds, so set-ups made only before the window would all
/// catch one level; spread over the run, their median is steadier.
pub const SETUP_GAP: Duration = Duration::from_secs(2);

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `mspec` binary (`daemon_mix` spawns `mspec serve`).
    pub mspec: Option<PathBuf>,
    /// Per-run artefact directory (spans, daemon stderr, temp trees).
    pub run_dir: PathBuf,
    /// Corrupts one expected value before checking: the gate's
    /// negative test.
    pub inject_wrong: bool,
}

impl Cfg {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Errors, refusals and wrong outputs among them.
    pub failed: u64,
    /// Outputs that disagreed with the oracle (a subset of `failed`).
    pub mismatches: u64,
    /// Outputs compared against the oracle.
    pub checked: u64,
    pub metrics: Vec<Metric>,
    /// Time metrics before machine-speed scaling, and the calibration
    /// itself (full record only; see `speed.rs`).
    pub unscaled: Vec<Metric>,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
}

impl Report {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(what);
        }
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.fail(format!("wrong output: {what}"));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The full record: metrics with sample counts plus the run's
    /// identity (seed, cores, source revision).
    pub fn record_json(&self, cfg: &Cfg) -> String {
        let m = metrics_with_samples(&self.metrics);
        let unscaled = metrics_with_samples(&self.unscaled);
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"cores\":{},\
             \"revision\":{},\"attempted\":{},\"failed\":{},\"failed_frac\":{},\
             \"checked\":{},\"mismatches\":{},\"failures\":[{}],\"metrics\":{{{m}}},\
             \"unscaled\":{{{unscaled}}}}}",
            cfg.workload,
            cfg.seed,
            num(cfg.seconds),
            u8::from(cfg.trace),
            cores(),
            json_str(&revision()),
            self.attempted,
            self.failed,
            num(self.failed as f64 / self.attempted.max(1) as f64),
            self.checked,
            self.mismatches,
            failures.join(","),
        )
    }

    /// The one-line result the benchmark contract asks for.
    pub fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                m,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                x.name,
                num(x.value),
                x.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// `"name":{"value":…,"unit":…,"samples":…}` for each metric.
fn metrics_with_samples(list: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in list.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            m,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
            x.name,
            num(x.value),
            x.unit,
            x.samples
        );
    }
    m
}

/// A finite JSON number with all its digits.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The source revision: `MSPEC_BENCH_REV` (set by `run.py`: the git
/// commit, or a hash of the sources when the checkout is no repository).
pub fn revision() -> String {
    std::env::var("MSPEC_BENCH_REV").unwrap_or_else(|_| "unknown".to_string())
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Microseconds since `t0`.
pub fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// The timed set-ups of one run; `setup_s` is their median.
#[derive(Debug, Default)]
pub struct Setups {
    times: Vec<f64>,
    /// Set-ups made during the window so far.
    in_window: u32,
}

impl Setups {
    /// Runs one set-up and records its time. `setup` adds to its argument
    /// the time it spends on anything but the program's own set-up work,
    /// such as writing its inputs or waiting for a reply; that time is
    /// left out.
    pub fn time<T>(
        &mut self,
        setup: impl FnOnce(&mut Duration) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut untimed = Duration::ZERO;
        let t0 = Instant::now();
        let out = setup(&mut untimed)?;
        self.times
            .push(t0.elapsed().saturating_sub(untimed).as_secs_f64());
        Ok(out)
    }

    /// [`SETUP_REPEATS`] timed set-ups; keeps the last result, and
    /// `teardown` disposes of the others. `setup` gets the number of
    /// set-ups made before it in the run.
    pub fn repeat<T>(
        &mut self,
        mut setup: impl FnMut(usize, &mut Duration) -> Result<T, String>,
        mut teardown: impl FnMut(T),
    ) -> Result<T, String> {
        let mut last: Option<T> = None;
        for _ in 0..SETUP_REPEATS {
            if let Some(prev) = last.take() {
                teardown(prev);
            }
            let r = self.times.len();
            last = Some(self.time(|untimed| setup(r, untimed))?);
        }
        last.ok_or_else(|| "no set-up ran".to_string())
    }

    /// Called between two ops with the window time `elapsed` so far:
    /// once per [`SETUP_GAP`] of it, drops `state` and sets it up again,
    /// so two set-ups are never resident at once (the seed makes the new
    /// state equal to the old). Returns the state to use from now on.
    pub fn between_ops<T>(
        &mut self,
        elapsed: Duration,
        state: T,
        setup: impl FnOnce(&mut Duration) -> Result<T, String>,
    ) -> Result<T, String> {
        if elapsed < SETUP_GAP * (self.in_window + 1) {
            return Ok(state);
        }
        drop(state);
        let state = self.time(setup)?;
        self.in_window += 1;
        Ok(state)
    }

    /// The median set-up time in seconds and the number of set-ups.
    pub fn median(&self) -> (f64, usize) {
        (median(&self.times).unwrap_or(0.0), self.times.len())
    }
}

/// Writes dirty file data back to disk (`sync`), so writeback and the
/// discards of removed files never land inside a timed interval.
pub fn flush_writes() {
    let _ = std::process::Command::new("sync").status();
}

/// Removes a directory tree, ignoring a missing one.
pub fn remove_tree(p: &Path) {
    let _ = std::fs::remove_dir_all(p);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metrics.push(Metric {
            name: "op_us_p50".into(),
            unit: "us",
            value: 12.5,
            samples: 3,
        });
        assert_eq!(
            r.result_json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"op_us_p50\":{\"value\":12.5,\"unit\":\"us\"}}}"
        );
        r.mismatch("x".into());
        assert!(!r.correct());
        assert!(r
            .result_json()
            .starts_with("{\"correct\":false,\"attempted\":3,\"failed\":1,"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
