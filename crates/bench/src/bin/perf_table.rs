//! Engine performance table: interned-engine specialise time, memo
//! behaviour, and sequential vs level-parallel pipeline builds.
//!
//! Run: `cargo run --release -p mspec-bench --bin perf_table`
//!
//! Prints the table and writes machine-readable results to
//! `BENCH_pr1.json` in the current directory. The committed
//! `BENCH_pr1.json` also records the interned engine's speedup over a
//! reconstruction of the string-based engine it replaced; that
//! reconstruction has since been deleted, so a re-run writes the
//! interned times only.

use mspec_bench::workloads::{library_args, POWER};
use mspec_bench::{cores, time_min, us};
use mspec_core::{BuildMode, Pipeline, SpecArg};
use mspec_lang::eval::{with_big_stack, Value};
use mspec_lang::{Json, QualName, ToJson};
use mspec_testkit::{layered_program, library_program, LayeredShape, LibraryShape};
use std::collections::BTreeSet;
use std::time::Duration;

struct PerfReport {
    cores: usize,
    e5_unfold: Duration,
    e5_polyvariant: Duration,
    memo_probes: usize,
    memo_hits: usize,
    build_sequential: Duration,
    build_parallel: Duration,
    levels: usize,
    widest_level: usize,
}

impl PerfReport {
    fn build_speedup(&self) -> f64 {
        self.build_sequential.as_secs_f64() / self.build_parallel.as_secs_f64()
    }

    fn memo_hit_rate(&self) -> f64 {
        if self.memo_probes == 0 {
            return 0.0;
        }
        self.memo_hits as f64 / self.memo_probes as f64
    }
}

fn nanos(d: Duration) -> Json {
    Json::Num(d.as_nanos())
}

/// `f64` carried in integer JSON (the hand-rolled JSON layer is
/// integer-only by design): a ratio of `2.37x` encodes as `2370`.
fn milli_ratio(x: f64) -> Json {
    Json::Num((x * 1000.0).round().max(0.0) as u128)
}

impl ToJson for PerfReport {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("pr", Json::str("pr1")),
            ("cores", Json::Num(self.cores as u128)),
            ("spec_e5_n64_unfold", Json::obj([("interned_ns", nanos(self.e5_unfold))])),
            (
                "spec_e5_n64_polyvariant",
                Json::obj([("interned_ns", nanos(self.e5_polyvariant))]),
            ),
            (
                "memo_power_ds",
                Json::obj([
                    ("memo_probes", Json::Num(self.memo_probes as u128)),
                    ("memo_hits", Json::Num(self.memo_hits as u128)),
                    ("memo_hit_rate_milli", milli_ratio(self.memo_hit_rate())),
                ]),
            ),
            (
                "parallel_build",
                Json::obj([
                    ("levels", Json::Num(self.levels as u128)),
                    ("widest_level", Json::Num(self.widest_level as u128)),
                    ("sequential_ns", nanos(self.build_sequential)),
                    ("parallel_ns", nanos(self.build_parallel)),
                    ("speedup_milli", milli_ratio(self.build_speedup())),
                ]),
            ),
        ])
    }
}

/// Builds an E5 library pipeline, optionally forcing every library
/// function residual (the polyvariant session).
fn library_pipeline(
    modules: usize,
    used_fns: usize,
    exponent: u64,
    force_all: bool,
) -> (Pipeline, QualName) {
    let shape =
        LibraryShape { modules, fns_per_module: 8, used_fns, exponent, cross_module: true };
    let (program, entry) = library_program(&shape);
    let force: BTreeSet<QualName> = if force_all {
        program
            .modules
            .iter()
            .filter(|m| m.name.as_str() != "Main")
            .flat_map(|m| m.defs.iter().map(|d| QualName { module: m.name, name: d.name }))
            .collect()
    } else {
        BTreeSet::new()
    };
    (Pipeline::from_program_with(program, &force).unwrap(), entry)
}

/// Times one specialisation session (minimum over `iters` runs).
fn spec_time(pipeline: &Pipeline, entry: &QualName, iters: usize) -> Duration {
    time_min(iters, || {
        pipeline
            .specialise(entry.module.as_str(), entry.name.as_str(), library_args())
            .unwrap()
    })
    .0
}

fn main() {
    with_big_stack(run);
}

fn run() {
    let cores = cores();

    // --- E5 library scaling, N = 64 modules ---------------------------
    // Two sessions over the same 64-module library. "unfold": the
    // canonical E5 request (everything static unfolds away). "poly-
    // variant": every library function forced residual, so the session
    // exercises the memo, naming and placement machinery heavily.
    let (unfold_pipeline, unfold_entry) = library_pipeline(64, 3, 6, false);
    let e5_unfold = spec_time(&unfold_pipeline, &unfold_entry, 30);
    let (poly_pipeline, poly_entry) = library_pipeline(64, 8, 24, true);
    let e5_polyvariant = spec_time(&poly_pipeline, &poly_entry, 20);

    // --- memo behaviour: a residualising workload --------------------
    // `power {D,S}` residualises (dynamic exponent blocks unfolding);
    // the recursive call re-requests the same specialisation, so the
    // memo table absorbs it — the probe after the first one hits.
    let power = Pipeline::from_source(POWER).unwrap();
    let memo_spec = power
        .specialise("Power", "power", vec![SpecArg::Dynamic, SpecArg::Static(Value::nat(2))])
        .unwrap();

    // --- level-parallel vs sequential pipeline build -----------------
    let shape = LayeredShape { levels: 4, width: 8, fns_per_module: 12, exponent: 5 };
    let (program, _) = layered_program(&shape);
    let forced = BTreeSet::new();
    let build = |mode| {
        let program = program.clone();
        let forced = &forced;
        move || Pipeline::from_program_timed(program.clone(), forced, mode).unwrap()
    };
    let (build_sequential, (_, seq_times)) = time_min(12, build(BuildMode::Sequential));
    let (build_parallel, (_, par_times)) = time_min(12, build(BuildMode::Parallel));
    assert_eq!(seq_times.levels, par_times.levels);

    let report = PerfReport {
        cores,
        e5_unfold,
        e5_polyvariant,
        memo_probes: memo_spec.stats.memo_probes,
        memo_hits: memo_spec.stats.memo_hits,
        build_sequential,
        build_parallel,
        levels: par_times.levels,
        widest_level: par_times.widest_level,
    };

    println!("PR 1 performance table (cores = {cores})");
    println!();
    println!("E5 library scaling, N = 64 modules, specialise-time:");
    println!("  unfold session      interned {} us", us(report.e5_unfold));
    println!("  polyvariant session interned {} us", us(report.e5_polyvariant));
    println!();
    println!(
        "Memo (power {{D,S}}): {} hits / {} probes ({:.0}% hit rate)",
        report.memo_hits,
        report.memo_probes,
        100.0 * report.memo_hit_rate()
    );
    println!();
    println!(
        "Pipeline build, layered graph ({} levels, widest level {}):",
        report.levels, report.widest_level
    );
    println!("  sequential        {} us", us(report.build_sequential));
    println!("  level-parallel    {} us", us(report.build_parallel));
    println!("  speedup           {:>9.2}x", report.build_speedup());
    if cores == 1 {
        println!("  (single-core machine: no parallel speedup is possible here;");
        println!("   the JSON records cores so readers can interpret the ratio)");
    }

    std::fs::write("BENCH_pr1.json", report.to_json_pretty()).expect("write BENCH_pr1.json");
    println!();
    println!("wrote BENCH_pr1.json");
}
