//! The metric catalogue. Every run prints every metric of its kind, in
//! this order, so the output always matches `BENCHMARK.json`: untraced
//! runs the end-to-end list, traced runs the per-layer list. A layer a
//! workload never calls reads 0.

use crate::exec::ExecCounts;
use crate::report::{Metric, Report};
use crate::speed::Speed;
use crate::trace::{median, quantile, Layers};
use mspec_genext::SpecStats;
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_us_p50", "us"),
    ("op_us_p90", "us"),
    ("first_reply_us_p50", "us"),
    ("first_reply_us_p90", "us"),
    ("residual_run_us_p50", "us"),
    ("residual_bytes", "bytes"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_us", "us"),
    ("lang.resolve_us", "us"),
    ("types.infer_us", "us"),
    ("bta.analyse_us", "us"),
    ("cogen.compile_us", "us"),
    ("core.build_us", "us"),
    ("core.build_driver_us", "us"),
    ("cogen.build_us", "us"),
    ("cogen.build_serial_us", "us"),
    ("cogen.build_driver_us", "us"),
    ("cogen.gx_bytes", "bytes"),
    ("cogen.link_us", "us"),
    ("genext.specialise_us", "us"),
    ("genext.steps", "count"),
    ("genext.steps_per_us", "1/us"),
    ("genext.specialisations", "count"),
    ("genext.unfolds", "count"),
    ("genext.memo_probes", "count"),
    ("genext.memo_hit_ratio", "ratio"),
    ("genext.peak_pending", "count"),
    ("genext.residual_nodes", "count"),
    ("lang.resolve_residual_us", "us"),
    ("lang.bytecode_us", "us"),
    ("lang.vm_profile_us", "us"),
    ("lang.fuse_us", "us"),
    ("lang.vm_us", "us"),
    ("lang.vm_instructions", "count"),
    ("lang.fused_windows", "count"),
    ("serve.connect_us_p50", "us"),
    ("serve.daemon_us_p50", "us"),
    ("serve.daemon_us_p90", "us"),
    ("serve.outside_us_p50", "us"),
    ("serve.spec_hit_us_p50", "us"),
    ("serve.spec_miss_us_p50", "us"),
    ("serve.dir_us_p50", "us"),
    ("serve.run_us_p50", "us"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.compiled_hit_ratio", "ratio"),
    ("serve.artefact_revalidations", "count"),
    ("serve.programs_built", "count"),
    ("serve.errors", "count"),
    ("serve.shed", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.in_flight_max", "count"),
    ("cache.disk_stores", "count"),
    ("cache.disk_hits", "count"),
    ("telemetry.recorder_on_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.traced_op_us_p50", "us"),
    ("bench.frontend_share", "ratio"),
    ("bench.engine_vm_share", "ratio"),
    ("bench.specialise_share", "ratio"),
];

/// Measured values by metric name, with their sample counts.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, (f64, usize)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, (value, samples));
    }

    /// The median of `xs`, if any.
    pub fn set_median(&mut self, name: &'static str, xs: &[f64]) {
        if let Some(m) = median(xs) {
            self.set(name, m, xs.len());
        }
    }

    /// Moves the catalogue `list` into `report`, in order.
    pub fn emit(self, report: &mut Report, list: &[(&'static str, &'static str)]) {
        report.metrics.extend(self.into_metrics(list));
    }

    fn into_metrics(self, list: &[(&'static str, &'static str)]) -> Vec<Metric> {
        debug_assert!(
            self.0.keys().all(|k| list.iter().any(|(n, _)| n == k)),
            "a value was set for a metric outside the catalogue"
        );
        list.iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.0.get(name).copied().unwrap_or((0.0, 0));
                Metric {
                    name: name.to_string(),
                    unit,
                    value,
                    samples,
                }
            })
            .collect()
    }
}

/// The time metrics [`timed`] sets, before scaling, and the calibration.
const TIMED: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_us_p50", "us"),
    ("op_us_p90", "us"),
    ("first_reply_us_p50", "us"),
    ("first_reply_us_p90", "us"),
    ("residual_run_us_p50", "us"),
    ("speed.kernel_us_p50", "us"),
    ("speed.factor", "ratio"),
];

/// Time samples of one untraced run of a compute-bound workload, in µs.
#[derive(Debug, Default)]
pub struct Timings {
    /// Each op's latency.
    pub op: Vec<f64>,
    /// Each op's time to its first value.
    pub first: Vec<f64>,
    /// Warm residual runs.
    pub warm: Vec<f64>,
}

/// Sets the time metrics of `t` and the set-up median `setup_s` (over
/// `setups` set-ups) in `v`, scaled by the run's machine-speed factor,
/// and records their unscaled values with the calibration in
/// `rep.unscaled`. Ops per second are per second of op time, which leaves
/// out the benchmark's own work between ops.
pub fn timed(
    v: &mut Values,
    rep: &mut Report,
    speed: &Speed,
    t: &Timings,
    (setup_s, setups): (f64, usize),
) {
    fn fill(v: &mut Values, t: &Timings, f: f64, (setup_s, setups): (f64, usize)) {
        let scaled = |xs: &[f64]| xs.iter().map(|x| x * f).collect::<Vec<_>>();
        let (op, first, warm) = (scaled(&t.op), scaled(&t.first), scaled(&t.warm));
        v.set("setup_s", setup_s * f, setups);
        let op_s: f64 = op.iter().sum::<f64>() / 1e6;
        v.set("ops_per_s", ratio(op.len() as f64, op_s), op.len());
        v.set_median("op_us_p50", &op);
        v.set("op_us_p90", quantile(&op, 0.9).unwrap_or(0.0), op.len());
        v.set_median("first_reply_us_p50", &first);
        v.set(
            "first_reply_us_p90",
            quantile(&first, 0.9).unwrap_or(0.0),
            first.len(),
        );
        v.set_median("residual_run_us_p50", &warm);
    }
    let mut u = Values::default();
    fill(&mut u, t, 1.0, (setup_s, setups));
    record_unscaled(rep, speed, u);
    fill(v, t, speed.factor(), (setup_s, setups));
}

/// Records the time metrics set in `u`, measured before scaling, and the
/// calibration as the run's unscaled figures.
pub fn record_unscaled(rep: &mut Report, speed: &Speed, mut u: Values) {
    u.set("speed.kernel_us_p50", speed.kernel_us(), speed.samples());
    u.set("speed.factor", speed.factor(), speed.samples());
    rep.unscaled = TIMED
        .iter()
        .filter_map(|&(name, unit)| {
            u.0.get(name).map(|&(value, samples)| Metric {
                name: name.to_string(),
                unit,
                value,
                samples,
            })
        })
        .collect();
}

/// Median self time of each span name that maps one-to-one onto a
/// per-layer metric.
pub fn span_medians(v: &mut Values, layers: &Layers) {
    for (span, metric) in [
        ("lang.parse", "lang.parse_us"),
        ("lang.resolve", "lang.resolve_us"),
        ("types.infer", "types.infer_us"),
        ("bta.analyse", "bta.analyse_us"),
        ("cogen.compile", "cogen.compile_us"),
        ("core.build", "core.build_us"),
        ("cogen.build", "cogen.build_us"),
        ("cogen.build_serial", "cogen.build_serial_us"),
        ("cogen.link", "cogen.link_us"),
        ("genext.specialise", "genext.specialise_us"),
        ("lang.resolve_residual", "lang.resolve_residual_us"),
        ("lang.bytecode", "lang.bytecode_us"),
        ("lang.vm_profile", "lang.vm_profile_us"),
        ("lang.fuse", "lang.fuse_us"),
        ("lang.vm", "lang.vm_us"),
    ] {
        v.set_median(metric, &layers.calls_us(span));
    }
}

/// Per op, a composite span's time minus the layer spans it composes
/// (timed on the same input); the median over ops that have it.
pub fn driver_median(layers: &Layers, composite: &str, parts: &[&str]) -> Vec<f64> {
    let parts: Vec<BTreeMap<u64, f64>> = parts.iter().map(|p| layers.per_op_us(p)).collect();
    layers
        .per_op_us(composite)
        .into_iter()
        .map(|(op, t)| {
            t - parts
                .iter()
                .map(|p| p.get(&op).copied().unwrap_or(0.0))
                .sum::<f64>()
        })
        .collect()
}

/// The engine counters of every traced specialisation.
#[derive(Debug, Default)]
pub struct EngineCounts {
    pub stats: Vec<SpecStats>,
}

impl EngineCounts {
    pub fn fill(&self, v: &mut Values, layers: &Layers) {
        let n = self.stats.len();
        if n == 0 {
            return;
        }
        let col = |f: fn(&SpecStats) -> f64| self.stats.iter().map(f).collect::<Vec<f64>>();
        v.set_median("genext.steps", &col(|s| s.steps as f64));
        v.set_median("genext.specialisations", &col(|s| s.specialisations as f64));
        v.set_median("genext.unfolds", &col(|s| s.unfolds as f64));
        v.set_median("genext.memo_probes", &col(|s| s.memo_probes as f64));
        v.set_median("genext.peak_pending", &col(|s| s.peak_pending as f64));
        v.set_median("genext.residual_nodes", &col(|s| s.residual_nodes as f64));
        let probes: usize = self.stats.iter().map(|s| s.memo_probes).sum();
        let hits: usize = self.stats.iter().map(|s| s.memo_hits).sum();
        v.set(
            "genext.memo_hit_ratio",
            ratio(hits as f64, probes as f64),
            n,
        );
        let steps: u64 = self.stats.iter().map(|s| s.steps).sum();
        let us: f64 = layers.calls_us("genext.specialise").iter().sum();
        v.set("genext.steps_per_us", ratio(steps as f64, us), n);
    }
}

/// Folds the VM counters of traced executions into `v`.
pub fn exec_counts(v: &mut Values, counts: &[ExecCounts]) {
    let instr: Vec<f64> = counts
        .iter()
        .flat_map(|c| c.warm_instructions.iter().map(|&n| n as f64))
        .collect();
    v.set_median("lang.vm_instructions", &instr);
    let fused: Vec<f64> = counts
        .iter()
        .filter_map(|c| c.fused_windows.map(|n| n as f64))
        .collect();
    v.set_median("lang.fused_windows", &fused);
}

/// Layer shares of op time and the traced op latency.
pub fn shares(v: &mut Values, layers: &Layers) {
    let ops = layers.op_us();
    v.set_median("bench.traced_op_us_p50", &ops);
    let n = ops.len();
    v.set(
        "bench.frontend_share",
        layers.op_share(|s| {
            s.starts_with("lang.parse")
                || s == "lang.resolve"
                || s.starts_with("types.")
                || s.starts_with("bta.")
                || s.starts_with("cogen.")
                || s.starts_with("core.")
        }),
        n,
    );
    v.set(
        "bench.engine_vm_share",
        layers.op_share(|s| s.starts_with("genext.") || s.starts_with("lang.vm")),
        n,
    );
    v.set(
        "bench.specialise_share",
        layers.op_share(|s| s == "genext.specialise"),
        n,
    );
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
