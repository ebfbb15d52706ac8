//! `spec_run`: specialise a seeded static input with a fresh engine, then
//! run the residual cold → profiled → fused.
//!
//! Set-up builds the genexts of `Power`, the interpreter, the
//! self-interpreter and one library DAG. No op does front-end work.

use crate::exec::{run_tiered, ExecCounts};
use crate::gen::{self, Rng};
use crate::metrics::{self, EngineCounts, Timings, Values, END_TO_END, PER_LAYER};
use crate::report::{self, us_since, Cfg, Report};
use crate::speed::Speed;
use crate::trace::{mean, median, write_spans, Layers, Tracer, OP};
use mspec_core::{EngineOptions, Pipeline, Recorder, SpecArg};
use mspec_genext::Engine;
use mspec_lang::ast::QualName;
use mspec_lang::eval::{Evaluator, Value, DEFAULT_FUEL};
use std::time::Instant;

/// Residual runs per op: profiling, fusing, then warm.
const RUNS: usize = 4;
/// Ops whose residual size feeds `residual_bytes`.
const SIZED_OPS: usize = 256;
/// Every op in this prefix is checked against the oracle; after it, one
/// op in [`CHECK_EVERY`] (seeded).
const CHECKED_PREFIX: usize = 256;
const CHECK_EVERY: u64 = 16;

/// Which set-up pipeline an input specialises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prog {
    Power = 0,
    Interp = 1,
    SelfInterp = 2,
    Library = 3,
}

/// The class of op `i`: a fixed cycle, so every seed runs the same mix.
const CYCLE: [Prog; 8] = [
    Prog::Interp,
    Prog::Power,
    Prog::SelfInterp,
    Prog::Interp,
    Prog::Library,
    Prog::Power,
    Prog::Interp,
    Prog::SelfInterp,
];

struct Setup {
    pipes: Vec<Pipeline>,
    lib: gen::Dag,
}

fn setup(cfg: &Cfg) -> Result<Setup, String> {
    let mut rng = Rng::new(cfg.seed).fork(0x11B);
    let lib = gen::dag(&mut rng, 24, true);
    let pipes = [gen::POWER, gen::INTERP, gen::SELF_INTERP, &lib.source()]
        .iter()
        .map(|src| Pipeline::from_source(src).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup { pipes, lib })
}

/// One op's input: what to specialise and the dynamic inputs to run.
#[derive(Debug, Clone)]
struct Input {
    prog: Prog,
    entry: QualName,
    /// Static arguments in order; the trailing dynamic argument is not
    /// listed.
    statics: Vec<Value>,
    /// The self-interpreter takes its environment as a one-element
    /// static-spine list.
    spine: bool,
    dynamic: Vec<u64>,
}

impl Input {
    fn spec_args(&self) -> Vec<SpecArg> {
        let mut a: Vec<SpecArg> = self.statics.iter().cloned().map(SpecArg::Static).collect();
        a.push(if self.spine {
            SpecArg::StaticSpine(1)
        } else {
            SpecArg::Dynamic
        });
        a
    }

    fn residual_args(&self, x: u64) -> Vec<Value> {
        vec![Value::nat(x)]
    }

    fn source_args(&self, x: u64) -> Vec<Value> {
        let mut a = self.statics.clone();
        a.push(if self.spine {
            Value::list(vec![Value::nat(x)])
        } else {
            Value::nat(x)
        });
        a
    }
}

/// Input generator: classes cycle through [`CYCLE`]; sizes are
/// stratified per class.
struct Inputs {
    rng: Rng,
    counts: [usize; 4],
    lib: gen::Dag,
}

impl Inputs {
    fn new(seed: u64, lib: &gen::Dag) -> Inputs {
        Inputs {
            rng: Rng::new(seed).fork(0x5EC),
            counts: [0; 4],
            lib: lib.clone(),
        }
    }

    fn next(&mut self, i: usize) -> Input {
        let prog = CYCLE[i % CYCLE.len()];
        let n = self.counts[prog as usize];
        self.counts[prog as usize] += 1;
        let rng = &mut self.rng;
        let (entry, statics, spine, hi) = match prog {
            Prog::Power => {
                let e = gen::stratified(rng, n, 16, 50, 1500);
                (
                    QualName::new("Power", "power"),
                    vec![Value::nat(e)],
                    false,
                    1000,
                )
            }
            Prog::Interp => {
                let depth = 4 + (n % 4) as u32;
                let p = gen::interp_program(rng, depth);
                (
                    QualName::new("Interp", "run"),
                    vec![gen::list_value(&p)],
                    false,
                    1000,
                )
            }
            Prog::SelfInterp => {
                let fns = gen::self_interp_program(rng);
                let body = gen::list_value(&fns[0]);
                let statics = vec![gen::table_value(&fns), body];
                (QualName::new("SelfInterp", "eval"), statics, true, 30)
            }
            Prog::Library => {
                if n.is_multiple_of(4) {
                    (QualName::new("Main", "main"), vec![], false, 1000)
                } else {
                    let (m, f) = rng.pick(&self.lib.functions).clone();
                    let k = rng.range(1, 4);
                    (
                        QualName::new(m.as_str(), f.as_str()),
                        vec![Value::nat(k)],
                        false,
                        1000,
                    )
                }
            }
        };
        let dynamic = (0..RUNS).map(|_| rng.range(0, hi)).collect();
        Input {
            prog,
            entry,
            statics,
            spine,
            dynamic,
        }
    }
}

/// One finished op, kept for the correctness check. Its input is
/// regenerated from the seed, so the run holds only the values.
struct Done {
    op: usize,
    values: Vec<Value>,
}

fn plain_op(
    pipe: &Pipeline,
    inp: &Input,
    first: &mut f64,
    warm: &mut Vec<f64>,
    rec: Option<&Recorder>,
) -> Result<(Vec<Value>, String), String> {
    let t0 = Instant::now();
    let (m, f) = (inp.entry.module.as_str(), inp.entry.name.as_str());
    let spec = match rec {
        Some(rec) => pipe.specialise_traced(m, f, inp.spec_args(), EngineOptions::default(), rec),
        None => pipe.specialise(m, f, inp.spec_args()),
    }
    .map_err(|e| e.to_string())?;
    let mut values = Vec::with_capacity(RUNS);
    for (j, &x) in inp.dynamic.iter().enumerate() {
        let tj = Instant::now();
        values.push(spec.run(inp.residual_args(x)).map_err(|e| e.to_string())?);
        if j == 0 {
            *first = us_since(t0);
        } else if j >= 2 {
            warm.push(us_since(tj));
        }
    }
    Ok((values, spec.source()))
}

fn traced_op(
    tr: &mut Tracer,
    pipe: &Pipeline,
    inp: &Input,
    engine: &mut EngineCounts,
    exec: &mut Vec<ExecCounts>,
) -> Result<Vec<Value>, String> {
    tr.span(OP, |tr| {
        let (residual, stats) = tr
            .span("genext.specialise", |_| {
                let mut e = Engine::new(pipe.genext(), EngineOptions::default());
                e.specialise(&inp.entry, inp.spec_args())
                    .map(|r| (r, *e.stats()))
            })
            .map_err(|e| e.to_string())?;
        engine.stats.push(stats);
        let inputs: Vec<Vec<Value>> = inp.dynamic.iter().map(|&x| inp.residual_args(x)).collect();
        let (values, counts) = run_tiered(tr, &residual, &inputs)?;
        exec.push(counts);
        Ok(values)
    })
}

pub fn run(cfg: &Cfg) -> Result<Report, String> {
    let mut setups = report::Setups::default();
    let mut st = setups.repeat(|_, _| setup(cfg), drop)?;
    let mut inputs = Inputs::new(cfg.seed, &st.lib);
    let mut pick = Rng::new(cfg.seed).fork(0xC4EC);
    let mut rep = Report::default();
    let mut done: Vec<Done> = Vec::new();
    let mut speed = Speed::default();
    let mut tm = Timings::default();
    let mut sizes: Vec<f64> = Vec::new();
    let mut tr = Tracer::new(true, Instant::now());
    let mut engine = EngineCounts::default();
    let mut exec: Vec<ExecCounts> = Vec::new();
    let (mut plain_sum, mut rec_sum, mut plain_us) = (0.0, 0.0, Vec::new());

    let t_start = Instant::now();
    let mut i = 0usize;
    while i == 0 || t_start.elapsed() < cfg.window() {
        if !cfg.trace {
            st = setups.between_ops(t_start.elapsed(), st, |_| setup(cfg))?;
            speed.tick();
        }
        let inp = inputs.next(i);
        let pipe = &st.pipes[inp.prog as usize];
        rep.attempted += 1;
        let result = if !cfg.trace {
            let (mut first, mut warm) = (0.0, Vec::new());
            let t0 = Instant::now();
            let r = plain_op(pipe, &inp, &mut first, &mut warm, None);
            tm.op.push(us_since(t0));
            tm.first.push(first);
            tm.warm.extend(warm);
            r.map(|(values, src)| {
                if i < SIZED_OPS {
                    sizes.push(src.len() as f64);
                }
                values
            })
        } else {
            // Traced run: the same input plain, with the program's own
            // recorder on, and traced by the benchmark, in rotating order.
            let mut out = Err("not run".to_string());
            for k in 0..3 {
                let mode = (i + k) % 3;
                let (mut first, mut warm) = (0.0, Vec::new());
                let t0 = Instant::now();
                out = match mode {
                    0 => plain_op(pipe, &inp, &mut first, &mut warm, None).map(|r| r.0),
                    1 => plain_op(
                        pipe,
                        &inp,
                        &mut first,
                        &mut warm,
                        Some(&Recorder::enabled()),
                    )
                    .map(|r| r.0),
                    _ => {
                        tr.set_op(i as u64);
                        traced_op(&mut tr, pipe, &inp, &mut engine, &mut exec)
                    }
                };
                let us = us_since(t0);
                match mode {
                    0 => {
                        plain_sum += us;
                        plain_us.push(us);
                    }
                    1 => rec_sum += us,
                    _ => {}
                }
                if out.is_err() {
                    break;
                }
            }
            out
        };
        match result {
            Ok(values) => {
                let checked = i < CHECKED_PREFIX || pick.below(CHECK_EVERY) == 0;
                if checked {
                    done.push(Done { op: i, values });
                }
            }
            Err(e) => rep.fail(format!("op {i}: {e}")),
        }
        i += 1;
    }
    check(cfg, &st, &mut done, &mut rep);

    let mut v = Values::default();
    if cfg.trace {
        let spans = std::mem::take(&mut tr.spans);
        write_spans(&cfg.run_dir.join("spans.jsonl"), &spans).map_err(|e| e.to_string())?;
        let layers = Layers::new(spans);
        metrics::span_medians(&mut v, &layers);
        engine.fill(&mut v, &layers);
        metrics::exec_counts(&mut v, &exec);
        metrics::shares(&mut v, &layers);
        v.set(
            "telemetry.recorder_on_ratio",
            metrics::ratio(rec_sum, plain_sum),
            plain_us.len(),
        );
        let traced = median(&layers.op_us()).unwrap_or(0.0);
        v.set(
            "bench.trace_overhead_ratio",
            metrics::ratio(traced, median(&plain_us).unwrap_or(0.0)),
            plain_us.len(),
        );
        v.emit(&mut rep, PER_LAYER);
    } else {
        metrics::timed(&mut v, &mut rep, &speed, &tm, setups.median());
        v.set("residual_bytes", mean(&sizes).unwrap_or(0.0), sizes.len());
        v.set(
            "peak_rss_mib",
            report::peak_rss_mib("self").unwrap_or(0.0),
            1,
        );
        v.set(
            "ok_frac",
            1.0 - rep.failed as f64 / rep.attempted.max(1) as f64,
            rep.attempted as usize,
        );
        v.emit(&mut rep, END_TO_END);
    }
    Ok(rep)
}

/// Residual values against the tree evaluator on the *source* program.
fn check(cfg: &Cfg, st: &Setup, done: &mut [Done], rep: &mut Report) {
    if cfg.inject_wrong {
        if let Some(v) = done.first_mut().and_then(|d| d.values.first_mut()) {
            *v = Value::nat(v.as_nat().unwrap_or(0).wrapping_add(1));
        }
    }
    let mut inputs = Inputs::new(cfg.seed, &st.lib);
    let mut next_op = 0;
    for d in done.iter() {
        let mut inp = inputs.next(next_op);
        while next_op < d.op {
            next_op += 1;
            inp = inputs.next(next_op);
        }
        next_op += 1;
        let rp = st.pipes[inp.prog as usize].resolved();
        for (&x, got) in inp.dynamic.iter().zip(&d.values) {
            rep.checked += 1;
            let want = Evaluator::with_limits(rp, DEFAULT_FUEL, 1_000_000)
                .call(&inp.entry, inp.source_args(x));
            match want {
                Ok(w) if w == *got => {}
                Ok(w) => rep.mismatch(format!("{} at {x}: got {got}, oracle {w}", inp.entry)),
                Err(e) => rep.mismatch(format!("{} at {x}: oracle failed: {e}", inp.entry)),
            }
        }
    }
}
