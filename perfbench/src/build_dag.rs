//! `build_dag`: source text to a value, through both build drivers.
//!
//! Set-up generates a pool of seeded module DAGs (20–60 modules, layered
//! and chain shapes). One op takes one DAG from source to a value, either
//! through the in-memory path (`Pipeline::from_source` → specialise
//! `Main.main` → run) or, one op in [`FILE_EVERY`], through the file path
//! (`cogen::build`, forced, with one worker per core, into an emptied
//! artefact directory → `link_dir` → specialise → run). A DAG's source
//! tree is written before its first file-path op after each set-up,
//! outside the op's timing.
//! Set-up also parses and resolves every DAG: the resolved source program
//! is what the oracle evaluates.

use crate::exec::{run_tiered, ExecCounts};
use crate::gen::{self, Rng};
use crate::metrics::{self, EngineCounts, Timings, Values, END_TO_END, PER_LAYER};
use crate::report::{self, flush_writes, remove_tree, us_since, Cfg, Report};
use crate::speed::Speed;
use crate::trace::{median, write_spans, Layers, Tracer, OP};
use mspec_bta::analyse::{analyse_module_with, analyse_program_with};
use mspec_cogen::build::{build, link_dir, BuildOptions};
use mspec_cogen::compile::{compile_module, compile_program};
use mspec_core::{Pipeline, Runner, SpecArg, Specialised};
use mspec_genext::{Engine, EngineOptions, ResidualProgram};
use mspec_lang::ast::{Program, QualName};
use mspec_lang::eval::{Evaluator, Value, DEFAULT_FUEL};
use mspec_lang::parser::{parse_module, parse_program};
use mspec_lang::pretty::pretty_program;
use mspec_lang::resolve::{resolve, ResolvedProgram};
use mspec_types::infer_program;
use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// DAGs in the pool; sizes are stratified over it.
const POOL: usize = 32;
/// One op in this many takes the file path; the rest take the in-memory
/// path. The file path's time is mostly kernel file-system work, which on
/// a shared machine drifts by up to 2× between runs; at one in sixteen it
/// stays above the p90, so both percentiles fall among in-memory ops,
/// and it still moves `ops_per_s` (about a quarter of op time).
const FILE_EVERY: usize = 16;
/// Ops whose residual size feeds `residual_bytes`: every DAG of the pool.
const SIZED_OPS: usize = POOL;

struct Input {
    src: String,
    /// `(module name, module text)`.
    modules: Vec<(String, String)>,
    /// The source tree, one `.mspec` file per module, written before the
    /// DAG's first file-path op (outside the op's timing).
    dir: PathBuf,
    written: bool,
    /// The resolved source program, for the oracle.
    resolved: ResolvedProgram,
}

/// One finished op, kept for the correctness check.
struct Done {
    input: usize,
    y: u64,
    value: Value,
}

/// Generates the DAG pool in memory and parses and resolves each DAG.
fn setup(cfg: &Cfg) -> Result<Vec<Input>, String> {
    let rng = Rng::new(cfg.seed);
    (0..POOL)
        .map(|i| {
            let mut rng = rng.fork(i as u64);
            let n = gen::dag_size(&mut rng, i, POOL);
            let dag = gen::dag(&mut rng, n, i % 2 == 0);
            let src = dag.source();
            let resolved = parse_program(&src)
                .map_err(|e| e.to_string())
                .and_then(|p| resolve(p).map_err(|e| e.to_string()))
                .map_err(|e| format!("DAG {i}: {e}"))?;
            Ok(Input {
                src,
                modules: dag.modules,
                dir: cfg.run_dir.join("src").join(format!("d{i}")),
                written: false,
                resolved,
            })
        })
        .collect()
}

fn write_tree(inp: &mut Input) -> Result<(), String> {
    std::fs::create_dir_all(&inp.dir).map_err(|e| e.to_string())?;
    for (name, text) in &inp.modules {
        std::fs::write(inp.dir.join(format!("{name}.mspec")), text).map_err(|e| e.to_string())?;
    }
    inp.written = true;
    Ok(())
}

fn entry() -> QualName {
    QualName::new("Main", "main")
}

/// A forced build with `threads` workers (`None`: the sequential driver).
fn build_options(threads: Option<NonZeroUsize>) -> BuildOptions {
    BuildOptions {
        force: true,
        threads,
        ..BuildOptions::default()
    }
}

/// What one op produced besides its value.
enum Out {
    /// The in-memory path's specialisation, whose cached tiers the warm
    /// run sample reuses.
    Specialised(Specialised),
    /// The residual of a file-path op or a traced op.
    Residual(ResidualProgram),
}

impl Out {
    fn residual(&self) -> &ResidualProgram {
        match self {
            Out::Specialised(s) => &s.residual,
            Out::Residual(r) => r,
        }
    }
}

/// The in-memory path, as a user of `mspec-core` runs it.
fn in_memory(inp: &Input, y: u64) -> Result<(Value, Out), String> {
    let p = Pipeline::from_source(&inp.src).map_err(|e| e.to_string())?;
    let s = p
        .specialise("Main", "main", vec![SpecArg::Dynamic])
        .map_err(|e| e.to_string())?;
    let v = s.run(vec![Value::nat(y)]).map_err(|e| e.to_string())?;
    Ok((v, Out::Specialised(s)))
}

/// The file path: build into `out`, link, specialise, run. Untraced, the
/// residual runs once through the VM as `mspec run` runs a program;
/// traced, through the layer calls of [`run_tiered`].
fn file_path(
    tr: &mut Tracer,
    inp: &Input,
    out: &Path,
    y: u64,
    engine: &mut EngineCounts,
) -> Result<(Value, Out), String> {
    let threads = NonZeroUsize::new(report::cores());
    tr.span("cogen.build", |_| {
        build(&inp.dir, out, &build_options(threads))
    })
    .map_err(|e| e.to_string())?;
    let gen = tr
        .span("cogen.link", |_| link_dir(out))
        .map_err(|e| e.to_string())?;
    let (residual, stats) = tr
        .span("genext.specialise", |_| {
            let mut e = Engine::new(&gen, EngineOptions::default());
            e.specialise(&entry(), vec![SpecArg::Dynamic])
                .map(|r| (r, *e.stats()))
        })
        .map_err(|e| e.to_string())?;
    let args = vec![Value::nat(y)];
    let value = if tr.enabled() {
        engine.stats.push(stats);
        let (mut vs, _) = run_tiered(tr, &residual, &[args])?;
        vs.pop().ok_or("no value")?
    } else {
        let rp = resolve(residual.program.clone()).map_err(|e| e.to_string())?;
        Runner::Vm
            .run(&rp, &residual.entry, args, DEFAULT_FUEL)
            .map_err(|e| e.to_string())?
    };
    Ok((value, Out::Residual(residual)))
}

/// The in-memory path through each layer's public function, one span
/// each, and `Pipeline::from_source` timed beside it on the same input:
/// before the op when `beside_first`, else after it, so that neither side
/// always runs with the caches the other warmed.
fn in_memory_traced(
    tr: &mut Tracer,
    inp: &Input,
    y: u64,
    beside_first: bool,
    engine: &mut EngineCounts,
    exec: &mut Vec<ExecCounts>,
) -> Result<(Value, Out), String> {
    let beside = |tr: &mut Tracer| {
        tr.root_span("core.build", |_| Pipeline::from_source(&inp.src))
            .map(drop)
            .map_err(|e| e.to_string())
    };
    if beside_first {
        beside(tr)?;
    }
    let out = tr.span(OP, |tr| -> Result<_, String> {
        let prog = tr
            .span("lang.parse", |_| parse_program(&inp.src))
            .map_err(|e| e.to_string())?;
        let rp = tr
            .span("lang.resolve", |_| resolve(prog))
            .map_err(|e| e.to_string())?;
        tr.span("types.infer", |_| infer_program(&rp))
            .map_err(|e| e.to_string())?;
        let ann = tr
            .span("bta.analyse", |_| {
                analyse_program_with(&rp, &BTreeSet::new())
            })
            .map_err(|e| e.to_string())?;
        let gen = tr
            .span("cogen.compile", |_| compile_program(&ann))
            .map_err(|e| e.to_string())?;
        let (residual, stats) = tr
            .span("genext.specialise", |_| {
                let mut e = Engine::new(&gen, EngineOptions::default());
                e.specialise(&entry(), vec![SpecArg::Dynamic])
                    .map(|r| (r, *e.stats()))
            })
            .map_err(|e| e.to_string())?;
        engine.stats.push(stats);
        let (mut vs, counts) = run_tiered(tr, &residual, &[vec![Value::nat(y)]])?;
        exec.push(counts);
        Ok((vs.pop().ok_or("no value")?, Out::Residual(residual)))
    })?;
    if !beside_first {
        beside(tr)?;
    }
    Ok(out)
}

/// Timed beside a file-path op on the same input: the sequential build of
/// its DAG into a fresh `out`, and the layer calls that build composes —
/// `parse_module` per module, `resolve` of the tree, and per module in
/// dependency order `analyse_module_with` against its imports' interfaces
/// and `compile_module` — first or second as `parts_first` says, so that
/// neither side always runs with the caches the other warmed. The build's
/// time minus those calls is its driver: staleness checks, interface
/// loading, rendering of the `.bti`/`.gx`/`.sig`/text artefacts and the
/// file I/O.
fn build_layers_beside(
    tr: &mut Tracer,
    inp: &Input,
    out: &Path,
    parts_first: bool,
) -> Result<(), String> {
    if parts_first {
        build_parts(tr, inp)?;
    }
    clean_out(out);
    tr.root_span("cogen.build_serial", |_| {
        build(&inp.dir, out, &build_options(None))
    })
    .map_err(|e| e.to_string())?;
    clean_out(out);
    if !parts_first {
        build_parts(tr, inp)?;
    }
    Ok(())
}

fn build_parts(tr: &mut Tracer, inp: &Input) -> Result<(), String> {
    let modules = tr
        .root_span("cogen.part.parse", |_| {
            inp.modules
                .iter()
                .map(|(_, t)| parse_module(t))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
    let rp = tr
        .root_span("cogen.part.resolve", |_| resolve(Program::new(modules)))
        .map_err(|e| e.to_string())?;
    // The generator lists imports before importers.
    let anns = tr.root_span("cogen.part.analyse", |_| {
        let mut ifaces = BTreeMap::new();
        let mut anns = Vec::with_capacity(inp.modules.len());
        for (name, _) in &inp.modules {
            let m = rp
                .program()
                .module(name)
                .ok_or("module lost in resolution")?;
            let ann =
                analyse_module_with(m, &ifaces, &BTreeSet::new()).map_err(|e| e.to_string())?;
            ifaces.insert(ann.name, ann.interface.clone());
            anns.push(ann);
        }
        Ok::<_, String>(anns)
    })?;
    tr.root_span("cogen.part.compile", |_| {
        std::hint::black_box(anns.iter().map(compile_module).collect::<Vec<_>>())
    });
    Ok(())
}

/// Every file-path op starts from the same state: an empty artefact
/// directory and nothing pending on disk. Outside the op's timing.
fn clean_out(out: &Path) {
    remove_tree(out);
    flush_writes();
}

fn gx_bytes(out: &Path) -> u64 {
    std::fs::read_dir(out)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "gx"))
                .filter_map(|e| e.metadata().ok().map(|m| m.len()))
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(cfg: &Cfg) -> Result<Report, String> {
    let mut setups = report::Setups::default();
    let mut inputs = setups.repeat(|_, _| setup(cfg), drop)?;
    let mut rep = Report::default();
    let mut rng = Rng::new(cfg.seed).fork(0xB0D);
    let gx_root = cfg.run_dir.join("gx");
    let mut done: Vec<Done> = Vec::new();
    let mut speed = Speed::default();
    let mut tm = Timings::default();
    let mut sizes: Vec<f64> = Vec::new();
    let mut tr = Tracer::new(cfg.trace, Instant::now());
    let mut engine = EngineCounts::default();
    let mut exec: Vec<ExecCounts> = Vec::new();
    let mut gx_sizes: Vec<f64> = Vec::new();
    let mut plain_us: Vec<f64> = Vec::new();
    let mut off = Tracer::new(false, Instant::now());

    let t_start = Instant::now();
    let mut i = 0usize;
    while i == 0 || t_start.elapsed() < cfg.window() {
        if !cfg.trace {
            inputs = setups.between_ops(t_start.elapsed(), inputs, |_| setup(cfg))?;
            speed.tick();
        }
        // One op in FILE_EVERY takes the file path; the slot shifts by one
        // each round of the pool, so every DAG takes both paths.
        let k = i % POOL;
        let file = (i / POOL + i) % FILE_EVERY == FILE_EVERY - 1;
        if file && !inputs[k].written {
            write_tree(&mut inputs[k])?;
            flush_writes();
        }
        let inp = &inputs[k];
        let y = rng.range(0, 1000);
        rep.attempted += 1;
        let out_dir = gx_root.join(format!("d{k}"));
        let result = if !cfg.trace {
            if file {
                clean_out(&out_dir);
            }
            let t0 = Instant::now();
            let r = if file {
                file_path(&mut off, inp, &out_dir, y, &mut engine)
            } else {
                in_memory(inp, y)
            };
            let us = us_since(t0);
            // One op yields one value: its first reply is the op itself.
            tm.op.push(us);
            tm.first.push(us);
            if file {
                flush_writes();
            }
            r
        } else {
            // Traced run: the same op untraced, then traced (order
            // alternating), so the two latencies share inputs.
            let mut r = Err("not run".to_string());
            for traced in [i.is_multiple_of(2), !i.is_multiple_of(2)] {
                if file {
                    clean_out(&out_dir);
                }
                tr.set_op(i as u64);
                let t0 = Instant::now();
                r = match (file, traced) {
                    (false, false) => in_memory(inp, y),
                    (false, true) => in_memory_traced(
                        &mut tr,
                        inp,
                        y,
                        (i / 2).is_multiple_of(2),
                        &mut engine,
                        &mut exec,
                    ),
                    (true, false) => file_path(&mut off, inp, &out_dir, y, &mut engine),
                    (true, true) => {
                        let r = tr.span(OP, |tr| file_path(tr, inp, &out_dir, y, &mut engine));
                        gx_sizes.push(gx_bytes(&out_dir) as f64);
                        build_layers_beside(
                            &mut tr,
                            inp,
                            &out_dir,
                            gx_sizes.len().is_multiple_of(2),
                        )?;
                        r
                    }
                };
                if !traced {
                    plain_us.push(us_since(t0));
                }
                if file {
                    flush_writes();
                }
                if r.is_err() {
                    break;
                }
            }
            r
        };
        match result {
            Ok((value, out)) => {
                if i < SIZED_OPS {
                    sizes.push(pretty_program(&out.residual().program).len() as f64);
                }
                if let Out::Specialised(s) = &out {
                    tm.warm.extend(warm_runs_us(s, y)?);
                }
                done.push(Done { input: k, y, value });
            }
            Err(e) => rep.fail(format!("op {i}: {e}")),
        }
        i += 1;
    }
    remove_tree(&gx_root);
    check(cfg, &inputs, &mut done, &mut rep);

    let mut v = Values::default();
    if cfg.trace {
        let spans = std::mem::take(&mut tr.spans);
        write_spans(&cfg.run_dir.join("spans.jsonl"), &spans).map_err(|e| e.to_string())?;
        let layers = Layers::new(spans);
        metrics::span_medians(&mut v, &layers);
        let d = metrics::driver_median(
            &layers,
            "core.build",
            &[
                "lang.parse",
                "lang.resolve",
                "types.infer",
                "bta.analyse",
                "cogen.compile",
            ],
        );
        v.set_median("core.build_driver_us", &d);
        let d = metrics::driver_median(
            &layers,
            "cogen.build_serial",
            &[
                "cogen.part.parse",
                "cogen.part.resolve",
                "cogen.part.analyse",
                "cogen.part.compile",
            ],
        );
        v.set_median("cogen.build_driver_us", &d);
        v.set_median("cogen.gx_bytes", &gx_sizes);
        engine.fill(&mut v, &layers);
        metrics::exec_counts(&mut v, &exec);
        metrics::shares(&mut v, &layers);
        let traced = median(&layers.op_us()).unwrap_or(0.0);
        let plain = median(&plain_us).unwrap_or(0.0);
        v.set(
            "bench.trace_overhead_ratio",
            metrics::ratio(traced, plain),
            plain_us.len(),
        );
        v.emit(&mut rep, PER_LAYER);
    } else {
        // Ops per second of op time: the window also holds the
        // benchmark's own work between ops (`sync`, clean-up, the warm run
        // sample, residual sizes), which is not the program's.
        metrics::timed(&mut v, &mut rep, &speed, &tm, setups.median());
        v.set(
            "residual_bytes",
            crate::trace::mean(&sizes).unwrap_or(0.0),
            sizes.len(),
        );
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
    remove_tree(&cfg.run_dir.join("src"));
    Ok(rep)
}

/// Warm executions of the residual sampled after each op.
const WARM_RUNS: usize = 4;

/// [`WARM_RUNS`] warm executions of the residual, timed after the op
/// through `Specialised::run`: the op's run profiled and the next run
/// fuses; the ones after it are the samples. A single call of a few µs
/// right after the op mostly timed the cache misses the op left behind.
fn warm_runs_us(s: &Specialised, y: u64) -> Result<Vec<f64>, String> {
    s.run(vec![Value::nat(y)]).map_err(|e| e.to_string())?;
    (0..WARM_RUNS)
        .map(|_| {
            let t0 = Instant::now();
            s.run(vec![Value::nat(y)]).map_err(|e| e.to_string())?;
            Ok(us_since(t0))
        })
        .collect()
}

/// Every op's value against the tree evaluator on the source program.
fn check(cfg: &Cfg, inputs: &[Input], done: &mut [Done], rep: &mut Report) {
    if cfg.inject_wrong {
        if let Some(d) = done.first_mut() {
            d.value = Value::nat(d.value.as_nat().unwrap_or(0).wrapping_add(1));
        }
    }
    let mut oracle: BTreeMap<(usize, u64), Result<Value, String>> = BTreeMap::new();
    for d in done.iter() {
        let want = oracle.entry((d.input, d.y)).or_insert_with(|| {
            Evaluator::with_fuel(&inputs[d.input].resolved, DEFAULT_FUEL)
                .call(&entry(), vec![Value::nat(d.y)])
                .map_err(|e| e.to_string())
        });
        rep.checked += 1;
        match want {
            Ok(w) if *w == d.value => {}
            Ok(w) => rep.mismatch(format!(
                "DAG {} at y={}: got {}, oracle {w}",
                d.input, d.y, d.value
            )),
            Err(e) => rep.mismatch(format!("DAG {} at y={}: oracle failed: {e}", d.input, d.y)),
        }
    }
}
