//! Layer-by-layer residual execution for traced runs.
//!
//! `Specialised::run` walks a residual through resolve, bytecode compile,
//! a profiling VM run, profile-guided fusion and fused VM runs, all inside
//! `mspec-core`. A traced op makes the same calls through the `lang`
//! crate's public functions so each one gets its own span.

use crate::trace::Tracer;
use mspec_genext::ResidualProgram;
use mspec_lang::bytecode::compile;
use mspec_lang::eval::{Value, DEFAULT_FUEL};
use mspec_lang::fuse::fuse_chunks;
use mspec_lang::resolve::resolve;
use mspec_lang::vm::{bc_error, Vm};

/// A chunk is fused once the profiling run charged it this many
/// instructions (the threshold `mspec-core` applies).
const FUSE_HOT_MIN: u64 = 32;

/// Counters from one tiered execution.
#[derive(Debug, Default, Clone)]
pub struct ExecCounts {
    /// Fuel-charging instructions of each fused (warm) VM call.
    pub warm_instructions: Vec<u64>,
    /// Fused windows of the fusion pass, if one ran.
    pub fused_windows: Option<u64>,
}

/// Runs `residual` on each argument list in turn: the first run profiles
/// unfused bytecode, the second fuses the hot chunks, later runs dispatch
/// the fused program.
pub fn run_tiered(
    tr: &mut Tracer,
    residual: &ResidualProgram,
    inputs: &[Vec<Value>],
) -> Result<(Vec<Value>, ExecCounts), String> {
    let entry = &residual.entry;
    let rp = tr
        .span("lang.resolve_residual", |_| {
            resolve(residual.program.clone())
        })
        .map_err(|e| e.to_string())?;
    let bc = tr
        .span("lang.bytecode", |_| compile(&rp))
        .map_err(|e| bc_error(e).to_string())?;
    let mut counts = ExecCounts::default();
    let mut out = Vec::with_capacity(inputs.len());
    let Some((first, rest)) = inputs.split_first() else {
        return Ok((out, counts));
    };
    let (v, profile) = tr.span("lang.vm_profile", |_| {
        let mut vm = Vm::with_fuel(&bc, DEFAULT_FUEL);
        vm.enable_profiling();
        let v = vm.call(entry, first.clone());
        (v, vm.profile().map(<[u64]>::to_vec).unwrap_or_default())
    });
    out.push(v.map_err(|e| e.to_string())?);
    if rest.is_empty() {
        return Ok((out, counts));
    }
    let (fused, stats) = tr.span("lang.fuse", |_| {
        fuse_chunks(&bc, |k| profile.get(k).is_some_and(|n| *n >= FUSE_HOT_MIN))
    });
    counts.fused_windows = Some(stats.total());
    for args in rest {
        let (v, instr) = tr.span("lang.vm", |_| {
            let mut vm = Vm::with_fuel(&fused, DEFAULT_FUEL);
            let v = vm.call(entry, args.clone());
            (v, vm.stats().instructions)
        });
        out.push(v.map_err(|e| e.to_string())?);
        counts.warm_instructions.push(instr);
    }
    Ok((out, counts))
}
