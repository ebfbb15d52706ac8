//! Golden tests for the specialisation engine's output and work.
//!
//! Residual programs are compared *byte for byte* against pretty-printed
//! snapshots (`tests/golden/*.txt`) captured before the engine's
//! interned-symbol rewrite. A drift in naming, ordering, placement or
//! layout fails these tests even when the residual program still
//! computes the right values. The engine's work counters ([`SpecStats`])
//! are pinned the same way for four representative sessions.

use mspec_core::{Pipeline, SpecArg, SpecStats};
use mspec_lang::builder;
use mspec_lang::eval::{with_big_stack, Value};
use mspec_lang::QualName;
use std::collections::BTreeSet;

const POWER: &str =
    "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n";


/// §2 `power {S,D}` with n = 3: fully unfolds to the cube expression.
#[test]
fn golden_power_s3_unfolded() {
    let p = Pipeline::from_source(POWER).unwrap();
    let s = p
        .specialise("Power", "power", vec![SpecArg::Static(Value::nat(3)), SpecArg::Dynamic])
        .unwrap();
    assert_eq!(s.source(), include_str!("golden/power_s3.txt"));
}

/// §2/§5 `power` forced non-unfoldable: the polyvariant chain
/// power → power_1 → power_2, with deterministic residual names.
#[test]
fn golden_power_s3_forced_chain() {
    let forced: BTreeSet<QualName> = [QualName::new("Power", "power")].into();
    let p = Pipeline::from_source_with(POWER, &forced).unwrap();
    let s = p
        .specialise("Power", "power", vec![SpecArg::Static(Value::nat(3)), SpecArg::Dynamic])
        .unwrap();
    assert_eq!(s.source(), include_str!("golden/power_s3_forced.txt"));
}

/// §5's Power/Twice/Main worked example, all definitions forced
/// residual: placement, import synthesis and naming all frozen byte for
/// byte.
#[test]
fn golden_section5_placement() {
    let forced: BTreeSet<QualName> = [
        QualName::new("Power", "power"),
        QualName::new("Twice", "twice"),
        QualName::new("Main", "main"),
    ]
    .into();
    let p = Pipeline::from_program_with(builder::paper_section5_program(), &forced).unwrap();
    let s = p.specialise("Main", "main", vec![SpecArg::Dynamic]).unwrap();
    assert_eq!(s.source(), include_str!("golden/section5_placement.txt"));
}

/// Memo counters under repeated `{D,S}` requests: two call sites ask
/// for the same specialisation of `power`, whose body re-requests
/// itself recursively. The first request misses and creates the
/// residual; the self-recursive probe and the second call site's probe
/// both hit.
#[test]
fn memo_counters_for_repeated_requests() {
    let src = "module Power where\n\
               power n x = if n == 1 then x else x * power (n - 1) x\n\
               module Main where\n\
               import Power\n\
               main n = Power.power n 2 + Power.power n 2\n";
    let p = Pipeline::from_source(src).unwrap();
    let s = p.specialise("Main", "main", vec![SpecArg::Dynamic]).unwrap();
    assert_eq!(s.stats.memo_probes, 3);
    assert_eq!(s.stats.memo_hits, 2);
    // One residual function materialised despite three requests.
    let power = s.residual.program.module("Power").unwrap();
    assert_eq!(power.defs.len(), 1);
    assert_eq!(s.run(vec![Value::nat(5)]).unwrap(), Value::nat(64));
}

/// A fresh session over the same pipeline starts with fresh counters —
/// stats are per-request, not accumulated in the pipeline.
#[test]
fn memo_counters_reset_per_session() {
    let p = Pipeline::from_source(POWER).unwrap();
    let args = || vec![SpecArg::Dynamic, SpecArg::Static(Value::nat(2))];
    let first = p.specialise("Power", "power", args()).unwrap();
    let second = p.specialise("Power", "power", args()).unwrap();
    assert_eq!(first.stats.memo_probes, second.stats.memo_probes);
    assert_eq!(first.stats.memo_hits, second.stats.memo_hits);
    assert!(first.stats.memo_hits >= 1, "self-recursion must hit the memo");
}

// ---------------------------------------------------------------------
// Pinned engine work counters.
//
// The full `SpecStats` of four representative sessions. The counters
// measure the engine's work, not how cheap each step is: step fuel and
// every budget limit are charged against them, so making the engine
// faster must leave them exactly where they are.

const INTERP: &str = include_str!("../examples/programs/interp.mspec");

const SELF_INTERP: &str = "module ListLib where\n\
    drop n xs = if n == 0 then xs else drop (n - 1) (tail xs)\n\
    nth n xs = if n == 0 then head xs else nth (n - 1) (tail xs)\n\
    module SelfInterp where\n\
    import ListLib\n\
    size p = if head p <= 1 then 2 else if head p == 5 then 2 + size (drop 2 p) else if head p == 4 then let s1 = size (tail p) in let s2 = size (drop s1 (tail p)) in 1 + s1 + s2 + size (drop (s1 + s2) (tail p)) else let s1 = size (tail p) in 1 + s1 + size (drop s1 (tail p))\n\
    eval fns p env = if head p == 0 then head (tail p) else if head p == 1 then nth (head (tail p)) env else if head p == 2 then eval fns (tail p) env + eval fns (drop (size (tail p)) (tail p)) env else if head p == 3 then eval fns (tail p) env * eval fns (drop (size (tail p)) (tail p)) env else if head p == 7 then eval fns (tail p) env - eval fns (drop (size (tail p)) (tail p)) env else if head p == 4 then (if eval fns (tail p) env == 0 then eval fns (drop (size (tail p)) (tail p)) env else eval fns (drop (size (tail p) + size (drop (size (tail p)) (tail p))) (tail p)) env) else if head p == 5 then eval fns (nth (head (tail p)) fns) (eval fns (drop 2 p) env : []) else eval fns (drop (size (tail p)) (tail p)) (eval fns (tail p) env : env)\n";

fn nat_list(items: &[u64]) -> Value {
    Value::list(items.iter().copied().map(Value::nat).collect())
}

/// A full binary `+`/`*` tree of the given depth in `Interp`'s prefix
/// encoding (`0 n` literal, `1` the argument, `2`/`3` add/multiply).
fn interp_tree(depth: u32, k: u64, out: &mut Vec<u64>) {
    if depth == 1 {
        if k.is_multiple_of(3) {
            out.extend([0, k % 10]);
        } else {
            out.push(1);
        }
        return;
    }
    out.push(2 + k % 2);
    interp_tree(depth - 1, 2 * k + 1, out);
    interp_tree(depth - 1, 2 * k + 2, out);
}

#[test]
fn golden_spec_stats_power() {
    // n = 1500 unfolds 1500 calls deep.
    with_big_stack(|| {
        let p = Pipeline::from_source(POWER).unwrap();
        for (n, unfolds, steps, residual_nodes) in [(50, 49, 693, 99), (1500, 1499, 20993, 2999)] {
            let args = vec![SpecArg::Static(Value::nat(n)), SpecArg::Dynamic];
            let s = p.specialise("Power", "power", args).unwrap();
            let want = SpecStats {
                specialisations: 1,
                unfolds,
                steps,
                peak_open: 1,
                residual_nodes,
                residual_modules: 1,
                ..SpecStats::default()
            };
            assert_eq!(s.stats, want, "power n = {n}");
        }
    });
}

#[test]
fn golden_spec_stats_interp_depth6() {
    let mut prog = Vec::new();
    interp_tree(6, 0, &mut prog);
    let p = Pipeline::from_source(INTERP).unwrap();
    let args = vec![SpecArg::Static(nat_list(&prog)), SpecArg::Dynamic];
    let s = p.specialise("Interp", "run", args).unwrap();
    let want = SpecStats {
        specialisations: 1,
        unfolds: 847,
        steps: 11494,
        peak_open: 1,
        residual_nodes: 63,
        residual_modules: 1,
        ..SpecStats::default()
    };
    assert_eq!(s.stats, want);
}

#[test]
fn golden_spec_stats_self_interp_table() {
    // f0(x) = if x == 0 then 1 else x * f1(x - 1)
    // f1(x) = let y = x + 2 in (y * y) - f0(x)
    let f0 = vec![4, 1, 0, 0, 1, 3, 1, 0, 5, 1, 7, 1, 0, 0, 1];
    let f1 = vec![6, 2, 1, 0, 0, 2, 7, 3, 1, 0, 1, 0, 5, 0, 1, 1];
    let table = Value::list(vec![nat_list(&f0), nat_list(&f1)]);
    let p = Pipeline::from_source(SELF_INTERP).unwrap();
    let args =
        vec![SpecArg::Static(table), SpecArg::Static(nat_list(&f0)), SpecArg::StaticSpine(1)];
    let s = p.specialise("SelfInterp", "eval", args).unwrap();
    let want = SpecStats {
        specialisations: 19,
        memo_probes: 19,
        memo_hits: 1,
        unfolds: 72,
        steps: 1351,
        peak_pending: 4,
        peak_open: 1,
        residual_nodes: 59,
        residual_modules: 1,
        generalised: 0,
    };
    assert_eq!(s.stats, want);
}
