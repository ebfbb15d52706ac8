//! The benchmark's seeded input generator.
//!
//! Everything a workload feeds the program comes from here: module DAGs as
//! source text, static inputs for the specialiser and the daemon's request
//! streams. The same seed always gives byte-identical output. Size
//! parameters are drawn from fixed stratified grids and the seed only picks
//! shapes and constants within a stratum, so two seeds give inputs of the
//! same size mix and run-to-run spread stays small.

use mspec_lang::eval::Value;

/// SplitMix64: small, seedable, and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream derived from this generator's seed and `tag`.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Stratum `i` of `n` over `lo..=hi`, jittered within the stratum.
pub fn stratified(rng: &mut Rng, i: usize, n: usize, lo: u64, hi: u64) -> u64 {
    let width = (hi - lo + 1) as f64 / n as f64;
    let base = lo as f64 + width * (i % n) as f64;
    let v = base + rng.unit() * width;
    (v as u64).clamp(lo, hi)
}

/// Zipf(s) over `0..n`, sampled by inverting a precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

// ---------------------------------------------------------------------
// Programs

/// The paper's `power` module.
pub const POWER: &str = "module Power where\n\
    power n x = if n == 1 then x else x * power (n - 1) x\n";

/// The first-order interpreter (`examples/programs/interp.mspec`):
/// `run p x` evaluates the prefix-encoded expression `p` at `x`.
pub const INTERP: &str = "module ListLib where\n\
    drop n xs = if n == 0 then xs else drop (n - 1) (tail xs)\n\
    module Interp where\n\
    import ListLib\n\
    size p = if head p == 0 then 2 else if head p == 1 then 1 else 1 + size (tail p) + size (drop (size (tail p)) (tail p))\n\
    run p x = if head p == 0 then head (tail p) else if head p == 1 then x else if head p == 2 then run (tail p) x + run (drop (size (tail p)) (tail p)) x else run (tail p) x * run (drop (size (tail p)) (tail p)) x\n";

/// The self-interpreter of the object language's unary first-order
/// fragment (the source used by the repository's self-interpretation
/// tests): `eval fns p env`.
pub const SELF_INTERP: &str = "module ListLib where\n\
    drop n xs = if n == 0 then xs else drop (n - 1) (tail xs)\n\
    nth n xs = if n == 0 then head xs else nth (n - 1) (tail xs)\n\
    module SelfInterp where\n\
    import ListLib\n\
    size p = if head p <= 1 then 2 else if head p == 5 then 2 + size (drop 2 p) else if head p == 4 then let s1 = size (tail p) in let s2 = size (drop s1 (tail p)) in 1 + s1 + s2 + size (drop (s1 + s2) (tail p)) else let s1 = size (tail p) in 1 + s1 + size (drop s1 (tail p))\n\
    eval fns p env = if head p == 0 then head (tail p) else if head p == 1 then nth (head (tail p)) env else if head p == 2 then eval fns (tail p) env + eval fns (drop (size (tail p)) (tail p)) env else if head p == 3 then eval fns (tail p) env * eval fns (drop (size (tail p)) (tail p)) env else if head p == 7 then eval fns (tail p) env - eval fns (drop (size (tail p)) (tail p)) env else if head p == 4 then (if eval fns (tail p) env == 0 then eval fns (drop (size (tail p)) (tail p)) env else eval fns (drop (size (tail p) + size (drop (size (tail p)) (tail p))) (tail p)) env) else if head p == 5 then eval fns (nth (head (tail p)) fns) (eval fns (drop 2 p) env : []) else eval fns (drop (size (tail p)) (tail p)) (eval fns (tail p) env : env)\n";

/// A multi-module program generated as source text, one text per module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag {
    /// `(module name, module source)`, imports before importers, `Main`
    /// last.
    pub modules: Vec<(String, String)>,
    /// Every generated library function, `(module, name)`; each takes
    /// `n x` with `n` a small static count.
    pub functions: Vec<(String, String)>,
}

impl Dag {
    /// The whole program as one source text.
    pub fn source(&self) -> String {
        self.modules
            .iter()
            .map(|(_, s)| s.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Generates a module DAG of `n_modules` library modules plus `Main`.
/// `layered` picks levels of 2–5 independent modules, each importing 1–3
/// modules of the level below (and sometimes one two levels down);
/// otherwise a chain where each module imports its two predecessors.
/// Every module has 8–12 functions; `Main.main y` calls four functions at
/// the top of the graph with a static count of 2, so specialising it
/// unfolds one call path per call down through the DAG.
pub fn dag(rng: &mut Rng, n_modules: usize, layered: bool) -> Dag {
    assert!(n_modules >= 2);
    // Module index -> imports (indices of earlier modules).
    let mut imports: Vec<Vec<usize>> = Vec::with_capacity(n_modules);
    let mut level_of: Vec<usize> = Vec::with_capacity(n_modules);
    if layered {
        let mut levels: Vec<Vec<usize>> = Vec::new();
        let mut next = 0;
        while next < n_modules {
            let width = (rng.range(2, 5) as usize).min(n_modules - next);
            levels.push((next..next + width).collect());
            next += width;
        }
        for (l, level) in levels.iter().enumerate() {
            for _ in level {
                level_of.push(l);
                if l == 0 {
                    imports.push(Vec::new());
                    continue;
                }
                let below = &levels[l - 1];
                let k = (rng.range(1, 3) as usize).min(below.len());
                let mut imps: Vec<usize> = Vec::new();
                while imps.len() < k {
                    let m = *rng.pick(below);
                    if !imps.contains(&m) {
                        imps.push(m);
                    }
                }
                if l >= 2 && rng.below(3) == 0 {
                    imps.push(*rng.pick(&levels[l - 2]));
                }
                imps.sort_unstable();
                imps.dedup();
                imports.push(imps);
            }
        }
    } else {
        for i in 0..n_modules {
            level_of.push(i);
            imports.push((i.saturating_sub(2)..i).collect());
        }
    }
    let fns_per: Vec<usize> = (0..n_modules).map(|_| rng.range(8, 12) as usize).collect();
    let fname = |m: usize, j: usize| format!("m{m}f{j}");
    let mut modules = Vec::with_capacity(n_modules + 1);
    let mut functions = Vec::new();
    for m in 0..n_modules {
        let mut src = format!("module M{m} where\n");
        for &i in &imports[m] {
            src.push_str(&format!("import M{i}\n"));
        }
        for j in 0..fns_per[m] {
            // The base case calls an earlier function of this module or
            // a function of an imported module, so every call chain ends.
            // The base case calls into an import (or, at the bottom of the
            // graph, adds a constant), so every call chain runs down to the
            // bottom and residual size follows the DAG's depth.
            let base = {
                let c = rng.range(1, 97);
                if imports[m].is_empty() {
                    format!("x + {c}")
                } else {
                    let i = *rng.pick(&imports[m]);
                    let k = rng.below(fns_per[i] as u64) as usize;
                    format!("{} {} (x + {c})", fname(i, k), rng.range(1, 2))
                }
            };
            let f = fname(m, j);
            let c = rng.range(2, 9);
            let body = match rng.below(4) {
                0 => format!("if n <= 1 then {base} else x * {f} (n - 1) x"),
                1 => format!("if n == 0 then {base} else {f} (n - 1) (x + {c})"),
                2 => format!("let y = {base} in if n <= 1 then y + x else y * x + {c}"),
                _ => format!("if n <= 1 then {base} else {f} (n - 1) (x * {c} + n)"),
            };
            src.push_str(&format!("{f} n x = {body}\n"));
            functions.push((format!("M{m}"), f));
        }
        modules.push((format!("M{m}"), src));
    }
    // Main makes four calls into the top two levels of the graph.
    let top_level = *level_of.iter().max().unwrap_or(&0);
    let mut tops: Vec<usize> = (0..n_modules)
        .filter(|&m| level_of[m] + 1 >= top_level.max(1))
        .collect();
    tops.truncate(4);
    let mut src = String::from("module Main where\n");
    for &t in &tops {
        src.push_str(&format!("import M{t}\n"));
    }
    let calls: Vec<String> = (0..4)
        .map(|c| tops[c % tops.len()])
        .map(|t| {
            let k = rng.below(fns_per[t] as u64) as usize;
            format!("{} 2 y", fname(t, k))
        })
        .collect();
    src.push_str(&format!("main y = {}\n", calls.join(" + ")));
    modules.push(("Main".to_string(), src));
    Dag { modules, functions }
}

/// The module count of the `i`-th DAG of a pool of `n`: stratified over
/// 20–60 modules.
pub fn dag_size(rng: &mut Rng, i: usize, n: usize) -> usize {
    stratified(rng, i, n, 20, 60) as usize
}

/// A prefix-encoded expression for [`INTERP`] of exactly depth `depth`:
/// a random binary tree of `+`/`*` nodes whose leaf count is drawn from
/// `(2^(depth-1), 2^depth]`, so no shallower tree could hold it.
pub fn interp_program(rng: &mut Rng, depth: u32) -> Vec<u64> {
    fn go(rng: &mut Rng, depth: u32, leaves: u64, out: &mut Vec<u64>) {
        if leaves == 1 {
            if rng.below(3) == 0 {
                out.extend([0, rng.range(0, 9)]);
            } else {
                out.push(1);
            }
            return;
        }
        let cap = 1u64 << (depth - 1);
        let lo = leaves.saturating_sub(cap).max(1);
        let hi = (leaves - 1).min(cap);
        let left = rng.range(lo, hi);
        out.push(if rng.below(2) == 0 { 2 } else { 3 });
        go(rng, depth - 1, left, out);
        go(rng, depth - 1, leaves - left, out);
    }
    let leaves = rng.range((1u64 << (depth - 1)) + 1, 1u64 << depth);
    let mut out = Vec::new();
    go(rng, depth, leaves, &mut out);
    out
}

/// A function table for [`SELF_INTERP`]: `1..=4` unary functions whose
/// bodies are random expressions over literals, the argument, `+ * -`,
/// `ifz`, `let` and calls to later functions. With probability ⅓
/// function 0 counts its argument down recursively (residual recursion).
pub fn self_interp_program(rng: &mut Rng) -> Vec<Vec<u64>> {
    fn expr(rng: &mut Rng, f: usize, nfns: usize, env: u64, budget: u32, out: &mut Vec<u64>) {
        if budget == 0 || rng.below(4) == 0 {
            if rng.below(3) == 0 {
                out.extend([0, rng.range(0, 9)]);
            } else {
                out.extend([1, rng.below(env)]);
            }
            return;
        }
        match rng.below(7) {
            0 | 1 => {
                out.push(*rng.pick(&[2, 3, 7]));
                expr(rng, f, nfns, env, budget - 1, out);
                expr(rng, f, nfns, env, budget - 1, out);
            }
            2 => {
                out.push(4);
                expr(rng, f, nfns, env, budget - 1, out);
                expr(rng, f, nfns, env, budget - 1, out);
                expr(rng, f, nfns, env, budget - 1, out);
            }
            3 if f + 1 < nfns => {
                out.extend([5, rng.range(f as u64 + 1, nfns as u64 - 1)]);
                expr(rng, f, nfns, env, budget - 1, out);
            }
            4 => {
                out.push(6);
                expr(rng, f, nfns, env, budget - 1, out);
                expr(rng, f, nfns, env + 1, budget - 1, out);
            }
            _ => {
                out.push(2);
                expr(rng, f, nfns, env, budget - 1, out);
                out.extend([0, rng.range(1, 9)]);
            }
        }
    }
    let nfns = rng.range(1, 4) as usize;
    let mut fns = Vec::with_capacity(nfns);
    for f in 0..nfns {
        let mut body = Vec::new();
        if f == 0 && rng.below(3) == 0 {
            // ifz x then c else (x OP f0 (x - 1)) with OP in {+, *}.
            body.extend([4, 1, 0, 0, rng.range(1, 5)]);
            body.push(if rng.below(2) == 0 { 2 } else { 3 });
            expr(rng, f, nfns, 1, 2, &mut body);
            body.extend([5, 0, 7, 1, 0, 0, 1]);
        } else {
            expr(rng, f, nfns, 1, 5, &mut body);
        }
        fns.push(body);
    }
    fns
}

/// An encoded program as an object-language list value.
pub fn list_value(items: &[u64]) -> Value {
    Value::list(items.iter().map(|&n| Value::nat(n)).collect())
}

/// A function table as a list of lists.
pub fn table_value(fns: &[Vec<u64>]) -> Value {
    Value::list(fns.iter().map(|b| list_value(b)).collect())
}

/// A list in the CLI/daemon value syntax (`[1;2;3]`).
pub fn list_literal(items: &[u64]) -> String {
    let parts: Vec<String> = items.iter().map(u64::to_string).collect();
    format!("[{}]", parts.join(";"))
}

// ---------------------------------------------------------------------
// Daemon request streams

/// Which inline program a request names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    Power,
    Interp,
}

impl Program {
    pub fn source(self) -> &'static str {
        match self {
            Program::Power => POWER,
            Program::Interp => INTERP,
        }
    }
}

/// One daemon request of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    /// Inline `spec` of `program` at `entry` with division `args`.
    Spec {
        program: Program,
        entry: &'static str,
        args: String,
    },
    /// `spec` against the library `.gx` directory.
    Dir { entry: String, args: String },
    /// `run` of an inline program: specialise (or memo-hit), then execute
    /// on `values`.
    Run {
        program: Program,
        entry: &'static str,
        args: String,
        values: String,
    },
}

/// Hot inline spec keys (Zipf-distributed; all seen early in a run, so
/// they hit the daemon's memo from then on).
pub const HOT_KEYS: usize = 64;
/// Library-directory key space (Zipf-distributed).
pub const DIR_KEYS: usize = 128;

/// The inline spec request for key `k` — a pure function of the seed and
/// `k`, so every client thread maps a key to the same request. Sizes are
/// stratified over the key ranks: even keys are `power` at exponents
/// 2–601, odd keys interpreter programs of depth 3–5.
pub fn spec_key(seed: u64, k: usize) -> Req {
    let mut rng = Rng::new(seed).fork(0x5EC0_0000 + k as u64);
    let rank = (k / 2) as u64;
    if k.is_multiple_of(2) {
        let n = 2 + (rank % 50) * 12 + rng.below(12);
        Req::Spec {
            program: Program::Power,
            entry: "Power.power",
            args: format!("S:{n},D"),
        }
    } else {
        let p = interp_program(&mut rng, 3 + (rank % 3) as u32);
        Req::Spec {
            program: Program::Interp,
            entry: "Interp.run",
            args: format!("S:{},D", list_literal(&p)),
        }
    }
}

/// The library-directory request for key `k`.
pub fn dir_key(seed: u64, k: usize, lib: &Dag) -> Req {
    let mut rng = Rng::new(seed).fork(0xD1E0_0000 + k as u64);
    if k == 0 {
        return Req::Dir {
            entry: "Main.main".into(),
            args: "D".into(),
        };
    }
    let (m, f) = rng.pick(&lib.functions).clone();
    Req::Dir {
        entry: format!("{m}.{f}"),
        args: format!("S:{},D", rng.range(1, 5)),
    }
}

/// The per-thread request stream of the `daemon_mix` workload: sessions
/// of 4–16 requests. Classes: 70% inline spec — 85% of them over the
/// Zipf hot keys, 15% a key no request used before (an interpreter
/// program: a memo miss) — 10% library directory spec (Zipf keys), 20%
/// `run`, of which four in five run `power` with a dynamic exponent of
/// 2000–38000 (20000 on average) and the rest a static-exponent residual.
/// The shares are an assumption, not a measured traffic mix: no request
/// trace exists to derive them from (`perfbench/README.md` gives the
/// reason for each). The fixed hot/cold split keeps the memo hit ratio
/// the same all through a run.
#[derive(Debug, Clone)]
pub struct Sessions {
    seed: u64,
    thread: u64,
    threads: u64,
    cold: u64,
    rng: Rng,
    spec_zipf: Zipf,
    dir_zipf: Zipf,
    lib: Dag,
}

impl Sessions {
    pub fn new(seed: u64, thread: u64, threads: u64, lib: Dag) -> Sessions {
        Sessions {
            seed,
            thread,
            threads,
            cold: 0,
            rng: Rng::new(seed).fork(0x7E55_0000 + thread),
            spec_zipf: Zipf::new(HOT_KEYS, 1.0),
            dir_zipf: Zipf::new(DIR_KEYS, 1.0),
            lib,
        }
    }

    pub fn next_session(&mut self) -> Vec<Req> {
        let len = self.rng.range(4, 16) as usize;
        (0..len).map(|_| self.next_request()).collect()
    }

    fn next_request(&mut self) -> Req {
        let r = self.rng.below(100);
        if r < 70 {
            if self.rng.below(100) < 15 {
                // Odd keys are interpreter programs; this one is unique
                // to the thread and the count.
                let k = HOT_KEYS as u64 + 2 * (self.cold * self.threads + self.thread) + 1;
                self.cold += 1;
                spec_key(self.seed, k as usize)
            } else {
                spec_key(self.seed, self.spec_zipf.sample(&mut self.rng))
            }
        } else if r < 80 {
            dir_key(self.seed, self.dir_zipf.sample(&mut self.rng), &self.lib)
        } else if r < 96 {
            let n = self.rng.range(2_000, 38_000);
            let x = self.rng.range(2, 9);
            Req::Run {
                program: Program::Power,
                entry: "Power.power",
                args: "D,D".into(),
                values: format!("{n},{x}"),
            }
        } else {
            let n = self.rng.range(2, 64);
            Req::Run {
                program: Program::Power,
                entry: "Power.power",
                args: format!("S:{n},D"),
                values: self.rng.range(0, 1000).to_string(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_sources() {
        for layered in [true, false] {
            let a = dag(&mut Rng::new(7), 33, layered);
            let b = dag(&mut Rng::new(7), 33, layered);
            assert_eq!(a.source().as_bytes(), b.source().as_bytes());
            assert_ne!(a.source(), dag(&mut Rng::new(8), 33, layered).source());
        }
        assert_eq!(
            interp_program(&mut Rng::new(3), 6),
            interp_program(&mut Rng::new(3), 6)
        );
        assert_eq!(
            self_interp_program(&mut Rng::new(3)),
            self_interp_program(&mut Rng::new(3))
        );
    }

    #[test]
    fn same_seed_gives_identical_request_streams() {
        let lib = dag(&mut Rng::new(11), 20, true);
        let stream = |seed: u64, thread: u64| {
            let mut s = Sessions::new(seed, thread, 2, lib.clone());
            (0..50).map(|_| s.next_session()).collect::<Vec<_>>()
        };
        assert_eq!(stream(5, 0), stream(5, 0));
        assert_ne!(stream(5, 0), stream(5, 1));
        assert_ne!(stream(5, 0), stream(6, 0));
    }

    #[test]
    fn generated_programs_are_well_formed() {
        let mut rng = Rng::new(1);
        for i in 0..6 {
            let d = dag(&mut rng, 20 + i, i % 2 == 0);
            mspec_core::Pipeline::from_source(&d.source()).expect("DAG compiles");
        }
        for depth in 4..=7 {
            let p = interp_program(&mut rng, depth);
            assert_eq!(encoded_depth(&p), depth as usize);
        }
    }

    fn encoded_depth(p: &[u64]) -> usize {
        fn go(p: &[u64], i: &mut usize) -> usize {
            let op = p[*i];
            *i += 1;
            match op {
                0 => {
                    *i += 1;
                    0
                }
                1 => 0,
                _ => 1 + go(p, i).max(go(p, i)),
            }
        }
        go(p, &mut 0)
    }

    #[test]
    fn strata_cover_the_range() {
        let mut rng = Rng::new(9);
        let sizes: Vec<usize> = (0..8).map(|i| dag_size(&mut rng, i, 8)).collect();
        assert!(sizes[0] < 26 && sizes[7] > 54, "{sizes:?}");
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");
    }
}
