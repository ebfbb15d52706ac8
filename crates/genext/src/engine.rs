//! The specialisation engine: the "common code" every generating
//! extension links against (§6 reports ~300 lines of Haskell; this is
//! the grown-up Rust version).
//!
//! The engine provides:
//!
//! * the `mk_*` operations — each [`GExp`] node consults its compiled
//!   binding time against the call's mask and either computes or builds
//!   residual code,
//! * `mk_resid` — memoised polyvariant specialisation of named
//!   functions: arguments are split into static skeletons and dynamic
//!   leaves, the skeleton (plus mask) is the memo key, leaves become the
//!   residual function's formal parameters,
//! * coercions, including lifting static data to code and eta-expanding
//!   static closures,
//! * residual-module placement at first-call time (§5) and streamed
//!   emission of finished definitions,
//! * breadth-first (pending list — the paper's choice, "considerably
//!   more space efficient") and depth-first strategies, with the
//!   accounting needed to reproduce that comparison.
//!
//! Performance notes: environments hold `Rc<PVal>`, so a variable lookup
//! is a reference-count bump and applying a closure shares its captured
//! frame instead of copying it. The memo table is probed by a structural
//! hash computed during splitting ([`split_hashed`]); the full [`PKey`]
//! skeletons are only compared on a hash collision. Static evaluation
//! avoids allocation where it can: a coercion that lifts nothing under
//! the call's mask ([`GCoerce::is_noop`]) hands its input on without
//! walking it, literals and static primitive results come from a fixed
//! set of shared constants (both booleans, `[]`, small naturals), and
//! primitive arguments are evaluated into a fixed-size array. `eval`
//! recurses once per nesting level of the object program, unfolded calls
//! included, so everything off that path (the residualising half of a
//! call, residual-code builders, error formatting) is kept out of line
//! to keep the host-stack frame small.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::budget::{BudgetResource, CancelToken, Fuel, OnExhaustion, SpecBudget};
use crate::emit::{assemble, MemorySink, ModuleSink, ResidualProgram};
use crate::error::SpecError;
use crate::gexp::{BtCode, GCoerce, GenFn, GenProgram, GExp};
use crate::placement::Placer;
use crate::value::{
    all_holes_hash, hash_fold, rebuild, split_hashed, Closure, Literals, PKey, PVal,
    SKELETON_SEED,
};
use mspec_bta::division::{Division, ParamBt};
use mspec_bta::BtMask;
use mspec_lang::ast::{CallName, Def, Expr, Ident, ModName, PrimOp, QualName};
use mspec_lang::eval::Value;
use mspec_lang::{FromJson, Json, JsonError, ToJson};
use mspec_telemetry::{Decision, Recorder, SpecEvent};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Order in which discovered specialisations are constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's choice: queue requests in a pending list; exactly one
    /// specialisation is under construction at any time and finished
    /// bodies stream out immediately.
    BreadthFirst,
    /// Construct requested specialisations immediately, suspending the
    /// current one — simpler, but the suspended partial bodies pile up.
    DepthFirst,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Specialisation order.
    pub strategy: Strategy,
    /// Resource limits for the session (step fuel, specialisation count,
    /// pending/suspension depth, residual size). See [`SpecBudget`].
    pub budget: SpecBudget,
    /// What happens when a budget resource runs out: a structured
    /// [`SpecError::BudgetExhausted`], or generalising fallback — demote
    /// the offending call to a fully-dynamic residual call so the
    /// session always terminates with a correct program.
    pub on_exhaustion: OnExhaustion,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            strategy: Strategy::BreadthFirst,
            budget: SpecBudget::default(),
            on_exhaustion: OnExhaustion::Error,
        }
    }
}

/// One entry-function argument in a specialisation request.
#[derive(Debug, Clone)]
pub enum SpecArg {
    /// A known value (becomes static data).
    Static(Value),
    /// Unknown until run time (becomes a formal parameter of the
    /// residual entry function).
    Dynamic,
    /// A list of `n` unknown elements with a known spine (partially
    /// static; becomes `n` formal parameters).
    StaticSpine(usize),
}

/// Counters describing a specialisation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Residual definitions constructed.
    pub specialisations: usize,
    /// `mk_resid` memo-table lookups performed.
    pub memo_probes: usize,
    /// `mk_resid` requests answered from the memo table.
    pub memo_hits: usize,
    /// Named calls unfolded instead of residualised.
    pub unfolds: usize,
    /// Evaluation steps performed.
    pub steps: u64,
    /// Peak length of the pending list (breadth-first).
    pub peak_pending: usize,
    /// Peak number of simultaneously open (under-construction) bodies —
    /// always 1 for breadth-first, the suspension depth for depth-first.
    /// This is the paper's space argument in one number.
    pub peak_open: usize,
    /// Total AST nodes across all residual definitions.
    pub residual_nodes: usize,
    /// Residual modules touched.
    pub residual_modules: usize,
    /// Calls demoted to fully-dynamic residual calls by the
    /// generalising fallback ([`OnExhaustion::Generalise`]).
    pub generalised: usize,
}

impl SpecStats {
    /// Presentation form for the CLI's unified stats formatter.
    pub fn summary(&self, entry: impl Into<String>) -> mspec_telemetry::SpecSummary {
        mspec_telemetry::SpecSummary {
            entry: entry.into(),
            specialisations: self.specialisations as u64,
            memo_probes: self.memo_probes as u64,
            memo_hits: self.memo_hits as u64,
            unfolds: self.unfolds as u64,
            steps: self.steps,
            peak_pending: self.peak_pending as u64,
            residual_nodes: self.residual_nodes as u64,
            generalised: self.generalised as u64,
        }
    }
}

impl ToJson for SpecStats {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("specialisations", Json::Num(self.specialisations as u128)),
            ("memo_probes", Json::Num(self.memo_probes as u128)),
            ("memo_hits", Json::Num(self.memo_hits as u128)),
            ("unfolds", Json::Num(self.unfolds as u128)),
            ("steps", Json::Num(u128::from(self.steps))),
            ("peak_pending", Json::Num(self.peak_pending as u128)),
            ("peak_open", Json::Num(self.peak_open as u128)),
            ("residual_nodes", Json::Num(self.residual_nodes as u128)),
            ("residual_modules", Json::Num(self.residual_modules as u128)),
            ("generalised", Json::Num(self.generalised as u128)),
        ])
    }
}

impl FromJson for SpecStats {
    fn from_json_value(j: &Json) -> Result<SpecStats, JsonError> {
        Ok(SpecStats {
            specialisations: j.get("specialisations")?.as_usize()?,
            memo_probes: j.get("memo_probes")?.as_usize()?,
            memo_hits: j.get("memo_hits")?.as_usize()?,
            unfolds: j.get("unfolds")?.as_usize()?,
            steps: j.get("steps")?.as_u64()?,
            peak_pending: j.get("peak_pending")?.as_usize()?,
            peak_open: j.get("peak_open")?.as_usize()?,
            residual_nodes: j.get("residual_nodes")?.as_usize()?,
            residual_modules: j.get("residual_modules")?.as_usize()?,
            generalised: j.get("generalised")?.as_usize()?,
        })
    }
}

/// Hash-first memo key: the structural hash of the split skeletons
/// stands in for the skeletons themselves, so a probe compares three
/// machine words. Full [`PKey`] vectors are kept in the bucket and only
/// compared when hashes collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SpecKey {
    pub(crate) target: QualName,
    pub(crate) mask: u128,
    pub(crate) hash: u64,
}

/// Where one residual definition came from: the paper's relationship
/// between source functions and their polyvariant specialisations, made
/// inspectable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// The source function that was specialised.
    pub source: QualName,
    /// The binding-time mask of this variant.
    pub mask: BtMask,
    /// Width of the mask (the source signature's variable count).
    pub vars: u32,
    /// The residual definition (module + name).
    pub residual: QualName,
    /// Number of formal parameters of the residual definition (its
    /// dynamic leaves).
    pub formals: usize,
}

pub(crate) struct PendingSpec {
    target: QualName,
    mask: BtMask,
    env: Vec<Rc<PVal>>,
    resid: QualName,
    formals: Vec<Ident>,
    /// Structural hash of the request's static skeleton (for budget
    /// diagnostics).
    hash: u64,
}

/// The specialisation engine over a linked [`GenProgram`].
pub struct Engine<'p> {
    pub(crate) program: &'p GenProgram,
    pub(crate) options: EngineOptions,
    pub(crate) memo: HashMap<SpecKey, Vec<(Vec<PKey>, QualName)>>,
    /// Shared literal values (see [`Literals`]).
    lits: Literals,
    pub(crate) pending: VecDeque<PendingSpec>,
    pub(crate) placer: Placer,
    pub(crate) name_counters: HashMap<QualName, u32>,
    pub(crate) gensym: u64,
    open: usize,
    pub(crate) fuel: Fuel,
    /// The stack of specialisation/unfold requests currently being
    /// served: `(target, skeleton hash)`, outermost first. Snapshotted
    /// into [`SpecError::BudgetExhausted`] so a diverging cycle is
    /// visible in the error.
    pub(crate) chain: Vec<(QualName, u64)>,
    pub(crate) stats: SpecStats,
    pub(crate) imports: BTreeMap<ModName, BTreeSet<ModName>>,
    pub(crate) provenance: Vec<Provenance>,
    pub(crate) recorder: Recorder,
    /// External cancellation handle (request deadlines, disconnecting
    /// clients); polled on the step-fuel path. `None` = never cancelled.
    cancel: Option<CancelToken>,
    /// Residual definitions currently under construction, innermost
    /// last — the *parent* attribution for decision events (which
    /// residual body a request arose inside).
    pub(crate) resid_stack: Vec<QualName>,
    /// Present when this engine is a *worker* of the concurrent driver
    /// ([`crate::parallel`]): naming side effects (fresh residual names,
    /// gensyms, placement) are replaced by placeholders and recorded for
    /// the driver's deterministic replay, and step fuel is claimed in
    /// chunks from a pool shared with the other workers.
    pub(crate) par: Option<Box<crate::parallel::ParCtx>>,
}

impl<'p> Engine<'p> {
    /// Creates an engine with the given options.
    pub fn new(program: &'p GenProgram, options: EngineOptions) -> Engine<'p> {
        Engine::with_recorder(program, options, Recorder::disabled())
    }

    /// [`Engine::new`] with a telemetry recorder: the engine emits one
    /// decision event per specialisation request (entry, unfold, memo
    /// hit, residualise, generalise) plus session counters and a
    /// pending-depth histogram.
    pub fn with_recorder(
        program: &'p GenProgram,
        options: EngineOptions,
        recorder: Recorder,
    ) -> Engine<'p> {
        Engine {
            program,
            options,
            memo: HashMap::new(),
            lits: Literals::new(),
            pending: VecDeque::new(),
            placer: Placer::new(program.graph()),
            name_counters: HashMap::new(),
            gensym: 0,
            open: 0,
            fuel: Fuel::new(options.budget.steps),
            chain: Vec::new(),
            stats: SpecStats::default(),
            imports: BTreeMap::new(),
            provenance: Vec::new(),
            recorder,
            cancel: None,
            resid_stack: Vec::new(),
            par: None,
        }
    }

    /// Attaches a [`CancelToken`]: when some other thread fires it, or
    /// its deadline passes, the session aborts with
    /// [`SpecError::Cancelled`] at the next check point (at most
    /// [`CancelToken::CHECK_MASK`]` + 1` steps later).
    /// This is the hook wall-clock deadlines hang off: the token carries
    /// the deadline, so no timer thread is needed to enforce it.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// One decision event, fully attributed: what was requested, what
    /// was decided and why, where the request arose, and how much
    /// budget headroom was left. No-op (and no formatting) when the
    /// recorder is disabled.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_decision(
        &self,
        decision: Decision,
        target: &QualName,
        mask: BtMask,
        vars: u32,
        skeleton_hash: u64,
        probe: bool,
        residual: Option<&QualName>,
        witness: String,
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        let mut ev = SpecEvent::request(target.to_string(), mask.render(vars));
        ev.decision = decision;
        ev.skeleton_hash = skeleton_hash;
        ev.probe = probe;
        ev.residual = residual.map(QualName::to_string).unwrap_or_default();
        ev.witness = witness;
        ev.parent = self.resid_stack.last().map(QualName::to_string).unwrap_or_default();
        ev.chain_depth = self.chain.len() as u64;
        ev.pending = self.pending.len() as u64;
        ev.fuel_left = self.fuel.remaining();
        ev.specs_left = self
            .options
            .budget
            .max_specialisations
            .saturating_sub(self.provenance.len()) as u64;
        self.recorder.spec(ev);
    }

    /// Counters for the run so far.
    pub fn stats(&self) -> &SpecStats {
        &self.stats
    }

    /// The imports each residual module has accumulated (for
    /// [`crate::emit::FileSink::finish`]).
    pub fn residual_imports(&self) -> &BTreeMap<ModName, BTreeSet<ModName>> {
        &self.imports
    }

    /// The provenance of every residual definition created so far, in
    /// creation order (the entry first).
    pub fn provenance(&self) -> &[Provenance] {
        &self.provenance
    }

    /// Specialises `entry` with respect to the given arguments and
    /// returns the assembled residual program.
    ///
    /// # Errors
    ///
    /// Any [`SpecError`]; notably [`SpecError::BudgetExhausted`] when
    /// the source program diverges on the static inputs and the policy
    /// is [`OnExhaustion::Error`].
    pub fn specialise(
        &mut self,
        entry: &QualName,
        args: Vec<SpecArg>,
    ) -> Result<ResidualProgram, SpecError> {
        let mut sink = MemorySink::new();
        let entry_resid = self.specialise_streaming(entry, args, &mut sink)?;
        assemble(sink.into_modules(), entry_resid)
    }

    /// Specialises `entry`, streaming every finished residual definition
    /// to `sink` the moment it is constructed (the paper's low-memory
    /// mode). Returns the residual entry function; imports for the
    /// second emission pass are available from
    /// [`Engine::residual_imports`].
    ///
    /// # Errors
    ///
    /// Any [`SpecError`].
    pub fn specialise_streaming(
        &mut self,
        entry: &QualName,
        args: Vec<SpecArg>,
        sink: &mut dyn ModuleSink,
    ) -> Result<QualName, SpecError> {
        let f = self
            .program
            .function(entry)
            .ok_or(SpecError::UnknownEntry(*entry))?;
        if f.params.len() != args.len() {
            return Err(SpecError::EntryArity {
                entry: *entry,
                expected: f.params.len(),
                found: args.len(),
            });
        }
        let division = Division(
            args.iter()
                .map(|a| match a {
                    SpecArg::Static(_) => ParamBt::Static,
                    SpecArg::Dynamic => ParamBt::Dynamic,
                    SpecArg::StaticSpine(_) => ParamBt::StaticSpine,
                })
                .collect(),
        );
        let mask = division
            .mask_for(&f.sig)
            .map_err(|e| SpecError::TypeConfusion(e.to_string()))?;

        // Build the argument values; dynamic positions reference the
        // residual entry's formal parameters by their original names.
        let mut vals = Vec::with_capacity(args.len());
        for (a, p) in args.iter().zip(&f.params) {
            vals.push(match a {
                SpecArg::Static(v) => PVal::from_value(v).ok_or_else(|| {
                    SpecError::TypeConfusion(format!(
                        "closure values cannot be specialisation inputs (parameter {p})"
                    ))
                })?,
                SpecArg::Dynamic => PVal::Code(Expr::Var(*p)),
                SpecArg::StaticSpine(n) => {
                    let mut list = PVal::Nil;
                    for i in (0..*n).rev() {
                        let name = Ident::new(format!("{p}{i}"));
                        list = PVal::Cons(
                            Rc::new(PVal::Code(Expr::Var(name))),
                            Rc::new(list),
                        );
                    }
                    list
                }
            });
        }

        // The entry is always residualised (it is the program we are
        // generating), keeping its original name.
        let mut leaves = Vec::new();
        let mut keys = Vec::with_capacity(vals.len());
        let mut hash = SKELETON_SEED;
        for v in &vals {
            let (k, h) = split_hashed(v, &mut leaves);
            hash = hash_fold(hash, h);
            keys.push(k);
        }
        let formals: Vec<Ident> = uniquify(
            leaves
                .iter()
                .enumerate()
                .map(|(i, l)| match l {
                    Expr::Var(x) => *x,
                    _ => Ident::new(format!("d{i}")),
                })
                .collect(),
        );
        let mut free = vec![*entry];
        for v in &vals {
            v.free_fns(&mut free);
        }
        let module = self.placer.place(&free, self.program.graph());
        let resid = QualName { module, name: entry.name };
        self.memo_insert(*entry, mask, keys, hash, resid);
        self.provenance.push(Provenance {
            source: *entry,
            mask,
            vars: f.sig.vars,
            residual: resid,
            formals: formals.len(),
        });
        self.record_decision(
            Decision::Entry,
            entry,
            mask,
            f.sig.vars,
            hash,
            false,
            Some(&resid),
            String::new(),
        );
        let mut next = 0;
        let env: Vec<Rc<PVal>> =
            vals.iter().map(|v| Rc::new(rebuild(v, &formals, &mut next))).collect();
        let spec = PendingSpec { target: *entry, mask, env, resid, formals, hash };
        self.construct(spec, sink)?;
        self.drain(sink)?;
        self.flush_counters();
        Ok(resid)
    }

    /// Exports the session counters and the peak gauges once, at the
    /// end of a successful specialisation.
    pub(crate) fn flush_counters(&self) {
        if !self.recorder.is_enabled() {
            return;
        }
        let s = &self.stats;
        self.recorder.count("genext.specialisations", s.specialisations as u64);
        self.recorder.count("genext.memo_probes", s.memo_probes as u64);
        self.recorder.count("genext.memo_hits", s.memo_hits as u64);
        self.recorder.count("genext.unfolds", s.unfolds as u64);
        self.recorder.count("genext.steps", s.steps);
        self.recorder.count("genext.residual_nodes", s.residual_nodes as u64);
        self.recorder.count("genext.residual_modules", s.residual_modules as u64);
        self.recorder.count("genext.generalised", s.generalised as u64);
        self.recorder.count_max("genext.peak_pending", s.peak_pending as u64);
        self.recorder.count_max("genext.peak_open", s.peak_open as u64);
    }

    fn drain(&mut self, sink: &mut dyn ModuleSink) -> Result<(), SpecError> {
        while let Some(spec) = self.pending.pop_front() {
            self.construct(spec, sink)?;
        }
        Ok(())
    }

    /// Constructs one residual definition (and, depth-first, everything
    /// it transitively requests).
    fn construct(
        &mut self,
        spec: PendingSpec,
        sink: &mut dyn ModuleSink,
    ) -> Result<(), SpecError> {
        self.open += 1;
        self.stats.peak_open = self.stats.peak_open.max(self.open);
        if self.options.on_exhaustion == OnExhaustion::Error
            && self.open > self.options.budget.max_pending
        {
            return Err(
                self.budget_error(BudgetResource::Pending, Some((spec.target, spec.hash)))
            );
        }
        let f = self
            .program
            .function(&spec.target)
            .ok_or(SpecError::UnknownFunction(spec.target))?;
        let body = Arc::clone(&f.body);
        let mut env = spec.env;
        self.chain.push((spec.target, spec.hash));
        self.resid_stack.push(spec.resid);
        let result = self.eval(&body, &mut env, spec.mask, spec.target.module, sink)?;
        let body_expr = self.lift_owned(result, sink)?;
        let def = Def::new(spec.resid.name, spec.formals, body_expr);
        self.stats.specialisations += 1;
        self.stats.residual_nodes += def.body.size();
        if self.options.on_exhaustion == OnExhaustion::Error
            && self.stats.residual_nodes > self.options.budget.max_residual_nodes
        {
            return Err(
                self.budget_error(BudgetResource::ResidualNodes, Some((spec.target, spec.hash)))
            );
        }
        let imports = self.imports.entry(spec.resid.module).or_default();
        for q in def.body.called_functions() {
            if q.module != spec.resid.module {
                imports.insert(q.module);
            }
        }
        sink.emit(&spec.resid.module, &def)?;
        self.stats.residual_modules = self.imports.len();
        self.resid_stack.pop();
        self.chain.pop();
        self.open -= 1;
        Ok(())
    }

    /// Spends one unit of step fuel. Under [`OnExhaustion::Generalise`]
    /// an empty meter is *not* an error here: evaluation between named
    /// calls is structural and terminates on its own, and the next
    /// `call` checks the budget and demotes. Erroring mid-evaluation
    /// would leave no call site to generalise.
    fn step(&mut self) -> Result<(), SpecError> {
        self.stats.steps += 1;
        if self.stats.steps & CancelToken::CHECK_MASK == 0 {
            if let Some(token) = &self.cancel {
                if token.is_cancelled() {
                    return Err(self.cancel_error());
                }
            }
        }
        if let Some(par) = self.par.as_mut() {
            // Worker mode: fuel comes from a pool shared with the other
            // workers (claimed in chunks to keep contention negligible);
            // the policy is always `Error` here (the driver falls back
            // to the sequential engine otherwise).
            if !par.spend_fuel() {
                return Err(self.budget_error(BudgetResource::Steps, None));
            }
            return Ok(());
        }
        if !self.fuel.spend() && self.options.on_exhaustion == OnExhaustion::Error {
            return Err(self.budget_error(BudgetResource::Steps, None));
        }
        Ok(())
    }

    /// A [`SpecError::Cancelled`] naming the innermost in-flight request
    /// (mirrors [`Engine::budget_error`]'s witness choice for fuel).
    fn cancel_error(&self) -> SpecError {
        let witness = self
            .chain
            .last()
            .map(|(q, _)| *q)
            .unwrap_or(QualName::new("?", "?"));
        SpecError::Cancelled { witness, steps: self.stats.steps }
    }

    /// The first breached budget resource, if any. Checked at every
    /// `mk_resid`/unfold decision point: all recursion in the object
    /// language flows through named calls, so this catches every
    /// divergence.
    fn budget_breached(&self) -> Option<BudgetResource> {
        let b = &self.options.budget;
        if self.fuel.is_empty() {
            Some(BudgetResource::Steps)
        } else if self.provenance.len() >= b.max_specialisations {
            Some(BudgetResource::Specialisations)
        } else if self.pending.len() >= b.max_pending || self.open > b.max_pending {
            Some(BudgetResource::Pending)
        } else if self.stats.residual_nodes >= b.max_residual_nodes {
            Some(BudgetResource::ResidualNodes)
        } else {
            None
        }
    }

    /// Builds a [`SpecError::BudgetExhausted`] from the current request
    /// chain. `at` names the offending call; when the breach is detected
    /// mid-evaluation (step fuel), the innermost chain frame stands in.
    pub(crate) fn budget_error(
        &self,
        resource: BudgetResource,
        at: Option<(QualName, u64)>,
    ) -> SpecError {
        let (witness, skeleton_hash) = at
            .or_else(|| self.chain.last().copied())
            .unwrap_or((QualName::new("?", "?"), 0));
        const CHAIN_LIMIT: usize = 16;
        let start = self.chain.len().saturating_sub(CHAIN_LIMIT);
        let chain = self.chain[start..].iter().map(|(q, _)| *q).collect();
        SpecError::BudgetExhausted { resource, witness, skeleton_hash, chain }
    }

    fn fresh(&mut self, base: Ident) -> Ident {
        if let Some(par) = self.par.as_mut() {
            // Worker mode: hand out a placeholder from this worker's
            // disjoint range and log the base; the driver's replay
            // assigns the canonical `{base}'{gensym}` names in
            // breadth-first order and renames the placeholders.
            return par.fresh_placeholder(base);
        }
        self.gensym += 1;
        Ident::new(format!("{base}'{}", self.gensym))
    }

    /// Memo lookup: an O(1) probe on `(target, mask, hash)` plus a
    /// collision-checked skeleton compare within the bucket.
    fn memo_find(
        &mut self,
        target: QualName,
        mask: BtMask,
        keys: &[PKey],
        hash: u64,
    ) -> Option<QualName> {
        self.stats.memo_probes += 1;
        let bucket = self.memo.get(&SpecKey { target, mask: mask.0, hash })?;
        bucket.iter().find(|(k, _)| k.as_slice() == keys).map(|(_, r)| *r)
    }

    fn memo_insert(
        &mut self,
        target: QualName,
        mask: BtMask,
        keys: Vec<PKey>,
        hash: u64,
        resid: QualName,
    ) {
        self.memo
            .entry(SpecKey { target, mask: mask.0, hash })
            .or_default()
            .push((keys, resid));
    }

    /// `mk_resid` plus the unfold decision: the call side of §4.2.
    fn call(
        &mut self,
        target: &QualName,
        mask: BtMask,
        args: Vec<Rc<PVal>>,
        sink: &mut dyn ModuleSink,
    ) -> Result<Rc<PVal>, SpecError> {
        let f = self
            .program
            .function(target)
            .ok_or(SpecError::UnknownFunction(*target))?;
        debug_assert!(f.sig.satisfies(mask), "instantiation violated {target}'s constraints");
        // Budget gate: every divergence passes through here (recursion
        // in the object language is only via named calls), so this one
        // check point suffices to demote the offending call.
        if self.options.on_exhaustion == OnExhaustion::Generalise
            && self.budget_breached().is_some()
        {
            return self.generalise(target, args, sink);
        }
        if !f.sig.unfoldable_under(mask) {
            return self.residualise(f, target, mask, args, sink);
        }
        self.stats.unfolds += 1;
        if self.recorder.is_enabled() {
            self.record_unfold(f, target, mask);
        }
        let mut env = args;
        self.chain.push((*target, 0));
        let r = self.eval(&f.body, &mut env, mask, target.module, sink)?;
        self.chain.pop();
        Ok(r)
    }

    /// The unfold decision event (telemetry only).
    #[inline(never)]
    fn record_unfold(&mut self, f: &GenFn, target: &QualName, mask: BtMask) {
        let witness =
            format!("unfold term {} = S under {}", f.sig.unfold, mask.render(f.sig.vars));
        if self.par.is_some() {
            // Worker mode: buffer the event; replay emits it with the
            // sequential budget gauges.
            self.buffer_unfold_event(target, mask, f.sig.vars, witness);
        } else {
            let vars = f.sig.vars;
            self.record_decision(Decision::Unfold, target, mask, vars, 0, false, None, witness);
        }
    }

    /// `mk_resid` proper: split the arguments, memoise on the static
    /// skeleton, and name, place and queue a new specialisation on a
    /// miss. Kept out of line: [`Engine::call`]'s unfold path lies on
    /// the recursion of every unfolded call, and this path's locals
    /// would otherwise widen that frame.
    #[inline(never)]
    fn residualise(
        &mut self,
        f: &GenFn,
        target: &QualName,
        mask: BtMask,
        args: Vec<Rc<PVal>>,
        sink: &mut dyn ModuleSink,
    ) -> Result<Rc<PVal>, SpecError> {
        let mut leaves = Vec::new();
        let mut keys = Vec::with_capacity(args.len());
        let mut leaf_names: Vec<Ident> = Vec::new();
        let mut hash = SKELETON_SEED;
        for (arg, p) in args.iter().zip(&f.params) {
            let before = leaves.len();
            let (k, h) = split_hashed(arg, &mut leaves);
            hash = hash_fold(hash, h);
            keys.push(k);
            let count = leaves.len() - before;
            for j in 0..count {
                // Prefer the leaf's own variable name (the paper's
                // `map_g z ys` keeps the captured `z` recognisable),
                // falling back to the parameter name.
                leaf_names.push(match &leaves[before + j] {
                    Expr::Var(x) => *x,
                    _ if count == 1 => *p,
                    _ => Ident::new(format!("{p}_{j}")),
                });
            }
        }
        if self.par.is_some() {
            // Worker mode: probe the shared memo table and this body's
            // own earlier claims; on a miss, return a placeholder call
            // and record a child request for the driver to resolve with
            // the exact sequential naming and placement.
            return self.residualise_par(target, f.sig.vars, mask, &args, keys, leaves, leaf_names, hash);
        }
        if let Some(resid) = self.memo_find(*target, mask, &keys, hash) {
            self.stats.memo_hits += 1;
            self.record_decision(
                Decision::MemoHit,
                target,
                mask,
                f.sig.vars,
                hash,
                true,
                Some(&resid),
                String::new(),
            );
            return Ok(Rc::new(PVal::Code(Expr::Call(CallName::from(resid), leaves))));
        }

        // New specialisation: name it, place it (§5: at first call,
        // before the body exists), then queue or recurse.
        if self.provenance.len() >= self.options.budget.max_specialisations {
            return Err(
                self.budget_error(BudgetResource::Specialisations, Some((*target, hash)))
            );
        }
        let counter = self.name_counters.entry(*target).or_insert(0);
        *counter += 1;
        let resid_name = Ident::new(format!("{}_{}", target.name, counter));
        let mut free = vec![*target];
        for a in &args {
            a.free_fns(&mut free);
        }
        let module = self.placer.place(&free, self.program.graph());
        let resid = QualName { module, name: resid_name };
        self.memo_insert(*target, mask, keys, hash, resid);

        let formals = uniquify(leaf_names);
        self.provenance.push(Provenance {
            source: *target,
            mask,
            vars: f.sig.vars,
            residual: resid,
            formals: formals.len(),
        });
        let mut next = 0;
        let env: Vec<Rc<PVal>> = args
            .iter()
            .map(|a| Rc::new(rebuild(a, &formals, &mut next)))
            .collect();
        let spec = PendingSpec {
            target: *target,
            mask,
            env,
            resid,
            formals,
            hash,
        };
        if self.recorder.is_enabled() {
            self.record_decision(
                Decision::Residualise,
                target,
                mask,
                f.sig.vars,
                hash,
                true,
                Some(&resid),
                format!(
                    "unfold term {} = D under {}",
                    f.sig.unfold,
                    mask.render(f.sig.vars)
                ),
            );
        }
        match self.options.strategy {
            Strategy::BreadthFirst => {
                if self.pending.len() >= self.options.budget.max_pending {
                    return Err(
                        self.budget_error(BudgetResource::Pending, Some((*target, hash)))
                    );
                }
                self.pending.push_back(spec);
                self.stats.peak_pending = self.stats.peak_pending.max(self.pending.len());
                self.recorder.observe("genext.pending_depth", self.pending.len() as u64);
            }
            Strategy::DepthFirst => self.construct(spec, sink)?,
        }
        Ok(Rc::new(PVal::Code(Expr::Call(CallName::from(resid), leaves))))
    }

    /// Generalising fallback: demote `target` to a fully-dynamic
    /// residual call. The static skeleton is abandoned — every argument
    /// is lifted to code, so the memo key is all [`PKey::Hole`]s and at
    /// most one generalised variant per source function ever exists.
    /// With finitely many functions, each body finite and evaluated
    /// under a breached budget that keeps every further call on this
    /// path, the session terminates; the residual program is correct,
    /// merely less specialised (the classic generalisation move of
    /// offline partial evaluation, applied on demand instead of by
    /// reannotation).
    ///
    /// Note the unfold decision is deliberately skipped: a recursive
    /// function without static conditionals is unfoldable under *every*
    /// mask and would unfold forever.
    #[inline(never)]
    fn generalise(
        &mut self,
        target: &QualName,
        args: Vec<Rc<PVal>>,
        sink: &mut dyn ModuleSink,
    ) -> Result<Rc<PVal>, SpecError> {
        let f = self
            .program
            .function(target)
            .ok_or(SpecError::UnknownFunction(*target))?;
        let mask = BtMask::all_dynamic(f.sig.vars);
        let mut leaves = Vec::with_capacity(args.len());
        for a in &args {
            leaves.push(self.lift(a, sink)?);
        }
        let keys = vec![PKey::Hole; leaves.len()];
        let hash = all_holes_hash(leaves.len());
        if let Some(resid) = self.memo_find(*target, mask, &keys, hash) {
            self.stats.memo_hits += 1;
            self.record_decision(
                Decision::MemoHit,
                target,
                mask,
                f.sig.vars,
                hash,
                true,
                Some(&resid),
                String::new(),
            );
            return Ok(Rc::new(PVal::Code(Expr::Call(CallName::from(resid), leaves))));
        }
        self.stats.generalised += 1;
        let counter = self.name_counters.entry(*target).or_insert(0);
        *counter += 1;
        let resid_name = Ident::new(format!("{}_{}", target.name, counter));
        let module = self.placer.place(&[*target], self.program.graph());
        let resid = QualName { module, name: resid_name };
        self.memo_insert(*target, mask, keys, hash, resid);
        let formals = uniquify(
            leaves
                .iter()
                .zip(&f.params)
                .map(|(l, p)| match l {
                    Expr::Var(x) => *x,
                    _ => *p,
                })
                .collect(),
        );
        self.provenance.push(Provenance {
            source: *target,
            mask,
            vars: f.sig.vars,
            residual: resid,
            formals: formals.len(),
        });
        if self.recorder.is_enabled() {
            let resource = self.budget_breached();
            self.record_decision(
                Decision::Generalise,
                target,
                mask,
                f.sig.vars,
                hash,
                true,
                Some(&resid),
                match resource {
                    Some(r) => format!("budget breached ({r:?}): demoted to all-dynamic variant"),
                    None => "demoted to all-dynamic variant".to_string(),
                },
            );
        }
        let env: Vec<Rc<PVal>> =
            formals.iter().map(|x| Rc::new(PVal::Code(Expr::Var(*x)))).collect();
        let spec = PendingSpec { target: *target, mask, env, resid, formals, hash };
        match self.options.strategy {
            Strategy::BreadthFirst => {
                self.pending.push_back(spec);
                self.stats.peak_pending = self.stats.peak_pending.max(self.pending.len());
                self.recorder.observe("genext.pending_depth", self.pending.len() as u64);
            }
            Strategy::DepthFirst => self.construct(spec, sink)?,
        }
        Ok(Rc::new(PVal::Code(Expr::Call(CallName::from(resid), leaves))))
    }

    /// Evaluates a generating-extension expression under a binding-time
    /// mask. `module` is the module the expression's source occurs in
    /// (for closure identity and placement).
    pub(crate) fn eval(
        &mut self,
        e: &GExp,
        env: &mut Vec<Rc<PVal>>,
        mask: BtMask,
        module: ModName,
        sink: &mut dyn ModuleSink,
    ) -> Result<Rc<PVal>, SpecError> {
        self.step()?;
        match e {
            GExp::Nat(n) => Ok(self.lits.nat(*n)),
            GExp::Bool(b) => Ok(self.lits.boolean(*b)),
            GExp::Nil => Ok(self.lits.nil()),
            GExp::Var(i) => Ok(Rc::clone(&env[*i as usize])),
            GExp::Prim(op, code, args) => match args.as_slice() {
                [a] => {
                    let a = self.eval(a, env, mask, module, sink)?;
                    self.prim(*op, *code, [a], mask, sink)
                }
                [a, b] => {
                    let a = self.eval(a, env, mask, module, sink)?;
                    let b = self.eval(b, env, mask, module, sink)?;
                    self.prim(*op, *code, [a, b], mask, sink)
                }
                _ => Err(arity_error(*op, args.len())),
            },
            GExp::If(code, c, t, f) => {
                let cv = self.eval(c, env, mask, module, sink)?;
                if code.is_dynamic(mask) {
                    let tv = self.eval(t, env, mask, module, sink)?;
                    let fv = self.eval(f, env, mask, module, sink)?;
                    self.residual_if(cv, tv, fv, sink)
                } else {
                    match &*cv {
                        PVal::Bool(true) => self.eval(t, env, mask, module, sink),
                        PVal::Bool(false) => self.eval(f, env, mask, module, sink),
                        other => Err(type_confusion("static conditional on non-boolean", other)),
                    }
                }
            }
            GExp::Call { target, inst, args } => {
                let mut callee_mask = BtMask::all_static();
                for (i, code) in inst.iter().enumerate() {
                    if code.is_dynamic(mask) {
                        callee_mask = callee_mask.set_dynamic(i as u32);
                    }
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env, mask, module, sink)?);
                }
                self.call(target, callee_mask, vals, sink)
            }
            GExp::Lam { .. } => Ok(closure(e, env, mask, module)),
            GExp::App(code, f, a) => {
                let fv = self.eval(f, env, mask, module, sink)?;
                let av = self.eval(a, env, mask, module, sink)?;
                if code.is_dynamic(mask) {
                    self.residual_app(fv, av, sink)
                } else {
                    match &*fv {
                        PVal::Clo(c) => self.apply_closure(c, av, sink),
                        other => Err(type_confusion("static application of non-closure", other)),
                    }
                }
            }
            GExp::Let(rhs, body) => {
                let v = self.eval(rhs, env, mask, module, sink)?;
                env.push(v);
                let r = self.eval(body, env, mask, module, sink);
                env.pop();
                r
            }
            GExp::Coerce(spec, inner) => {
                let v = self.eval(inner, env, mask, module, sink)?;
                self.coerce(spec, v, mask, sink)
            }
        }
    }

    // The residual builders below stay out of line: `eval` recurses once
    // per nesting level of the object program, so every local it holds
    // is paid for at every level of the host stack.

    #[inline(never)]
    fn residual_if(
        &mut self,
        c: Rc<PVal>,
        t: Rc<PVal>,
        f: Rc<PVal>,
        sink: &mut dyn ModuleSink,
    ) -> Result<Rc<PVal>, SpecError> {
        Ok(Rc::new(PVal::Code(Expr::If(
            Box::new(self.lift_owned(c, sink)?),
            Box::new(self.lift_owned(t, sink)?),
            Box::new(self.lift_owned(f, sink)?),
        ))))
    }

    #[inline(never)]
    fn residual_app(
        &mut self,
        f: Rc<PVal>,
        a: Rc<PVal>,
        sink: &mut dyn ModuleSink,
    ) -> Result<Rc<PVal>, SpecError> {
        Ok(Rc::new(PVal::Code(Expr::App(
            Box::new(self.lift_owned(f, sink)?),
            Box::new(self.lift_owned(a, sink)?),
        ))))
    }

    /// `mk_op` on evaluated arguments: residual code when the primitive's
    /// binding time is `D` under `mask`, the static result otherwise.
    fn prim<const N: usize>(
        &mut self,
        op: PrimOp,
        code: BtCode,
        vals: [Rc<PVal>; N],
        mask: BtMask,
        sink: &mut dyn ModuleSink,
    ) -> Result<Rc<PVal>, SpecError> {
        if code.is_dynamic(mask) {
            let mut lifted = Vec::with_capacity(N);
            for v in vals {
                lifted.push(self.lift_owned(v, sink)?);
            }
            Ok(Rc::new(PVal::Code(Expr::Prim(op, lifted))))
        } else {
            static_prim(&mut self.lits, op, &vals)
        }
    }

    /// Unfolds a static closure: evaluates its generating function on the
    /// argument, under the closure's *origin* mask (its binding times
    /// refer to the signature variables of the function it was written
    /// in). The captured frame is shared, not copied.
    fn apply_closure(
        &mut self,
        c: &Closure,
        arg: Rc<PVal>,
        sink: &mut dyn ModuleSink,
    ) -> Result<Rc<PVal>, SpecError> {
        let mut env = c.env.clone();
        env.push(arg);
        let body = Arc::clone(&c.body);
        self.eval(&body, &mut env, c.mask, c.module, sink)
    }

    /// Applies a compiled coercion to a value under `mask`. A coercion
    /// that lifts nothing ([`GCoerce::is_noop`]) returns `v` itself, so
    /// the spine of a static list is rebuilt only when some element
    /// really rises to `D`.
    ///
    /// # Errors
    ///
    /// Eta-expanding a static closure specialises its body, which can
    /// fail with any [`SpecError`]; a static-spine coercion applied to a
    /// non-list is [`SpecError::TypeConfusion`].
    pub fn coerce(
        &mut self,
        spec: &GCoerce,
        v: Rc<PVal>,
        mask: BtMask,
        sink: &mut dyn ModuleSink,
    ) -> Result<Rc<PVal>, SpecError> {
        if spec.is_noop(mask) {
            Ok(v)
        } else {
            self.coerce_active(spec, v, mask, sink)
        }
    }

    /// [`Engine::coerce`] for a coercion known not to be a no-op under
    /// `mask`: either the whole value lifts to code, or the spine stays
    /// static and its elements are coerced.
    fn coerce_active(
        &mut self,
        spec: &GCoerce,
        v: Rc<PVal>,
        mask: BtMask,
        sink: &mut dyn ModuleSink,
    ) -> Result<Rc<PVal>, SpecError> {
        match spec {
            GCoerce::List { to, elem, .. } if !to.is_dynamic(mask) => {
                self.coerce_spine(elem, v, mask, sink)
            }
            _ => {
                let e = self.lift_owned(v, sink)?;
                Ok(Rc::new(PVal::Code(e)))
            }
        }
    }

    fn coerce_spine(
        &mut self,
        elem: &GCoerce,
        v: Rc<PVal>,
        mask: BtMask,
        sink: &mut dyn ModuleSink,
    ) -> Result<Rc<PVal>, SpecError> {
        match &*v {
            PVal::Nil => Ok(Rc::clone(&v)),
            PVal::Cons(h, t) => {
                let (h, t) = (Rc::clone(h), Rc::clone(t));
                let h2 = self.coerce_active(elem, h, mask, sink)?;
                let t2 = self.coerce_spine(elem, t, mask, sink)?;
                Ok(Rc::new(PVal::Cons(h2, t2)))
            }
            other => Err(SpecError::TypeConfusion(format!(
                "static-spine coercion applied to {other:?}"
            ))),
        }
    }

    /// Lifts an owned value, reclaiming the inner expression without a
    /// copy when this reference is the last one (the common case for
    /// freshly built code).
    pub(crate) fn lift_owned(
        &mut self,
        v: Rc<PVal>,
        sink: &mut dyn ModuleSink,
    ) -> Result<Expr, SpecError> {
        match Rc::try_unwrap(v) {
            Ok(PVal::Code(e)) => Ok(e),
            Ok(owned) => self.lift(&owned, sink),
            Err(shared) => self.lift(&shared, sink),
        }
    }

    /// Lifts a value to residual code: literals for data, eta-expansion
    /// for static closures (specialising the closure body with a fresh
    /// dynamic variable).
    fn lift(&mut self, v: &PVal, sink: &mut dyn ModuleSink) -> Result<Expr, SpecError> {
        match v {
            PVal::Code(e) => Ok(e.clone()),
            PVal::Nat(n) => Ok(Expr::Nat(*n)),
            PVal::Bool(b) => Ok(Expr::Bool(*b)),
            PVal::Nil => Ok(Expr::Nil),
            PVal::Cons(h, t) => {
                let h2 = self.lift(h, sink)?;
                let t2 = self.lift(t, sink)?;
                Ok(Expr::Prim(PrimOp::Cons, vec![h2, t2]))
            }
            PVal::Clo(c) => {
                let x = self.fresh(c.param);
                let body = self.apply_closure(c, Rc::new(PVal::Code(Expr::Var(x))), sink)?;
                let body = self.lift_owned(body, sink)?;
                Ok(Expr::Lam(x, Box::new(body)))
            }
        }
    }
}

/// Builds the static closure of a [`GExp::Lam`] in frame `env`.
#[inline(never)]
fn closure(lam: &GExp, env: &[Rc<PVal>], mask: BtMask, module: ModName) -> Rc<PVal> {
    let GExp::Lam { param, body, captured, free_fns, lam_id } = lam else {
        unreachable!("closure() is only called on GExp::Lam");
    };
    Rc::new(PVal::Clo(Rc::new(Closure {
        param: *param,
        body: Arc::clone(body),
        env: captured.iter().map(|s| Rc::clone(&env[*s as usize])).collect(),
        free_fns: Arc::clone(free_fns),
        lam_id: *lam_id,
        module,
        mask,
    })))
}

/// A [`SpecError::TypeConfusion`] naming the offending value.
#[cold]
#[inline(never)]
fn type_confusion(what: &str, v: &PVal) -> SpecError {
    SpecError::TypeConfusion(format!("{what} {v:?}"))
}

/// Performs a static primitive on partial values. Booleans, `[]` and
/// small naturals in the result come from the shared `lits`.
fn static_prim(
    lits: &mut Literals,
    op: PrimOp,
    vals: &[Rc<PVal>],
) -> Result<Rc<PVal>, SpecError> {
    use PrimOp::*;
    let nat = |v: &PVal| match v {
        PVal::Nat(n) => Ok(*n),
        other => Err(SpecError::TypeConfusion(format!(
            "static {} on non-natural {other:?}",
            op.symbol()
        ))),
    };
    let boolean = |v: &PVal| match v {
        PVal::Bool(b) => Ok(*b),
        other => Err(SpecError::TypeConfusion(format!(
            "static {} on non-boolean {other:?}",
            op.symbol()
        ))),
    };
    match (op, vals) {
        (Add, [a, b]) => Ok(lits.nat(nat(a)?.wrapping_add(nat(b)?))),
        (Sub, [a, b]) => Ok(lits.nat(nat(a)?.saturating_sub(nat(b)?))),
        (Mul, [a, b]) => Ok(lits.nat(nat(a)?.wrapping_mul(nat(b)?))),
        (Div, [a, b]) => {
            let n0 = nat(a)?;
            match n0.checked_div(nat(b)?) {
                Some(q) => Ok(lits.nat(q)),
                None => Err(SpecError::DivByZero),
            }
        }
        (Eq, [a, b]) => Ok(lits.boolean(nat(a)? == nat(b)?)),
        (Lt, [a, b]) => Ok(lits.boolean(nat(a)? < nat(b)?)),
        (Leq, [a, b]) => Ok(lits.boolean(nat(a)? <= nat(b)?)),
        (And, [a, b]) => Ok(lits.boolean(boolean(a)? && boolean(b)?)),
        (Or, [a, b]) => Ok(lits.boolean(boolean(a)? || boolean(b)?)),
        (Not, [a]) => Ok(lits.boolean(!boolean(a)?)),
        (Cons, [h, t]) => Ok(Rc::new(PVal::Cons(Rc::clone(h), Rc::clone(t)))),
        (Head, [l]) => match &**l {
            PVal::Cons(h, _) => Ok(Rc::clone(h)),
            PVal::Nil => Err(SpecError::EmptyList("head")),
            other => Err(SpecError::TypeConfusion(format!("static head of {other:?}"))),
        },
        (Tail, [l]) => match &**l {
            PVal::Cons(_, t) => Ok(Rc::clone(t)),
            PVal::Nil => Err(SpecError::EmptyList("tail")),
            other => Err(SpecError::TypeConfusion(format!("static tail of {other:?}"))),
        },
        (Null, [l]) => match &**l {
            PVal::Nil => Ok(lits.boolean(true)),
            PVal::Cons(..) => Ok(lits.boolean(false)),
            other => Err(SpecError::TypeConfusion(format!("static null of {other:?}"))),
        },
        _ => Err(arity_error(op, vals.len())),
    }
}

/// A primitive applied to the wrong number of arguments (only a
/// malformed `.gx` file can contain one).
fn arity_error(op: PrimOp, found: usize) -> SpecError {
    SpecError::TypeConfusion(format!("primitive {} applied to {found} arguments", op.symbol()))
}

/// Makes names unique by appending primed counters to duplicates.
pub(crate) fn uniquify(names: Vec<Ident>) -> Vec<Ident> {
    let mut seen: BTreeSet<Ident> = BTreeSet::new();
    let mut out = Vec::with_capacity(names.len());
    for n in names {
        if seen.insert(n) {
            out.push(n);
            continue;
        }
        let mut k = 2;
        loop {
            let candidate = Ident::new(format!("{n}'{k}"));
            if seen.insert(candidate) {
                out.push(candidate);
                break;
            }
            k += 1;
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn rc(v: PVal) -> Rc<PVal> {
        Rc::new(v)
    }

    fn prim(op: PrimOp, vals: &[Rc<PVal>]) -> Result<Rc<PVal>, SpecError> {
        static_prim(&mut Literals::new(), op, vals)
    }

    #[test]
    fn uniquify_keeps_distinct_names() {
        let names = vec![Ident::new("a"), Ident::new("b")];
        assert_eq!(uniquify(names.clone()), names);
    }

    #[test]
    fn uniquify_renames_duplicates() {
        let names = vec![Ident::new("a"), Ident::new("a"), Ident::new("a")];
        let out = uniquify(names);
        assert_eq!(out[0].as_str(), "a");
        assert_eq!(out[1].as_str(), "a'2");
        assert_eq!(out[2].as_str(), "a'3");
    }

    #[test]
    fn static_prim_arithmetic() {
        let add = prim(PrimOp::Add, &[rc(PVal::Nat(2)), rc(PVal::Nat(3))]).unwrap();
        assert!(matches!(&*add, PVal::Nat(5)));
        let sub = prim(PrimOp::Sub, &[rc(PVal::Nat(2)), rc(PVal::Nat(3))]).unwrap();
        assert!(matches!(&*sub, PVal::Nat(0)));
        assert!(matches!(
            prim(PrimOp::Div, &[rc(PVal::Nat(1)), rc(PVal::Nat(0))]),
            Err(SpecError::DivByZero)
        ));
    }

    #[test]
    fn static_prim_lists_allow_dynamic_elements() {
        // A partially static list: static cons with a code head.
        let code = rc(PVal::Code(Expr::Var(Ident::new("x"))));
        let cons = prim(PrimOp::Cons, &[code, rc(PVal::Nil)]).unwrap();
        let head = prim(PrimOp::Head, &[Rc::clone(&cons)]).unwrap();
        assert!(matches!(&*head, PVal::Code(_)));
        let null = prim(PrimOp::Null, &[cons]).unwrap();
        assert!(matches!(&*null, PVal::Bool(false)));
    }

    #[test]
    fn static_prim_type_confusion_is_reported() {
        assert!(matches!(
            prim(PrimOp::Add, &[rc(PVal::Bool(true)), rc(PVal::Nat(1))]),
            Err(SpecError::TypeConfusion(_))
        ));
        assert!(matches!(
            prim(PrimOp::Head, &[rc(PVal::Nat(1))]),
            Err(SpecError::TypeConfusion(_))
        ));
    }

    #[test]
    fn static_prim_rejects_wrong_arity() {
        assert!(matches!(
            prim(PrimOp::Add, &[rc(PVal::Nat(1))]),
            Err(SpecError::TypeConfusion(_))
        ));
        assert!(matches!(
            prim(PrimOp::Not, &[rc(PVal::Bool(true)), rc(PVal::Bool(true))]),
            Err(SpecError::TypeConfusion(_))
        ));
    }

    // Engine-level behaviour is exercised end-to-end in the cogen crate
    // (which can build GenPrograms from source) and the integration
    // tests; here we cover the pure helpers.
}
