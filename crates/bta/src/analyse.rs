//! The module-at-a-time binding-time analysis (§4.1).
//!
//! [`analyse_module`] processes one module given only the binding-time
//! [interfaces](crate::sig::BtInterface) of its imports, and produces an
//! [`AnnModule`]: every definition annotated with symbolic binding times
//! over its own signature variables, plus the interface to write out for
//! downstream modules. [`analyse_program`] simply runs modules in
//! dependency order, exactly like a build system would.
//!
//! Within a module, definitions are processed in strongly connected
//! components of the local call graph. Calls *within* an SCC are
//! monomorphic (the instantiation is the identity, as in the paper's
//! `power {t u} … power {t u} (n-1) x`); calls to earlier SCCs and to
//! imported functions are polyvariant (fresh instantiation per call
//! site).

use crate::ann::{AnnDef, AnnExpr, AnnModule, AnnProgram, CoerceSpec};
use crate::error::BtaError;
use crate::shape::SigShape;
use crate::sig::{BtInterface, BtSignature};
use crate::solver::{LeastSolutions, NodeId, ShapeId, ShapeView, Solver};
use crate::term::BtTerm;
use mspec_lang::ast::{Expr, Ident, ModName, Module, PrimOp, QualName};
use mspec_lang::resolve::ResolvedProgram;
use std::collections::{BTreeMap, BTreeSet};

/// Analyses a whole program, module by module in dependency order.
///
/// # Errors
///
/// Any [`BtaError`] found in any module.
pub fn analyse_program(rp: &ResolvedProgram) -> Result<AnnProgram, BtaError> {
    analyse_program_with(rp, &BTreeSet::new())
}

/// Like [`analyse_program`], but forcing the named functions to be
/// residualised (never unfolded) — the paper's "annotated non-unfoldable
/// by hand" (§5).
///
/// # Errors
///
/// Any [`BtaError`]; in particular [`BtaError::UnknownOverride`] if a
/// forced name does not exist.
pub fn analyse_program_with(
    rp: &ResolvedProgram,
    force_residual: &BTreeSet<QualName>,
) -> Result<AnnProgram, BtaError> {
    let mut interfaces: BTreeMap<ModName, BtInterface> = BTreeMap::new();
    let mut modules = Vec::new();
    for mod_name in rp.graph().topo_order() {
        let module = rp
            .program()
            .module(mod_name.as_str())
            .expect("topo order lists only program modules");
        let forced: BTreeSet<Ident> = force_residual
            .iter()
            .filter(|q| q.module == *mod_name)
            .map(|q| q.name)
            .collect();
        let ann = analyse_module_with(module, &interfaces, &forced)?;
        interfaces.insert(*mod_name, ann.interface.clone());
        modules.push(ann);
    }
    // Any override naming a function in no module?
    for q in force_residual {
        if rp.def(q).is_none() {
            return Err(BtaError::UnknownOverride {
                module: q.module,
                name: q.name,
            });
        }
    }
    Ok(AnnProgram { modules })
}

/// Analyses one module from the interfaces of its imports (the
/// separate-analysis entry point: no import sources needed).
///
/// # Errors
///
/// Any [`BtaError`] found in the module.
pub fn analyse_module(
    module: &Module,
    imports: &BTreeMap<ModName, BtInterface>,
) -> Result<AnnModule, BtaError> {
    analyse_module_with(module, imports, &BTreeSet::new())
}

/// Like [`analyse_module`], with forced-residual overrides for functions
/// defined in this module.
///
/// # Errors
///
/// Any [`BtaError`]; [`BtaError::UnknownOverride`] if an override matches
/// no definition.
pub fn analyse_module_with(
    module: &Module,
    imports: &BTreeMap<ModName, BtInterface>,
    force_residual: &BTreeSet<Ident>,
) -> Result<AnnModule, BtaError> {
    for name in force_residual {
        if module.def(name.as_str()).is_none() {
            return Err(BtaError::UnknownOverride {
                module: module.name,
                name: *name,
            });
        }
    }
    let mut done: BTreeMap<Ident, BtSignature> = BTreeMap::new();
    let mut defs: Vec<(usize, AnnDef)> = Vec::new();
    for scc in local_sccs(module) {
        let anns = analyse_scc(module, &scc, imports, &mut done, force_residual)?;
        defs.extend(scc.iter().copied().zip(anns));
    }
    defs.sort_by_key(|(i, _)| *i);
    let mut interface = BtInterface::new();
    for (name, sig) in &done {
        interface.insert(*name, sig.clone());
    }
    Ok(AnnModule {
        name: module.name,
        imports: module.imports.clone(),
        defs: defs.into_iter().map(|(_, d)| d).collect(),
        interface,
    })
}

/// [`analyse_module_with`] under a telemetry span (`bta`, detail = the
/// module name), counting definitions analysed and signatures solved.
///
/// # Errors
///
/// As [`analyse_module_with`].
pub fn analyse_module_with_traced(
    module: &Module,
    imports: &BTreeMap<ModName, BtInterface>,
    force_residual: &BTreeSet<Ident>,
    rec: &mspec_telemetry::Recorder,
) -> Result<AnnModule, BtaError> {
    let _span = rec.span_with("bta", module.name.as_str());
    let ann = analyse_module_with(module, imports, force_residual)?;
    rec.count("bta.defs_analysed", ann.defs.len() as u64);
    rec.count("bta.signatures", ann.interface.iter().count() as u64);
    Ok(ann)
}

/// Strongly connected components of the module-local call graph, callees
/// first.
fn local_sccs(module: &Module) -> Vec<Vec<usize>> {
    let n = module.defs.len();
    let index_of: BTreeMap<&Ident, usize> =
        module.defs.iter().enumerate().map(|(i, d)| (&d.name, i)).collect();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, d) in module.defs.iter().enumerate() {
        for q in d.body.called_functions() {
            if q.module == module.name {
                if let Some(&j) = index_of.get(&q.name) {
                    if !edges[i].contains(&j) {
                        edges[i].push(j);
                    }
                }
            }
        }
    }
    tarjan(n, &edges)
}

fn tarjan(n: usize, edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    struct St<'e> {
        edges: &'e [Vec<usize>],
        index: Vec<Option<u32>>,
        low: Vec<u32>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        counter: u32,
        out: Vec<Vec<usize>>,
    }
    fn go(v: usize, st: &mut St<'_>) {
        st.index[v] = Some(st.counter);
        st.low[v] = st.counter;
        st.counter += 1;
        st.stack.push(v);
        st.on_stack[v] = true;
        for &w in &st.edges[v] {
            match st.index[w] {
                None => {
                    go(w, st);
                    st.low[v] = st.low[v].min(st.low[w]);
                }
                Some(wi) if st.on_stack[w] => st.low[v] = st.low[v].min(wi),
                _ => {}
            }
        }
        if Some(st.low[v]) == st.index[v] {
            let mut comp = Vec::new();
            loop {
                let w = st.stack.pop().expect("tarjan stack");
                st.on_stack[w] = false;
                comp.push(w);
                if w == v {
                    break;
                }
            }
            comp.sort_unstable();
            st.out.push(comp);
        }
    }
    let mut st = St {
        edges,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        counter: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if st.index[v].is_none() {
            go(v, &mut st);
        }
    }
    st.out
}

/// A body expression annotated with solver nodes; converted to
/// [`AnnExpr`] once the least solutions are known.
enum PreExpr {
    Nat(u64),
    Bool(bool),
    Nil,
    Var(Ident),
    Prim(PrimOp, NodeId, Vec<PreExpr>),
    If(NodeId, Box<PreExpr>, Box<PreExpr>, Box<PreExpr>),
    Call { target: QualName, inst: CallInst, args: Vec<PreExpr> },
    Lam(Ident, Box<PreExpr>),
    App(NodeId, Box<PreExpr>, Box<PreExpr>),
    Let(Ident, Box<PreExpr>, Box<PreExpr>),
    Coerce(ShapeId, ShapeId, Box<PreExpr>),
}

enum CallInst {
    /// Fresh instantiation: one caller node per callee signature variable.
    External(Vec<NodeId>),
    /// Monomorphic call within the current SCC: identity instantiation.
    Recursive,
}

struct MemberSig {
    params: Vec<ShapeId>,
    ret: ShapeId,
    unfold: NodeId,
}

struct SccCx<'a> {
    solver: Solver,
    module: &'a Module,
    imports: &'a BTreeMap<ModName, BtInterface>,
    done: &'a BTreeMap<Ident, BtSignature>,
    members: BTreeMap<Ident, MemberSig>,
    current_unfold: NodeId,
}

fn analyse_scc(
    module: &Module,
    scc: &[usize],
    imports: &BTreeMap<ModName, BtInterface>,
    done: &mut BTreeMap<Ident, BtSignature>,
    force_residual: &BTreeSet<Ident>,
) -> Result<Vec<AnnDef>, BtaError> {
    let mut solver = Solver::new(format!("module {}", module.name));
    let placeholder = solver.fresh_node();
    let mut cx = SccCx {
        solver,
        module,
        imports,
        done,
        members: BTreeMap::new(),
        current_unfold: placeholder,
    };

    // Declare every member of the SCC first (for recursive references).
    for &i in scc {
        let d = &module.defs[i];
        let params = d.params.iter().map(|_| cx.solver.fresh_svar()).collect();
        let ret = cx.solver.fresh_svar();
        let unfold = cx.solver.fresh_node();
        cx.members.insert(d.name, MemberSig { params, ret, unfold });
    }

    // Infer each member's body.
    let mut pre_bodies = Vec::new();
    for &i in scc {
        let d = &module.defs[i];
        cx.solver.set_context(format!("{}.{}", module.name, d.name));
        let member = &cx.members[&d.name];
        cx.current_unfold = member.unfold;
        let (ret, unfold) = (member.ret, member.unfold);
        let mut env: Vec<(Ident, ShapeId)> =
            d.params.iter().cloned().zip(member.params.iter().copied()).collect();
        let (pre, shape) = cx.infer(&d.body, &mut env)?;
        let pre = cx.coerce_into(pre, shape, ret)?;
        // A residualised call's result is code: unfold ≤ top(ret).
        let ret_top = cx.solver.top(ret);
        cx.solver.edge(unfold, ret_top);
        if force_residual.contains(&d.name) {
            cx.solver.force_d(unfold);
        }
        pre_bodies.push(pre);
    }
    cx.solver.settle()?;

    // Signature variables: the nodes of all parameter shapes, in order.
    let mut roots: Vec<NodeId> = Vec::new();
    for &i in scc {
        let d = &module.defs[i];
        let param_shapes: Vec<ShapeId> = cx.members[&d.name].params.clone();
        for p in param_shapes {
            for n in cx.solver.shape_nodes(p) {
                let r = cx.solver.find(n);
                if !roots.contains(&r) {
                    roots.push(r);
                }
            }
        }
    }
    if roots.len() > 128 {
        let names: Vec<String> =
            scc.iter().map(|&i| format!("{}.{}", module.name, module.defs[i].name)).collect();
        return Err(BtaError::TooManyVars { context: names.join(", "), count: roots.len() });
    }
    let ls = cx.solver.least_solutions(&roots);

    // Constraints between signature variables: i ≤ j iff var i occurs in
    // the least solution of root j. Forced-D roots get a D qualification.
    // The raw relation is a transitive closure; export its transitive
    // reduction so interfaces stay compact (the Dussart–Henglein–Mossin
    // simplification step).
    let mut reach: Vec<u128> = vec![0; roots.len()];
    let mut forced = Vec::new();
    for (j, rj) in roots.iter().enumerate() {
        let t = ls.term(&mut cx.solver, *rj);
        if t.is_d() {
            forced.push(j as u32);
            continue;
        }
        reach[j] = t.bits().1 & !(1u128 << j);
    }
    // The relation may contain equivalences (i ≤ j ≤ i); a witness for
    // dropping an edge must be *strictly* between its endpoints, or the
    // two edges of a cycle would justify dropping each other.
    let equiv = |a: usize, b: usize| reach[a] >> b & 1 == 1 && reach[b] >> a & 1 == 1;
    let mut constraints = Vec::new();
    for j in 0..roots.len() {
        for i in 0..roots.len() {
            if reach[j] >> i & 1 == 0 {
                continue;
            }
            let implied = (0..roots.len()).any(|k| {
                k != i
                    && k != j
                    && !equiv(k, i)
                    && !equiv(k, j)
                    && reach[j] >> k & 1 == 1
                    && reach[k] >> i & 1 == 1
            });
            if !implied {
                constraints.push((i as u32, j as u32));
            }
        }
    }

    // Build each member's signature and annotated definition.
    let index_of: BTreeMap<NodeId, u32> =
        roots.iter().enumerate().map(|(i, r)| (*r, i as u32)).collect();
    let mut out = Vec::new();
    for (k, &i) in scc.iter().enumerate() {
        let d = &module.defs[i];
        let member = &cx.members[&d.name];
        let (params_shapes, ret_shape, unfold_node) =
            (member.params.clone(), member.ret, member.unfold);
        let params = params_shapes
            .iter()
            .map(|p| shape_to_sig(&mut cx.solver, &ls, *p, Some(&index_of)))
            .collect::<Result<Vec<_>, _>>()?;
        let ret = shape_to_sig(&mut cx.solver, &ls, ret_shape, None)?;
        let unfold = ls.term(&mut cx.solver, unfold_node);
        let sig = BtSignature {
            vars: roots.len() as u32,
            constraints: constraints.clone(),
            forced_d: forced.clone(),
            params,
            ret,
            unfold,
        };
        let body = finalize(&mut cx.solver, &ls, &pre_bodies[k], sig.vars)?;
        out.push(AnnDef { name: d.name, params: d.params.clone(), sig, body });
    }
    for def in &out {
        done.insert(def.name, def.sig.clone());
    }
    Ok(out)
}

/// Converts a solver shape to its serialisable signature form.
///
/// With `param_index` set, every node must be a signature root and is
/// rendered as its own variable (the defining occurrence); otherwise the
/// node's symbolic least solution is used.
fn shape_to_sig(
    solver: &mut Solver,
    ls: &LeastSolutions,
    shape: ShapeId,
    param_index: Option<&BTreeMap<NodeId, u32>>,
) -> Result<SigShape, BtaError> {
    let term = |solver: &mut Solver, n: NodeId| -> Result<BtTerm, BtaError> {
        match param_index {
            Some(idx) => {
                let r = solver.find(n);
                let v = idx.get(&r).ok_or_else(|| {
                    BtaError::Internal("parameter node is not a signature root".into())
                })?;
                Ok(BtTerm::var(*v))
            }
            None => Ok(ls.term(solver, n)),
        }
    };
    match solver.view(shape) {
        ShapeView::Base(n) => Ok(SigShape::Base(term(solver, n)?)),
        ShapeView::SVar(n) => Ok(SigShape::Var(term(solver, n)?)),
        ShapeView::List(e, n) => {
            let t = term(solver, n)?;
            Ok(SigShape::List(Box::new(shape_to_sig(solver, ls, e, param_index)?), t))
        }
        ShapeView::Fun(a, n, r) => {
            let t = term(solver, n)?;
            Ok(SigShape::Fun(
                Box::new(shape_to_sig(solver, ls, a, param_index)?),
                t,
                Box::new(shape_to_sig(solver, ls, r, param_index)?),
            ))
        }
    }
}

/// Builds the run-time coercion between two (structurally equal) shapes.
fn coercion_spec(
    solver: &mut Solver,
    ls: &LeastSolutions,
    from: ShapeId,
    to: ShapeId,
) -> Result<CoerceSpec, BtaError> {
    if solver.resolve(from) == solver.resolve(to) {
        return Ok(CoerceSpec::Id);
    }
    match (solver.view(from), solver.view(to)) {
        (
            ShapeView::Base(n1) | ShapeView::SVar(n1),
            ShapeView::Base(n2) | ShapeView::SVar(n2),
        ) => {
            if solver.find(n1) == solver.find(n2) {
                Ok(CoerceSpec::Id)
            } else {
                Ok(CoerceSpec::Base { from: ls.term(solver, n1), to: ls.term(solver, n2) })
            }
        }
        (ShapeView::List(e1, s1), ShapeView::List(e2, s2)) => {
            let elem = coercion_spec(solver, ls, e1, e2)?;
            if solver.find(s1) == solver.find(s2) && elem.is_identity() {
                Ok(CoerceSpec::Id)
            } else {
                Ok(CoerceSpec::List {
                    from: ls.term(solver, s1),
                    to: ls.term(solver, s2),
                    elem: Box::new(elem),
                })
            }
        }
        (ShapeView::Fun(_, b1, _), ShapeView::Fun(_, b2, _)) => {
            if solver.find(b1) == solver.find(b2) {
                Ok(CoerceSpec::Id)
            } else {
                Ok(CoerceSpec::Fun { from: ls.term(solver, b1), to: ls.term(solver, b2) })
            }
        }
        _ => Err(BtaError::Internal(
            "coercion between structurally different shapes survived solving".into(),
        )),
    }
}

fn finalize(
    solver: &mut Solver,
    ls: &LeastSolutions,
    pre: &PreExpr,
    vars: u32,
) -> Result<AnnExpr, BtaError> {
    Ok(match pre {
        PreExpr::Nat(n) => AnnExpr::Nat(*n),
        PreExpr::Bool(b) => AnnExpr::Bool(*b),
        PreExpr::Nil => AnnExpr::Nil,
        PreExpr::Var(x) => AnnExpr::Var(*x),
        PreExpr::Prim(op, n, args) => AnnExpr::Prim(
            *op,
            ls.term(solver, *n),
            args.iter().map(|a| finalize(solver, ls, a, vars)).collect::<Result<_, _>>()?,
        ),
        PreExpr::If(n, c, t, e) => AnnExpr::If(
            ls.term(solver, *n),
            Box::new(finalize(solver, ls, c, vars)?),
            Box::new(finalize(solver, ls, t, vars)?),
            Box::new(finalize(solver, ls, e, vars)?),
        ),
        PreExpr::Call { target, inst, args } => {
            let inst_terms = match inst {
                CallInst::External(nodes) => {
                    nodes.iter().map(|n| ls.term(solver, *n)).collect()
                }
                CallInst::Recursive => (0..vars).map(BtTerm::var).collect(),
            };
            AnnExpr::Call {
                target: *target,
                inst: inst_terms,
                args: args
                    .iter()
                    .map(|a| finalize(solver, ls, a, vars))
                    .collect::<Result<_, _>>()?,
            }
        }
        PreExpr::Lam(x, b) => AnnExpr::Lam(*x, Box::new(finalize(solver, ls, b, vars)?)),
        PreExpr::App(n, f, a) => AnnExpr::App(
            ls.term(solver, *n),
            Box::new(finalize(solver, ls, f, vars)?),
            Box::new(finalize(solver, ls, a, vars)?),
        ),
        PreExpr::Let(x, e, b) => AnnExpr::Let(
            *x,
            Box::new(finalize(solver, ls, e, vars)?),
            Box::new(finalize(solver, ls, b, vars)?),
        ),
        PreExpr::Coerce(from, to, e) => {
            let spec = coercion_spec(solver, ls, *from, *to)?;
            finalize(solver, ls, e, vars)?.coerced(spec)
        }
    })
}

impl<'a> SccCx<'a> {
    fn coerce_into(
        &mut self,
        pre: PreExpr,
        shape: ShapeId,
        target: ShapeId,
    ) -> Result<PreExpr, BtaError> {
        self.solver.coerce_shapes(shape, target)?;
        Ok(PreExpr::Coerce(shape, target, Box::new(pre)))
    }

    fn infer(
        &mut self,
        e: &Expr,
        env: &mut Vec<(Ident, ShapeId)>,
    ) -> Result<(PreExpr, ShapeId), BtaError> {
        match e {
            Expr::Nat(n) => Ok((PreExpr::Nat(*n), self.solver.fresh_base())),
            Expr::Bool(b) => Ok((PreExpr::Bool(*b), self.solver.fresh_base())),
            Expr::Nil => {
                let elem = self.solver.fresh_svar();
                let spine = self.solver.fresh_node();
                Ok((PreExpr::Nil, self.solver.list_with(elem, spine)))
            }
            Expr::Var(x) => {
                let shape = env
                    .iter()
                    .rev()
                    .find(|(n, _)| n == x)
                    .map(|(_, s)| *s)
                    .ok_or_else(|| {
                        BtaError::Internal(format!("unbound variable `{x}` (unresolved program?)"))
                    })?;
                Ok((PreExpr::Var(*x), shape))
            }
            Expr::Prim(op, args) => self.infer_prim(*op, args, env),
            Expr::If(c, t, f) => {
                let (cp, cs) = self.infer(c, env)?;
                let tc = self.solver.fresh_node();
                let ctarget = self.solver.base_with(tc);
                let cp = self.coerce_into(cp, cs, ctarget)?;
                self.solver.edge(tc, self.current_unfold);

                let (tp, ts) = self.infer(t, env)?;
                let (fp, fs) = self.infer(f, env)?;
                let rho = self.solver.fresh_svar();
                let tp = self.coerce_into(tp, ts, rho)?;
                let fp = self.coerce_into(fp, fs, rho)?;
                // A residual conditional yields code.
                let rho_top = self.solver.top(rho);
                self.solver.edge(tc, rho_top);
                Ok((PreExpr::If(tc, Box::new(cp), Box::new(tp), Box::new(fp)), rho))
            }
            Expr::Call(target, args) => {
                let q = target.qualified();
                if q.module == self.module.name && self.members.contains_key(&q.name) {
                    // Monomorphic (same SCC): share the member's shapes.
                    let (params, ret) = {
                        let m = &self.members[&q.name];
                        (m.params.clone(), m.ret)
                    };
                    let mut coerced_args = Vec::with_capacity(args.len());
                    for (a, p) in args.iter().zip(params) {
                        let (ap, ashape) = self.infer(a, env)?;
                        coerced_args.push(self.coerce_into(ap, ashape, p)?);
                    }
                    Ok((
                        PreExpr::Call {
                            target: q,
                            inst: CallInst::Recursive,
                            args: coerced_args,
                        },
                        ret,
                    ))
                } else {
                    let sig = self.lookup_signature(&q)?;
                    let inst: Vec<NodeId> =
                        (0..sig.vars).map(|_| self.solver.fresh_node()).collect();
                    for &(lo, hi) in &sig.constraints {
                        self.solver.edge(inst[lo as usize], inst[hi as usize]);
                    }
                    for &v in &sig.forced_d {
                        self.solver.force_d(inst[v as usize]);
                    }
                    let mut coerced_args = Vec::with_capacity(args.len());
                    for (a, pshape) in args.iter().zip(&sig.params) {
                        let ptarget = self.instantiate(pshape, &inst);
                        let (ap, ashape) = self.infer(a, env)?;
                        coerced_args.push(self.coerce_into(ap, ashape, ptarget)?);
                    }
                    let ret = self.instantiate(&sig.ret, &inst);
                    Ok((
                        PreExpr::Call {
                            target: q,
                            inst: CallInst::External(inst),
                            args: coerced_args,
                        },
                        ret,
                    ))
                }
            }
            Expr::Lam(x, body) => {
                let px = self.solver.fresh_svar();
                let arrow = self.solver.fresh_node();
                env.push((*x, px));
                let (bp, bs) = self.infer(body, env)?;
                env.pop();
                let shape = self.solver.fun_with(px, arrow, bs);
                Ok((PreExpr::Lam(*x, Box::new(bp)), shape))
            }
            Expr::App(f, a) => {
                let (fp, fs) = self.infer(f, env)?;
                let parg = self.solver.fresh_svar();
                let arrow = self.solver.fresh_node();
                let pres = self.solver.fresh_svar();
                let ftarget = self.solver.fun_with(parg, arrow, pres);
                let fp = self.coerce_into(fp, fs, ftarget)?;
                let (ap, ashape) = self.infer(a, env)?;
                let ap = self.coerce_into(ap, ashape, parg)?;
                Ok((PreExpr::App(arrow, Box::new(fp), Box::new(ap)), pres))
            }
            Expr::Let(x, rhs, body) => {
                let (rp, rs) = self.infer(rhs, env)?;
                env.push((*x, rs));
                let (bp, bs) = self.infer(body, env)?;
                env.pop();
                Ok((PreExpr::Let(*x, Box::new(rp), Box::new(bp)), bs))
            }
        }
    }

    fn infer_prim(
        &mut self,
        op: PrimOp,
        args: &[Expr],
        env: &mut Vec<(Ident, ShapeId)>,
    ) -> Result<(PreExpr, ShapeId), BtaError> {
        use PrimOp::*;
        match op {
            Add | Sub | Mul | Div | Eq | Lt | Leq | And | Or | Not => {
                // Both operands coerced up to the operation's binding
                // time (the paper's `x ×^{t⊔u} [u ⇒ t⊔u]x`).
                let r = self.solver.fresh_node();
                let target = self.solver.base_with(r);
                let mut coerced = Vec::with_capacity(args.len());
                for a in args {
                    let (ap, ashape) = self.infer(a, env)?;
                    coerced.push(self.coerce_into(ap, ashape, target)?);
                }
                Ok((PreExpr::Prim(op, r, coerced), target))
            }
            Cons => {
                let elem = self.solver.fresh_svar();
                let spine = self.solver.fresh_node();
                let result = self.solver.list_with(elem, spine);
                let (hp, hs) = self.infer(&args[0], env)?;
                let hp = self.coerce_into(hp, hs, elem)?;
                let (tp, ts) = self.infer(&args[1], env)?;
                let tp = self.coerce_into(tp, ts, result)?;
                Ok((PreExpr::Prim(op, spine, vec![hp, tp]), result))
            }
            Head | Tail | Null => {
                let elem = self.solver.fresh_svar();
                let spine = self.solver.fresh_node();
                let ltarget = self.solver.list_with(elem, spine);
                let (ap, ashape) = self.infer(&args[0], env)?;
                let ap = self.coerce_into(ap, ashape, ltarget)?;
                let result = match op {
                    Head => elem,
                    Tail => ltarget,
                    Null => self.solver.base_with(spine),
                    _ => unreachable!(),
                };
                Ok((PreExpr::Prim(op, spine, vec![ap]), result))
            }
        }
    }

    fn lookup_signature(&self, q: &QualName) -> Result<&'a BtSignature, BtaError> {
        if q.module == self.module.name {
            if let Some(sig) = self.done.get(&q.name) {
                return Ok(sig);
            }
        } else if let Some(iface) = self.imports.get(&q.module) {
            if let Some(sig) = iface.get(&q.name) {
                return Ok(sig);
            }
        }
        Err(BtaError::MissingSignature(*q))
    }

    /// Builds a solver shape from a signature shape under an
    /// instantiation of the signature variables.
    fn instantiate(&mut self, shape: &SigShape, inst: &[NodeId]) -> ShapeId {
        let node = |cx: &mut SccCx<'_>, t: &BtTerm| -> NodeId {
            if t.is_d() {
                let n = cx.solver.fresh_node();
                cx.solver.force_d(n);
                return n;
            }
            let (_, bits) = t.bits();
            if bits.count_ones() == 1 {
                return inst[bits.trailing_zeros() as usize];
            }
            let n = cx.solver.fresh_node();
            for v in t.vars() {
                cx.solver.edge(inst[v as usize], n);
            }
            n
        };
        match shape {
            SigShape::Base(t) => {
                let n = node(self, t);
                self.solver.base_with(n)
            }
            SigShape::Var(t) => {
                let n = node(self, t);
                self.solver.svar_with(n)
            }
            SigShape::List(e, t) => {
                let elem = self.instantiate(e, inst);
                let n = node(self, t);
                self.solver.list_with(elem, n)
            }
            SigShape::Fun(a, t, r) => {
                let arg = self.instantiate(a, inst);
                let res = self.instantiate(r, inst);
                let n = node(self, t);
                self.solver.fun_with(arg, n, res)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::BtMask;
    use crate::term::Bt;
    use mspec_lang::parser::parse_program;
    use mspec_lang::resolve::resolve;

    fn analyse(src: &str) -> AnnProgram {
        let rp = resolve(parse_program(src).unwrap()).unwrap();
        analyse_program(&rp).unwrap()
    }

    const POWER: &str =
        "module P where\npower n x = if n == 1 then x else x * power (n - 1) x\n";

    #[test]
    fn power_signature_matches_paper() {
        let ann = analyse(POWER);
        let sig = ann.signature(&QualName::new("P", "power")).unwrap();
        // ∀t,u. t → u → t⊔u, unfold: t (the binding time of n).
        assert_eq!(sig.vars, 2);
        assert!(sig.constraints.is_empty(), "{sig}");
        assert!(sig.forced_d.is_empty(), "{sig}");
        assert_eq!(sig.params[0].top().to_string(), "t0");
        assert_eq!(sig.params[1].top().to_string(), "t1");
        assert_eq!(sig.ret.top().to_string(), "t0 | t1");
        assert_eq!(sig.unfold.to_string(), "t0");
    }

    #[test]
    fn power_unfold_decision() {
        let ann = analyse(POWER);
        let sig = ann.signature(&QualName::new("P", "power")).unwrap();
        // {S,D}: unfold; {D,S}: residualise (paper §2/§4.1).
        assert!(sig.unfoldable_under(BtMask::all_static().set_dynamic(1)));
        assert!(!sig.unfoldable_under(BtMask::all_static().set_dynamic(0)));
    }

    #[test]
    fn power_annotation_shape() {
        let ann = analyse(POWER);
        let def = ann.def(&QualName::new("P", "power")).unwrap();
        let rendered = def.to_string();
        // The multiplication happens at t0⊔t1; the conditional at t0.
        assert!(rendered.contains("if^{t0}"), "{rendered}");
        assert!(rendered.contains("*^{t0 | t1}"), "{rendered}");
        assert!(rendered.contains("power{t0, t1}"), "{rendered}");
        assert!(rendered.contains("=^{t0}"), "{rendered}");
    }

    #[test]
    fn forced_residual_override() {
        let rp = resolve(parse_program(POWER).unwrap()).unwrap();
        let forced: BTreeSet<QualName> = [QualName::new("P", "power")].into();
        let ann = analyse_program_with(&rp, &forced).unwrap();
        let sig = ann.signature(&QualName::new("P", "power")).unwrap();
        assert!(sig.unfold.is_d(), "{sig}");
        // Result is code under every mask now.
        assert_eq!(BtMask::all_static().eval(sig.ret.top()), Bt::D);
    }

    #[test]
    fn unknown_override_is_an_error() {
        let rp = resolve(parse_program(POWER).unwrap()).unwrap();
        let forced: BTreeSet<QualName> = [QualName::new("P", "ghost")].into();
        assert!(matches!(
            analyse_program_with(&rp, &forced),
            Err(BtaError::UnknownOverride { .. })
        ));
    }

    #[test]
    fn constant_function_is_fully_static() {
        let ann = analyse("module M where\nc = 1 + 2\n");
        let sig = ann.signature(&QualName::new("M", "c")).unwrap();
        assert_eq!(sig.vars, 0);
        assert!(sig.unfold.is_s());
        assert!(sig.ret.top().is_s());
    }

    #[test]
    fn twice_has_arrow_variable() {
        let ann = analyse("module T where\ntwice f x = f @ (f @ x)\n");
        let sig = ann.signature(&QualName::new("T", "twice")).unwrap();
        // f's shape is a function; its arrow binding time decides
        // unfolding of the applications; twice itself has no conditional
        // so it is always unfoldable.
        assert!(sig.unfold.is_s(), "{sig}");
        assert!(matches!(sig.params[0], SigShape::Fun(..)), "{sig}");
    }

    #[test]
    fn map_signature_is_usable_with_dynamic_list() {
        let ann = analyse(
            "module A where\nmap f xs = if null xs then [] else f @ (head xs) : map f (tail xs)\n",
        );
        let sig = ann.signature(&QualName::new("A", "map")).unwrap();
        // Unfolding is governed by the spine of xs (the null test).
        let spine_var = match &sig.params[1] {
            SigShape::List(_, t) => *t,
            other => panic!("xs should be a list shape, got {other}"),
        };
        assert_eq!(sig.unfold, spine_var);
        // A dynamic spine means the conditional is dynamic: residualise.
        let mut mask = BtMask::all_static();
        for v in spine_var.vars() {
            mask = mask.set_dynamic(v);
        }
        let mask = sig.complete_mask(mask);
        assert!(!sig.unfoldable_under(mask));
        // With a fully static list, map unfolds.
        assert!(sig.unfoldable_under(sig.complete_mask(BtMask::all_static())));
    }

    #[test]
    fn interfaces_allow_separate_analysis() {
        let src = "module Lib where\n\
                   inc x = x + 1\n\
                   module App where\n\
                   import Lib\n\
                   f y = inc y\n";
        let rp = resolve(parse_program(src).unwrap()).unwrap();
        let whole = analyse_program(&rp).unwrap();

        let lib = rp.program().module("Lib").unwrap();
        let lib_ann = analyse_module(lib, &BTreeMap::new()).unwrap();
        // Round-trip the interface through its file format.
        let json = lib_ann.interface.to_json().unwrap();
        let lib_iface = BtInterface::from_json(&json).unwrap();
        let mut imports = BTreeMap::new();
        imports.insert(ModName::new("Lib"), lib_iface);
        let app = rp.program().module("App").unwrap();
        let app_ann = analyse_module(app, &imports).unwrap();

        assert_eq!(
            whole.signature(&QualName::new("App", "f")).unwrap(),
            app_ann.interface.get(&Ident::new("f")).unwrap()
        );
    }

    #[test]
    fn missing_interface_reports_missing_signature() {
        let src = "module App where\nimport Lib\nf y = Lib.inc y\n";
        // Parse only the App module; resolution would fail, so build the
        // module directly and analyse with an empty import map.
        let module = mspec_lang::parser::parse_module(src).unwrap();
        // Resolve calls by hand: mark the call as already qualified.
        let err = analyse_module(&module, &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, BtaError::MissingSignature(_)), "{err:?}");
    }

    #[test]
    fn mutual_recursion_shares_signature_variables() {
        let ann = analyse(
            "module M where\n\
             even n = if n == 0 then true else odd (n - 1)\n\
             odd n = if n == 0 then false else even (n - 1)\n",
        );
        let se = ann.signature(&QualName::new("M", "even")).unwrap();
        let so = ann.signature(&QualName::new("M", "odd")).unwrap();
        assert_eq!(se.vars, so.vars);
        assert_eq!(se.vars, 2); // one parameter node each, shared pool
        // Both conditionals depend on their own n; the unfold terms are
        // per-function but range over the shared variables.
        assert!(!se.unfold.is_s());
        assert!(!so.unfold.is_s());
    }

    #[test]
    fn call_instantiation_propagates_dynamism() {
        let ann = analyse(
            "module A where\n\
             inc x = x + 1\n\
             module B where\n\
             import A\n\
             g y = inc (inc y)\n",
        );
        let sig = ann.signature(&QualName::new("B", "g")).unwrap();
        assert_eq!(sig.ret.top().to_string(), "t0");
        let def = ann.def(&QualName::new("B", "g")).unwrap();
        let shown = def.to_string();
        assert!(shown.contains("inc{t0}"), "{shown}");
    }

    #[test]
    fn lambda_coerced_into_dynamic_context_gets_fun_coercion() {
        // apply's f parameter is applied, and h passes a lambda whose
        // result depends on h's dynamic-capable parameter.
        let ann = analyse(
            "module M where\n\
             apply f x = f @ x\n\
             h y = apply (\\v -> v + y) y\n",
        );
        let sig = ann.signature(&QualName::new("M", "h")).unwrap();
        assert_eq!(sig.vars, 1);
        assert_eq!(sig.ret.top().to_string(), "t0");
    }

    #[test]
    fn paper_map_example_annotations() {
        let rp = resolve(mspec_lang::builder::paper_map_program()).unwrap();
        let ann = analyse_program(&rp).unwrap();
        // h z zs = map (\x -> g x + z) zs
        let sig = ann.signature(&QualName::new("B", "h")).unwrap();
        assert_eq!(sig.params.len(), 2);
        // With both z and zs dynamic, h's result must be dynamic code.
        let mask = sig.complete_mask(BtMask::all_dynamic(sig.vars));
        assert_eq!(mask.eval(sig.ret.top()), Bt::D);
    }

    #[test]
    fn too_many_variables_is_reported() {
        // 130 parameters → more than 128 signature variables.
        let params: Vec<String> = (0..130).map(|i| format!("p{i}")).collect();
        let src = format!("module M where\nbig {} = 1\n", params.join(" "));
        let rp = resolve(parse_program(&src).unwrap()).unwrap();
        let err = analyse_program(&rp).unwrap_err();
        assert!(matches!(err, BtaError::TooManyVars { .. }), "{err:?}");
    }

    #[test]
    fn exported_constraints_are_transitively_reduced() {
        // f's three parameters are chained: a flows into b flows into c.
        let ann = analyse(
            "module M where\nchain a b c = if a == b && b == c then c else c + 1\n",
        );
        let sig = ann.signature(&QualName::new("M", "chain")).unwrap();
        // Whatever the exact relation, no exported constraint may be
        // implied by two others.
        for &(i, j) in &sig.constraints {
            let implied = sig.constraints.iter().any(|&(a, k)| {
                a == i
                    && k != j
                    && sig.constraints.contains(&(k, j))
            });
            assert!(!implied, "redundant constraint t{i} <= t{j} in {sig}");
        }
        // And completion still forces the whole chain from the bottom.
        let m = sig.complete_mask(BtMask::all_static().set_dynamic(0));
        assert!(sig.satisfies(m));
    }

    #[test]
    fn cyclic_constraints_keep_their_incoming_edges() {
        // Regression: with t2 == t3 (an equivalence from if-branch
        // coercions) and t4 <= t2, the naive transitive reduction dropped
        // t4's edge entirely because each direction of the cycle
        // "implied" the other.
        let ann = analyse("module M where\nap fs x = if null fs then x else (head fs) @ x\n");
        let sig = ann.signature(&QualName::new("M", "ap")).unwrap();
        let closure: std::collections::BTreeSet<(u32, u32)> = {
            // transitive closure of the exported constraints
            let mut edges: std::collections::BTreeSet<(u32, u32)> =
                sig.constraints.iter().copied().collect();
            loop {
                let mut grew = false;
                let snapshot: Vec<(u32, u32)> = edges.iter().copied().collect();
                for &(a, b) in &snapshot {
                    for &(c, d) in &snapshot {
                        if b == c && edges.insert((a, d)) {
                            grew = true;
                        }
                    }
                }
                if !grew {
                    break;
                }
            }
            edges
        };
        // x (t4) must still constrain the closure argument (t2).
        assert!(closure.contains(&(4, 2)), "{sig}");
    }
}
