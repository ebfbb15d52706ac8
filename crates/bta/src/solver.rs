//! The binding-time constraint solver.
//!
//! Annotation positions are *nodes*; the analysis relates them with
//! `lo ≤ hi` edges (a value may be coerced from `S` up to `D`, never
//! down) and merges them when two positions must be equal. Shapes are
//! built over nodes and related by [`Solver::unify_shapes`] (equality)
//! and [`Solver::coerce_shapes`] (subsumption, inserting edges).
//!
//! After a function (or SCC of functions) is analysed, the *symbolic
//! least solution* of every node is the lub of the signature variables
//! that reach it along edges (plus `D` if a forced node reaches it) —
//! the Henglein–Mossin factorisation the paper relies on: this is
//! computed once per module, and evaluating it later is trivial.

use crate::error::BtaError;
use crate::term::BtTerm;
use std::collections::VecDeque;

/// An annotation node (a binding-time position).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

/// A shape in the solver arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeId(u32);

/// The resolved structure of a shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeView {
    /// A base (Nat/Bool) position.
    Base(NodeId),
    /// A list: element shape and spine node.
    List(ShapeId, NodeId),
    /// A function: argument, arrow node, result.
    Fun(ShapeId, NodeId, ShapeId),
    /// An unexpanded polymorphic position with its summary node.
    SVar(NodeId),
}

#[derive(Debug, Clone, Copy)]
enum ShapeRepr {
    Base(NodeId),
    List(ShapeId, NodeId),
    Fun(ShapeId, NodeId, ShapeId),
    SVar(NodeId),
    Link(ShapeId),
}

/// The constraint store.
#[derive(Debug, Default)]
pub struct Solver {
    parent: Vec<u32>,
    forced_d: Vec<bool>,
    edges: Vec<(NodeId, NodeId)>,
    shapes: Vec<ShapeRepr>,
    /// Coercions between two still-polymorphic positions, deferred until
    /// one of them acquires structure (see [`Solver::settle`]).
    pending: Vec<(ShapeId, ShapeId)>,
    context: String,
}

impl Solver {
    /// Creates an empty solver; `context` labels errors.
    pub fn new(context: impl Into<String>) -> Solver {
        Solver { context: context.into(), ..Solver::default() }
    }

    /// Updates the error-label context.
    pub fn set_context(&mut self, context: impl Into<String>) {
        self.context = context.into();
    }

    // ----- nodes -------------------------------------------------------

    /// Allocates a fresh node (initially unconstrained, i.e. `S` in the
    /// least solution).
    pub fn fresh_node(&mut self) -> NodeId {
        let id = NodeId(self.parent.len() as u32);
        self.parent.push(id.0);
        self.forced_d.push(false);
        id
    }

    /// Forces a node to `D`.
    pub fn force_d(&mut self, n: NodeId) {
        let r = self.find(n);
        self.forced_d[r.0 as usize] = true;
    }

    /// Adds the constraint `lo ≤ hi`.
    pub fn edge(&mut self, lo: NodeId, hi: NodeId) {
        self.edges.push((lo, hi));
    }

    /// Representative of a node's equivalence class.
    pub fn find(&mut self, n: NodeId) -> NodeId {
        let mut r = n.0;
        while self.parent[r as usize] != r {
            r = self.parent[r as usize];
        }
        // Path compression.
        let mut cur = n.0;
        while self.parent[cur as usize] != r {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = r;
            cur = next;
        }
        NodeId(r)
    }

    /// Merges two nodes (equality constraint).
    pub fn merge_nodes(&mut self, a: NodeId, b: NodeId) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            let forced = self.forced_d[ra.0 as usize] || self.forced_d[rb.0 as usize];
            self.parent[ra.0 as usize] = rb.0;
            self.forced_d[rb.0 as usize] = forced;
        }
    }

    /// Whether the node is forced `D` (directly).
    pub fn is_forced_d(&mut self, n: NodeId) -> bool {
        let r = self.find(n);
        self.forced_d[r.0 as usize]
    }

    // ----- shapes ------------------------------------------------------

    fn push_shape(&mut self, repr: ShapeRepr) -> ShapeId {
        let id = ShapeId(self.shapes.len() as u32);
        self.shapes.push(repr);
        id
    }

    /// A fresh polymorphic shape with a fresh summary node.
    pub fn fresh_svar(&mut self) -> ShapeId {
        let n = self.fresh_node();
        self.push_shape(ShapeRepr::SVar(n))
    }

    /// A polymorphic shape over an existing node (used when instantiating
    /// an imported signature).
    pub fn svar_with(&mut self, n: NodeId) -> ShapeId {
        self.push_shape(ShapeRepr::SVar(n))
    }

    /// A base shape over a fresh node.
    pub fn fresh_base(&mut self) -> ShapeId {
        let n = self.fresh_node();
        self.base_with(n)
    }

    /// A base shape over an existing node.
    pub fn base_with(&mut self, n: NodeId) -> ShapeId {
        self.push_shape(ShapeRepr::Base(n))
    }

    /// A list shape; adds the well-formedness edge `spine ≤ top(elem)`.
    pub fn list_with(&mut self, elem: ShapeId, spine: NodeId) -> ShapeId {
        let et = self.top(elem);
        self.edge(spine, et);
        self.push_shape(ShapeRepr::List(elem, spine))
    }

    /// A function shape; adds well-formedness edges
    /// `arrow ≤ top(arg)` and `arrow ≤ top(result)`.
    pub fn fun_with(&mut self, arg: ShapeId, arrow: NodeId, res: ShapeId) -> ShapeId {
        let at = self.top(arg);
        let rt = self.top(res);
        self.edge(arrow, at);
        self.edge(arrow, rt);
        self.push_shape(ShapeRepr::Fun(arg, arrow, res))
    }

    /// Resolves a shape through links.
    pub fn resolve(&self, s: ShapeId) -> ShapeId {
        let mut cur = s;
        loop {
            match self.shapes[cur.0 as usize] {
                ShapeRepr::Link(next) => cur = next,
                _ => return cur,
            }
        }
    }

    /// The resolved structure of a shape.
    pub fn view(&self, s: ShapeId) -> ShapeView {
        match self.shapes[self.resolve(s).0 as usize] {
            ShapeRepr::Base(n) => ShapeView::Base(n),
            ShapeRepr::List(e, n) => ShapeView::List(e, n),
            ShapeRepr::Fun(a, n, r) => ShapeView::Fun(a, n, r),
            ShapeRepr::SVar(n) => ShapeView::SVar(n),
            ShapeRepr::Link(_) => unreachable!("resolved"),
        }
    }

    /// The top-level node of a shape.
    pub fn top(&mut self, s: ShapeId) -> NodeId {
        match self.view(s) {
            ShapeView::Base(n) | ShapeView::SVar(n) => n,
            ShapeView::List(_, n) => n,
            ShapeView::Fun(_, n, _) => n,
        }
    }

    /// Pre-order traversal of all node positions in a shape.
    pub fn shape_nodes(&mut self, s: ShapeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.collect_nodes(s, &mut out);
        out
    }

    fn collect_nodes(&mut self, s: ShapeId, out: &mut Vec<NodeId>) {
        match self.view(s) {
            ShapeView::Base(n) | ShapeView::SVar(n) => out.push(n),
            ShapeView::List(e, n) => {
                out.push(n);
                self.collect_nodes(e, out);
            }
            ShapeView::Fun(a, n, r) => {
                out.push(n);
                self.collect_nodes(a, out);
                self.collect_nodes(r, out);
            }
        }
    }

    fn contains_shape(&self, haystack: ShapeId, needle: ShapeId) -> bool {
        let needle = self.resolve(needle);
        let haystack = self.resolve(haystack);
        if haystack == needle {
            return true;
        }
        match self.shapes[haystack.0 as usize] {
            ShapeRepr::Base(_) | ShapeRepr::SVar(_) => false,
            ShapeRepr::List(e, _) => self.contains_shape(e, needle),
            ShapeRepr::Fun(a, _, r) => {
                self.contains_shape(a, needle) || self.contains_shape(r, needle)
            }
            ShapeRepr::Link(_) => unreachable!("resolved"),
        }
    }

    fn mismatch(&self) -> BtaError {
        BtaError::ShapeMismatch { context: self.context.clone() }
    }

    fn link(&mut self, from: ShapeId, to: ShapeId) {
        let from = self.resolve(from);
        let to = self.resolve(to);
        if from != to {
            self.shapes[from.0 as usize] = ShapeRepr::Link(to);
        }
    }

    /// Equates two shapes (all corresponding nodes merged).
    ///
    /// # Errors
    ///
    /// [`BtaError::ShapeMismatch`] on structural clash and
    /// [`BtaError::Occurs`] on infinite shapes.
    pub fn unify_shapes(&mut self, a: ShapeId, b: ShapeId) -> Result<(), BtaError> {
        let a = self.resolve(a);
        let b = self.resolve(b);
        if a == b {
            return Ok(());
        }
        match (self.view(a), self.view(b)) {
            (ShapeView::SVar(n), _) => {
                if self.contains_shape(b, a) {
                    return Err(BtaError::Occurs { context: self.context.clone() });
                }
                let tb = self.top(b);
                self.merge_nodes(n, tb);
                self.link(a, b);
                Ok(())
            }
            (_, ShapeView::SVar(n)) => {
                if self.contains_shape(a, b) {
                    return Err(BtaError::Occurs { context: self.context.clone() });
                }
                let ta = self.top(a);
                self.merge_nodes(n, ta);
                self.link(b, a);
                Ok(())
            }
            (ShapeView::Base(n1), ShapeView::Base(n2)) => {
                self.merge_nodes(n1, n2);
                Ok(())
            }
            (ShapeView::List(e1, s1), ShapeView::List(e2, s2)) => {
                self.merge_nodes(s1, s2);
                self.unify_shapes(e1, e2)
            }
            (ShapeView::Fun(a1, b1, r1), ShapeView::Fun(a2, b2, r2)) => {
                self.merge_nodes(b1, b2);
                self.unify_shapes(a1, a2)?;
                self.unify_shapes(r1, r2)
            }
            _ => Err(self.mismatch()),
        }
    }

    /// Subsumption: a value of shape `from` flows to a position of shape
    /// `to`, inserting `≤` edges (and a run-time coercion, recorded by
    /// the caller).
    ///
    /// Rules:
    ///
    /// * base and list positions are covariant;
    /// * for function shapes the argument and result shapes are *unified*
    ///   and only the arrow may rise (`S` closure to `D` code via
    ///   eta-expansion) — the conservative rule discussed in `DESIGN.md`;
    /// * two polymorphic positions get a `≤` edge between their summary
    ///   nodes, and the pair is deferred so that if either side later
    ///   acquires structure the coercion is replayed structurally
    ///   ([`Solver::settle`]);
    /// * a structured value flowing *into* a polymorphic position also
    ///   gets "boxing" edges from every node inside it to the summary —
    ///   a value whose inner parts are dynamic forces the whole
    ///   polymorphic position dynamic, which is what makes summarising a
    ///   subtree by one binding time sound (the paper's §4.2 boxing
    ///   analogy).
    ///
    /// # Errors
    ///
    /// [`BtaError::ShapeMismatch`] / [`BtaError::Occurs`] as for
    /// [`Solver::unify_shapes`].
    pub fn coerce_shapes(&mut self, from: ShapeId, to: ShapeId) -> Result<(), BtaError> {
        let from = self.resolve(from);
        let to = self.resolve(to);
        if from == to {
            return Ok(());
        }
        match (self.view(from), self.view(to)) {
            (ShapeView::SVar(n1), ShapeView::SVar(n2)) => {
                self.edge(n1, n2);
                self.pending.push((from, to));
                Ok(())
            }
            (ShapeView::SVar(n), other) => {
                if self.contains_shape(to, from) {
                    return Err(BtaError::Occurs { context: self.context.clone() });
                }
                let expanded = self.expand_like(n, other);
                self.link(from, expanded);
                self.coerce_shapes(expanded, to)
            }
            (other, ShapeView::SVar(n)) => {
                if self.contains_shape(from, to) {
                    return Err(BtaError::Occurs { context: self.context.clone() });
                }
                // Boxing: everything inside the value is dominated by the
                // polymorphic summary node.
                for m in self.shape_nodes(from) {
                    self.edge(m, n);
                }
                let expanded = self.expand_like(n, other);
                self.link(to, expanded);
                self.coerce_shapes(from, expanded)
            }
            (ShapeView::Base(n1), ShapeView::Base(n2)) => {
                self.edge(n1, n2);
                Ok(())
            }
            (ShapeView::List(e1, s1), ShapeView::List(e2, s2)) => {
                self.edge(s1, s2);
                self.coerce_shapes(e1, e2)
            }
            (ShapeView::Fun(a1, b1, r1), ShapeView::Fun(a2, b2, r2)) => {
                self.edge(b1, b2);
                self.unify_shapes(a1, a2)?;
                self.unify_shapes(r1, r2)
            }
            _ => Err(self.mismatch()),
        }
    }

    /// Replays deferred polymorphic-to-polymorphic coercions whose sides
    /// have since acquired structure. Call once per analysed SCC, after
    /// all constraints are generated and before extracting solutions.
    ///
    /// # Errors
    ///
    /// Same as [`Solver::coerce_shapes`].
    pub fn settle(&mut self) -> Result<(), BtaError> {
        loop {
            let pending = std::mem::take(&mut self.pending);
            let mut still = Vec::new();
            let mut progress = false;
            for (f, t) in pending {
                let both_svars = matches!(self.view(f), ShapeView::SVar(_))
                    && matches!(self.view(t), ShapeView::SVar(_));
                if both_svars || self.resolve(f) == self.resolve(t) {
                    still.push((f, t));
                } else {
                    self.coerce_shapes(f, t)?;
                    progress = true;
                }
            }
            self.pending.extend(still);
            if !progress {
                return Ok(());
            }
        }
    }

    /// Builds a fresh shape with the same constructor as `like`, using
    /// `n` as its top node.
    fn expand_like(&mut self, n: NodeId, like: ShapeView) -> ShapeId {
        match like {
            ShapeView::Base(_) => self.base_with(n),
            ShapeView::SVar(_) => unreachable!("svar handled by caller"),
            ShapeView::List(..) => {
                let elem = self.fresh_svar();
                self.list_with(elem, n)
            }
            ShapeView::Fun(..) => {
                let arg = self.fresh_svar();
                let res = self.fresh_svar();
                self.fun_with(arg, n, res)
            }
        }
    }

    // ----- least solutions --------------------------------------------

    /// Computes the symbolic least solution of every node with respect to
    /// the given signature roots: `solution(n)` is the lub of the
    /// signature variables whose roots reach `find(n)`, plus `D` if a
    /// forced node reaches it.
    ///
    /// `sig_roots` must already be root representatives and deduplicated;
    /// variable `i` of the resulting terms refers to `sig_roots[i]`.
    pub fn least_solutions(&mut self, sig_roots: &[NodeId]) -> LeastSolutions {
        let n = self.parent.len();
        // Adjacency over roots.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let edges = self.edges.clone();
        for (lo, hi) in edges {
            let lo = self.find(lo).0 as usize;
            let hi = self.find(hi).0;
            if lo as u32 != hi {
                adj[lo].push(hi);
            }
        }
        let mut reach: Vec<u128> = vec![0; n];
        let mut forced: Vec<bool> = vec![false; n];

        // Seed forced-D nodes.
        let mut queue = VecDeque::new();
        for (i, is_forced) in forced.iter_mut().enumerate() {
            if self.parent[i] == i as u32 && self.forced_d[i] {
                *is_forced = true;
                queue.push_back(i as u32);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &j in &adj[i as usize] {
                if !forced[j as usize] {
                    forced[j as usize] = true;
                    queue.push_back(j);
                }
            }
        }

        // Propagate each signature variable.
        for (idx, root) in sig_roots.iter().enumerate() {
            let bit = 1u128 << idx;
            let r = self.find(*root).0;
            let mut queue = VecDeque::new();
            if reach[r as usize] & bit == 0 {
                reach[r as usize] |= bit;
                queue.push_back(r);
            }
            while let Some(i) = queue.pop_front() {
                for &j in &adj[i as usize] {
                    if reach[j as usize] & bit == 0 {
                        reach[j as usize] |= bit;
                        queue.push_back(j);
                    }
                }
            }
        }

        LeastSolutions { reach, forced }
    }
}

/// Symbolic least solutions computed by [`Solver::least_solutions`].
#[derive(Debug)]
pub struct LeastSolutions {
    reach: Vec<u128>,
    forced: Vec<bool>,
}

impl LeastSolutions {
    /// The least solution of a node as a term over the signature
    /// variables supplied to [`Solver::least_solutions`].
    pub fn term(&self, solver: &mut Solver, n: NodeId) -> BtTerm {
        let r = solver.find(n).0 as usize;
        if self.forced[r] {
            return BtTerm::d();
        }
        BtTerm::from_bits(self.reach[r])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Bt;

    fn term_of(s: &mut Solver, ls: &LeastSolutions, n: NodeId) -> String {
        ls.term(s, n).to_string()
    }

    #[test]
    fn least_solution_is_reachable_sig_vars() {
        let mut s = Solver::new("test");
        let a = s.fresh_node(); // sig var 0
        let b = s.fresh_node(); // sig var 1
        let x = s.fresh_node();
        let y = s.fresh_node();
        s.edge(a, x);
        s.edge(b, x);
        s.edge(x, y);
        let ls = s.least_solutions(&[a, b]);
        assert_eq!(term_of(&mut s, &ls, a), "t0");
        assert_eq!(term_of(&mut s, &ls, x), "t0 | t1");
        assert_eq!(term_of(&mut s, &ls, y), "t0 | t1");
    }

    #[test]
    fn unconstrained_node_is_static() {
        let mut s = Solver::new("test");
        let a = s.fresh_node();
        let free = s.fresh_node();
        let ls = s.least_solutions(&[a]);
        assert_eq!(term_of(&mut s, &ls, free), "S");
    }

    #[test]
    fn forced_d_propagates() {
        let mut s = Solver::new("test");
        let a = s.fresh_node();
        let x = s.fresh_node();
        s.force_d(a);
        s.edge(a, x);
        let ls = s.least_solutions(&[]);
        assert_eq!(term_of(&mut s, &ls, x), "D");
    }

    #[test]
    fn merged_nodes_share_solutions() {
        let mut s = Solver::new("test");
        let a = s.fresh_node();
        let x = s.fresh_node();
        let y = s.fresh_node();
        s.edge(a, x);
        s.merge_nodes(x, y);
        let ls = s.least_solutions(&[a]);
        assert_eq!(term_of(&mut s, &ls, y), "t0");
    }

    #[test]
    fn merge_preserves_forced_d() {
        let mut s = Solver::new("test");
        let a = s.fresh_node();
        let b = s.fresh_node();
        s.force_d(a);
        s.merge_nodes(a, b);
        assert!(s.is_forced_d(b));
    }

    #[test]
    fn unify_base_merges_nodes() {
        let mut s = Solver::new("test");
        let x = s.fresh_base();
        let y = s.fresh_base();
        s.unify_shapes(x, y).unwrap();
        let tx = s.top(x);
        let ty = s.top(y);
        assert_eq!(s.find(tx), s.find(ty));
    }

    #[test]
    fn unify_svar_with_list_links() {
        let mut s = Solver::new("test");
        let sv = s.fresh_svar();
        let elem = s.fresh_base();
        let spine = s.fresh_node();
        let l = s.list_with(elem, spine);
        s.unify_shapes(sv, l).unwrap();
        assert!(matches!(s.view(sv), ShapeView::List(..)));
        let top_sv = s.top(sv);
        assert_eq!(s.find(top_sv), s.find(spine));
    }

    #[test]
    fn unify_structural_mismatch_errors() {
        let mut s = Solver::new("ctx");
        let b = s.fresh_base();
        let elem = s.fresh_base();
        let spine = s.fresh_node();
        let l = s.list_with(elem, spine);
        let e = s.unify_shapes(b, l).unwrap_err();
        assert!(matches!(e, BtaError::ShapeMismatch { .. }));
        assert!(e.to_string().contains("ctx"));
    }

    #[test]
    fn occurs_check_on_infinite_shape() {
        let mut s = Solver::new("test");
        let sv = s.fresh_svar();
        let spine = s.fresh_node();
        let l = s.list_with(sv, spine);
        assert!(matches!(s.unify_shapes(sv, l), Err(BtaError::Occurs { .. })));
    }

    #[test]
    fn coerce_base_adds_edge_not_merge() {
        let mut s = Solver::new("test");
        let x = s.fresh_base();
        let y = s.fresh_base();
        s.coerce_shapes(x, y).unwrap();
        let tx = s.top(x);
        let ty = s.top(y);
        assert_ne!(s.find(tx), s.find(ty));
        // x ≤ y: forcing... make x a sig var; y should pick it up.
        let ls = s.least_solutions(&[tx]);
        assert_eq!(term_of(&mut s, &ls, ty), "t0");
        let ls_rev = s.least_solutions(&[ty]);
        // but x does NOT see y.
        assert_eq!(term_of(&mut s, &ls_rev, tx), "S");
    }

    #[test]
    fn coerce_expands_svar_to_match() {
        let mut s = Solver::new("test");
        let sv = s.fresh_svar();
        let elem = s.fresh_base();
        let spine = s.fresh_node();
        let l = s.list_with(elem, spine);
        // svar flows into list position: svar becomes a list.
        s.coerce_shapes(sv, l).unwrap();
        assert!(matches!(s.view(sv), ShapeView::List(..)));
    }

    #[test]
    fn coerce_fun_unifies_parts_and_raises_arrow() {
        let mut s = Solver::new("test");
        let a1 = s.fresh_base();
        let r1 = s.fresh_base();
        let b1 = s.fresh_node();
        let f1 = s.fun_with(a1, b1, r1);
        let a2 = s.fresh_base();
        let r2 = s.fresh_base();
        let b2 = s.fresh_node();
        let f2 = s.fun_with(a2, b2, r2);
        s.coerce_shapes(f1, f2).unwrap();
        // args and results merged; arrows related by edge only.
        let ta1 = s.top(a1);
        let ta2 = s.top(a2);
        assert_eq!(s.find(ta1), s.find(ta2));
        assert_ne!(s.find(b1), s.find(b2));
        let ls = s.least_solutions(&[b1]);
        assert_eq!(term_of(&mut s, &ls, b2), "t0");
    }

    #[test]
    fn wft_edges_force_components_of_dynamic_lists() {
        let mut s = Solver::new("test");
        let elem = s.fresh_base();
        let spine = s.fresh_node();
        let _l = s.list_with(elem, spine);
        s.force_d(spine);
        let ls = s.least_solutions(&[]);
        let te = s.top(elem);
        assert_eq!(ls.term(&mut s, te), BtTerm::d());
    }

    #[test]
    fn wft_edges_force_components_of_dynamic_funs() {
        let mut s = Solver::new("test");
        let arg = s.fresh_base();
        let res = s.fresh_base();
        let arrow = s.fresh_node();
        let _f = s.fun_with(arg, arrow, res);
        let ls = s.least_solutions(&[arrow]);
        let ta = s.top(arg);
        let tr = s.top(res);
        // arg and result tops inherit the arrow variable.
        assert_eq!(term_of(&mut s, &ls, ta), "t0");
        assert_eq!(term_of(&mut s, &ls, tr), "t0");
        // so a D arrow evaluates components to D.
        let t = ls.term(&mut s, ta);
        assert_eq!(t.eval(|_| Bt::D), Bt::D);
    }

    #[test]
    fn shape_nodes_preorder() {
        let mut s = Solver::new("test");
        let arg = s.fresh_base();
        let res = s.fresh_base();
        let arrow = s.fresh_node();
        let f = s.fun_with(arg, arrow, res);
        let nodes = s.shape_nodes(f);
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0], arrow);
    }
}
