//! Qualified binding-time schemes, masks and interface files.
//!
//! A named function's binding-time behaviour is summarised by a
//! [`BtSignature`] — the paper's qualified binding-time type, e.g.
//! `∀t,u. {t ≤ u} ⇒ t → u → t⊔u` for `power` — plus the *unfold
//! annotation* on the definition's `=` sign (the lub of the binding times
//! of the conditionals in the body). The signature is everything a
//! *caller* needs, so the per-module [`BtInterface`] file contains
//! exactly these, and importing modules are analysed without the source.

use crate::shape::SigShape;
use crate::term::{Bt, BtTerm, BtVarId};
use mspec_lang::{FromJson, Ident, Json, JsonError, ToJson};
use std::collections::BTreeMap;
use std::fmt;

/// A concrete assignment of a signature's binding-time variables:
/// bit `i` set ⇔ `t_i = D`. Signatures are limited to 128 variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BtMask(pub u128);

impl BtMask {
    /// The all-static mask.
    pub fn all_static() -> BtMask {
        BtMask(0)
    }

    /// The all-dynamic mask for `vars` variables.
    pub fn all_dynamic(vars: u32) -> BtMask {
        if vars == 0 {
            BtMask(0)
        } else {
            BtMask(u128::MAX >> (128 - vars))
        }
    }

    /// The binding time of variable `v`.
    pub fn get(self, v: BtVarId) -> Bt {
        if self.0 >> v & 1 == 1 {
            Bt::D
        } else {
            Bt::S
        }
    }

    /// Returns a mask with `v` set to `D`.
    #[must_use]
    pub fn set_dynamic(self, v: BtVarId) -> BtMask {
        BtMask(self.0 | 1 << v)
    }

    /// Evaluates a term under this mask.
    pub fn eval(self, term: &BtTerm) -> Bt {
        term.eval(|v| self.get(v))
    }

    /// Renders the mask for `vars` variables, e.g. `{S,D}`.
    pub fn render(self, vars: u32) -> String {
        let mut s = String::from("{");
        for v in 0..vars {
            if v > 0 {
                s.push(',');
            }
            s.push_str(&self.get(v).to_string());
        }
        s.push('}');
        s
    }
}

/// The qualified binding-time scheme of one named function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BtSignature {
    /// Number of signature variables (`t0 … t{vars-1}`).
    pub vars: u32,
    /// Qualifications `lhs ≤ rhs` between signature variables.
    pub constraints: Vec<(BtVarId, BtVarId)>,
    /// Signature variables forced dynamic (`D ≤ t`), e.g. the parameter
    /// of a function whose result is its argument and which was forced
    /// residual.
    pub forced_d: Vec<BtVarId>,
    /// Binding-time shapes of the parameters. Every term in these shapes
    /// is a single signature variable.
    pub params: Vec<SigShape>,
    /// Binding-time shape of the result; terms are lubs over signature
    /// variables (symbolic least solutions).
    pub ret: SigShape,
    /// The unfold annotation on the `=` sign: the function may be
    /// unfolded iff this evaluates to `S` (§4.1: the lub of the binding
    /// times of the conditionals in the body).
    pub unfold: BtTerm,
}

impl BtSignature {
    /// Completes a requested assignment to the least mask that satisfies
    /// all constraints (requested `D`s are kept; constraints may force
    /// more variables to `D`, never fewer).
    pub fn complete_mask(&self, requested: BtMask) -> BtMask {
        let mut mask = requested;
        for &v in &self.forced_d {
            mask = mask.set_dynamic(v);
        }
        loop {
            let mut changed = false;
            for &(lo, hi) in &self.constraints {
                if mask.get(lo) == Bt::D && mask.get(hi) == Bt::S {
                    mask = mask.set_dynamic(hi);
                    changed = true;
                }
            }
            if !changed {
                return mask;
            }
        }
    }

    /// `true` if the mask satisfies every constraint as-is.
    pub fn satisfies(&self, mask: BtMask) -> bool {
        self.constraints
            .iter()
            .all(|&(lo, hi)| mask.get(lo) <= mask.get(hi))
            && self.forced_d.iter().all(|&v| mask.get(v) == Bt::D)
    }

    /// Whether a call under `mask` should be unfolded.
    pub fn unfoldable_under(&self, mask: BtMask) -> bool {
        mask.eval(&self.unfold) == Bt::S
    }
}

impl ToJson for BtSignature {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("vars", Json::Num(u128::from(self.vars))),
            (
                "constraints",
                Json::Arr(
                    self.constraints
                        .iter()
                        .map(|(lo, hi)| {
                            Json::Arr(vec![Json::Num(u128::from(*lo)), Json::Num(u128::from(*hi))])
                        })
                        .collect(),
                ),
            ),
            (
                "forced_d",
                Json::Arr(self.forced_d.iter().map(|v| Json::Num(u128::from(*v))).collect()),
            ),
            ("params", self.params.to_json_value()),
            ("ret", self.ret.to_json_value()),
            ("unfold", self.unfold.to_json_value()),
        ])
    }
}

impl FromJson for BtSignature {
    /// Decodes a signature and checks that it is well formed: at most 128
    /// variables, and every variable it mentions — constraint endpoints,
    /// `forced_d` entries and the terms of `params`, `ret` and `unfold` —
    /// is one of them. An interface that passes its checksum but names an
    /// undeclared variable is rejected here rather than indexing out of
    /// bounds in the analysis of a client module.
    fn from_json_value(j: &Json) -> Result<BtSignature, JsonError> {
        let vars = j.get("vars")?.as_u32()?;
        if vars > 128 {
            return Err(JsonError(format!(
                "binding-time signature declares {vars} variables; the limit is 128"
            )));
        }
        let declared = |v: u32| -> Result<u32, JsonError> {
            if v < vars {
                Ok(v)
            } else {
                Err(JsonError(format!(
                    "binding-time variable t{v} is not declared (the signature has {vars})"
                )))
            }
        };
        let mut constraints = Vec::new();
        for c in j.get("constraints")?.as_arr()? {
            let pair = c.as_arr()?;
            if pair.len() != 2 {
                return Err(JsonError("constraint expects [lo, hi]".into()));
            }
            constraints.push((declared(pair[0].as_u32()?)?, declared(pair[1].as_u32()?)?));
        }
        let mut forced_d = Vec::new();
        for v in j.get("forced_d")?.as_arr()? {
            forced_d.push(declared(v.as_u32()?)?);
        }
        let sig = BtSignature {
            vars,
            constraints,
            forced_d,
            params: Vec::from_json_value(j.get("params")?)?,
            ret: SigShape::from_json_value(j.get("ret")?)?,
            unfold: BtTerm::from_json_value(j.get("unfold")?)?,
        };
        let terms = sig.params.iter().chain([&sig.ret]).flat_map(SigShape::terms);
        for t in terms.chain([&sig.unfold]) {
            if let Some(v) = t.vars().last() {
                declared(v)?;
            }
        }
        Ok(sig)
    }
}

impl fmt::Display for BtSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.vars > 0 {
            write!(f, "forall")?;
            for v in 0..self.vars {
                write!(f, " t{v}")?;
            }
            write!(f, ". ")?;
        }
        if !self.constraints.is_empty() || !self.forced_d.is_empty() {
            write!(f, "{{")?;
            let mut first = true;
            for (lo, hi) in &self.constraints {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "t{lo} <= t{hi}")?;
            }
            for v in &self.forced_d {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "D <= t{v}")?;
            }
            write!(f, "}} => ")?;
        }
        for p in &self.params {
            write!(f, "{p} -> ")?;
        }
        write!(f, "{} [unfold: {}]", self.ret, self.unfold)
    }
}

/// The binding-time interface of one module: a signature per exported
/// function. Serialised to `.bti` files.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BtInterface {
    sigs: BTreeMap<Ident, BtSignature>,
}

impl BtInterface {
    /// An empty interface.
    pub fn new() -> BtInterface {
        BtInterface::default()
    }

    /// Records a function's signature.
    pub fn insert(&mut self, name: Ident, sig: BtSignature) {
        self.sigs.insert(name, sig);
    }

    /// Looks up a function's signature.
    pub fn get(&self, name: &Ident) -> Option<&BtSignature> {
        self.sigs.get(name)
    }

    /// Iterates deterministically over `(name, signature)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Ident, &BtSignature)> {
        self.sigs.iter()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Serialises to the on-disk `.bti` format (JSON).
    ///
    /// # Errors
    ///
    /// Never fails for well-formed interfaces; the `Result` is kept for
    /// interface-file API stability.
    pub fn to_json(&self) -> Result<String, JsonError> {
        Ok(self.to_json_pretty())
    }

    /// Reads back an interface written by [`BtInterface::to_json`].
    ///
    /// # Errors
    ///
    /// Returns an error if `s` is not a valid interface file.
    pub fn from_json(s: &str) -> Result<BtInterface, JsonError> {
        BtInterface::from_json_str(s)
    }
}

impl ToJson for BtInterface {
    fn to_json_value(&self) -> Json {
        Json::Obj(
            self.sigs
                .iter()
                .map(|(name, sig)| (name.as_str().to_owned(), sig.to_json_value()))
                .collect(),
        )
    }
}

impl FromJson for BtInterface {
    fn from_json_value(j: &Json) -> Result<BtInterface, JsonError> {
        let mut sigs = BTreeMap::new();
        for (name, v) in j.as_obj()? {
            sigs.insert(Ident::new(name), BtSignature::from_json_value(v)?);
        }
        Ok(BtInterface { sigs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn power_sig() -> BtSignature {
        // forall t0 t1. Base(t0) -> Base(t1) -> Base(t0|t1) [unfold: t0]
        BtSignature {
            vars: 2,
            constraints: vec![],
            forced_d: vec![],
            params: vec![
                SigShape::Base(BtTerm::var(0)),
                SigShape::Base(BtTerm::var(1)),
            ],
            ret: SigShape::Base(BtTerm::lub_of([0, 1])),
            unfold: BtTerm::var(0),
        }
    }

    #[test]
    fn mask_get_set() {
        let m = BtMask::all_static().set_dynamic(1);
        assert_eq!(m.get(0), Bt::S);
        assert_eq!(m.get(1), Bt::D);
        assert_eq!(m.render(2), "{S,D}");
    }

    #[test]
    fn all_dynamic_mask() {
        let m = BtMask::all_dynamic(3);
        assert_eq!(m.render(3), "{D,D,D}");
        assert_eq!(BtMask::all_dynamic(0), BtMask::all_static());
    }

    #[test]
    fn mask_eval_terms() {
        let m = BtMask::all_static().set_dynamic(2);
        assert_eq!(m.eval(&BtTerm::var(2)), Bt::D);
        assert_eq!(m.eval(&BtTerm::var(0)), Bt::S);
        assert_eq!(m.eval(&BtTerm::lub_of([0, 2])), Bt::D);
        assert_eq!(m.eval(&BtTerm::s()), Bt::S);
        assert_eq!(m.eval(&BtTerm::d()), Bt::D);
    }

    #[test]
    fn unfold_decision_matches_paper_power() {
        let sig = power_sig();
        // power {S,D}: n static — unfold.
        assert!(sig.unfoldable_under(BtMask::all_static().set_dynamic(1)));
        // power {D,S}: n dynamic — residualise.
        assert!(!sig.unfoldable_under(BtMask::all_static().set_dynamic(0)));
    }

    #[test]
    fn complete_mask_propagates_constraints() {
        let sig = BtSignature {
            vars: 3,
            constraints: vec![(0, 1), (1, 2)],
            forced_d: vec![],
            params: vec![],
            ret: SigShape::Base(BtTerm::s()),
            unfold: BtTerm::s(),
        };
        let m = sig.complete_mask(BtMask::all_static().set_dynamic(0));
        assert_eq!(m.render(3), "{D,D,D}");
        assert!(sig.satisfies(m));
        assert!(!sig.satisfies(BtMask::all_static().set_dynamic(0)));
        // all-static satisfies trivially and is already complete.
        assert_eq!(sig.complete_mask(BtMask::all_static()), BtMask::all_static());
    }

    #[test]
    fn signature_display() {
        assert_eq!(
            power_sig().to_string(),
            "forall t0 t1. Base(t0) -> Base(t1) -> Base(t0 | t1) [unfold: t0]"
        );
        let with_constraint = BtSignature { constraints: vec![(0, 1)], ..power_sig() };
        assert!(with_constraint.to_string().contains("{t0 <= t1} =>"));
    }

    #[test]
    fn interface_roundtrip_through_json() {
        let mut i = BtInterface::new();
        i.insert(Ident::new("power"), power_sig());
        let js = i.to_json().unwrap();
        let back = BtInterface::from_json(&js).unwrap();
        assert_eq!(i, back);
        assert_eq!(back.len(), 1);
        assert!(back.get(&Ident::new("power")).is_some());
        assert!(back.get(&Ident::new("nope")).is_none());
    }
}
