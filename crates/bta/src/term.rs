//! The binding-time lattice and symbolic lub terms.
//!
//! Binding times form the two-point lattice `S < D` (§4.1, Fig. 2). In a
//! module analysed in isolation the binding times of most positions are
//! unknown, so annotations are *terms*: the least upper bound of a set of
//! the function's signature variables, or the constant `D`. (`S` is the
//! lub of the empty set.)

use mspec_lang::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// A concrete binding time: static or dynamic, with `S < D`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bt {
    /// Static: known at specialisation time.
    S,
    /// Dynamic: known only at run time.
    D,
}

impl Bt {
    /// Least upper bound.
    pub fn lub(self, other: Bt) -> Bt {
        if self == Bt::D || other == Bt::D {
            Bt::D
        } else {
            Bt::S
        }
    }

    /// `true` for [`Bt::D`].
    pub fn is_dynamic(self) -> bool {
        self == Bt::D
    }
}

impl fmt::Display for Bt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bt::S => write!(f, "S"),
            Bt::D => write!(f, "D"),
        }
    }
}

/// Index of a signature binding-time variable (`t0`, `t1`, …) within one
/// function's qualified binding-time scheme.
pub type BtVarId = u32;

/// A symbolic binding time: `D`, or the lub of a set of signature
/// variables (empty set = `S`), kept as the 128-bit mask generating
/// extensions evaluate (bit `i` set ⇔ `t_i` occurs), so `lub` is an OR.
///
/// `D ⊔ anything = D`, so a term containing `D` is just `D` — the
/// representation keeps that normal form (a forced `D` has no bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BtTerm {
    forced_d: bool,
    vars: u128,
}

impl BtTerm {
    /// The constant `S` (lub of nothing).
    pub fn s() -> BtTerm {
        BtTerm::from_bits(0)
    }

    /// The constant `D`.
    pub fn d() -> BtTerm {
        BtTerm { forced_d: true, vars: 0 }
    }

    /// A single signature variable; panics unless `v < 128` (the
    /// analysis rejects wider signatures first).
    pub fn var(v: BtVarId) -> BtTerm {
        BtTerm::from_bits(1u128.checked_shl(v).expect("binding-time signature too wide"))
    }

    /// The lub of the variables whose bits are set in `vars`.
    pub fn from_bits(vars: u128) -> BtTerm {
        BtTerm { forced_d: false, vars }
    }

    /// The lub of a set of variables.
    pub fn lub_of(vars: impl IntoIterator<Item = BtVarId>) -> BtTerm {
        vars.into_iter().fold(BtTerm::s(), |t, v| t.lub(&BtTerm::var(v)))
    }

    /// Least upper bound of two terms.
    pub fn lub(&self, other: &BtTerm) -> BtTerm {
        if self.forced_d || other.forced_d {
            BtTerm::d()
        } else {
            BtTerm::from_bits(self.vars | other.vars)
        }
    }

    /// `true` if the term is the constant `S`.
    pub fn is_s(&self) -> bool {
        !self.forced_d && self.vars == 0
    }

    /// `true` if the term is the constant `D`.
    pub fn is_d(&self) -> bool {
        self.forced_d
    }

    /// The signature variables mentioned, in ascending order.
    pub fn vars(&self) -> impl Iterator<Item = BtVarId> {
        let mut rest = self.vars;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let v = rest.trailing_zeros();
                rest &= rest - 1;
                v
            })
        })
    }

    /// Evaluates the term under an assignment of the signature variables.
    pub fn eval(&self, assignment: impl Fn(BtVarId) -> Bt) -> Bt {
        if self.forced_d || self.vars().any(|v| assignment(v) == Bt::D) {
            Bt::D
        } else {
            Bt::S
        }
    }

    /// The variables as a bitmask (bit `i` set ⇔ `t_i` occurs), together
    /// with the forced-`D` flag — the compiled form used by generating
    /// extensions, where evaluating an annotation is one AND.
    pub fn bits(&self) -> (bool, u128) {
        (self.forced_d, self.vars)
    }

    /// Rewrites the term by substituting each variable with a term
    /// (used when instantiating a callee signature at a call site).
    pub fn subst(&self, f: impl Fn(BtVarId) -> BtTerm) -> BtTerm {
        if self.forced_d {
            return BtTerm::d();
        }
        self.vars().fold(BtTerm::s(), |out, v| out.lub(&f(v)))
    }
}

impl ToJson for BtTerm {
    fn to_json_value(&self) -> Json {
        if self.forced_d {
            Json::str("D")
        } else {
            Json::Arr(self.vars().map(|v| Json::Num(u128::from(v))).collect())
        }
    }
}

impl FromJson for BtTerm {
    fn from_json_value(j: &Json) -> Result<BtTerm, JsonError> {
        if let Ok(s) = j.as_str() {
            return match s {
                "D" => Ok(BtTerm::d()),
                other => Err(JsonError(format!("unknown binding-time constant `{other}`"))),
            };
        }
        let mut vars = 0u128;
        for v in j.as_arr()? {
            let v = v.as_u32()?;
            vars |= 1u128.checked_shl(v).ok_or_else(|| {
                JsonError(format!("binding-time variable t{v} is beyond the limit of 128"))
            })?;
        }
        Ok(BtTerm::from_bits(vars))
    }
}

impl fmt::Display for BtTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.forced_d {
            return write!(f, "D");
        }
        if self.vars == 0 {
            return write!(f, "S");
        }
        for (i, v) in self.vars().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "t{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_order() {
        assert_eq!(Bt::S.lub(Bt::S), Bt::S);
        assert_eq!(Bt::S.lub(Bt::D), Bt::D);
        assert_eq!(Bt::D.lub(Bt::S), Bt::D);
        assert_eq!(Bt::D.lub(Bt::D), Bt::D);
        assert!(Bt::S < Bt::D);
    }

    #[test]
    fn term_normal_form_for_d() {
        let t = BtTerm::d().lub(&BtTerm::var(3));
        assert!(t.is_d());
        assert_eq!(t.vars().count(), 0);
    }

    #[test]
    fn lub_unions_variables() {
        let t = BtTerm::var(0).lub(&BtTerm::var(2)).lub(&BtTerm::var(0));
        assert_eq!(t.vars().collect::<Vec<_>>(), vec![0, 2]);
        assert!(!t.is_s());
        assert!(!t.is_d());
    }

    #[test]
    fn s_is_identity() {
        let t = BtTerm::var(1);
        assert_eq!(t.lub(&BtTerm::s()), t);
        assert_eq!(BtTerm::s().lub(&t), t);
        assert!(BtTerm::s().is_s());
    }

    #[test]
    fn eval_against_assignment() {
        let t = BtTerm::lub_of([0, 2]);
        assert_eq!(t.eval(|_| Bt::S), Bt::S);
        assert_eq!(t.eval(|v| if v == 2 { Bt::D } else { Bt::S }), Bt::D);
        assert_eq!(t.eval(|v| if v == 1 { Bt::D } else { Bt::S }), Bt::S);
        assert_eq!(BtTerm::d().eval(|_| Bt::S), Bt::D);
        assert_eq!(BtTerm::s().eval(|_| Bt::D), Bt::S);
    }

    #[test]
    fn bits_compile_the_var_set() {
        let (d, bits) = BtTerm::lub_of([0, 3]).bits();
        assert!(!d);
        assert_eq!(bits, 0b1001);
        let (d2, bits2) = BtTerm::d().bits();
        assert!(d2);
        assert_eq!(bits2, 0);
    }

    #[test]
    fn subst_instantiates() {
        let t = BtTerm::lub_of([0, 1]);
        // t0 ↦ D  =>  whole term D.
        assert!(t.subst(|v| if v == 0 { BtTerm::d() } else { BtTerm::var(v) }).is_d());
        // t0 ↦ t5, t1 ↦ t6 | t7.
        let r = t.subst(|v| if v == 0 { BtTerm::var(5) } else { BtTerm::lub_of([6, 7]) });
        assert_eq!(r.vars().collect::<Vec<_>>(), vec![5, 6, 7]);
        // substituting into S leaves S.
        assert!(BtTerm::s().subst(|_| BtTerm::d()).is_s());
    }

    #[test]
    fn display_forms() {
        assert_eq!(BtTerm::s().to_string(), "S");
        assert_eq!(BtTerm::d().to_string(), "D");
        assert_eq!(BtTerm::var(1).to_string(), "t1");
        assert_eq!(BtTerm::lub_of([0, 1]).to_string(), "t0 | t1");
    }

    #[test]
    fn json_roundtrip() {
        for t in [BtTerm::lub_of([1, 4]), BtTerm::s(), BtTerm::d()] {
            let js = t.to_json_compact();
            assert_eq!(BtTerm::from_json_str(&js).unwrap(), t);
        }
    }
}
