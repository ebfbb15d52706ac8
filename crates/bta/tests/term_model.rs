//! `BtTerm` against a set model: over seeded random variable sets, every
//! operation on the 128-bit mask representation agrees with the same
//! operation on an explicit `BTreeSet` of variables plus a `D` flag —
//! `lub`, `subst`, `eval`, `bits`, `vars`, `Display` and the JSON round
//! trip.

use mspec_bta::{Bt, BtTerm, BtVarId};
use mspec_lang::{FromJson, Json, ToJson};
use mspec_testkit::TestRng;
use std::collections::BTreeSet;

/// The reference model: `D`, or the lub of an explicit variable set.
#[derive(Debug, Clone, PartialEq)]
struct Model {
    d: bool,
    vars: BTreeSet<BtVarId>,
}

impl Model {
    fn d() -> Model {
        Model { d: true, vars: BTreeSet::new() }
    }

    fn lub(&self, other: &Model) -> Model {
        if self.d || other.d {
            Model::d()
        } else {
            Model { d: false, vars: self.vars.union(&other.vars).copied().collect() }
        }
    }

    fn subst(&self, f: impl Fn(BtVarId) -> Model) -> Model {
        if self.d {
            return Model::d();
        }
        let mut out = Model { d: false, vars: BTreeSet::new() };
        for v in &self.vars {
            out = out.lub(&f(*v));
        }
        out
    }

    fn eval(&self, dynamic: &BTreeSet<BtVarId>) -> Bt {
        if self.d || self.vars.iter().any(|v| dynamic.contains(v)) {
            Bt::D
        } else {
            Bt::S
        }
    }

    fn bits(&self) -> (bool, u128) {
        (self.d, self.vars.iter().fold(0, |b, v| b | 1 << v))
    }

    fn render(&self) -> String {
        if self.d {
            "D".into()
        } else if self.vars.is_empty() {
            "S".into()
        } else {
            self.vars.iter().map(|v| format!("t{v}")).collect::<Vec<_>>().join(" | ")
        }
    }

    fn json(&self) -> Json {
        if self.d {
            Json::str("D")
        } else {
            Json::Arr(self.vars.iter().map(|v| Json::Num(u128::from(*v))).collect())
        }
    }

    fn term(&self) -> BtTerm {
        if self.d {
            BtTerm::d()
        } else {
            BtTerm::lub_of(self.vars.iter().copied())
        }
    }
}

/// A random term: `D` one time in ten, otherwise up to 12 variables
/// drawn from the full 128-variable range.
fn random_model(rng: &mut TestRng) -> Model {
    if rng.gen_range(0u32..10) == 0 {
        return Model::d();
    }
    let n = rng.gen_range(0usize..=12);
    Model { d: false, vars: (0..n).map(|_| rng.gen_range(0u32..128)).collect() }
}

fn agrees(t: BtTerm, m: &Model, what: &str) {
    assert_eq!(t.is_d(), m.d, "{what}: is_d of {m:?}");
    assert_eq!(t.is_s(), !m.d && m.vars.is_empty(), "{what}: is_s of {m:?}");
    assert_eq!(t.bits(), m.bits(), "{what}: bits of {m:?}");
    let expect_vars: Vec<BtVarId> = if m.d { vec![] } else { m.vars.iter().copied().collect() };
    assert_eq!(t.vars().collect::<Vec<_>>(), expect_vars, "{what}: vars of {m:?}");
    assert_eq!(t.to_string(), m.render(), "{what}: Display of {m:?}");
    assert_eq!(t.to_json_value(), m.json(), "{what}: JSON of {m:?}");
    assert_eq!(BtTerm::from_json_str(&t.to_json_compact()).unwrap(), t, "{what}: round trip");
}

#[test]
fn mask_terms_agree_with_the_set_model() {
    let mut rng = TestRng::seed_from_u64(0x6274_7465_726d);
    for round in 0..2500 {
        let (ma, mb) = (random_model(&mut rng), random_model(&mut rng));
        let (a, b) = (ma.term(), mb.term());
        agrees(a, &ma, &format!("round {round} a"));
        agrees(b, &mb, &format!("round {round} b"));
        agrees(a.lub(&b), &ma.lub(&mb), &format!("round {round} lub"));

        // Substitute every variable by its own random term.
        let table: Vec<Model> = (0..128).map(|_| random_model(&mut rng)).collect();
        let subst = a.subst(|v| table[v as usize].term());
        agrees(subst, &ma.subst(|v| table[v as usize].clone()), &format!("round {round} subst"));

        let dynamic: BTreeSet<BtVarId> = (0..rng.gen_range(0usize..=40))
            .map(|_| rng.gen_range(0u32..128))
            .collect();
        assert_eq!(
            a.eval(|v| if dynamic.contains(&v) { Bt::D } else { Bt::S }),
            ma.eval(&dynamic),
            "round {round}: eval of {ma:?} under {dynamic:?}"
        );
    }
}

#[test]
fn json_rejects_variables_beyond_the_mask() {
    assert_eq!(BtTerm::from_json_str("[127]").unwrap(), BtTerm::var(127));
    assert_eq!(BtTerm::from_json_str("[3,1,3]").unwrap(), BtTerm::lub_of([1, 3]));
    for bad in ["[128]", "[0,128]", "[4294967295]"] {
        assert!(BtTerm::from_json_str(bad).is_err(), "{bad} decoded");
    }
}
