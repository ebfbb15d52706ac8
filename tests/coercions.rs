//! Targeted tests for the binding-time coercion machinery: lifting
//! static data to code, eta-expanding static closures into residual
//! lambdas, and the "boxing" rule that keeps polymorphic positions sound
//! for partially static data.

use mspec_core::{Pipeline, SpecArg};
use mspec_lang::eval::Value;

/// A static closure flowing into a dynamic context (both branches of a
/// residual conditional) is eta-expanded into a residual lambda.
#[test]
fn closures_eta_expand_into_residual_lambdas() {
    let p = Pipeline::from_source(
        "module M where\n\
         main b y = (if b == 0 then \\x -> x + 1 else \\x -> x * 2) @ y\n",
    )
    .unwrap();
    let s = p
        .specialise("M", "main", vec![SpecArg::Dynamic, SpecArg::Dynamic])
        .unwrap();
    let src = s.source();
    assert!(src.contains('\\'), "expected residual lambdas:\n{src}");
    assert_eq!(
        s.run(vec![Value::nat(0), Value::nat(10)]).unwrap(),
        Value::nat(11)
    );
    assert_eq!(
        s.run(vec![Value::nat(1), Value::nat(10)]).unwrap(),
        Value::nat(20)
    );
}

/// Static data lifted into a dynamic context becomes literal code,
/// including whole lists.
#[test]
fn static_lists_lift_to_cons_literals() {
    let p = Pipeline::from_source(
        "module M where\n\
         sum xs = if null xs then 0 else head xs + sum (tail xs)\n\
         main b = sum (if b == 0 then 1 : 2 : [] else 3 : [])\n",
    )
    .unwrap();
    let s = p.specialise("M", "main", vec![SpecArg::Dynamic]).unwrap();
    let src = s.source();
    // The two static lists appear as list literals in the residual if.
    assert!(src.contains("1 : 2 : []"), "{src}");
    assert_eq!(s.run(vec![Value::nat(0)]).unwrap(), Value::nat(3));
    assert_eq!(s.run(vec![Value::nat(7)]).unwrap(), Value::nat(3));
}

/// Partially static data flowing through a *polymorphic* function forces
/// the polymorphic position dynamic (the boxing rule) — conservative,
/// but semantics must be preserved.
#[test]
fn partially_static_data_through_polymorphic_id_is_sound() {
    let p = Pipeline::from_source(
        "module L where\n\
         id2 x = x\n\
         module B where\n\
         import L\n\
         h zs = head (id2 zs) + 1\n",
    )
    .unwrap();
    // zs: static spine (2 elements), dynamic elements.
    let s = p.specialise("B", "h", vec![SpecArg::StaticSpine(2)]).unwrap();
    let got = s.run(vec![Value::nat(41), Value::nat(0)]).unwrap();
    assert_eq!(got, Value::nat(42));
}

/// The same list used monomorphically keeps its partially static
/// precision: the spine unfolds, only elements stay dynamic.
#[test]
fn partially_static_data_stays_precise_monomorphically() {
    let p = Pipeline::from_source(
        "module M where\n\
         sum xs = if null xs then 0 else head xs + sum (tail xs)\n\
         h zs = sum zs\n",
    )
    .unwrap();
    let s = p.specialise("M", "h", vec![SpecArg::StaticSpine(3)]).unwrap();
    let src = s.source();
    // Fully unfolded: no residual sum, just zs0 + (zs1 + (zs2 + 0)).
    assert!(!src.contains("sum_"), "{src}");
    assert!(src.contains("zs0"), "{src}");
    let got = s
        .run(vec![Value::nat(1), Value::nat(2), Value::nat(3)])
        .unwrap();
    assert_eq!(got, Value::nat(6));
}

/// Dynamic-spine lists force their elements dynamic (well-formedness):
/// a static element inside a dynamic list is lifted, not lost.
#[test]
fn static_elements_survive_inside_dynamic_lists() {
    let p = Pipeline::from_source(
        "module M where\n\
         main zs = 100 : zs\n",
    )
    .unwrap();
    let s = p.specialise("M", "main", vec![SpecArg::Dynamic]).unwrap();
    let src = s.source();
    assert!(src.contains("100"), "{src}");
    let got = s.run(vec![Value::list(vec![Value::nat(1)])]).unwrap();
    assert_eq!(got, Value::list(vec![Value::nat(100), Value::nat(1)]));
}

/// Coercion of booleans and comparison results across binding times.
#[test]
fn boolean_coercions() {
    let p = Pipeline::from_source(
        "module M where\n\
         main y = if true && 1 < 2 then y else y + 1\n",
    )
    .unwrap();
    let s = p.specialise("M", "main", vec![SpecArg::Dynamic]).unwrap();
    // The static condition decides at specialisation time.
    assert_eq!(s.source().trim(), "module M where\nmain y = y");
    assert_eq!(s.run(vec![Value::nat(9)]).unwrap(), Value::nat(9));
}

/// A static closure captured inside a static list, passed through a
/// residual function, keeps working (free functions of closures travel
/// with the skeleton).
#[test]
fn closures_inside_static_structures() {
    let p = Pipeline::from_source(
        "module M where\n\
         applyall fs x = if null fs then x else applyall (tail fs) ((head fs) @ x)\n\
         main y = applyall ((\\a -> a + 1) : (\\b -> b * 2) : []) y\n",
    )
    .unwrap();
    let s = p.specialise("M", "main", vec![SpecArg::Dynamic]).unwrap();
    let src = s.source();
    // The function list is static: applyall unfolds completely.
    assert!(!src.contains("applyall_"), "{src}");
    assert_eq!(s.run(vec![Value::nat(5)]).unwrap(), Value::nat(12));
}

/// The compiled residual runner agrees with the reference interpreter on
/// residual programs (spot check; the property suite covers breadth).
#[test]
fn run_compiled_agrees_with_run() {
    let p = Pipeline::from_source(
        "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n",
    )
    .unwrap();
    let s = p
        .specialise("Power", "power", vec![SpecArg::Dynamic, SpecArg::Static(Value::nat(3))])
        .unwrap();
    let slow = s.run(vec![Value::nat(6)]).unwrap();
    let (fast, steps) = s.run_compiled(vec![Value::nat(6)]).unwrap();
    assert_eq!(slow, fast);
    assert!(steps > 0);
}

// ---------------------------------------------------------------------
// The no-op fast path of `Engine::coerce`.
//
// A coercion that lifts nothing under the call's mask returns its input
// `Rc` unchanged instead of walking it. These tests drive the engine's
// coercion entry point directly.

mod fast_path {
    use mspec_bta::{BtMask, BtTerm};
    use mspec_genext::gexp::GCoerce;
    use mspec_genext::value::quote_static;
    use mspec_genext::{
        BtCode, Closure, Engine, EngineOptions, GExp, GenProgram, MemorySink, PVal,
    };
    use mspec_lang::ast::{Expr, Ident, ModName};
    use mspec_testkit::TestRng;
    use std::rc::Rc;
    use std::sync::Arc;

    fn var(i: u32) -> BtCode {
        BtCode::compile(&BtTerm::var(i))
    }

    fn code(name: &str) -> Rc<PVal> {
        Rc::new(PVal::Code(Expr::Var(Ident::new(name))))
    }

    fn nat_list(items: &[Rc<PVal>]) -> Rc<PVal> {
        items
            .iter()
            .rev()
            .fold(Rc::new(PVal::Nil), |t, h| Rc::new(PVal::Cons(Rc::clone(h), t)))
    }

    fn identity_closure() -> Rc<PVal> {
        Rc::new(PVal::Clo(Rc::new(Closure {
            param: Ident::new("x"),
            body: Arc::new(GExp::Var(0)),
            env: vec![],
            free_fns: Arc::new(vec![]),
            lam_id: 0,
            module: ModName::new("M"),
            mask: BtMask::all_static(),
        })))
    }

    /// Coerces `v` with a fresh engine over an empty program.
    fn coerce(spec: &GCoerce, v: &Rc<PVal>, mask: BtMask) -> Rc<PVal> {
        let program = GenProgram::link(vec![]).unwrap();
        let mut engine = Engine::new(&program, EngineOptions::default());
        engine.coerce(spec, Rc::clone(v), mask, &mut MemorySink::new()).unwrap()
    }

    /// (a) For `Base`, `Fun` and `List` with every S/D value of `from`
    /// and `to` (and, for lists, of the element coercion's `from` and
    /// `to`), `is_noop` holds exactly when `coerce` hands back the very
    /// same `Rc`. `from` is variable 0 and `to` variable 1; a list's
    /// element coercion uses variables 2 and 3. Lists are non-empty:
    /// rebuilding an empty spine allocates nothing to tell apart.
    #[test]
    fn is_noop_holds_exactly_when_coerce_returns_its_input() {
        let dynamic = |mask: BtMask, i: u32| mask.0 & (1 << i) != 0;
        let mut lifted = 0;
        for bits in 0..16u128 {
            let mask = BtMask(bits);
            let base = GCoerce::Base { from: var(0), to: var(1) };
            let fun = GCoerce::Fun { from: var(0), to: var(1) };
            let elem = GCoerce::Base { from: var(2), to: var(3) };
            let list = GCoerce::List {
                from: var(0),
                to: var(1),
                elem: Box::new(elem),
                elem_identity: false,
            };
            let id_list = GCoerce::List {
                from: var(0),
                to: var(1),
                elem: Box::new(GCoerce::Id),
                elem_identity: true,
            };
            let scalar = if dynamic(mask, 0) { code("x") } else { Rc::new(PVal::Nat(3)) };
            let closure = if dynamic(mask, 0) { code("f") } else { identity_closure() };
            let element = if dynamic(mask, 2) { code("y") } else { Rc::new(PVal::Nat(1)) };
            let list_value = if dynamic(mask, 0) {
                code("xs")
            } else {
                nat_list(&[Rc::clone(&element), element])
            };
            for (spec, v) in [
                (&base, &scalar),
                (&fun, &closure),
                (&list, &list_value),
                (&id_list, &list_value),
            ] {
                let out = coerce(spec, v, mask);
                let same = Rc::ptr_eq(&out, v);
                assert_eq!(spec.is_noop(mask), same, "{spec:?} under mask {bits:04b}");
                lifted += usize::from(!same);
            }
            assert!(GCoerce::Id.is_noop(mask));
        }
        // Every kind lifts under some mask: the check is not vacuous.
        assert!(lifted >= 4, "only {lifted} coercions acted");
    }

    /// The coercion the engine applied before the no-op fast path:
    /// every static list under a non-identity element coercion had its
    /// spine rebuilt.
    fn spine_walk(spec: &GCoerce, v: &Rc<PVal>, mask: BtMask) -> Rc<PVal> {
        let lift = |v: &PVal| Rc::new(PVal::Code(quote_static(v).unwrap()));
        match spec {
            GCoerce::Id => Rc::clone(v),
            GCoerce::Base { from, to } | GCoerce::Fun { from, to } => {
                if !from.is_dynamic(mask) && to.is_dynamic(mask) {
                    lift(v)
                } else {
                    Rc::clone(v)
                }
            }
            GCoerce::List { from, to, elem, elem_identity } => {
                if from.is_dynamic(mask) || *elem_identity && !to.is_dynamic(mask) {
                    Rc::clone(v)
                } else if to.is_dynamic(mask) {
                    lift(v)
                } else {
                    match &**v {
                        PVal::Nil => Rc::clone(v),
                        PVal::Cons(h, t) => Rc::new(PVal::Cons(
                            spine_walk(elem, h, mask),
                            spine_walk(spec, t, mask),
                        )),
                        other => panic!("static spine expected, got {other:?}"),
                    }
                }
            }
        }
    }

    /// A printed form that compares values by structure, not identity.
    fn show(v: &PVal) -> String {
        match v {
            PVal::Nat(n) => n.to_string(),
            PVal::Bool(b) => b.to_string(),
            PVal::Nil => "[]".into(),
            PVal::Cons(h, t) => format!("({} : {})", show(h), show(t)),
            PVal::Code(e) => format!("<{e:?}>"),
            PVal::Clo(_) => "<closure>".into(),
        }
    }

    const VARS: u32 = 6;

    fn random_code(rng: &mut TestRng) -> BtCode {
        match rng.gen_range(0..8u32) {
            0 => BtCode::s(),
            1 => BtCode::d(),
            _ => var(rng.gen_range(0..VARS)),
        }
    }

    /// A list coercion nested up to `depth` levels, over naturals.
    fn random_list_coercion(rng: &mut TestRng, depth: u32) -> GCoerce {
        let elem = match rng.gen_range(0..3u32) {
            0 => GCoerce::Id,
            1 if depth > 1 => random_list_coercion(rng, depth - 1),
            _ => GCoerce::Base { from: random_code(rng), to: random_code(rng) },
        };
        let elem_identity = elem == GCoerce::Id;
        GCoerce::List {
            from: random_code(rng),
            to: random_code(rng),
            elem: Box::new(elem),
            elem_identity,
        }
    }

    /// A value of the coercion's `from` shape under `mask`: code where
    /// `from` is dynamic, static naturals and spines elsewhere.
    fn random_value(spec: &GCoerce, mask: BtMask, rng: &mut TestRng) -> Rc<PVal> {
        match spec {
            GCoerce::List { from, elem, .. } if !from.is_dynamic(mask) => {
                let len = rng.gen_range(0..6usize);
                let items: Vec<Rc<PVal>> =
                    (0..len).map(|_| random_value(elem, mask, rng)).collect();
                nat_list(&items)
            }
            GCoerce::Base { from, .. } if !from.is_dynamic(mask) => {
                Rc::new(PVal::Nat(rng.gen_range(0..300u64)))
            }
            _ => code("d"),
        }
    }

    /// (b) Over seeded random static nat lists, list coercions and
    /// masks, `coerce` returns a value structurally equal to the old
    /// spine walk's, and shares its input whenever `is_noop` holds.
    #[test]
    fn coerce_matches_the_spine_walk_on_random_lists() {
        let mut rng = TestRng::seed_from_u64(0xC0E2CE);
        let mut noops = 0;
        for case in 0..2000 {
            let spec = random_list_coercion(&mut rng, 3);
            let mask = BtMask(u128::from(rng.gen_range(0..1u32 << VARS)));
            let v = random_value(&spec, mask, &mut rng);
            let got = coerce(&spec, &v, mask);
            assert_eq!(show(&got), show(&spine_walk(&spec, &v, mask)), "case {case}: {spec:?}");
            if spec.is_noop(mask) {
                assert!(Rc::ptr_eq(&got, &v), "case {case}: no-op did not share its input");
                noops += 1;
            }
        }
        assert!(noops > 100 && noops < 1900, "{noops} no-ops: the sample is one-sided");
    }
}

/// (c) An interpreter specialised to a static program: the program list
/// flows through `size` and `drop` on every step. Its residual is pinned
/// byte for byte (`tests/golden/interp_d4.txt`), as is that of a static
/// list consumed by `size`/`drop` and then lifted whole into a residual
/// call (`tests/golden/lifted_list.txt`).
#[test]
fn interp_style_requests_keep_their_residuals() {
    let interp = Pipeline::from_source(include_str!("../examples/programs/interp.mspec")).unwrap();
    let prog = [2, 3, 3, 1, 1, 2, 0, 9, 1, 2, 3, 1, 0, 2, 2, 1, 1];
    let list = |items: &[u64]| Value::list(items.iter().copied().map(Value::nat).collect());
    let s = interp
        .specialise("Interp", "run", vec![SpecArg::Static(list(&prog)), SpecArg::Dynamic])
        .unwrap();
    assert_eq!(s.source(), include_str!("golden/interp_d4.txt"));
    // 2 * 2 * (9 + 2) + (2 * 2 + (2 + 2))
    assert_eq!(s.run(vec![Value::nat(2)]).unwrap(), Value::nat(52));

    let lifted = Pipeline::from_source(
        "module ListLib where\n\
         drop n xs = if n == 0 then xs else drop (n - 1) (tail xs)\n\
         sum xs = if null xs then 0 else head xs + sum (tail xs)\n\
         module M where\n\
         import ListLib\n\
         size p = if head p == 0 then 2 else if head p == 1 then 1 else 1 + size (tail p) + size (drop (size (tail p)) (tail p))\n\
         main p x = sum (drop (size p) (x : p))\n",
    )
    .unwrap();
    let s = lifted
        .specialise("M", "main", vec![SpecArg::Static(list(&[2, 1, 0, 5, 7, 8])), SpecArg::Dynamic])
        .unwrap();
    assert_eq!(s.source(), include_str!("golden/lifted_list.txt"));
    assert_eq!(s.run(vec![Value::nat(4)]).unwrap(), Value::nat(20));
}
