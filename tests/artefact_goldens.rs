//! Golden tests for the bytes `cogen_module` writes.
//!
//! Each case cogens every module of a program, in dependency order,
//! into a fresh directory and compares every artefact — `.bti`, `.gx`,
//! `Gen*.txt` and `.sig` — byte for byte against the snapshot under
//! `tests/golden/artefacts/<case>/`. The snapshots pin the binding-time
//! analysis and cogen output: a change to how annotations are computed
//! or represented that alters a single interface term, mask or checksum
//! fails here even when the generating extensions still specialise
//! correctly.

use mspec_cogen::files::cogen_module;
use mspec_lang::ast::Program;
use mspec_lang::modgraph::ModGraph;
use mspec_lang::parser::parse_program;
use mspec_lang::resolve::resolve;
use mspec_testkit::library::{layered_program, LayeredShape};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mspec-artefact-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// The artefact files of `dir`, sorted by name.
fn files_of(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// Cogens `program` module by module into a scratch directory and
/// checks the directory against `tests/golden/artefacts/<case>/`.
fn check_case(case: &str, program: Program) {
    let resolved = resolve(program).unwrap();
    let graph = ModGraph::new(resolved.program()).unwrap();
    let out = tmpdir(case);
    for name in graph.topo_order() {
        let module = resolved.program().module(name.as_str()).unwrap();
        cogen_module(module, &out, &BTreeSet::new()).unwrap();
    }
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/artefacts").join(case);
    let produced = files_of(&out);
    assert_eq!(produced, files_of(&golden), "{case}: artefact file set differs");
    for name in &produced {
        let got = fs::read(out.join(name)).unwrap();
        let want = fs::read(golden.join(name)).unwrap();
        assert!(got == want, "{case}/{name}: artefact bytes differ from the golden snapshot");
    }
    let _ = fs::remove_dir_all(&out);
}

fn example(file: &str) -> Program {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs").join(file);
    parse_program(&fs::read_to_string(path).unwrap()).unwrap()
}

#[test]
fn power_artefacts_match_golden() {
    check_case("power", example("power.mspec"));
}

#[test]
fn lists_artefacts_match_golden() {
    check_case("lists", example("lists.mspec"));
}

#[test]
fn interp_artefacts_match_golden() {
    check_case("interp", example("interp.mspec"));
}

#[test]
fn layered_library_artefacts_match_golden() {
    let shape = LayeredShape { levels: 3, width: 2, fns_per_module: 3, exponent: 4 };
    check_case("layered", layered_program(&shape).0);
}
