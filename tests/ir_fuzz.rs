//! Structured IR fuzzing: the seeded generator drives the exact
//! round-trip contract over hundreds of modules, proves per-module feature
//! coverage, runs the full differential matrix (every pipeline variant
//! × both tiers × the run `AXES`) on a fixed seed range, and feeds the
//! parser mutated text.

use nzomp_integration::corpus::{all_variants, corpus_texts, fuzz_one, mutation_check};
use nzomp_integration::gen::{all_labels, coverage_labels, generate};
use nzomp_ir::parser::parse_module_strict;
use nzomp_ir::printer::print_module;
use nzomp_ir::{FuncBuilder, Module, Operand, Ty};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `parse(print(m)) == m` exactly, for 512 generated modules per run.
    /// Generated modules are normalized, so equality is structural and
    /// bit-exact (float constants compare by bit pattern).
    #[test]
    fn roundtrip_exact_over_generated_modules(seed in any::<u64>()) {
        let g = generate(seed);
        prop_assert!(g.module.is_normalized(), "generator must emit normal form");
        nzomp_ir::verify_module(&g.module)
            .unwrap_or_else(|e| panic!("seed {seed}: verify: {e}"));
        let text = print_module(&g.module);
        let back = parse_module_strict(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: reparse: {e}\n{text}"));
        prop_assert_eq!(&back, &g.module, "seed {} round-trip mismatch", seed);
    }
}

/// Coverage is structural: every module contains every instruction
/// variant, operator, predicate, intrinsic, terminator, address space,
/// init form, linkage, and exec mode — regardless of seed.
#[test]
fn every_generated_module_covers_every_variant() {
    let want = all_labels();
    for seed in 0..32u64 {
        let g = generate(seed);
        let got = coverage_labels(&g.module);
        let missing: Vec<_> = want.difference(&got).collect();
        assert!(
            missing.is_empty(),
            "seed {seed}: generator missed feature(s): {missing:?}"
        );
    }
}

/// The differential matrix on a fixed seed range: parse → verify →
/// optimize under all nine pipeline variants → execute on both tiers at
/// every run axis. Within a variant every run must produce an identical
/// outcome (output bits, metrics, the entire global image); across
/// variants the output bits must agree; the sanitizer must stay clean
/// everywhere.
#[test]
fn differential_matrix_on_fixed_seeds() {
    let variants = all_variants();
    for seed in 0..12u64 {
        if let Err(e) = fuzz_one(seed, &variants) {
            panic!("differential failure: {e}");
        }
    }
}

/// The module identity law the compile cache rests on: `a == b` implies
/// `hash(a) == hash(b)`, for copies made by `clone` and by the text
/// round-trip, over the generator and the corpus — and float constants
/// are keys by bit pattern (`0.0`/`-0.0` apart, every NaN payload its own
/// reflexive key).
#[test]
fn module_hash_agrees_with_module_eq() {
    use std::collections::HashSet;
    use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
    let hash = |m: &Module| BuildHasherDefault::<DefaultHasher>::default().hash_one(m);
    let check = |name: &str, m: &Module| {
        let reparsed = parse_module_strict(&print_module(m)).unwrap();
        for copy in [m.clone(), reparsed] {
            assert_eq!(&copy, m, "{name}");
            assert_eq!(hash(&copy), hash(m), "{name}: equal modules, unequal hashes");
            assert_eq!(
                nzomp::module_fingerprint(&copy),
                nzomp::module_fingerprint(m),
                "{name}: the digest is a function of the same hash"
            );
        }
    };
    for seed in 0..64u64 {
        check(&format!("seed {seed}"), &generate(seed).module);
    }
    for (name, text) in corpus_texts().unwrap() {
        check(&name, &parse_module_strict(&text).unwrap());
    }

    let with_const = |c: f64| {
        let mut b = FuncBuilder::new("f", vec![Ty::F64], Some(Ty::F64));
        let v = b.fadd(b.param(0), Operand::f64(c));
        b.ret(Some(v));
        let mut m = Module::new("consts");
        m.add_function(b.finish());
        m
    };
    let nan = |payload: u64| f64::from_bits(f64::NAN.to_bits() | payload);
    let consts = [0.0, -0.0, nan(1), nan(2)];
    let keys: HashSet<Module> = consts.iter().map(|c| with_const(*c)).collect();
    assert_eq!(keys.len(), consts.len(), "bitwise-distinct constants are distinct keys");
    for c in consts {
        assert!(keys.contains(&with_const(c)), "{c:?} ({:#x}) is not reflexive", c.to_bits());
        check(&format!("const {:#x}", c.to_bits()), &with_const(c));
    }
}

/// Hostile text: seeded line/byte mutations of every corpus file and of
/// generated modules' prints. The parser must return (never unwind), and
/// anything it accepts must be a print∘parse fixed point. The `ir_fuzz`
/// bench binary runs the same check open-endedly.
#[test]
fn mutated_text_never_panics_the_parser() {
    let corpus = corpus_texts().unwrap();
    assert!(corpus.len() >= 25);
    let generated = (0..8u64).map(|s| (format!("seed {s}"), print_module(&generate(s).module)));
    for (name, text) in corpus.into_iter().chain(generated) {
        for seed in 0..16u64 {
            if let Err(e) = mutation_check(&text, seed) {
                panic!("{name}: {e}");
            }
        }
    }
}
