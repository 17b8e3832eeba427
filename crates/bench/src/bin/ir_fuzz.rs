//! Structured differential fuzzing driver.
//!
//! Walks seeds from a fixed base, and for every seed pushes the generated
//! module through the whole contract:
//!
//! 1. **Round-trip** — the module verifies, and `parse(print(m)) == m`
//!    exactly in strict mode (every seed).
//! 2. **Coverage** — the module contains every instruction / terminator /
//!    operator / address-space / atomic variant (every seed).
//! 3. **Differential** — optimize under all nine pipeline variants (none,
//!    baseline, full, each Fig. 13 ablation) and execute on both tiers at
//!    1 and 8 workers, sanitizer off and armed; outcomes must be bit-identical
//!    within a variant and output-identical across variants (every 4th
//!    seed — this is the expensive leg).
//!
//! 4. **Hostile text** — seeded line/byte mutations of the module's print
//!    (every seed) and, once up front, of every corpus file: the parser
//!    must return `Ok` or `Err`, never unwind, and anything it accepts
//!    must be a print∘parse fixed point.
//!
//! Runs until the wall-clock budget expires, then reports. Any violation
//! prints the offending seed (re-run with that seed as BASE_SEED to
//! reproduce) and the process exits nonzero.
//!
//! ```text
//! cargo run --release -p nzomp-bench --bin ir_fuzz [SECONDS] [BASE_SEED]
//! ```
//!
//! Defaults: 30-second budget, base seed 0 — the CI smoke configuration.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use nzomp_integration::corpus::{all_variants, corpus_texts, fuzz_one, mutation_check};
use nzomp_integration::gen::{all_labels, coverage_labels, generate};
use nzomp_ir::parser::parse_module_strict;
use nzomp_ir::printer::print_module;

/// Run the hostile-text check on `text` once per mutation seed; print and
/// count the failures.
fn mutation_failures(name: &str, text: &str, seeds: std::ops::Range<u64>) -> u64 {
    let failed = |s: &u64| match mutation_check(text, *s) {
        Ok(()) => false,
        Err(e) => {
            println!("FAIL {name}: {e}");
            true
        }
    };
    seeds.filter(failed).count() as u64
}

fn main() -> ExitCode {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(30);
    let base: u64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0);
    let deadline = Instant::now() + Duration::from_secs(budget);
    let variants = all_variants();
    let want = all_labels();
    println!(
        "ir fuzz: budget {budget}s, base seed {base}, {} pipeline variants",
        variants.len()
    );

    let mut seed = base;
    let mut roundtrips = 0u64;
    let mut differentials = 0u64;
    let mut mutations = 0u64;
    let mut failures = 0u64;
    match corpus_texts() {
        Ok(corpus) => {
            for (name, text) in &corpus {
                mutations += 64;
                failures += mutation_failures(name, text, base..base + 64);
            }
        }
        Err(e) => {
            println!("FAIL corpus: {e}");
            return ExitCode::FAILURE;
        }
    }
    while Instant::now() < deadline {
        let g = generate(seed);
        if let Err(e) = nzomp_ir::verify_module(&g.module) {
            failures += 1;
            println!("FAIL seed {seed}: verify: {e}");
        } else {
            let text = print_module(&g.module);
            match parse_module_strict(&text) {
                Err(e) => {
                    failures += 1;
                    println!("FAIL seed {seed}: reparse: {e}");
                }
                Ok(back) if back != g.module => {
                    failures += 1;
                    println!("FAIL seed {seed}: parse(print(m)) != m");
                }
                Ok(_) => roundtrips += 1,
            }
            mutations += 8;
            failures += mutation_failures(&format!("seed {seed}"), &text, seed * 8..seed * 8 + 8);
            let got = coverage_labels(&g.module);
            let missing: Vec<_> = want.difference(&got).collect();
            if !missing.is_empty() {
                failures += 1;
                println!("FAIL seed {seed}: coverage gap: {missing:?}");
            }
            if seed % 4 == base % 4 {
                differentials += 1;
                if let Err(e) = fuzz_one(seed, &variants) {
                    failures += 1;
                    println!("FAIL seed {seed}: {e}");
                }
            }
        }
        seed += 1;
    }

    println!(
        "{} seeds fuzzed ({roundtrips} exact round-trips, {differentials} full \
         differential matrices, {mutations} text mutations), {failures} failures",
        seed - base
    );
    if failures == 0 {
        println!("OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
