//! The versioned kernel corpus (`tests/corpus/*.nzir`): 20 generated
//! edge-case kernels (pinned seeds) plus the 5 proxies exported as linked,
//! unoptimized modules. Every entry must
//! 1. be exactly reproducible from its generator (bless with
//!    `NZOMP_BLESS=1 cargo test -q --test corpus_suite`),
//! 2. parse in strict mode, verify, and round-trip exactly, and
//! 3. execute bit-identically across optimization variants ({none, full})
//!    and the run `AXES` (generated kernels on both tiers too) with a
//!    clean sanitizer verdict.

use std::collections::BTreeSet;
use std::fs;

use nzomp::pipeline::compile_with;
use nzomp::BuildConfig;
use nzomp_integration::corpus::{
    corpus_dir, corpus_variants, differential_check, gen_corpus_text, GEN_SEEDS,
};
use nzomp_integration::gen::{generate, parse_launch_comment};
use nzomp_integration::{assert_alike, run_proxy_outcome, AXES};
use nzomp_ir::parser::parse_module_strict;
use nzomp_ir::printer::print_module;
use nzomp_opt::{optimize_module, PassOptions};
use nzomp_proxies::{all_proxies, build_for_config};

const PROXY_CFG: BuildConfig = BuildConfig::NewRtNoAssumptions;

/// `(file name, expected text)` for every corpus entry.
fn expected_entries() -> Vec<(String, String)> {
    let mut v = Vec::new();
    for seed in GEN_SEEDS {
        v.push((format!("gen-{seed}.nzir"), gen_corpus_text(&generate(seed))));
    }
    for p in all_proxies() {
        let out = compile_with(
            build_for_config(p.as_ref(), PROXY_CFG),
            PROXY_CFG,
            PROXY_CFG.rt_config(),
            PassOptions::none(),
        )
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", p.name()));
        v.push((
            format!("proxy-{}.nzir", p.name().to_lowercase()),
            print_module(&out.module),
        ));
    }
    v
}

/// The corpus on disk is byte-for-byte what the generators produce — no
/// stale files, no extras. `NZOMP_BLESS=1` rewrites it.
#[test]
fn corpus_is_reproducible_from_generators() {
    let bless = std::env::var("NZOMP_BLESS").is_ok_and(|v| v == "1");
    let dir = corpus_dir();
    let entries = expected_entries();
    assert!(entries.len() >= 25, "corpus must hold at least 25 kernels");
    if bless {
        fs::create_dir_all(&dir).unwrap();
    }
    let mut failures = Vec::new();
    for (name, text) in &entries {
        let path = dir.join(name);
        if bless {
            fs::write(&path, text).unwrap();
            continue;
        }
        match fs::read_to_string(&path) {
            Ok(got) if &got == text => {}
            Ok(_) => failures.push(format!("{name}: drifted from generator")),
            Err(e) => failures.push(format!("{name}: unreadable ({e})")),
        }
    }
    if !bless {
        // No stray files either.
        let want: BTreeSet<&String> = entries.iter().map(|(n, _)| n).collect();
        for f in fs::read_dir(&dir).into_iter().flatten().flatten() {
            let name = f.file_name().to_string_lossy().into_owned();
            if !want.contains(&name) {
                failures.push(format!("{name}: stray corpus file"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "corpus out of date: {failures:?}\n(re-bless with NZOMP_BLESS=1 if intentional)"
    );
}

/// Every corpus file parses in strict mode, verifies, is in normal form,
/// and is an exact parse/print fixed point.
#[test]
fn corpus_roundtrips_and_verifies() {
    for (name, text) in corpus_texts() {
        let m = parse_module_strict(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        nzomp_ir::verify_module(&m).unwrap_or_else(|e| panic!("{name}: verify: {e}"));
        assert!(m.is_normalized(), "{name}: parsed module not normalized");
        let again = parse_module_strict(&print_module(&m))
            .unwrap_or_else(|e| panic!("{name}: reparse: {e}"));
        assert_eq!(again, m, "{name}: not a round-trip fixed point");
    }
}

/// The differential replay: every corpus kernel, {none, full} × `AXES`.
#[test]
fn corpus_differential_none_vs_full_across_worker_counts() {
    let variants = corpus_variants();
    let proxies = all_proxies();
    for (name, text) in corpus_texts() {
        let m = parse_module_strict(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        if let Some(meta) = parse_launch_comment(&text) {
            // Generated kernel: self-describing launch.
            if let Err(e) = differential_check(&m, meta, &variants) {
                panic!("{name}: {e}");
            }
        } else {
            // Proxy kernel: replay through the proxy's own prepare().
            let pname = name
                .trim_start_matches("proxy-")
                .trim_end_matches(".nzir");
            let p = proxies
                .iter()
                .find(|p| p.name().to_lowercase() == pname)
                .unwrap_or_else(|| panic!("{name}: no proxy named {pname}"));
            let mut baseline: Option<(String, Option<Vec<u64>>)> = None;
            for (slug, opts) in &variants {
                let mut vm = m.clone();
                let _ = optimize_module(&mut vm, opts);
                nzomp_ir::verify_module(&vm)
                    .unwrap_or_else(|e| panic!("{name} [{slug}]: verify after opt: {e}"));
                let mut findings = (0, 0);
                let o = assert_alike(&format!("{name} [{slug}]"), &AXES, |run| {
                    let o = run_proxy_outcome(p.as_ref(), &vm, run, None);
                    findings = (findings.0 + o.san_counts.0, findings.1 + o.san_counts.1);
                    o
                });
                assert_eq!(findings, (0, 0), "{name} [{slug}]: sanitizer not clean");
                assert!(o.result.is_ok(), "{name} [{slug}]: trapped: {:?}", o.result);
                match &baseline {
                    None => baseline = Some((slug.clone(), o.out_bits)),
                    Some((s0, bits)) => assert_eq!(
                        bits, &o.out_bits,
                        "{name}: output bits diverge between [{s0}] and [{slug}]"
                    ),
                }
            }
        }
    }
}

/// Read the corpus from disk, sorted by name (panics when empty — the
/// corpus is checked in, so an empty directory means a broken checkout).
fn corpus_texts() -> Vec<(String, String)> {
    let v = nzomp_integration::corpus::corpus_texts().unwrap();
    assert!(v.len() >= 25, "corpus must hold at least 25 kernels");
    v
}
