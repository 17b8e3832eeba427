//! Corpus conventions and the differential execution harness shared by the
//! `corpus_suite` / `ir_fuzz` tests and the `ir_fuzz` bench binary.
//!
//! A corpus file (`tests/corpus/*.nzir`) is the strict versioned text
//! format: a `; nzomp-ir vN` header, then (for generated kernels) a
//! `; launch ...` metadata comment the runner uses to re-launch the kernel.
//! Two families:
//! * `gen-<seed>.nzir` — exactly `generate(seed)` printed; reproducible
//!   from the file name alone.
//! * `proxy-<name>.nzir` — the linked, unoptimized module of a real proxy
//!   (replayed through the proxy's own `prepare()`).
//!
//! Bless flow (like the goldens): `NZOMP_BLESS=1 cargo test -q --test
//! corpus_suite` rewrites every file; the suite fails if a file drifts
//! from its generator.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;

use crate::gen::{generate, parse_launch_comment, GenModule, LaunchMeta};
use crate::{alike, observe_generated, tier_axes};
use nzomp_ir::parser::parse_module_strict;
use nzomp_ir::printer::print_module;
use nzomp_ir::Module;
use nzomp_opt::{optimize_module, Ablation, PassOptions};
use nzomp_proxies::quick_device;
use nzomp_vgpu::Device;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pinned seeds behind `gen-<seed>.nzir`. Twenty edge-case kernels;
/// together with the five proxy exports the corpus holds 25 entries.
pub const GEN_SEEDS: [u64; 20] = [
    1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009, 1010, 1011, 1012, 1013, 1014,
    1015, 1016, 1017, 1018, 1019,
];

pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// `(file name, text)` of every `.nzir` file in the corpus, sorted by name.
pub fn corpus_texts() -> Result<Vec<(String, String)>, String> {
    let dir = corpus_dir();
    let mut v = Vec::new();
    for f in std::fs::read_dir(&dir).map_err(|e| format!("corpus dir {}: {e}", dir.display()))? {
        let f = f.map_err(|e| format!("corpus dir {}: {e}", dir.display()))?;
        let name = f.file_name().to_string_lossy().into_owned();
        if name.ends_with(".nzir") {
            let text = std::fs::read_to_string(f.path()).map_err(|e| format!("{name}: {e}"))?;
            v.push((name, text));
        }
    }
    v.sort();
    Ok(v)
}

/// The on-disk text of a generated corpus entry: printed module with the
/// launch metadata comment spliced in right after the version header.
pub fn gen_corpus_text(g: &GenModule) -> String {
    let printed = print_module(&g.module);
    match printed.split_once('\n') {
        Some((header, rest)) => format!("{header}\n{}\n{rest}", g.launch_comment()),
        None => printed,
    }
}

/// `(slug, options)` for all nine pipeline variants (none, baseline, full,
/// and each Fig. 13 ablation) — the same matrix the goldens pin.
pub fn all_variants() -> Vec<(String, PassOptions)> {
    let mut v = vec![
        ("none".to_string(), PassOptions::none()),
        ("baseline".to_string(), PassOptions::baseline()),
        ("full".to_string(), PassOptions::full()),
    ];
    for ab in Ablation::ALL {
        let slug = match ab {
            Ablation::Fsaa => "no-fsaa",
            Ablation::ReachDom => "no-reach-dom",
            Ablation::AssumedContent => "no-assumed-content",
            Ablation::InvariantProp => "no-invariant-prop",
            Ablation::AlignedExec => "no-aligned-exec",
            Ablation::BarrierElim => "no-barrier-elim",
        };
        v.push((slug.to_string(), PassOptions::full_without(ab)));
    }
    v
}

/// The cheap two-variant matrix the checked-in corpus is replayed under.
pub fn corpus_variants() -> Vec<(String, PassOptions)> {
    vec![
        ("none".to_string(), PassOptions::none()),
        ("full".to_string(), PassOptions::full()),
    ]
}

/// The full differential contract for one generated module `m`, launched
/// as `meta` says:
///
/// 1. it verifies;
/// 2. `parse(print(m)) == m` exactly (strict mode);
/// 3. under every optimization variant it still verifies, never traps, and
///    the sanitizer stays clean;
/// 4. within a variant, both execution tiers on every one of the run
///    `AXES` produce the *identical* outcome — output bits, metrics
///    (including the per-step dispatch count, i.e. fuel), and the entire
///    global image;
/// 5. across variants, the output bits agree (metrics and non-output
///    memory may legitimately differ — optimization removes work).
///
/// Returns a description of the first divergence, or `Ok(())`.
pub fn differential_check(
    m: &Module,
    meta: LaunchMeta,
    variants: &[(String, PassOptions)],
) -> Result<(), String> {
    let name = &m.name;
    nzomp_ir::verify_module(m).map_err(|e| format!("{name}: verify: {e}"))?;
    let text = print_module(m);
    let back = parse_module_strict(&text).map_err(|e| format!("{name}: reparse: {e}"))?;
    if &back != m {
        return Err(format!("{name}: parse(print(m)) != m"));
    }
    let runs = tier_axes();
    let mut baseline_bits: Option<(String, Option<Vec<u64>>)> = None;
    for (slug, opts) in variants {
        let mut vm = m.clone();
        let _remarks = optimize_module(&mut vm, opts);
        nzomp_ir::verify_module(&vm)
            .map_err(|e| format!("{name} [{slug}]: verify after opt: {e}"))?;
        let mut findings = (0, 0);
        let o = alike(&format!("{name} [{slug}]"), &runs, |run| {
            let o = observe_generated(Device::load_with(vm.clone(), quick_device(), run), meta);
            findings = (findings.0 + o.san_counts.0, findings.1 + o.san_counts.1);
            o
        })?;
        if findings != (0, 0) {
            return Err(format!("{name} [{slug}]: sanitizer reported {findings:?}"));
        }
        if let Err(e) = &o.result {
            return Err(format!("{name} [{slug}]: trapped: {e}"));
        }
        match &baseline_bits {
            None => baseline_bits = Some((slug.clone(), o.out_bits)),
            Some((s0, bits)) => {
                if bits != &o.out_bits {
                    return Err(format!(
                        "{name}: output bits diverge between [{s0}] and [{slug}]"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Convenience used by the fuzz bench bin and smoke tests: run the whole
/// contract for a seed.
pub fn fuzz_one(seed: u64, variants: &[(String, PassOptions)]) -> Result<(), String> {
    let g = generate(seed);
    let meta = parse_launch_comment(&g.launch_comment())
        .ok_or_else(|| format!("seed {seed}: unreadable launch comment"))?;
    differential_check(&g.module, meta, variants)
}

/// What a text mutation swaps in or inserts: the format's punctuation and
/// digits, the bytes most likely to turn one token into another.
const MUTATION_BYTES: &[u8] = b"()[],@%.: 0123456789";

/// One to three seeded mutations of `text`: delete or duplicate a line,
/// truncate the text inside a line, or swap or insert one of
/// [`MUTATION_BYTES`].
pub fn mutate_text(text: &str, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines: Vec<Vec<u8>> = text.lines().map(|l| l.as_bytes().to_vec()).collect();
    for _ in 0..rng.gen_range(1..=3) {
        if lines.is_empty() {
            break;
        }
        let at = rng.gen_range(0..lines.len());
        let byte = MUTATION_BYTES[rng.gen_range(0..MUTATION_BYTES.len())];
        let col = rng.gen_range(0..=lines[at].len());
        match rng.gen_range(0..5) {
            0 => drop(lines.remove(at)),
            1 => lines.insert(at, lines[at].clone()),
            2 => {
                lines.truncate(at + 1);
                lines[at].truncate(col);
            }
            3 if col < lines[at].len() => lines[at][col] = byte,
            _ => lines[at].insert(col, byte),
        }
    }
    let mut out = lines.join(&b'\n');
    out.push(b'\n');
    String::from_utf8_lossy(&out).into_owned()
}

/// The contract for hostile text: on a seeded mutation of `text`,
/// `parse_module_strict` returns — `Ok` or `Err`, never an unwind — and
/// whatever it accepts is a fixed point of print∘parse. A failure carries
/// the seed and the mutated text.
pub fn mutation_check(text: &str, seed: u64) -> Result<(), String> {
    let mutated = mutate_text(text, seed);
    let fail = |what: String| format!("mutation seed {seed}: {what}\n--- mutated text ---\n{mutated}");
    let parsed = std::panic::catch_unwind(|| parse_module_strict(&mutated))
        .map_err(|_| fail("parser panicked".into()))?;
    let Ok(m) = parsed else {
        return Ok(());
    };
    match parse_module_strict(&print_module(&m)) {
        Ok(back) if back == m => Ok(()),
        Ok(_) => Err(fail("accepted, but parse(print(m)) != m".into())),
        Err(e) => Err(fail(format!("accepted, but its print does not parse: {e}"))),
    }
}
