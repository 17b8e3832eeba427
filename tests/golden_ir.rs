//! Optimizer-output goldens: the printed optimized IR of every proxy
//! under every pipeline variant (none, baseline, full, and each Fig. 13
//! ablation) is pinned bit-for-bit against committed `.ll` files.
//!
//! Every variant is optimized twice — through the pipeline, and again
//! from the same linked input with the analysis memo never storing
//! (`optimize_module_with_caching(.., false)`: every dominator tree and
//! call graph a pass asks for is computed at the query) — and both prints
//! are held to the same golden. The uncached leg is the reference for the
//! memo's one rule: an analysis kept across a pass that changed the
//! module is the only way the two legs can part.
//!
//! Re-bless (only for an intentional optimizer change) with:
//!
//! ```sh
//! NZOMP_BLESS=1 cargo test -q --test golden_ir
//! ```

use std::fs;
use std::path::PathBuf;

use nzomp::pipeline::{compile_with, link_only};
use nzomp::BuildConfig;
use nzomp_opt::{optimize_module_with_caching, Ablation, PassOptions};
use nzomp_proxies::{all_proxies, build_for_config};

/// `(file-slug, options)` for all nine pipeline variants.
fn variants() -> Vec<(String, PassOptions)> {
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

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens/opt_ir")
}

#[test]
fn optimized_ir_matches_goldens_for_every_proxy_and_variant() {
    let bless = std::env::var("NZOMP_BLESS").is_ok_and(|v| v == "1");
    let dir = golden_dir();
    if bless {
        fs::create_dir_all(&dir).unwrap();
    }
    let cfg = BuildConfig::NewRtNoAssumptions;
    let mut failures = Vec::new();
    for p in all_proxies() {
        for (slug, opts) in variants() {
            let out = compile_with(build_for_config(p.as_ref(), cfg), cfg, cfg.rt_config(), opts.clone())
                .unwrap_or_else(|e| panic!("{} [{slug}]: compile failed: {e}", p.name()));
            let printed = nzomp_ir::printer::print_module(&out.module);
            let mut uncached = link_only(build_for_config(p.as_ref(), cfg), cfg, &cfg.rt_config())
                .unwrap_or_else(|e| panic!("{} [{slug}]: link failed: {e}", p.name()));
            optimize_module_with_caching(&mut uncached, &opts, false);
            let printed_uncached = nzomp_ir::printer::print_module(&uncached);
            let path = dir.join(format!("{}-{slug}.ll", p.name().to_lowercase()));
            if bless {
                fs::write(&path, &printed).unwrap();
                continue;
            }
            let want = fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!("missing golden {} ({e}); run with NZOMP_BLESS=1 to capture", path.display())
            });
            if printed != want {
                failures.push(format!("{} [{slug}]", p.name()));
            }
            if printed_uncached != want {
                failures.push(format!("{} [{slug}, analysis cache off]", p.name()));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "optimized IR diverged from the goldens for: {failures:?}\n\
         (diff the golden against fresh output; only bless if the change is intentional)"
    );
}

/// The analysis cache is invisible to everything but wall time: with it on
/// and off, every proxy under every configuration and every Fig. 13
/// ablation optimizes to the same module and the same remarks, through the
/// same pass executions — each pass runs as often, changes as often and
/// moves the instruction count as far.
#[test]
fn analysis_cache_changes_no_module_remark_or_pass_statistic() {
    let mut variants = vec![None];
    variants.extend(Ablation::ALL.map(Some));
    for p in all_proxies() {
        for cfg in BuildConfig::ALL {
            let linked = link_only(build_for_config(p.as_ref(), cfg), cfg, &cfg.rt_config()).unwrap();
            for ab in &variants {
                let mut opts = cfg.pass_options();
                if let Some(ab) = ab {
                    opts.disable(*ab);
                }
                let run = |caching: bool| {
                    let mut m = linked.clone();
                    let (remarks, timings) = optimize_module_with_caching(&mut m, &opts, caching);
                    assert!(timings.verify_failure.is_none());
                    let remarks: Vec<String> = remarks.entries.iter().map(|r| r.to_string()).collect();
                    let passes: Vec<_> = timings
                        .passes
                        .iter()
                        .map(|s| (s.name, s.runs, s.changed_runs, s.insts_delta))
                        .collect();
                    (m, remarks, passes)
                };
                assert_eq!(run(true), run(false), "{} {cfg:?} without {ab:?}", p.name());
            }
        }
    }
}
