//! The prebuilt runtime library behind `link_only`: what it hands out is
//! always a fresh `build_runtime`, compiles never write back into it, and
//! compiling from several threads at once is safe.

use std::sync::Barrier;

use nzomp::pipeline::compile;
use nzomp::BuildConfig;
use nzomp_front::spmd_kernel_for;
use nzomp_ir::{Module, Operand, Ty};
use nzomp_rt::abi::{DEBUG_ASSERTIONS, DEBUG_FUNCTION_TRACING};
use nzomp_rt::{build_runtime, runtime_library, RtConfig, RuntimeFlavor};

/// Every `(flavor, config, needs_data_sharing)` the repository compiles
/// with: the `BuildConfig` columns, the debug kinds of the debug-mode
/// tests and examples, and each oversubscription flag on its own.
fn keys() -> Vec<(RuntimeFlavor, RtConfig, bool)> {
    let mut configs: Vec<RtConfig> = BuildConfig::ALL.iter().map(|c| c.rt_config()).collect();
    for debug_kind in [DEBUG_ASSERTIONS, DEBUG_FUNCTION_TRACING, DEBUG_ASSERTIONS | DEBUG_FUNCTION_TRACING] {
        configs.push(RtConfig { debug_kind, ..RtConfig::default() });
    }
    for (teams, threads, debug_kind) in [(true, false, 3), (false, true, DEBUG_ASSERTIONS)] {
        configs.push(RtConfig {
            debug_kind,
            assume_teams_oversubscription: teams,
            assume_threads_oversubscription: threads,
        });
    }
    configs.dedup();
    let mut keys = Vec::new();
    for flavor in [RuntimeFlavor::Legacy, RuntimeFlavor::Modern] {
        for cfg in &configs {
            for needs_ds in [false, true] {
                keys.push((flavor, *cfg, needs_ds));
            }
        }
    }
    keys
}

fn assert_library_is_fresh() {
    for (flavor, cfg, needs_ds) in keys() {
        // Twice: the request that builds the entry, and one served from it.
        for _ in 0..2 {
            assert_eq!(
                runtime_library(flavor, &cfg, needs_ds),
                build_runtime(flavor, &cfg, needs_ds),
                "{flavor:?} {cfg:?} needs_ds={needs_ds}"
            );
        }
    }
}

/// `out[i] = a[i] * scale`.
fn app(flavor: RuntimeFlavor, scale: f64) -> Module {
    let mut m = Module::new("library_test_app");
    spmd_kernel_for(
        &mut m,
        flavor,
        "k",
        &[Ty::Ptr, Ty::Ptr, Ty::I64],
        |_b, p| p[2],
        move |_m, b, iv, p| {
            let pa = b.gep(p[0], iv, 8);
            let x = b.load(Ty::F64, pa);
            let v = b.fmul(x, Operand::f64(scale));
            let po = b.gep(p[1], iv, 8);
            b.store(Ty::F64, po, v);
        },
    );
    m
}

fn compiled(cfg: BuildConfig, scale: f64) -> Module {
    let flavor = cfg.runtime().unwrap();
    compile(app(flavor, scale), cfg).unwrap().module
}

#[test]
fn library_entries_equal_fresh_builds_before_and_after_100_compiles() {
    assert_library_is_fresh();
    for i in 0..100 {
        let cfg = BuildConfig::ALL[i % 4];
        compiled(cfg, i as f64);
    }
    // Linking consumed copies; the entries themselves are untouched.
    assert_library_is_fresh();
}

#[test]
fn concurrent_compiles_get_what_a_lone_compile_gets() {
    const THREADS: usize = 4;
    let configs = &BuildConfig::ALL[..4];
    let want: Vec<Module> = configs.iter().map(|&c| compiled(c, 2.5)).collect();
    // Everyone starts at once, each thread on a different configuration
    // first, so first requests for one entry and for different entries
    // overlap.
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (start, want) = (&start, &want);
            s.spawn(move || {
                start.wait();
                for i in 0..32 {
                    let at = (t + i) % configs.len();
                    assert_eq!(compiled(configs[at], 2.5), want[at]);
                }
            });
        }
    });
    assert_library_is_fresh();
}

/// The library is three prebuilt modules whatever configurations are asked
/// for: a few hundred nobody compiles with are each served `==` a fresh
/// build (there is no per-configuration entry to run out of).
#[test]
fn configurations_nobody_compiles_with_are_served_like_any_other() {
    for debug_kind in 0..64 {
        for (teams, threads) in [(false, false), (false, true), (true, false), (true, true)] {
            let cfg = RtConfig {
                debug_kind,
                assume_teams_oversubscription: teams,
                assume_threads_oversubscription: threads,
            };
            for flavor in [RuntimeFlavor::Legacy, RuntimeFlavor::Modern] {
                for needs_ds in [false, true] {
                    assert_eq!(
                        runtime_library(flavor, &cfg, needs_ds),
                        build_runtime(flavor, &cfg, needs_ds),
                        "{flavor:?} {cfg:?} needs_ds={needs_ds}"
                    );
                }
            }
        }
    }
}

/// Configuration reaches the library as the initialisers of the three
/// §III-F/G flag globals and as nothing else.
#[test]
fn a_configuration_is_the_init_of_three_globals_and_nothing_else() {
    use nzomp_ir::Init;
    use nzomp_rt::abi::{G_ASSUME_TEAMS_OVERSUB, G_ASSUME_THREADS_OVERSUB, G_DEBUG_KIND};
    const FLAGS: [&str; 3] = [G_DEBUG_KIND, G_ASSUME_TEAMS_OVERSUB, G_ASSUME_THREADS_OVERSUB];
    for (flavor, cfg, needs_ds) in keys() {
        let mut configured = runtime_library(flavor, &cfg, needs_ds);
        let default = runtime_library(flavor, &RtConfig::default(), needs_ds);
        let want = [
            cfg.debug_kind,
            cfg.assume_teams_oversubscription as i64,
            cfg.assume_threads_oversubscription as i64,
        ];
        for (name, value) in FLAGS.into_iter().zip(want) {
            // The legacy runtime has no flag globals.
            assert_eq!(configured.find_global(name).is_some(), flavor == RuntimeFlavor::Modern);
            if let Some(g) = configured.find_global(name) {
                assert_eq!(configured.global(g).init, Init::I64(value), "{name} {cfg:?}");
                configured.globals[g.index()].init = default.global(g).init.clone();
            }
        }
        assert_eq!(configured, default, "{flavor:?} {cfg:?} needs_ds={needs_ds}");
    }
}
