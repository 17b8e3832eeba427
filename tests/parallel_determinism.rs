//! Parallel-execution determinism suite: the contract of
//! `docs/parallel-vgpu.md`, enforced.
//!
//! Every proxy, at every worker-thread count in {1, 2, 4, 8} and with the
//! sanitizer off and armed, must produce an outcome **bit-identical** to
//! the sequential baseline — the entire global-memory image, every
//! `KernelMetrics` field (cycles, waves, counters), and, under injected
//! faults, the identical typed trap (kind, team, thread, function). The
//! clean matrix runs every OpenMP build configuration a proxy supports,
//! so the state-machine (generic-mode) builds and their unaligned barriers
//! meet every axis too. 25 seeded fault campaigns per proxy make the
//! trap-path comparison meaningful: traps must resolve by lowest team
//! index, never by wall-clock race.
//!
//! The clean matrix also carries a 64-team compute-bound RSBench — enough
//! independent teams per occupancy wave to keep 8 workers busy — and
//! holds what the wave engine reports of it: at least two teams per
//! worker in every wave, each merged from its buffered run.

use nzomp::BuildConfig;
use nzomp_ir::Module;
use nzomp_integration::{assert_alike, compiled, run_proxy_outcome, ProxyOutcome, AXES};
use nzomp_proxies::rsbench::RSBench;
use nzomp_proxies::{all_proxies, quick_device, Proxy};
use nzomp_vgpu::{Device, RunConfig};

/// [`AXES`], then the worker counts between.
fn runs() -> Vec<RunConfig> {
    let mut runs = AXES.to_vec();
    runs.extend([2, 4].map(|workers| RunConfig { workers, ..AXES[0] }));
    runs
}

/// Run `p`'s `module` on every configuration of `runs`, optionally under
/// the seeded fault plan, and hold each outcome to the first.
fn assert_axis_invariant(
    what: &str,
    p: &dyn Proxy,
    module: &Module,
    runs: &[RunConfig],
    fault_seed: Option<u64>,
) -> ProxyOutcome {
    assert_alike(what, runs, |run| run_proxy_outcome(p, module, run, fault_seed))
}

/// Clean runs: every proxy, under every OpenMP build configuration it
/// supports, agrees bit for bit at every worker count and with the
/// sanitizer off or on, and the 64-team instance has the modeled
/// parallelism to use 8 workers.
#[test]
fn clean_runs_identical_across_worker_counts() {
    use BuildConfig::*;
    let runs = runs();
    for p in all_proxies() {
        for cfg in [OldRtNightly, NewRtNightly, NewRtNoAssumptions, NewRt] {
            if cfg == NewRt && !p.supports_oversubscription() {
                continue;
            }
            let what = format!("{} {cfg:?}", p.name());
            let base = assert_axis_invariant(&what, p.as_ref(), &compiled(p.as_ref(), cfg), &runs, None);
            assert!(base.result.is_ok(), "{what}: clean baseline trapped");
        }
    }
    let wide = RSBench {
        n_nuclides: 12,
        n_windows: 16,
        poles_per_window: 6,
        n_lookups: 64 * 32,
        threads_per_team: 32,
        seed: 0x5eed_0002,
    };
    let module = compiled(&wide, NewRtNoAssumptions);
    let base = assert_axis_invariant("rsbench-64-teams", &wide, &module, &runs, None);
    let m = base.result.unwrap();
    // A launch keeps per-wave state only (no per-team cycles), so the
    // parallelism is read off the wave engine: every wave hands each of 8
    // workers at least two teams, and no team's buffered run is thrown
    // away and re-run serially.
    let mut dev = Device::load_with(module, quick_device(), AXES[1]);
    let prep = wide.prepare(&mut dev);
    dev.launch(wide.kernel_name(), prep.launch, &prep.args).unwrap();
    let w = dev.last_wave_stats().unwrap();
    assert_eq!((w.waves, w.teams), (u64::from(m.waves), 64));
    assert!(w.teams >= 2 * 8 * w.waves, "under two teams per worker per wave: {w:?}");
    assert_eq!(w.merged, w.teams, "a team was re-run serially: {w:?}");
}

/// Faulted runs: 25 seeded campaigns per proxy. The injected trap (or the
/// surviving output) is identical at every worker count and sanitizer
/// mode — first-trap-wins resolves by lowest team index, not by which
/// host thread finished first.
#[test]
fn faulted_runs_identical_across_worker_counts() {
    let runs = runs();
    let mut trapped = 0usize;
    for p in all_proxies() {
        let module = compiled(p.as_ref(), BuildConfig::NewRtNoAssumptions);
        for seed in 1..=25u64 {
            let what = format!("{} seed {seed}", p.name());
            let base = assert_axis_invariant(&what, p.as_ref(), &module, &runs, Some(seed));
            trapped += usize::from(base.result.is_err());
        }
    }
    assert!(
        trapped > 0,
        "no fault campaign trapped — the comparison is vacuous"
    );
}

/// Clean metrics are also identical across *repeated* launches at high
/// worker counts (no hidden accumulation or work-stealing jitter).
#[test]
fn repeated_parallel_launches_are_stable() {
    let p = &all_proxies()[0];
    let repeats = [AXES[1], AXES[1], AXES[1], AXES[3], AXES[3]];
    let module = compiled(p.as_ref(), BuildConfig::NewRtNoAssumptions);
    assert_axis_invariant("repeat @8 threads", p.as_ref(), &module, &repeats, None);
}
