//! Parallel-execution determinism suite: the contract of
//! `docs/parallel-vgpu.md`, enforced.
//!
//! Every proxy, at every worker-thread count in {1, 2, 4, 8}, must
//! produce an outcome **bit-identical** to the sequential (1-thread)
//! baseline — the entire global-memory image, every `KernelMetrics`
//! field (cycles, waves, counters), and, under injected faults, the
//! identical typed trap (kind, team, thread, function). 25 seeded fault
//! campaigns per proxy make the trap-path comparison meaningful: traps
//! must resolve by lowest team index, never by wall-clock race.
//!
//! Axes crossed here: worker threads everywhere, and the sanitizer mode
//! on the clean matrix (shadow tracking is only a cost, never a behavior
//! change). The execution tier is left to the environment.
//!
//! The clean matrix also carries a 64-team compute-bound RSBench — enough
//! independent teams per occupancy wave to keep 8 workers busy — and
//! holds its modeled scalability: per-team cycles list-scheduled onto 8
//! workers must finish at least 2× sooner than on one.

use nzomp::BuildConfig;
use nzomp_integration::{env_run, run_proxy_outcome, ProxyOutcome};
use nzomp_proxies::rsbench::RSBench;
use nzomp_proxies::{all_proxies, Proxy};
use nzomp_vgpu::{RunConfig, Sanitize};

const WORKER_COUNTS: [usize; 3] = [2, 4, 8];
const CFG: BuildConfig = BuildConfig::NewRtNoAssumptions;

fn assert_same(name: &str, detail: &str, base: &ProxyOutcome, got: &ProxyOutcome) {
    assert_eq!(
        base.result, got.result,
        "{name} {detail}: metrics/trap diverge from sequential baseline"
    );
    assert_eq!(
        base.out_bits, got.out_bits,
        "{name} {detail}: output buffer bits diverge"
    );
    assert!(
        base.global == got.global,
        "{name} {detail}: global-memory image diverges ({} vs {} bytes, first diff at {:?})",
        base.global.len(),
        got.global.len(),
        base.global
            .iter()
            .zip(&got.global)
            .position(|(a, b)| a != b)
    );
}

/// Greedy list schedule of per-team cycles onto `workers` within each
/// occupancy wave — the model of what the engine's next-free-worker
/// pickup achieves on an unloaded `workers`-core host, in simulated
/// cycles (hardware-independent).
fn modeled_makespan(team_cycles: &[u64], wave_size: usize, workers: usize) -> u64 {
    let mut total = 0;
    for wave in team_cycles.chunks(wave_size.max(1)) {
        let mut load = vec![0u64; workers.max(1)];
        for &c in wave {
            if let Some(next_free) = load.iter_mut().min() {
                *next_free += c;
            }
        }
        total += load.iter().copied().max().unwrap_or(0);
    }
    total
}

/// Run `p` clean at every worker count, and at 1 and 8 workers with the
/// sanitizer off and on, and hold each outcome — output bits, the full
/// `KernelMetrics`, the global image — to the sequential baseline, which
/// is returned.
fn assert_clean_run_is_axis_invariant(name: &str, p: &dyn Proxy) -> ProxyOutcome {
    let base = run_proxy_outcome(p, CFG, env_run(1), None);
    assert!(base.result.is_ok(), "{name}: clean baseline trapped");
    for &workers in &WORKER_COUNTS {
        let got = run_proxy_outcome(p, CFG, env_run(workers), None);
        assert_same(name, &format!("@{workers} threads"), &base, &got);
    }
    for sanitize in [Sanitize::Off, Sanitize::Report] {
        for workers in [1, 8] {
            let got = run_proxy_outcome(p, CFG, RunConfig { sanitize, ..env_run(workers) }, None);
            assert_same(name, &format!("{sanitize:?} @{workers} threads"), &base, &got);
        }
    }
    base
}

/// Clean runs: every proxy agrees bit for bit at every worker count and
/// with the sanitizer off or on, and the 64-team instance has the modeled
/// parallelism to use 8 workers.
#[test]
fn clean_runs_identical_across_worker_counts() {
    for p in all_proxies() {
        assert_clean_run_is_axis_invariant(p.name(), p.as_ref());
    }
    let wide = RSBench {
        n_nuclides: 12,
        n_windows: 16,
        poles_per_window: 6,
        n_lookups: 64 * 32,
        threads_per_team: 32,
        seed: 0x5eed_0002,
    };
    let base = assert_clean_run_is_axis_invariant("rsbench-64-teams", &wide);
    let m = base.result.unwrap();
    assert_eq!(m.team_cycles.len(), 64);
    let wave = nzomp_vgpu::cost::wave_size(m.teams_per_sm);
    let one = modeled_makespan(&m.team_cycles, wave, 1);
    let eight = modeled_makespan(&m.team_cycles, wave, 8);
    assert!(one >= 2 * eight, "modeled 8-worker speedup below 2x ({one} vs {eight} cycles)");
}

/// Faulted runs: 25 seeded campaigns per proxy. The injected trap (or the
/// surviving output) is identical at every worker count — first-trap-wins
/// resolves by lowest team index, not by which host thread finished first.
#[test]
fn faulted_runs_identical_across_worker_counts() {
    let mut trapped = 0usize;
    for p in all_proxies() {
        for seed in 1..=25u64 {
            let base = run_proxy_outcome(p.as_ref(), CFG, env_run(1), Some(seed));
            if base.result.is_err() {
                trapped += 1;
            }
            for &workers in &WORKER_COUNTS {
                let got = run_proxy_outcome(p.as_ref(), CFG, env_run(workers), Some(seed));
                assert_same(p.name(), &format!("seed {seed} @{workers} threads"), &base, &got);
            }
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
    let run = env_run(8);
    let first = run_proxy_outcome(p.as_ref(), CFG, run, None);
    for _ in 0..3 {
        let again = run_proxy_outcome(p.as_ref(), CFG, run, None);
        assert_same(p.name(), "repeat @8 threads", &first, &again);
    }
}
