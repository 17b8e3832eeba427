//! Chaos-recovery differential suite: ≥100 seeded device-fault campaigns
//! across every proxy × fleet size × scheduling policy, each asserting
//! that a *recovered* run — transient retries, watchdog trips, device
//! loss with journal-replay failover — ends bit-identical to the clean
//! run: same output bits, same kernel metrics, same sanitizer verdict,
//! same device global-memory image — on each of `AXES`. Recovery must
//! repair, never merely approximate.

use nzomp::BuildConfig;
use nzomp_host::SchedPolicy;
use nzomp_integration::{
    assert_alike, assert_same, compiled, run_proxy_outcome, run_recovered, AXES,
};
use nzomp_proxies::all_proxies;
use nzomp_vgpu::RunConfig;

/// The ≥100-campaign matrix: 5 proxies × {1, 2, 4} devices ×
/// {RoundRobin, LeastLoaded} × 4 seeds = 120 campaigns, every one
/// recovered to the clean run's exact observation on every run axis.
#[test]
fn chaos_campaigns_recover_bit_identically() {
    let cfg = BuildConfig::NewRtNoAssumptions;
    let mut campaigns = 0usize;
    let mut exercised = 0usize;
    let mut failovers_total = 0u64;
    let mut retries_total = 0u64;
    for p in all_proxies() {
        let module = compiled(p.as_ref(), cfg);
        assert_alike(p.name(), &AXES, |run| {
            // The clean reference: the direct device path — what PR 5
            // proved the host path matches, and what recovery must restore.
            let clean = run_proxy_outcome(p.as_ref(), &module, run, None);
            assert!(clean.result.is_ok(), "{} @{run:?}: clean run must succeed", p.name());
            for devices in [1usize, 2, 4] {
                for policy in [SchedPolicy::RoundRobin, SchedPolicy::LeastLoaded] {
                    for seed in [11u64, 23, 47, 91] {
                        let (got, metrics) = run_recovered(p.as_ref(), devices, policy, seed, run);
                        let what = format!(
                            "{} devices={devices} policy={policy:?} seed={seed} @{run:?}: recovered",
                            p.name()
                        );
                        assert_same(&what, &clean, &got);
                        campaigns += 1;
                        if metrics != nzomp_host::RecoveryMetrics::default() {
                            exercised += 1;
                        }
                        failovers_total += metrics.failovers;
                        retries_total += metrics.retries;
                    }
                }
            }
            clean
        });
    }
    assert!(campaigns >= 4 * 100, "matrix shrank to {campaigns} campaigns");
    // The matrix must actually exercise recovery, not vacuously pass on
    // campaigns whose sites never fire (single-region runs perform few
    // device ops, so some high-`after_ops` sites stay dormant).
    assert!(
        exercised * 2 >= campaigns,
        "recovery exercised in only {exercised}/{campaigns} campaigns"
    );
    assert!(failovers_total > 0, "no campaign forced a failover");
    assert!(retries_total > 0, "no campaign forced a transient retry");
}

/// Campaign determinism: the same seed produces the same recovery
/// metrics, not just the same outcome — retries, failovers, replays and
/// backoff are part of the reproducible record.
#[test]
fn chaos_campaigns_reproduce_their_recovery_metrics() {
    let p = all_proxies().remove(0);
    for seed in [11u64, 23, 47] {
        let run = RunConfig::default();
        let (out_a, m_a) = run_recovered(p.as_ref(), 2, SchedPolicy::RoundRobin, seed, run);
        let (out_b, m_b) = run_recovered(p.as_ref(), 2, SchedPolicy::RoundRobin, seed, run);
        assert_same(&format!("seed {seed}: outcome"), &out_a, &out_b);
        assert_eq!(m_a, m_b, "seed {seed}: recovery metrics diverged");
    }
}
