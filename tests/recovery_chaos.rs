//! Chaos-recovery differential suite: ≥100 seeded device-fault campaigns
//! across every proxy × fleet size × scheduling policy, each asserting
//! that a *recovered* run — transient retries, watchdog trips, device
//! loss with journal-replay failover — ends bit-identical to the clean
//! run: same output bits, same kernel metrics, same sanitizer verdict,
//! same device global-memory image. Recovery must repair, never merely
//! approximate.

use nzomp::BuildConfig;
use nzomp_host::{Host, RecoveryPolicy, SchedPolicy, StreamId};
use nzomp_integration::{env_run, run_proxy_outcome, ProxyOutcome};
use nzomp_proxies::{all_proxies, build_for_config, quick_device, Proxy};
use nzomp_vgpu::{FaultPlan, RunConfig};

/// This suite crosses proxies, fleet sizes, policies and campaign seeds,
/// not run axes: one worker, tier and sanitizer as the environment asks —
/// for the clean reference and the recovering host alike.
fn sequential() -> RunConfig {
    env_run(1)
}

/// Mix a device index into a campaign seed so every fleet member runs a
/// distinct (but reproducible) fault schedule.
fn device_seed(seed: u64, dev: usize) -> u64 {
    seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(dev as u64 + 1))
}

/// Run one proxy region through the host with recovery armed and a
/// seeded device-fault campaign on every fleet member. The sync *must*
/// succeed — recovery's whole claim — and the observation lens is the
/// same `ProxyOutcome` the clean differential uses.
fn run_recovered(
    p: &dyn Proxy,
    devices: usize,
    policy: SchedPolicy,
    seed: u64,
) -> (ProxyOutcome, nzomp_host::RecoveryMetrics) {
    let cfg = BuildConfig::NewRtNoAssumptions;
    let mut host = Host::with_run(quick_device(), devices, sequential());
    host.set_policy(policy);
    // Generous failover budget: a campaign may kill a replacement's
    // predecessor several times over (sites re-fire per plan, devices
    // don't — replacements are healthy).
    host.set_recovery(Some(RecoveryPolicy {
        max_failovers: 16,
        ..RecoveryPolicy::default()
    }));
    let img = host.load_image(build_for_config(p, cfg), cfg).unwrap();
    let hp = p.host_prepare();
    let out_arg = hp.out_arg;
    for dev in 0..devices {
        host.bind_image(dev, img).unwrap();
        host.set_device_faults(dev, FaultPlan::device_campaign(device_seed(seed, dev)))
            .unwrap();
    }
    let streams: Vec<StreamId> = vec![host.stream()];
    let region = host
        .enqueue_region(&streams, img, p.kernel_name(), hp.launch, hp.args)
        .unwrap();
    host.sync().unwrap_or_else(|e| {
        panic!(
            "recovery failed to absorb the campaign ({} devices={devices} \
             policy={policy:?} seed={seed}): {e}",
            p.name()
        )
    });
    let result = host
        .ticket_result(region.ticket)
        .unwrap()
        .expect("launch op never executed")
        .clone();
    let out_bits = result.is_ok().then(|| {
        let buf = region
            .bufs
            .get(out_arg)
            .copied()
            .flatten()
            .expect("output argument is not a buffer");
        host.buf_bits(buf).unwrap()
    });
    let dev = host.device(region.device).expect("region device is loaded");
    let outcome = ProxyOutcome {
        result,
        out_bits,
        global: dev.global_bytes().to_vec(),
        san_counts: dev.sanitizer_counts(),
        san_reports: dev
            .sanitizer_reports()
            .iter()
            .map(|r| r.to_string())
            .collect(),
    };
    (outcome, host.recovery_metrics().clone())
}

/// The ≥100-campaign matrix: 5 proxies × {1, 2, 4} devices ×
/// {RoundRobin, LeastLoaded} × 4 seeds = 120 campaigns, every one
/// recovered to the clean run's exact observation.
#[test]
fn chaos_campaigns_recover_bit_identically() {
    let cfg = BuildConfig::NewRtNoAssumptions;
    let mut campaigns = 0usize;
    let mut exercised = 0usize;
    let mut failovers_total = 0u64;
    let mut retries_total = 0u64;
    for p in all_proxies() {
        // The clean reference: the direct device path — what PR 5 proved
        // the host path matches, and what recovery must restore.
        let clean = run_proxy_outcome(p.as_ref(), cfg, sequential(), None);
        assert!(clean.result.is_ok(), "{}: clean run must succeed", p.name());
        for devices in [1usize, 2, 4] {
            for policy in [SchedPolicy::RoundRobin, SchedPolicy::LeastLoaded] {
                for seed in [11u64, 23, 47, 91] {
                    let (got, metrics) = run_recovered(p.as_ref(), devices, policy, seed);
                    assert_eq!(
                        got,
                        clean,
                        "{} devices={devices} policy={policy:?} seed={seed}: \
                         recovered outcome diverged from clean",
                        p.name()
                    );
                    campaigns += 1;
                    if metrics != nzomp_host::RecoveryMetrics::default() {
                        exercised += 1;
                    }
                    failovers_total += metrics.failovers;
                    retries_total += metrics.retries;
                }
            }
        }
    }
    assert!(campaigns >= 100, "matrix shrank to {campaigns} campaigns");
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
        let (out_a, m_a) = run_recovered(p.as_ref(), 2, SchedPolicy::RoundRobin, seed);
        let (out_b, m_b) = run_recovered(p.as_ref(), 2, SchedPolicy::RoundRobin, seed);
        assert_eq!(out_a, out_b, "seed {seed}: outcome diverged");
        assert_eq!(m_a, m_b, "seed {seed}: recovery metrics diverged");
    }
}
