//! Full-stack integration: every proxy app under every build
//! configuration, verified against host references, plus the qualitative
//! orderings the paper's evaluation establishes.
//! One run setting suffices: `parallel_determinism` crosses the run axes
//! for every proxy under every OpenMP configuration.

use nzomp::BuildConfig;
use nzomp_proxies::{all_proxies, quick_device, run_config, RunError};

#[test]
fn every_proxy_verifies_under_every_config() {
    for proxy in all_proxies() {
        for cfg in BuildConfig::ALL {
            match run_config(proxy.as_ref(), cfg, &quick_device()) {
                Ok(_) | Err(RunError::NotApplicable) => {}
                Err(e) => panic!("{} under {cfg:?}: {e}", proxy.name()),
            }
        }
    }
}

/// The optimized modern runtime retains no shared state on any proxy
/// (the "SMem 0" rows of Fig. 11).
#[test]
fn optimized_new_rt_has_zero_smem_everywhere() {
    for proxy in all_proxies() {
        let r = run_config(proxy.as_ref(), BuildConfig::NewRtNoAssumptions, &quick_device())
            .unwrap_or_else(|e| panic!("{}: {e}", proxy.name()));
        assert_eq!(r.metrics.smem_bytes, 0, "{}", proxy.name());
        assert_eq!(r.metrics.runtime_calls, 0, "{}", proxy.name());
    }
}

/// The nightly (baseline-pipeline) modern runtime keeps its full state —
/// the regression the paper observed in LLVM nightly.
#[test]
fn nightly_new_rt_keeps_full_state() {
    for proxy in all_proxies() {
        let r = run_config(proxy.as_ref(), BuildConfig::NewRtNightly, &quick_device())
            .unwrap_or_else(|e| panic!("{}: {e}", proxy.name()));
        assert_eq!(r.metrics.smem_bytes, 11304, "{}", proxy.name());
    }
}

/// Optimized OpenMP lands within 15% of CUDA on every proxy (the paper:
/// "oftentimes we can closely match the CUDA implementation").
#[test]
fn optimized_openmp_close_to_cuda() {
    for proxy in all_proxies() {
        let omp = run_config(proxy.as_ref(), BuildConfig::NewRtNoAssumptions, &quick_device())
            .unwrap()
            .metrics;
        let cuda = run_config(proxy.as_ref(), BuildConfig::Cuda, &quick_device())
            .unwrap()
            .metrics;
        let ratio = omp.cycles as f64 / cuda.cycles as f64;
        assert!(
            ratio < 1.15,
            "{}: OpenMP {} vs CUDA {} cycles ({ratio:.3}x)",
            proxy.name(),
            omp.cycles,
            cuda.cycles
        );
    }
}

/// The optimized configurations beat both nightly configurations on every
/// proxy (Fig. 10's overall shape).
#[test]
fn full_pipeline_beats_nightly_everywhere() {
    for proxy in all_proxies() {
        let old = run_config(proxy.as_ref(), BuildConfig::OldRtNightly, &quick_device())
            .unwrap()
            .metrics
            .time_ms;
        let nightly = run_config(proxy.as_ref(), BuildConfig::NewRtNightly, &quick_device())
            .unwrap()
            .metrics
            .time_ms;
        let new = run_config(proxy.as_ref(), BuildConfig::NewRtNoAssumptions, &quick_device())
            .unwrap()
            .metrics
            .time_ms;
        assert!(new < old, "{}: new {new} !< old {old}", proxy.name());
        assert!(new < nightly, "{}: new {new} !< nightly {nightly}", proxy.name());
    }
}

/// Identical results across configurations (same FP association, same
/// iteration-to-thread mapping): the lowering is semantics-preserving.
#[test]
fn all_configs_agree_bitwise_on_xsbench() {
    use nzomp_proxies::xsbench::XSBench;
    use nzomp_proxies::{build_for_config, Proxy};
    use nzomp_vgpu::Device;

    let p = XSBench::small();
    let mut outputs: Vec<Vec<f64>> = Vec::new();
    for cfg in BuildConfig::ALL {
        let out = nzomp::compile(build_for_config(&p, cfg), cfg).unwrap();
        let mut dev = Device::load(out.module, quick_device());
        let prep = p.prepare(&mut dev);
        dev.launch(p.kernel_name(), prep.launch, &prep.args).unwrap();
        outputs.push(dev.read_f64(prep.out_ptr, prep.expected.len()).unwrap());
    }
    for w in outputs.windows(2) {
        assert_eq!(w[0], w[1], "configs disagree bitwise");
    }
}
