//! Multi-device scheduling and the kernel-image registry: placement
//! policies behave as documented, the compile cache eliminates repeated
//! pipeline runs, and sharding across devices preserves bit-identical
//! results.
//! One worker suffices: `differential` crosses the run axes through the
//! host, multi-device shapes included.

mod common;

use common::{input, quick, scale_add_app, scale_add_expected};
use nzomp::pipeline::CACHE_ENTRIES;
use nzomp::BuildConfig;
use nzomp_front::{spmd_kernel_for, RuntimeFlavor};
use nzomp_host::{Host, HostError, RecoveryPolicy, RegionArg, SchedPolicy};
use nzomp_ir::{Module, Operand, Ty};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{DeviceFaultKind, DeviceFaultSite, FaultPlan, RtVal};

const N: usize = 48;

fn launch() -> Launch {
    Launch {
        teams: 4,
        threads_per_team: 16,
        dyn_smem_bytes: 0,
    }
}

fn region_args() -> Vec<RegionArg> {
    vec![
        RegionArg::To(nzomp_host::f64_bytes(&input(N))),
        RegionArg::From(8 * N as u64),
        RegionArg::Scalar(RtVal::I(N as i64)),
    ]
}

/// Round-robin placement strictly rotates over the fleet.
#[test]
fn round_robin_rotates() {
    let mut host = Host::new(quick(), 3);
    host.set_worker_threads(1);
    let img = host
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    let s = host.stream();
    let placements: Vec<usize> = (0..6)
        .map(|_| {
            host.enqueue_region(&[s], img, "k", launch(), region_args())
                .unwrap()
                .device
        })
        .collect();
    assert_eq!(placements, [0, 1, 2, 0, 1, 2]);
    host.sync().unwrap();
    // Identical regions split the simulated cycles evenly, so the modeled
    // fleet speedup — sum(cycles) / max(per-device cycles) — is the fleet
    // size itself.
    let devices = host.stats().devices;
    for d in &devices {
        assert_eq!(d.launches, 2);
        assert!(d.executed_cycles > 0);
        assert_eq!(d.executed_cycles, devices[0].executed_cycles);
    }
}

/// Least-loaded placement prefers the device with the fewest pending
/// launches, breaking ties toward fewer executed cycles.
#[test]
fn least_loaded_balances() {
    let mut host = Host::new(quick(), 2);
    host.set_worker_threads(1);
    host.set_policy(SchedPolicy::LeastLoaded);
    let img = host
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    let s = host.stream();

    // Everything pending: placements alternate as pending counts grow.
    let placements: Vec<usize> = (0..4)
        .map(|_| {
            host.enqueue_region(&[s], img, "k", launch(), region_args())
                .unwrap()
                .device
        })
        .collect();
    assert_eq!(placements, [0, 1, 0, 1]);
    host.sync().unwrap();

    // With nothing pending, the cycle tie-break keeps the split even.
    let next = host
        .enqueue_region(&[s], img, "k", launch(), region_args())
        .unwrap()
        .device;
    host.sync().unwrap();
    let after = host
        .enqueue_region(&[s], img, "k", launch(), region_args())
        .unwrap()
        .device;
    host.sync().unwrap();
    assert_ne!(next, after, "cycle tie-break alternates devices");
    let devices = host.stats().devices;
    assert_eq!((devices[0].launches, devices[1].launches), (3, 3));
}

/// Loading the same module under the same config hits the compile cache
/// — repeated launches never re-run the pipeline — while a different
/// config misses.
#[test]
fn compile_cache_eliminates_recompiles() {
    let mut host = Host::new(quick(), 1);
    host.set_worker_threads(1);
    let a = host
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    let compiles = |h: &Host| {
        let s = h.stats();
        (s.compile_hits, s.compile_misses)
    };
    assert_eq!(compiles(&host), (0, 1));

    let b = host
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    assert_eq!(a, b, "cache hit returns the same image id");
    assert_eq!(compiles(&host), (1, 1), "second load is a cache hit");
    assert_eq!(host.stats().images, 1);

    let c = host
        .load_image(scale_add_app(), BuildConfig::NewRtNightly)
        .unwrap();
    assert_ne!(a, c);
    assert_eq!(compiles(&host), (1, 2), "new config is a miss");

    // Many repeated launches: zero additional compiles.
    let s = host.stream();
    for _ in 0..8 {
        host.enqueue_region(&[s], a, "k", launch(), region_args())
            .unwrap();
        host.sync().unwrap();
    }
    assert_eq!(compiles(&host), (1, 2), "launching never recompiles");
}

/// The cache is keyed by a fingerprint of the printed module, and names
/// print verbatim: a module name carrying a line break prints the same
/// bytes as an honest module with one more kernel. The cache refuses the
/// unprintable name before it fingerprints, so the pair cannot share an
/// entry.
#[test]
fn compile_cache_does_not_alias_modules_that_print_alike() {
    let honest = scale_add_app();
    let mut forged = honest.clone();
    forged.kernels.clear();
    forged.name = format!("{}\n; kernel @k mode=Spmd", honest.name);
    assert_ne!(forged, honest);
    assert_eq!(
        nzomp_ir::print_module(&forged),
        nzomp_ir::print_module(&honest),
        "the pair this test needs: different modules, one text"
    );

    let mut cache = nzomp::CompileCache::new();
    cache
        .compile(honest, BuildConfig::NewRtNoAssumptions)
        .unwrap();
    let refused = cache.compile(forged, BuildConfig::NewRtNoAssumptions);
    assert!(
        matches!(refused, Err(nzomp::CompileError::Verify { stage: "input", .. })),
        "forged module must be refused, not served the honest image"
    );
    assert_eq!((cache.hits, cache.misses, cache.len()), (0, 1, 1));
}

/// `Host::bound_image` answers "will `bind_image(dev, img)` keep this
/// device?": nothing before the first bind, the image while a live device
/// runs it — the replacement a failover installs included — and nothing
/// once the slot is quarantined, until an explicit bind revives it.
#[test]
fn bound_image_follows_bind_failover_and_quarantine() {
    let lose_at = |after_ops: u64| FaultPlan {
        device_sites: vec![DeviceFaultSite { after_ops, kind: DeviceFaultKind::Lost }],
        ..FaultPlan::default()
    };
    let mut host = Host::new(quick(), 1);
    host.set_worker_threads(1);
    host.set_eager(true);
    host.set_recovery(Some(RecoveryPolicy { max_failovers: 1, ..RecoveryPolicy::default() }));
    let img = host
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    let other = host
        .load_image(scale_add_app(), BuildConfig::NewRtNightly)
        .unwrap();
    assert_ne!(img, other);
    assert_eq!(host.bound_image(0), None, "no device yet");
    assert_eq!(host.bound_image(9), None, "no such slot");

    host.bind_image(0, other).unwrap();
    assert_eq!(host.bound_image(0), Some(other));
    host.bind_image(0, img).unwrap();
    assert_eq!(host.bound_image(0), Some(img), "a rebind replaces the answer");

    // The launch hits a device loss; the one budgeted failover succeeds.
    host.set_device_faults(0, lose_at(1)).unwrap();
    let s = host.stream();
    host.enqueue_region(&[s], img, "k", launch(), region_args())
        .unwrap();
    assert_eq!(host.stats().recovery.failovers, 1);
    assert_eq!(host.bound_image(0), Some(img), "the replacement runs the same image");

    // The replacement dies too; the budget is spent, the slot retires.
    host.set_device_faults(0, lose_at(0)).unwrap();
    assert!(host
        .enqueue_region(&[s], img, "k", launch(), region_args())
        .is_err());
    assert!(host.quarantined(0));
    assert_eq!(host.bound_image(0), None, "a quarantined slot runs nothing");

    host.bind_image(0, img).unwrap();
    assert_eq!(host.bound_image(0), Some(img), "an explicit bind revives it");
}

/// Sharding identical regions across two devices yields bit-identical
/// outputs to the single-device run, and both devices end with identical
/// global images (same kernel, same layout — the scheduler adds nothing).
#[test]
fn two_device_sharding_is_bit_identical() {
    let run = |devices: usize| -> (Vec<Vec<u64>>, Vec<Option<Vec<u8>>>) {
        let mut host = Host::new(quick(), devices);
        host.set_worker_threads(1);
        let img = host
            .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
            .unwrap();
        let s = host.stream();
        let regions: Vec<_> = (0..4)
            .map(|_| {
                host.enqueue_region(&[s], img, "k", launch(), region_args())
                    .unwrap()
            })
            .collect();
        host.sync().unwrap();
        let outs = regions
            .iter()
            .map(|r| host.buf_bits(r.bufs[1].unwrap()).unwrap())
            .collect();
        let globals = (0..devices)
            .map(|d| host.device(d).map(|dev| dev.global_bytes().to_vec()))
            .collect();
        (outs, globals)
    };

    let (single, _) = run(1);
    let (sharded, globals) = run(2);
    let expected: Vec<u64> = nzomp_host::f64_bytes(&scale_add_expected(&input(N)))
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect();
    for (i, out) in sharded.iter().enumerate() {
        assert_eq!(out, &single[i], "region {i} differs across fleets");
        assert_eq!(out, &expected, "region {i} wrong");
    }
    assert_eq!(globals[0], globals[1], "device images diverged");
}

/// The pool reuses released blocks across regions instead of growing the
/// device arena: after the first region's exit frees its blocks, later
/// identical regions allocate nothing new.
#[test]
fn pool_reuses_across_regions() {
    let mut host = Host::new(quick(), 1);
    host.set_worker_threads(1);
    let img = host
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    let s = host.stream();
    host.enqueue_region(&[s], img, "k", launch(), region_args())
        .unwrap();
    host.sync().unwrap();
    let fresh_after_one = host.stats().devices[0].pool_allocs;
    for _ in 0..5 {
        host.enqueue_region(&[s], img, "k", launch(), region_args())
            .unwrap();
        host.sync().unwrap();
    }
    let pool = host.stats().devices[0].clone();
    assert_eq!(pool.pool_allocs, fresh_after_one, "later regions allocated fresh memory");
    assert_eq!(pool.pool_reuse_hits, 10, "two blocks reused per later region");
    assert_eq!(pool.pool_in_use, 0, "everything released");
}

/// The corrected LeastLoaded signal end-to-end: a device with no pending
/// launches but a deep queued-transfer backlog is *not* the least-loaded
/// device. Before the fix, placement keyed only on pending launches and
/// completed cycles, so a fresh region landed on top of the backlog.
#[test]
fn least_loaded_sees_queued_transfer_backlog() {
    let mut host = Host::new(quick(), 2);
    host.set_worker_threads(1);
    host.set_policy(SchedPolicy::LeastLoaded);
    let img = host
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    let s = host.stream();

    // Queue transfer work on device 0 without any launch: pending stays
    // 0, but the memcpys sit undrained in the stream.
    host.bind_image(0, img).unwrap();
    let buf = host.register_f64(&input(N));
    host.data_enter(
        s,
        0,
        &[nzomp_host::MapSpec::whole(buf, 8 * N as u64, nzomp_host::MapKind::To)],
    )
    .unwrap();
    assert_eq!(host.stats().devices[0].queued_ops, 1, "backlog visible in stats");

    // The next region must avoid the backlogged device even though both
    // devices tie on pending launches and executed cycles.
    let region = host
        .enqueue_region(&[s], img, "k", launch(), region_args())
        .unwrap();
    assert_eq!(region.device, 1, "placement avoids the queued backlog");
    host.sync().unwrap();
    assert_eq!(host.stats().devices[0].queued_ops, 0, "drain clears the backlog");
    assert_eq!(host.stats().devices[1].queued_ops, 0);
}

/// `out[i] = a[i] * factor`, kernel `k`: one image per factor.
fn scale(factor: f64) -> Module {
    let mut m = Module::new("scale");
    spmd_kernel_for(
        &mut m,
        RuntimeFlavor::Modern,
        "k",
        &[Ty::Ptr, Ty::Ptr, Ty::I64],
        |_b, p| p[2],
        move |_m, b, iv, p| {
            let pa = b.gep(p[0], iv, 8);
            let x = b.load(Ty::F64, pa);
            let v = b.fmul(x, Operand::f64(factor));
            let po = b.gep(p[1], iv, 8);
            b.store(Ty::F64, po, v);
        },
    );
    m
}

/// `scale`'s region over `[1, 2, 3, 4]`.
fn scale_args() -> Vec<RegionArg> {
    vec![
        RegionArg::To(nzomp_host::f64_bytes(&[1.0, 2.0, 3.0, 4.0])),
        RegionArg::From(32),
        RegionArg::Scalar(RtVal::I(4)),
    ]
}

/// A bind that would reload a device is refused while work is still
/// queued for the device it would replace — typed, with nothing changed,
/// and the same bind succeeds after a `sync`. It used to go through: the
/// fresh device's pool handed out the old addresses, the queued launch
/// found a kernel of the same name in the new image, and both regions
/// read back the second image's results.
#[test]
fn rebind_under_queued_work_is_refused_not_miscomputed() {
    let args = scale_args;
    let mut host = Host::new(quick(), 1);
    host.set_worker_threads(1);
    let a = host.load_image(scale(2.0), BuildConfig::NewRtNoAssumptions).unwrap();
    let b = host.load_image(scale(10.0), BuildConfig::NewRtNoAssumptions).unwrap();
    let s = host.stream();

    let ra = host.enqueue_region(&[s], a, "k", launch(), args()).unwrap();
    let queued = host.stats();
    let refused = host.enqueue_region(&[s], b, "k", launch(), args()).unwrap_err();
    assert!(
        matches!(refused, HostError::DeviceBusy { device: 0, queued_ops, pending_launches: 1 } if queued_ops > 0),
        "{refused}"
    );
    assert!(matches!(host.bind_image(0, b), Err(HostError::DeviceBusy { .. })));
    host.bind_image(0, a).unwrap(); // not a reload: nothing to refuse
    assert_eq!(host.bound_image(0), Some(a));
    assert_eq!(host.stats(), queued, "a refused bind changes nothing");

    host.sync().unwrap();
    assert_eq!(host.buf_f64(ra.bufs[1].unwrap()).unwrap(), [2.0, 4.0, 6.0, 8.0]);
    let rb = host.enqueue_region(&[s], b, "k", launch(), args()).unwrap();
    host.sync().unwrap();
    assert_eq!(host.buf_f64(rb.bufs[1].unwrap()).unwrap(), [10.0, 20.0, 30.0, 40.0]);
    assert_eq!(host.buf_f64(ra.bufs[1].unwrap()).unwrap(), [2.0, 4.0, 6.0, 8.0]);
}

/// A rebind is fresh device memory over the image's shared loaded form:
/// bind A, run, bind B, run, bind A again — the device starts from the
/// memory the first bind of A started from (nothing A's first launch
/// wrote survives in the image), the pool hands out the same addresses,
/// and the launch reports the same metrics and results.
#[test]
fn rebinding_an_image_starts_from_its_first_bind() {
    let mut host = Host::new(quick(), 1);
    host.set_worker_threads(1);
    let a = host.load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions).unwrap();
    let b = host.load_image(scale_add_app(), BuildConfig::NewRtNightly).unwrap();
    assert_ne!(a, b);
    let s = host.stream();
    let run = |host: &mut Host, img| {
        host.bind_image(0, img).unwrap();
        let initial = host.device(0).unwrap().global_bytes().to_vec();
        let r = host.enqueue_region(&[s], img, "k", launch(), region_args()).unwrap();
        host.sync().unwrap();
        let dev = host.stats().devices[0].clone();
        (
            initial,
            r.ptrs.clone(),
            host.take_metrics(r.ticket).unwrap(),
            host.buf_bits(r.bufs[1].unwrap()).unwrap(),
            host.device(0).unwrap().global_bytes().to_vec(),
            (dev.pool_allocs, dev.pool_reuse_hits, dev.pool_in_use),
        )
    };
    let first = run(&mut host, a);
    let other = run(&mut host, b);
    let again = run(&mut host, a);
    assert_eq!(again, first, "the second bind of A is not the first");
    assert_eq!(run(&mut host, b), other);
}

/// A long-lived host holds a bounded set of images: three times
/// `CACHE_ENTRIES` distinct modules, each bound and run on device 1 while
/// device 0 keeps running the first. The cache never holds more than the
/// bound and never evicts the image device 0 runs; an evicted id is
/// `UnknownImage` and never names another image; its module, loaded again,
/// is a miss under a new id and runs to the same result.
#[test]
fn a_long_lived_host_holds_a_bounded_set_of_images() {
    const CFG: BuildConfig = BuildConfig::NewRtNoAssumptions;
    let mut host = Host::new(quick(), 2);
    host.set_worker_threads(1);
    let s = host.stream();
    let run = |host: &mut Host, dev: usize, img| -> Result<Vec<f64>, HostError> {
        host.bind_image(dev, img)?;
        let r = host.enqueue_region_on(s, dev, "k", launch(), scale_args())?;
        host.sync()?;
        host.buf_f64(r.bufs[1].unwrap())
    };
    let times = |factor: f64| [1.0, 2.0, 3.0, 4.0].map(|x| x * factor);
    let kept = host.load_image(scale(-1.0), CFG).unwrap();
    assert_eq!(run(&mut host, 0, kept).unwrap(), times(-1.0));
    let mut ids = Vec::new();
    for k in 0..3 * CACHE_ENTRIES {
        let img = host.load_image(scale(k as f64), CFG).unwrap();
        assert_eq!(run(&mut host, 1, img).unwrap(), times(k as f64), "module {k}");
        assert!(host.stats().images <= CACHE_ENTRIES);
        assert_eq!(host.bound_image(0), Some(kept));
        ids.push(img);
    }
    assert!(host.image(kept).is_some(), "the image device 0 runs was evicted");
    assert_eq!(run(&mut host, 0, kept).unwrap(), times(-1.0));

    let stale = ids[0];
    assert!(host.image(stale).is_none());
    assert!(matches!(host.bind_image(1, stale), Err(HostError::UnknownImage(id)) if id == stale.0));
    let again = host.load_image(scale(0.0), CFG).unwrap();
    assert!(again != kept && !ids.contains(&again), "an evicted id is never handed out again");
    assert_eq!(run(&mut host, 1, again).unwrap(), times(0.0));
    let stats = host.stats();
    assert_eq!((stats.compile_hits, stats.compile_misses), (0, 3 * CACHE_ENTRIES as u64 + 2));
    assert_eq!(stats.images, CACHE_ENTRIES);
}
