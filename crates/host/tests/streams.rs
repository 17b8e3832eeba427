//! The host's op queue: draining it is bit-identical to eager execution
//! however many stream ids a region is handed, a failing op stops the
//! drain and leaves the ops behind it queued, and nested data
//! environments transfer only at the outermost exit.
//! One worker suffices: `differential` crosses the run axes through the
//! host, multi-stream-id shapes included.

mod common;

use common::{input, quick, scale_add_app, scale_add_expected};
use nzomp::BuildConfig;
use nzomp_host::{Host, HostError, MapKind, MapSpec, RegionArg, StreamError};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::RtVal;

const N: usize = 64;

fn launch() -> Launch {
    Launch {
        teams: 4,
        threads_per_team: 16,
        dyn_smem_bytes: 0,
    }
}

/// Run the scale-add region on a fresh host and return every observable:
/// output bits, kernel metrics, device global image.
fn run_once(streams: usize, eager: bool) -> (Vec<u64>, nzomp_vgpu::KernelMetrics, Vec<u8>) {
    let mut host = Host::new(quick(), 1);
    host.set_worker_threads(1);
    host.set_eager(eager);
    let img = host
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    let ss: Vec<_> = (0..streams).map(|_| host.stream()).collect();
    let region = host
        .enqueue_region(
            &ss,
            img,
            "k",
            launch(),
            vec![
                RegionArg::To(nzomp_host::f64_bytes(&input(N))),
                RegionArg::From(8 * N as u64),
                RegionArg::Scalar(RtVal::I(N as i64)),
            ],
        )
        .unwrap();
    host.sync().unwrap();
    let out = host.buf_bits(region.bufs[1].unwrap()).unwrap();
    let metrics = host.take_metrics(region.ticket).unwrap();
    let global = host.device(region.device).unwrap().global_bytes().to_vec();
    (out, metrics, global)
}

/// The core determinism claim: eager execution and the deferred drain,
/// handed one, two or four stream ids, produce bit-identical outputs,
/// metrics, and device memory images.
#[test]
fn deferred_drain_bit_identical_to_eager() {
    let reference = run_once(1, true);
    let expected = scale_add_expected(&input(N));
    let got = nzomp_host::bytes_to_f64(
        &reference.0.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<_>>(),
    );
    assert_eq!(got, expected, "eager result is the host reference");

    for streams in [1, 2, 4] {
        assert_eq!(run_once(streams, false), reference, "streams={streams}");
    }
}

/// Unknown handles are typed errors.
#[test]
fn unknown_handles_are_typed() {
    let mut host = Host::new(quick(), 1);
    let s = host.stream();
    assert!(matches!(
        host.data_enter(nzomp_host::StreamId(9), 0, &[]),
        Err(HostError::Stream(StreamError::UnknownStream(9)))
    ));
    // A region checks every id it is handed, not only the one it rides.
    let img = host
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    assert!(matches!(
        host.enqueue_region(&[s, nzomp_host::StreamId(5)], img, "k", launch(), vec![]),
        Err(HostError::Stream(StreamError::UnknownStream(5)))
    ));
    assert!(matches!(
        host.ticket_result(nzomp_host::Ticket(2)),
        Err(HostError::Stream(StreamError::UnknownTicket(2)))
    ));
}

/// A trapping launch stops the drain with a typed error and parks the
/// trap in the ticket; the ops behind it — the result readback and the
/// frees — stay queued until the next drain.
#[test]
fn trap_aborts_drain_and_lands_in_ticket() {
    let mut host = Host::new(quick(), 1);
    host.set_worker_threads(1);
    let img = host
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    let s = host.stream();
    // Claim 4x the real trip count: the kernel indexes out of bounds.
    let region = host
        .enqueue_region(
            &[s],
            img,
            "k",
            launch(),
            vec![
                RegionArg::To(nzomp_host::f64_bytes(&input(N))),
                RegionArg::From(8 * N as u64),
                RegionArg::Scalar(RtVal::I(4 * N as i64)),
            ],
        )
        .unwrap();
    match host.sync() {
        Err(HostError::Exec(_)) => {}
        other => panic!("expected an exec trap, got {other:?}"),
    }
    let parked = host.ticket_result(region.ticket).unwrap();
    assert!(matches!(parked, Some(Err(_))), "trap parked in the ticket");
    // The from-readback did not run: the host output buffer is untouched.
    let out = host.buf_bytes(region.bufs[1].unwrap()).unwrap();
    assert!(out.iter().all(|&b| b == 0), "no readback after a trap");
    // Left queued behind the launch: the input's free, the output's
    // readback and its free. The next drain runs them.
    assert_eq!(host.stats().devices[0].queued_ops, 3);
    host.sync().unwrap();
    let dev = &host.stats().devices[0];
    assert_eq!((dev.queued_ops, dev.transfers_from, dev.pool_in_use), (0, 1, 0));
}

/// Nested `target data`: the inner exit neither copies back nor frees;
/// only the outermost exit transfers, and presence suppresses the second
/// upload.
#[test]
fn nested_data_environments_transfer_at_outermost_exit_only() {
    let mut host = Host::new(quick(), 1);
    host.set_worker_threads(1);
    let img = host
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    host.bind_image(0, img).unwrap();
    let s = host.stream();

    let a = host.register_f64(&input(N));
    let out = host.register_zeros(8 * N as u64);
    let len = 8 * N as u64;

    // Outer environment: tofrom both buffers.
    host.data_enter(
        s,
        0,
        &[
            MapSpec::whole(a, len, MapKind::To),
            MapSpec::whole(out, len, MapKind::ToFrom),
        ],
    )
    .unwrap();
    // Inner environment re-maps both: presence wins, no new transfers.
    host.data_enter(
        s,
        0,
        &[
            MapSpec::whole(a, len, MapKind::To),
            MapSpec::whole(out, len, MapKind::ToFrom),
        ],
    )
    .unwrap();
    assert_eq!(host.stats().devices[0].transfers_to, 2, "inner enter re-transferred");

    let ticket = host
        .enqueue_launch(
            s,
            0,
            "k",
            launch(),
            &[
                nzomp_host::KArg::Buf(a),
                nzomp_host::KArg::Buf(out),
                nzomp_host::KArg::Val(RtVal::I(N as i64)),
            ],
        )
        .unwrap();

    // Inner exit: refcounts 2 -> 1, no copy back yet.
    host.data_exit(
        s,
        0,
        &[
            MapSpec::whole(out, len, MapKind::ToFrom),
            MapSpec::whole(a, len, MapKind::Release),
        ],
    )
    .unwrap();
    host.sync().unwrap();
    assert_eq!(host.stats().devices[0].transfers_from, 0, "inner exit copied back");
    assert!(
        host.buf_bytes(out).unwrap().iter().all(|&b| b == 0),
        "host buffer updated before outermost exit"
    );

    // Outermost exit: the result materializes.
    host.data_exit(
        s,
        0,
        &[
            MapSpec::whole(out, len, MapKind::ToFrom),
            MapSpec::whole(a, len, MapKind::Release),
        ],
    )
    .unwrap();
    host.sync().unwrap();
    let dev = host.stats().devices[0].clone();
    assert_eq!((dev.transfers_to, dev.transfers_from), (2, 1));
    assert_eq!(host.buf_f64(out).unwrap(), scale_add_expected(&input(N)));
    host.take_metrics(ticket).unwrap();
    assert_eq!(dev.pool_in_use, 0, "everything unmapped");
}
