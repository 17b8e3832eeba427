//! Async-stream semantics: the deferred seeded round-robin drain is
//! bit-identical to eager execution, events order cross-stream work,
//! declared-dependency cycles surface as typed deadlocks, and nested data
//! environments transfer only at the outermost exit.
//! One worker suffices: `differential` crosses the run axes through the
//! host, multi-stream shapes included.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

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
fn run_once(streams: usize, drain_seed: u64, eager: bool) -> (Vec<u64>, nzomp_vgpu::KernelMetrics, Vec<u8>) {
    let mut host = Host::new(quick(), 1);
    host.set_worker_threads(1);
    host.set_drain_seed(drain_seed);
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

/// The core determinism claim: eager execution, the deferred drain under
/// many seeds, and multi-stream splits all produce bit-identical outputs,
/// metrics, and device memory images.
#[test]
fn deferred_drain_bit_identical_to_eager() {
    let reference = run_once(1, 0, true);
    let expected = scale_add_expected(&input(N));
    let got = nzomp_host::bytes_to_f64(
        &reference.0.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<_>>(),
    );
    assert_eq!(got, expected, "eager result is the host reference");

    for streams in [1, 2, 4] {
        for seed in [0, 1, 7, 13, 0xdead_beef] {
            let run = run_once(streams, seed, false);
            assert_eq!(run, reference, "streams={streams} seed={seed}");
        }
    }
}

/// Events enforce cross-stream order: a callback on stream B that waits
/// for stream A's event observes A's callback first, under every seed.
#[test]
fn events_order_cross_stream_callbacks() {
    for seed in [0u64, 3, 11] {
        let mut host = Host::new(quick(), 1);
        host.set_drain_seed(seed);
        let a = host.stream();
        let b = host.stream();
        let ev = host.event();
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let (o1, o2) = (order.clone(), order.clone());
        host.callback(a, move || o1.borrow_mut().push("a")).unwrap();
        host.record(a, ev).unwrap();
        host.wait(b, ev).unwrap();
        host.callback(b, move || o2.borrow_mut().push("b")).unwrap();
        host.sync().unwrap();
        assert_eq!(*order.borrow(), ["a", "b"], "seed {seed}");
    }
}

/// A wait on an event nothing records is a typed deadlock, not a hang.
#[test]
fn dependency_cycle_is_typed_deadlock() {
    let mut host = Host::new(quick(), 1);
    let a = host.stream();
    let b = host.stream();
    let (ea, eb) = (host.event(), host.event());
    // a waits for eb which b records only after waiting for ea — a cycle.
    host.wait(a, eb).unwrap();
    host.record(a, ea).unwrap();
    host.wait(b, ea).unwrap();
    host.record(b, eb).unwrap();
    // Both streams' heads are waits on events recorded behind the other
    // wait: progress is impossible.
    match host.sync() {
        Err(HostError::Stream(StreamError::Deadlock { blocked_streams })) => {
            assert_eq!(blocked_streams, 2)
        }
        other => panic!("expected deadlock, got {other:?}"),
    }

    // Simplest form: a wait on a never-recorded event.
    let mut host2 = Host::new(quick(), 1);
    let s = host2.stream();
    let never = host2.event();
    host2.wait(s, never).unwrap();
    match host2.sync() {
        Err(HostError::Stream(StreamError::Deadlock { blocked_streams })) => {
            assert_eq!(blocked_streams, 1)
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

/// Deadlock detection fires only after every possible op has run: work
/// ahead of (and beside) the blocked wait completes first, and the
/// blocked-stream count reflects exactly the streams still stuck.
#[test]
fn deadlock_is_detected_after_partial_progress() {
    let mut host = Host::new(quick(), 1);
    let a = host.stream();
    let b = host.stream();
    let never = host.event();
    let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
    let (o1, o2) = (order.clone(), order.clone());
    // Stream a runs one callback, then blocks forever; stream b drains
    // fully.
    host.callback(a, move || o1.borrow_mut().push("a")).unwrap();
    host.wait(a, never).unwrap();
    host.callback(a, || unreachable!("behind a permanently blocked wait")).unwrap();
    host.callback(b, move || o2.borrow_mut().push("b")).unwrap();
    match host.sync() {
        Err(HostError::Stream(StreamError::Deadlock { blocked_streams })) => {
            assert_eq!(blocked_streams, 1, "only stream a is stuck")
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
    assert_eq!(*order.borrow(), ["a", "b"], "runnable work completed first");
}

/// The eager executor has no queue to park a wait in: an unsignaled wait
/// is an immediate single-stream deadlock, while a signaled one passes.
#[test]
fn eager_wait_deadlocks_immediately_unless_signaled() {
    let mut host = Host::new(quick(), 1);
    host.set_eager(true);
    let s = host.stream();
    let ev = host.event();
    match host.wait(s, ev) {
        Err(HostError::Stream(StreamError::Deadlock { blocked_streams })) => {
            assert_eq!(blocked_streams, 1)
        }
        other => panic!("expected immediate deadlock, got {other:?}"),
    }
    host.record(s, ev).unwrap();
    host.wait(s, ev).unwrap();
}

/// Unknown handles are typed errors.
#[test]
fn unknown_handles_are_typed() {
    let mut host = Host::new(quick(), 1);
    let s = host.stream();
    assert!(matches!(
        host.record(nzomp_host::StreamId(9), nzomp_host::EventId(0)),
        Err(HostError::Stream(StreamError::UnknownStream(9)))
    ));
    assert!(matches!(
        host.wait(s, nzomp_host::EventId(5)),
        Err(HostError::Stream(StreamError::UnknownEvent(5)))
    ));
    assert!(matches!(
        host.ticket_result(nzomp_host::Ticket(2)),
        Err(HostError::Stream(StreamError::UnknownTicket(2)))
    ));
}

/// A trapping launch aborts the drain with a typed error and parks the
/// trap in the ticket; the result readback never runs.
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
    // The from-readback was dropped: the host output buffer is untouched.
    let out = host.buf_bytes(region.bufs[1].unwrap()).unwrap();
    assert!(out.iter().all(|&b| b == 0), "no readback after a trap");
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
