//! Property tests of the present table against a naive shadow model:
//! random nested map/unmap sequences never leak pool memory, refcounts
//! hit zero exactly at the outermost exit, and every lookup agrees with
//! the shadow.
//! No device launches: the run axes do not apply.

// The other three suites use every fixture; this one needs only `quick`.
#[allow(dead_code)]
mod common;

use common::quick;
use nzomp_host::error::MapError;
use nzomp_host::map::{BufId, MapKind, MapSpec, MapStepError, PresentTable};
use nzomp_host::DevicePool;
use nzomp_ir::Module;
use nzomp_vgpu::Device;
use proptest::prelude::*;

const BUFS: usize = 3;
const BUF_LEN: u64 = 96;

fn device() -> Device {
    Device::load(Module::new("present_prop"), quick())
}

/// The naive reference: a flat list of `(off, len, refs)` ranges per
/// buffer, with the OpenMP rules spelled out directly.
#[derive(Default)]
struct Shadow {
    bufs: Vec<Vec<(u64, u64, u32)>>,
}

/// Outcome classes both implementations must agree on.
#[derive(Debug, PartialEq)]
enum Res {
    Ok,
    Partial,
    NotPresent,
    HostRange,
}

impl Shadow {
    fn new() -> Shadow {
        Shadow {
            bufs: vec![Vec::new(); BUFS],
        }
    }

    /// Containing range, or the error class.
    fn find(&self, buf: usize, off: u64, len: u64) -> Result<usize, Res> {
        for (i, &(eo, el, _)) in self.bufs[buf].iter().enumerate() {
            let disjoint = off + len <= eo || eo + el <= off;
            let contained = eo <= off && off + len <= eo + el;
            if contained {
                return Ok(i);
            }
            if !disjoint {
                return Err(Res::Partial);
            }
        }
        Err(Res::NotPresent)
    }

    fn enter(&mut self, buf: usize, off: u64, len: u64) -> Res {
        if off + len > BUF_LEN {
            return Res::HostRange;
        }
        match self.find(buf, off, len) {
            Ok(i) => {
                self.bufs[buf][i].2 += 1;
                Res::Ok
            }
            Err(Res::NotPresent) => {
                self.bufs[buf].push((off, len, 1));
                Res::Ok
            }
            Err(e) => e,
        }
    }

    fn exit(&mut self, buf: usize, off: u64, len: u64, delete: bool) -> Res {
        match self.find(buf, off, len) {
            Ok(i) => {
                if delete {
                    self.bufs[buf][i].2 = 1;
                }
                self.bufs[buf][i].2 -= 1;
                if self.bufs[buf][i].2 == 0 {
                    self.bufs[buf].remove(i);
                }
                Res::Ok
            }
            Err(e) => e,
        }
    }

    fn mapped_bytes_aligned(&self) -> u64 {
        self.bufs
            .iter()
            .flatten()
            .map(|&(_, len, _)| len.max(1).div_ceil(8) * 8)
            .sum()
    }
}

#[derive(Clone, Debug)]
enum OpSpec {
    Enter { buf: usize, off: u64, len: u64, kind: MapKind },
    Exit { buf: usize, off: u64, len: u64, kind: MapKind },
}

fn arb_op() -> impl Strategy<Value = OpSpec> {
    let range = (0..BUFS, 0u64..BUF_LEN + 16, 1u64..40);
    prop_oneof![
        (range.clone(), 0..4usize).prop_map(|((buf, off, len), k)| OpSpec::Enter {
            buf,
            off,
            len,
            kind: [MapKind::To, MapKind::From, MapKind::ToFrom, MapKind::Alloc][k],
        }),
        (range, 0..4usize).prop_map(|((buf, off, len), k)| OpSpec::Exit {
            buf,
            off,
            len,
            kind: [MapKind::From, MapKind::ToFrom, MapKind::Release, MapKind::Delete][k],
        }),
    ]
}

fn classify_step(r: Result<(), &MapStepError>) -> Res {
    match r {
        Ok(()) => Res::Ok,
        Err(MapStepError::Map(MapError::PartialOverlap { .. })) => Res::Partial,
        Err(MapStepError::Map(MapError::NotPresent { .. })) => Res::NotPresent,
        Err(MapStepError::Map(MapError::HostRange { .. })) => Res::HostRange,
        Err(e) => panic!("unexpected error class: {e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Apply a random op sequence to the real table and the shadow:
    /// every outcome class matches, the live-entry sets match, the pool
    /// accounts exactly the mapped bytes, and releasing every remaining
    /// entry drains the pool to zero — no leak, ever.
    #[test]
    fn table_agrees_with_shadow_and_never_leaks(ops in prop::collection::vec(arb_op(), 1..80)) {
        let mut dev = device();
        let mut table = PresentTable::new();
        let mut pool = DevicePool::new();
        let mut shadow = Shadow::new();
        let mut hosts = vec![vec![0u8; BUF_LEN as usize]; BUFS];

        for op in &ops {
            match *op {
                OpSpec::Enter { buf, off, len, kind } => {
                    let spec = MapSpec::new(BufId(buf as u32), off, len, kind);
                    let got = table.enter(spec, &mut dev, &mut pool, &hosts[buf]);
                    let want = shadow.enter(buf, off, len);
                    prop_assert_eq!(classify_step(got.as_ref().map(|_| ())), want);
                }
                OpSpec::Exit { buf, off, len, kind } => {
                    let spec = MapSpec::new(BufId(buf as u32), off, len, kind);
                    let got = table.exit(spec, &mut dev, &mut pool, &mut hosts[buf]);
                    let want = shadow.exit(buf, off, len, kind == MapKind::Delete);
                    prop_assert_eq!(classify_step(got.as_ref().map(|_| ())), want);
                }
            }

            // Live-entry agreement after every step.
            let mut real: Vec<(u32, u64, u64, u32)> = table
                .entries()
                .iter()
                .map(|e| (e.buf.0, e.off, e.len, e.refs))
                .collect();
            real.sort_unstable();
            let mut model: Vec<(u32, u64, u64, u32)> = shadow
                .bufs
                .iter()
                .enumerate()
                .flat_map(|(b, v)| v.iter().map(move |&(o, l, r)| (b as u32, o, l, r)))
                .collect();
            model.sort_unstable();
            prop_assert_eq!(real, model);

            // Pool accounting: every live mapping holds at least its
            // aligned size (best-fit reuse may serve a larger block), and
            // nothing vanishes — every byte obtained from the device is
            // either in use or parked on the free list.
            prop_assert!(pool.in_use() >= shadow.mapped_bytes_aligned());
            prop_assert_eq!(pool.in_use() + pool.free_bytes(), pool.device_bytes);

            // Lookup agreement on a fixed probe grid.
            for buf in 0..BUFS {
                for off in (0..BUF_LEN).step_by(8) {
                    let real = table.lookup(BufId(buf as u32), off).is_ok();
                    let model = shadow.find(buf, off, 1).is_ok();
                    prop_assert_eq!(real, model, "lookup({}, {})", buf, off);
                }
            }
        }

        // Drain: release every remaining entry; the pool must hit zero.
        let leftovers: Vec<MapSpec> = table
            .entries()
            .iter()
            .map(|e| MapSpec::new(e.buf, e.off, e.len, MapKind::Delete))
            .collect();
        for spec in leftovers {
            let buf = spec.buf.0 as usize;
            table.exit(spec, &mut dev, &mut pool, &mut hosts[buf]).unwrap();
        }
        prop_assert_eq!(table.entries().len(), 0);
        prop_assert_eq!(pool.in_use(), 0, "pool leaked");
    }

    /// Refcounted nesting: after `k` nested enters of one range, the host
    /// copy-back happens exactly at the `k`-th exit, not before.
    #[test]
    fn from_copy_exactly_at_outermost_exit(k in 1u32..6) {
        let mut dev = device();
        let mut table = PresentTable::new();
        let mut pool = DevicePool::new();
        let mut host = vec![0u8; 32];
        let spec = MapSpec::whole(BufId(0), 32, MapKind::ToFrom);

        let ptr = table.enter(spec, &mut dev, &mut pool, &host).unwrap();
        for _ in 1..k {
            table.enter(spec, &mut dev, &mut pool, &host).unwrap();
        }
        dev.write_bytes(ptr, &[0x5a; 32]).unwrap();

        for i in 0..k {
            prop_assert!(host.iter().all(|&b| b == 0), "copied back before exit {}", i);
            table.exit(spec, &mut dev, &mut pool, &mut host).unwrap();
        }
        prop_assert!(host.iter().all(|&b| b == 0x5a), "outermost exit must copy back");
        prop_assert_eq!(pool.in_use(), 0);
        prop_assert_eq!(table.transfers_from, 1);
        prop_assert_eq!(table.transfers_to, 1);
    }
}
