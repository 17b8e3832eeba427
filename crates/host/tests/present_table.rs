//! Property tests of the present table against a naive shadow model:
//! random nested map/unmap sequences never leak pool memory, refcounts
//! hit zero exactly at the outermost exit, and every lookup agrees with
//! the shadow. Table and pool only decide; the test performs what they
//! describe on a device, in the order `nzomp_host::Host` does.
//! No device launches: the run axes do not apply.

// The other three suites use every fixture; this one needs only `quick`.
#[allow(dead_code)]
mod common;

use common::quick;
use nzomp_host::error::MapError;
use nzomp_host::map::{BufId, MapKind, MapSpec, PresentTable};
use nzomp_host::stream::DevOp;
use nzomp_host::{DevicePool, Key};
use nzomp_ir::Module;
use nzomp_vgpu::{DevPtr, Device};
use proptest::prelude::*;

const BUFS: usize = 3;
const BUF_LEN: u64 = 96;

/// Host buffer `i` of the test's `BUFS`.
fn buf_id(i: usize) -> BufId {
    BufId(Key { slot: i as u32, gen: 0 })
}

fn device() -> Device {
    Device::load(Module::new("present_prop"), quick())
}

/// One device with the pool and present table over it.
struct Mapped {
    dev: Device,
    table: PresentTable,
    pool: DevicePool,
}

impl Mapped {
    fn new() -> Mapped {
        Mapped { dev: device(), table: PresentTable::new(), pool: DevicePool::new() }
    }

    /// Enter `spec`: count a present range, else pick a block, run its op
    /// (the grow or the reused block's zero-fill), hand the block out and
    /// upload a fresh `to`/`tofrom` range. Returns the device address.
    fn enter(&mut self, spec: MapSpec, host: &[u8]) -> Result<DevPtr, MapError> {
        if let Some(ptr) = self.table.enter_present(spec, host.len() as u64)? {
            return Ok(ptr);
        }
        let block = self.pool.pick(spec.len, self.dev.global_bytes().len() as u64).unwrap();
        match block.op() {
            DevOp::Grow { size, at } => assert_eq!(self.dev.alloc(size), at, "the pool names the grown block"),
            DevOp::Zero { ptr, len } => self.dev.zero_bytes(ptr, len as usize).unwrap(),
            op => panic!("a pool block is handed out by {op}"),
        }
        self.pool.take(block);
        if self.table.insert(spec, block.ptr) {
            let bytes = &host[spec.off as usize..(spec.off + spec.len) as usize];
            self.dev.write_bytes(block.ptr, bytes).unwrap();
        }
        Ok(block.ptr)
    }

    /// Exit `spec`: the copy-back the table describes, then the free.
    fn exit(&mut self, spec: MapSpec, host: &mut [u8]) -> Result<(), MapError> {
        let action = self.table.prepare_exit(spec)?;
        if let Some((dev_ptr, host_off, len)) = action.copy {
            let dst = &mut host[host_off as usize..(host_off + len) as usize];
            self.dev.read_into(dev_ptr, dst).unwrap();
        }
        if let Some(ptr) = action.free {
            self.pool.free(ptr);
        }
        Ok(())
    }
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

fn classify_step(r: Result<(), &MapError>) -> Res {
    match r {
        Ok(()) => Res::Ok,
        Err(MapError::PartialOverlap { .. }) => Res::Partial,
        Err(MapError::NotPresent { .. }) => Res::NotPresent,
        Err(MapError::HostRange { .. }) => Res::HostRange,
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
        let mut m = Mapped::new();
        let mut shadow = Shadow::new();
        let mut hosts = vec![vec![0u8; BUF_LEN as usize]; BUFS];

        for op in &ops {
            match *op {
                OpSpec::Enter { buf, off, len, kind } => {
                    let spec = MapSpec::new(buf_id(buf), off, len, kind);
                    let got = m.enter(spec, &hosts[buf]);
                    let want = shadow.enter(buf, off, len);
                    prop_assert_eq!(classify_step(got.as_ref().map(|_| ())), want);
                }
                OpSpec::Exit { buf, off, len, kind } => {
                    let spec = MapSpec::new(buf_id(buf), off, len, kind);
                    let got = m.exit(spec, &mut hosts[buf]);
                    let want = shadow.exit(buf, off, len, kind == MapKind::Delete);
                    prop_assert_eq!(classify_step(got.as_ref().map(|_| ())), want);
                }
            }

            // Live-entry agreement after every step.
            let mut real: Vec<(u32, u64, u64, u32)> = m
                .table
                .entries()
                .iter()
                .map(|e| (e.buf.0.slot, e.off, e.len, e.refs))
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
            prop_assert!(m.pool.in_use() >= shadow.mapped_bytes_aligned());
            prop_assert_eq!(m.pool.in_use() + m.pool.free_bytes(), m.pool.device_bytes);
            prop_assert_eq!(m.pool.device_bytes, m.dev.global_bytes().len() as u64);

            // Lookup agreement on a fixed probe grid.
            for buf in 0..BUFS {
                for off in (0..BUF_LEN).step_by(8) {
                    let real = m.table.lookup(buf_id(buf), off).is_ok();
                    let model = shadow.find(buf, off, 1).is_ok();
                    prop_assert_eq!(real, model, "lookup({}, {})", buf, off);
                }
            }
        }

        // Drain: release every remaining entry; the pool must hit zero.
        let leftovers: Vec<MapSpec> = m
            .table
            .entries()
            .iter()
            .map(|e| MapSpec::new(e.buf, e.off, e.len, MapKind::Delete))
            .collect();
        for spec in leftovers {
            let buf = spec.buf.0.slot as usize;
            m.exit(spec, &mut hosts[buf]).unwrap();
        }
        prop_assert_eq!(m.table.entries().len(), 0);
        prop_assert_eq!(m.pool.in_use(), 0, "pool leaked");
    }

    /// Refcounted nesting: after `k` nested enters of one range, the host
    /// copy-back happens exactly at the `k`-th exit, not before.
    #[test]
    fn from_copy_exactly_at_outermost_exit(k in 1u32..6) {
        let mut m = Mapped::new();
        let mut host = vec![0u8; 32];
        let spec = MapSpec::whole(buf_id(0), 32, MapKind::ToFrom);

        let ptr = m.enter(spec, &host).unwrap();
        for _ in 1..k {
            prop_assert_eq!(m.enter(spec, &host).unwrap(), ptr);
        }
        m.dev.write_bytes(ptr, &[0x5a; 32]).unwrap();

        for i in 0..k {
            prop_assert!(host.iter().all(|&b| b == 0), "copied back before exit {}", i);
            m.exit(spec, &mut host).unwrap();
        }
        prop_assert!(host.iter().all(|&b| b == 0x5a), "outermost exit must copy back");
        prop_assert_eq!(m.pool.in_use(), 0);
        prop_assert_eq!(m.table.transfers_from, 1);
        prop_assert_eq!(m.table.transfers_to, 1);
    }
}

/// A block the pool hands out again reads as a fresh `Device::alloc`
/// block does: zero, whatever its last mapping left there.
#[test]
fn a_reused_block_reads_as_zeros() {
    let mut m = Mapped::new();
    let mut host = vec![0u8; 32];
    let scratch = MapSpec::whole(buf_id(0), 32, MapKind::Alloc);
    let a = m.enter(scratch, &host).unwrap();
    m.dev.write_bytes(a, &[0xab; 32]).unwrap();
    m.exit(MapSpec { kind: MapKind::Release, ..scratch }, &mut host).unwrap();
    let b = m.enter(MapSpec::whole(buf_id(1), 32, MapKind::Alloc), &host).unwrap();
    assert_eq!(b, a, "the freed block is reused");
    assert_eq!(m.dev.read_bytes(b, 32).unwrap(), vec![0u8; 32]);
    assert_eq!((m.pool.device_allocs, m.pool.reuse_hits), (1, 1));
}
