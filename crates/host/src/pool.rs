//! Reusing device-memory pool allocator.
//!
//! [`nzomp_vgpu::Device::alloc`] only ever grows device global memory; a
//! host runtime that maps and unmaps buffers per target region would leak
//! the device arena without a pool on top. [`DevicePool`] keeps a free
//! list of released blocks and serves new mappings from it (deterministic
//! best-fit) before falling back to a fresh device allocation.
//!
//! The pool only decides: [`DevicePool::pick`] names the block and the
//! [`DevOp`] that hands it out, [`crate::Host`] runs that op through its
//! one door to the device, and [`DevicePool::take`] records the block once
//! the op landed — a faulted op leaves the pool as it was.
//!
//! Two properties matter for the bit-identity contract with the direct
//! `Device::alloc` path (see `docs/host-runtime.md`):
//!
//! * A fresh block is a `Device::alloc` of the same 8-byte-aligned size
//!   the direct path would ask for, so as long as mapping order matches
//!   allocation order, device addresses are identical.
//! * A **reused** block is zero-filled before it is handed out, because a
//!   fresh `Device::alloc` block is zero-filled by construction — a kernel
//!   that reads its scratch before writing it must see the same bytes on
//!   both paths.

use std::collections::HashMap;

use nzomp_vgpu::memory::{DevPtr, GLOBAL_SPACE_BYTES};
use nzomp_vgpu::{ExecError, TrapKind};

use crate::stream::DevOp;

/// A block of device memory: a released one on the free list, or the one
/// [`DevicePool::pick`] chose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    pub ptr: DevPtr,
    pub size: u64,
    /// Served from the free list rather than grown.
    pub reused: bool,
}

impl Block {
    /// What handing the block out does to device memory: a reused block is
    /// zero-filled, a fresh one is the bump allocation that returns `ptr`.
    pub fn op(self) -> DevOp {
        if self.reused {
            DevOp::Zero { ptr: self.ptr, len: self.size }
        } else {
            DevOp::Grow { size: self.size, at: self.ptr }
        }
    }
}

/// Pool allocator over one device's global memory.
#[derive(Default)]
pub struct DevicePool {
    /// Free blocks (every one `reused`), kept sorted by `(size, offset)`
    /// so the best-fit scan (first block large enough) is deterministic.
    free: Vec<Block>,
    /// Size of every block currently handed out, keyed by pointer bits.
    live: HashMap<u64, u64>,
    /// Total bytes obtained from `Device::alloc` over the pool's life.
    pub device_bytes: u64,
    /// Fresh `Device::alloc` calls.
    pub device_allocs: u64,
    /// Allocations served from the free list.
    pub reuse_hits: u64,
}

impl DevicePool {
    pub fn new() -> DevicePool {
        DevicePool::default()
    }

    /// The block an allocation of `size` bytes (rounded up to 8) gets on a
    /// device whose global memory is `dev_len` bytes long: the smallest
    /// free block large enough, else a fresh one at the next 8-byte
    /// boundary, where `Device::alloc` will put it. Changes nothing. A
    /// block that would end past the device's addressable space is
    /// [`TrapKind::OutOfMemory`]: sizes reach here from callers' claims,
    /// and a wrapped 32-bit offset would alias somebody else's block.
    pub fn pick(&self, size: u64, dev_len: u64) -> Result<Block, ExecError> {
        let aligned = size.max(1).div_ceil(8).saturating_mul(8);
        // Best fit: `free` is sorted by size, so the first block that fits
        // is the smallest adequate one.
        if let Some(b) = self.free.iter().find(|b| b.size >= aligned) {
            return Ok(Block { reused: true, ..*b });
        }
        let at = dev_len.next_multiple_of(8);
        if at.saturating_add(aligned) > GLOBAL_SPACE_BYTES {
            return Err(ExecError {
                kind: TrapKind::OutOfMemory,
                team: 0,
                thread: 0,
                func: "<host alloc>".into(),
            });
        }
        Ok(Block { ptr: DevPtr::global(at as u32), size: aligned, reused: false })
    }

    /// Hand out `block`, a [`DevicePool::pick`] whose op has landed.
    pub fn take(&mut self, block: Block) {
        if block.reused {
            self.free.retain(|b| b.ptr != block.ptr);
            self.reuse_hits += 1;
        } else {
            self.device_bytes += block.size;
            self.device_allocs += 1;
        }
        self.live.insert(block.ptr.0, block.size);
    }

    /// Return a block to the free list. Unknown pointers are ignored
    /// (freeing is driven by the present table, which only frees what it
    /// allocated; tolerating stray frees keeps this panic-free).
    pub fn free(&mut self, ptr: DevPtr) {
        let Some(size) = self.live.remove(&ptr.0) else {
            return;
        };
        let at = self
            .free
            .partition_point(|b| (b.size, b.ptr.offset()) < (size, ptr.offset()));
        self.free.insert(at, Block { ptr, size, reused: true });
    }

    /// Bytes currently handed out. Zero once every mapping has been
    /// released — the present-table property test's no-leak invariant.
    pub fn in_use(&self) -> u64 {
        self.live.values().sum()
    }

    /// Bytes parked on the free list, available for reuse.
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|b| b.size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pick and take a block, returning it and its op, with `dev_len`
    /// advanced as `Device::alloc` would for a fresh block.
    fn alloc(pool: &mut DevicePool, dev_len: &mut u64, size: u64) -> (DevPtr, DevOp) {
        let block = pool.pick(size, *dev_len).unwrap();
        if !block.reused {
            *dev_len = block.ptr.offset() + block.size;
        }
        pool.take(block);
        (block.ptr, block.op())
    }

    #[test]
    fn reuses_freed_blocks_best_fit() {
        let mut pool = DevicePool::new();
        let mut len = 0;
        let (a, grew) = alloc(&mut pool, &mut len, 64);
        assert!(matches!(grew, DevOp::Grow { size: 64, at } if at == a));
        let (b, _) = alloc(&mut pool, &mut len, 16);
        assert_eq!(pool.device_allocs, 2);
        pool.free(a);
        pool.free(b);
        assert_eq!(pool.in_use(), 0);
        // 16 bytes fits both; best fit picks the 16-byte block.
        let (c, zeroed) = alloc(&mut pool, &mut len, 16);
        assert_eq!(c, b);
        assert!(matches!(zeroed, DevOp::Zero { ptr, len: 16 } if ptr == b));
        // 40 bytes only fits the 64-byte block.
        let (e, _) = alloc(&mut pool, &mut len, 40);
        assert_eq!(e, a);
        assert_eq!(pool.reuse_hits, 2);
        assert_eq!(pool.device_allocs, 2, "no new device allocation");
        assert_eq!((pool.in_use(), pool.free_bytes()), (80, 0));
    }

    /// A reused block is handed out behind a zero-fill of the whole block
    /// (the bytes a fresh `Device::alloc` block would hold), and a fresh
    /// one behind the bump allocation at the next 8-byte boundary.
    #[test]
    fn reused_blocks_are_zeroed() {
        let mut pool = DevicePool::new();
        let mut len = 5;
        let (a, grew) = alloc(&mut pool, &mut len, 20);
        assert_eq!(a, DevPtr::global(8));
        assert!(matches!(grew, DevOp::Grow { size: 24, at } if at == a));
        pool.free(a);
        let (b, zeroed) = alloc(&mut pool, &mut len, 10);
        assert_eq!(b, a);
        assert!(matches!(zeroed, DevOp::Zero { ptr, len: 24 } if ptr == a), "{zeroed}");
    }

    /// Picking decides and changes nothing: a block whose op never landed
    /// is still free, and the next pick names it again.
    #[test]
    fn a_pick_not_taken_leaves_the_pool_as_it_was() {
        let mut pool = DevicePool::new();
        let mut len = 0;
        let (a, _) = alloc(&mut pool, &mut len, 32);
        pool.free(a);
        let first = pool.pick(32, len).unwrap();
        assert_eq!(pool.pick(32, len).unwrap(), first);
        assert_eq!((pool.in_use(), pool.free_bytes(), pool.reuse_hits), (0, 32, 0));
        let fresh = pool.pick(64, len).unwrap();
        assert_eq!(pool.pick(64, len).unwrap(), fresh);
        assert_eq!(pool.device_allocs, 1);
    }

    #[test]
    fn a_block_no_pointer_can_address_is_out_of_memory_and_allocates_nothing() {
        let mut pool = DevicePool::new();
        let mut len = 0;
        let (a, _) = alloc(&mut pool, &mut len, 64);
        for size in [GLOBAL_SPACE_BYTES, 1 << 33, u64::MAX - 100, u64::MAX] {
            let refused = pool.pick(size, len);
            assert!(matches!(&refused, Err(e) if e.kind == TrapKind::OutOfMemory), "{size}: {refused:?}");
        }
        assert_eq!((len, pool.device_allocs, pool.in_use()), (64, 1, 64));
        // The pool still works, right behind the block it held before.
        let (b, _) = alloc(&mut pool, &mut len, 8);
        assert_eq!(b.offset(), a.offset() + 64);
    }
}
