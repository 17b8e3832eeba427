//! Reusing device-memory pool allocator.
//!
//! [`nzomp_vgpu::Device::alloc`] only ever grows device global memory; a
//! host runtime that maps and unmaps buffers per target region would leak
//! the device arena without a pool on top. [`DevicePool`] keeps a free
//! list of released blocks and serves new mappings from it (deterministic
//! best-fit) before falling back to a fresh device allocation.
//!
//! Two properties matter for the bit-identity contract with the direct
//! `Device::alloc` path (see `docs/host-runtime.md`):
//!
//! * A fresh allocation calls `Device::alloc` with the same 8-byte-aligned
//!   size the direct path would, so as long as mapping order matches
//!   allocation order, device addresses are identical.
//! * A **reused** block is zero-filled before it is handed out, because a
//!   fresh `Device::alloc` block is zero-filled by construction — a kernel
//!   that reads its scratch before writing it must see the same bytes on
//!   both paths.

use std::collections::HashMap;

use nzomp_vgpu::memory::{DevPtr, GLOBAL_SPACE_BYTES};
use nzomp_vgpu::{Device, ExecError, TrapKind};

use crate::stream::DevOp;

/// A released block available for reuse.
#[derive(Clone, Copy, Debug)]
struct FreeBlock {
    ptr: DevPtr,
    size: u64,
}

/// Pool allocator over one device's global memory.
#[derive(Default)]
pub struct DevicePool {
    /// Free blocks, kept sorted by `(size, offset)` so the best-fit scan
    /// (first block large enough) is deterministic.
    free: Vec<FreeBlock>,
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

    /// Allocate `size` bytes (rounded up to 8) on `dev`, reusing a free
    /// block when one is large enough. Returns the block and what getting
    /// it did to device memory — the [`DevOp`] that reproduces it. A block
    /// that would end past the device's addressable space is
    /// [`TrapKind::OutOfMemory`] with nothing allocated: sizes reach here
    /// from callers' claims, and a wrapped 32-bit offset would alias
    /// somebody else's block.
    pub fn alloc(&mut self, dev: &mut Device, size: u64) -> Result<(DevPtr, DevOp), ExecError> {
        let aligned = size.max(1).div_ceil(8).saturating_mul(8);
        // Best fit: `free` is sorted by size, so the first block that fits
        // is the smallest adequate one.
        if let Some(i) = self.free.iter().position(|b| b.size >= aligned) {
            let block = self.free[i];
            // Reused memory must look like fresh memory (zero-filled).
            // The block leaves the free list only once the write landed:
            // a faulted zero-fill must not leak it.
            dev.zero_bytes(block.ptr, block.size as usize)?;
            self.free.remove(i);
            self.live.insert(block.ptr.0, block.size);
            self.reuse_hits += 1;
            return Ok((block.ptr, DevOp::Zero { ptr: block.ptr, len: block.size }));
        }
        let end = (dev.global_bytes().len() as u64).next_multiple_of(8).saturating_add(aligned);
        if end > GLOBAL_SPACE_BYTES {
            return Err(ExecError {
                kind: TrapKind::OutOfMemory,
                team: 0,
                thread: 0,
                func: "<host alloc>".into(),
            });
        }
        let ptr = dev.alloc(aligned);
        self.device_bytes += aligned;
        self.device_allocs += 1;
        self.live.insert(ptr.0, aligned);
        Ok((ptr, DevOp::Grow { size: aligned, at: ptr }))
    }

    /// Return a block to the free list. Unknown pointers are ignored
    /// (freeing is driven by the present table, which only frees what it
    /// allocated; tolerating stray frees keeps this panic-free).
    pub fn free(&mut self, ptr: DevPtr) {
        let Some(size) = self.live.remove(&ptr.0) else {
            return;
        };
        let block = FreeBlock { ptr, size };
        let at = self
            .free
            .partition_point(|b| (b.size, b.ptr.offset()) < (size, ptr.offset()));
        self.free.insert(at, block);
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
    use nzomp_ir::Module;
    use nzomp_vgpu::DeviceConfig;

    fn dev() -> Device {
        Device::load(Module::new("pool_test"), DeviceConfig::default())
    }

    #[test]
    fn reuses_freed_blocks_best_fit() {
        let mut d = dev();
        let mut pool = DevicePool::new();
        let (a, grew) = pool.alloc(&mut d, 64).unwrap();
        assert!(matches!(grew, DevOp::Grow { size: 64, at } if at == a));
        let (b, _) = pool.alloc(&mut d, 16).unwrap();
        assert_eq!(pool.device_allocs, 2);
        pool.free(a);
        pool.free(b);
        assert_eq!(pool.in_use(), 0);
        // 16 bytes fits both; best fit picks the 16-byte block.
        let (c, zeroed) = pool.alloc(&mut d, 16).unwrap();
        assert_eq!(c, b);
        assert!(matches!(zeroed, DevOp::Zero { ptr, len: 16 } if ptr == b));
        // 40 bytes only fits the 64-byte block.
        let (e, _) = pool.alloc(&mut d, 40).unwrap();
        assert_eq!(e, a);
        assert_eq!(pool.reuse_hits, 2);
        assert_eq!(pool.device_allocs, 2, "no new device allocation");
    }

    #[test]
    fn a_block_no_pointer_can_address_is_out_of_memory_and_allocates_nothing() {
        let mut d = dev();
        let mut pool = DevicePool::new();
        let (a, _) = pool.alloc(&mut d, 64).unwrap();
        let before = d.global_bytes().len();
        for size in [GLOBAL_SPACE_BYTES, 1 << 33, u64::MAX - 100, u64::MAX] {
            let refused = pool.alloc(&mut d, size).map(|(p, _)| p);
            assert!(matches!(&refused, Err(e) if e.kind == TrapKind::OutOfMemory), "{size}: {refused:?}");
        }
        assert_eq!((d.global_bytes().len(), pool.device_allocs, pool.in_use()), (before, 1, 64));
        // The pool still works, right behind the block it held before.
        let (b, _) = pool.alloc(&mut d, 8).unwrap();
        assert_eq!(b.offset(), a.offset() + 64);
    }

    #[test]
    fn reused_blocks_are_zeroed() {
        let mut d = dev();
        let mut pool = DevicePool::new();
        let (a, _) = pool.alloc(&mut d, 32).unwrap();
        d.write_bytes(a, &[0xab; 32]).unwrap();
        pool.free(a);
        let (b, _) = pool.alloc(&mut d, 32).unwrap();
        assert_eq!(b, a);
        assert_eq!(d.read_bytes(b, 32).unwrap(), vec![0u8; 32]);
    }
}
