//! Pointer encoding and memory segments.
//!
//! Device pointers are 64-bit values with a segment tag in the top byte:
//!
//! ```text
//! [63..56] tag   [55..32] owner (local: thread index; else 0)   [31..0] offset
//! ```
//!
//! `Local` pointers carry their owning thread: dereferencing another
//! thread's local pointer traps — this is precisely the hazard the OpenMP
//! frontend's *globalization* (paper §IV-A2) exists to avoid, so the trap
//! gives us a hard correctness check that de-globalization is only applied
//! when legal.

use crate::error::TrapKind;

/// Memory segment of a device pointer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Segment {
    Null,
    Global,
    Shared,
    Local,
    Constant,
    /// Encoded function pointer (offset = function index).
    Func,
}

const TAG_NULL: u64 = 0;
const TAG_GLOBAL: u64 = 1;
const TAG_SHARED: u64 = 2;
const TAG_LOCAL: u64 = 3;
const TAG_CONST: u64 = 4;
const TAG_FUNC: u64 = 5;

/// Bytes of global memory a device can address: pointer offsets are 32 bits.
/// A constant of the encoding, not a setting — an allocation that would end
/// past it has no pointer, so hosts refuse it (`OutOfMemory`) up front.
pub const GLOBAL_SPACE_BYTES: u64 = 1 << 32;

/// Bytes of local stack one thread may reserve with `alloca`, also a
/// constant of the device: past it an `alloca` traps `OutOfMemory`. The
/// deepest stack any proxy, corpus kernel, generated module or benchmark
/// workload reaches is 248 bytes; the bound is below the 32-bit pointer
/// offset, so no reservation wraps onto another, and holds a team of
/// `MAX_THREADS_PER_SM` threads to 128 MiB of local memory.
pub const LOCAL_STACK_BYTES: u64 = 1 << 16;

/// An encoded device pointer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DevPtr(pub u64);

impl DevPtr {
    pub const NULL: DevPtr = DevPtr(0);

    pub const fn new(seg: Segment, owner: u32, offset: u32) -> DevPtr {
        let tag = match seg {
            Segment::Null => TAG_NULL,
            Segment::Global => TAG_GLOBAL,
            Segment::Shared => TAG_SHARED,
            Segment::Local => TAG_LOCAL,
            Segment::Constant => TAG_CONST,
            Segment::Func => TAG_FUNC,
        };
        DevPtr((tag << 56) | ((owner as u64 & 0xff_ffff) << 32) | offset as u64)
    }

    pub const fn global(offset: u32) -> DevPtr {
        DevPtr::new(Segment::Global, 0, offset)
    }

    pub const fn shared(offset: u32) -> DevPtr {
        DevPtr::new(Segment::Shared, 0, offset)
    }

    pub const fn local(owner_thread: u32, offset: u32) -> DevPtr {
        DevPtr::new(Segment::Local, owner_thread, offset)
    }

    pub const fn constant(offset: u32) -> DevPtr {
        DevPtr::new(Segment::Constant, 0, offset)
    }

    pub const fn func(index: u32) -> DevPtr {
        DevPtr::new(Segment::Func, 0, index)
    }

    #[inline]
    pub fn segment(self) -> Segment {
        match self.0 >> 56 {
            TAG_NULL => Segment::Null,
            TAG_GLOBAL => Segment::Global,
            TAG_SHARED => Segment::Shared,
            TAG_LOCAL => Segment::Local,
            TAG_CONST => Segment::Constant,
            TAG_FUNC => Segment::Func,
            _ => Segment::Null,
        }
    }

    #[inline]
    pub fn offset(self) -> u64 {
        self.0 & 0xffff_ffff
    }

    #[inline]
    pub fn owner(self) -> u32 {
        ((self.0 >> 32) & 0xff_ffff) as u32
    }

    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Pointer arithmetic preserves tag and owner. Negative offsets wrap
    /// within the 32-bit offset field (out-of-bounds is caught on access).
    #[inline]
    pub fn add_bytes(self, delta: i64) -> DevPtr {
        let off = (self.offset() as i64).wrapping_add(delta) as u64 & 0xffff_ffff;
        DevPtr((self.0 & !0xffff_ffffu64) | off)
    }
}

/// A flat byte-addressable memory region with bounds checking.
#[derive(Clone, Debug, Default)]
pub struct Region {
    pub bytes: Vec<u8>,
}

impl Region {
    pub fn with_size(size: usize) -> Region {
        Region {
            bytes: vec![0; size],
        }
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    pub fn grow_to(&mut self, size: usize) {
        if self.bytes.len() < size {
            self.bytes.resize(size, 0);
        }
    }

    /// A value is at most 8 bytes wide; a wider access is out of bounds
    /// like one past the end (both views of global memory say so). The
    /// width is tested first and on its own: folded into the range test
    /// (`end > len || size > 8`) it cost `serve_heavy` 2.5 %.
    pub fn read(&self, off: u64, size: u64) -> Result<i64, TrapKind> {
        if size > 8 {
            return Err(TrapKind::OutOfBounds);
        }
        let end = off.checked_add(size).ok_or(TrapKind::OutOfBounds)?;
        if end as usize > self.bytes.len() {
            return Err(TrapKind::OutOfBounds);
        }
        Ok(load_le(&self.bytes[off as usize..end as usize]))
    }

    pub fn write(&mut self, off: u64, size: u64, value: i64) -> Result<(), TrapKind> {
        if size > 8 {
            return Err(TrapKind::OutOfBounds);
        }
        let end = off.checked_add(size).ok_or(TrapKind::OutOfBounds)?;
        if end as usize > self.bytes.len() {
            return Err(TrapKind::OutOfBounds);
        }
        store_le(&mut self.bytes[off as usize..end as usize], value);
        Ok(())
    }
}

/// The little-endian value of `bytes` (at most 8 of them), zero-extended.
/// The widths values have — 1, 4 and 8 bytes — are each one fixed-width
/// load: a [`Region`] and the buffered view's single-chunk path read
/// through here, so none of their accesses calls a copy whose length is
/// known only at run time.
#[inline(always)]
pub(crate) fn load_le(bytes: &[u8]) -> i64 {
    match *bytes {
        [b] => i64::from(b),
        [b0, b1, b2, b3] => i64::from(u32::from_le_bytes([b0, b1, b2, b3])),
        [b0, b1, b2, b3, b4, b5, b6, b7] => i64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]),
        _ => bytes.iter().rev().fold(0, |v, &b| v << 8 | i64::from(b)),
    }
}

/// Store the low `bytes.len()` (at most 8) bytes of `value` little-endian
/// into `bytes`: [`load_le`]'s inverse, one fixed-width store for 1, 4
/// and 8 bytes.
#[inline(always)]
pub(crate) fn store_le(bytes: &mut [u8], value: i64) {
    let le = value.to_le_bytes();
    match bytes {
        [b] => *b = le[0],
        [_, _, _, _] => bytes.copy_from_slice(&le[..4]),
        [_, _, _, _, _, _, _, _] => bytes.copy_from_slice(&le),
        _ => bytes.iter_mut().zip(le).for_each(|(d, s)| *d = s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ptr_roundtrip() {
        let p = DevPtr::new(Segment::Local, 17, 4096);
        assert_eq!(p.segment(), Segment::Local);
        assert_eq!(p.owner(), 17);
        assert_eq!(p.offset(), 4096);
    }

    #[test]
    fn ptr_arithmetic_keeps_tag() {
        let p = DevPtr::shared(100);
        let q = p.add_bytes(-42);
        assert_eq!(q.segment(), Segment::Shared);
        assert_eq!(q.offset(), 58);
    }

    #[test]
    fn region_bounds() {
        let mut r = Region::with_size(8);
        assert!(r.write(0, 8, -1).is_ok());
        assert_eq!(r.read(0, 8).unwrap(), -1);
        assert_eq!(r.read(4, 4).unwrap(), 0xffff_ffff);
        assert!(r.read(5, 8).is_err());
        assert!(r.write(8, 1, 0).is_err());
    }

    /// The fixed-width helpers equal a byte-by-byte little-endian
    /// reference at every width a value can have and at every offset of a
    /// 24-byte region, for loads and for stores (which touch nothing
    /// outside their range).
    #[test]
    fn fixed_width_moves_equal_the_bytewise_reference() {
        let image: Vec<u8> = (0..24u8).map(|i| i.wrapping_mul(37) ^ 0xa5).collect();
        let value = 0x8877_6655_4433_2211_u64 as i64;
        for size in 0..=8usize {
            for off in 0..=24 - size {
                let range = off..off + size;
                let want = image[range.clone()]
                    .iter()
                    .enumerate()
                    .fold(0u64, |v, (i, &b)| v | u64::from(b) << (8 * i));
                assert_eq!(load_le(&image[range.clone()]) as u64, want, "load of {size} at {off}");

                let mut got = image.clone();
                store_le(&mut got[range.clone()], value);
                let mut want = image.clone();
                for (i, b) in want[range.clone()].iter_mut().enumerate() {
                    *b = (value as u64 >> (8 * i)) as u8;
                }
                assert_eq!(got, want, "store of {size} at {off}");
            }
        }
    }

    #[test]
    fn null_is_null() {
        assert!(DevPtr::NULL.is_null());
        assert_eq!(DevPtr::NULL.segment(), Segment::Null);
    }
}
