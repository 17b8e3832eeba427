//! Property tests on the memory substrate: pointer encoding, region
//! round-trips, and store/load width interactions.

use nzomp_vgpu::memory::{DevPtr, Region, Segment};
use nzomp_vgpu::TrapKind;
use proptest::prelude::*;

fn arb_segment() -> impl Strategy<Value = Segment> {
    prop_oneof![
        Just(Segment::Global),
        Just(Segment::Shared),
        Just(Segment::Local),
        Just(Segment::Constant),
        Just(Segment::Func),
    ]
}

proptest! {
    /// Pointer encode/decode round-trips for every field combination.
    #[test]
    fn ptr_roundtrip(seg in arb_segment(), owner in 0u32..0xff_ffff, off in 0u32..u32::MAX) {
        let p = DevPtr::new(seg, owner, off);
        prop_assert_eq!(p.segment(), seg);
        prop_assert_eq!(p.owner(), owner);
        prop_assert_eq!(p.offset(), off as u64);
        prop_assert!(!p.is_null() || (off == 0 && matches!(seg, Segment::Null)));
    }

    /// Pointer arithmetic preserves segment and owner, and add/sub cancel.
    #[test]
    fn ptr_add_cancels(seg in arb_segment(), owner in 0u32..0xff_ffff,
                       off in 0u32..i32::MAX as u32, delta in -1_000_000i64..1_000_000) {
        let p = DevPtr::new(seg, owner, off);
        let q = p.add_bytes(delta).add_bytes(-delta);
        prop_assert_eq!(p, q);
        let r = p.add_bytes(delta);
        prop_assert_eq!(r.segment(), seg);
        prop_assert_eq!(r.owner(), owner);
    }

    /// Region write-then-read returns the written value for any aligned or
    /// unaligned in-bounds access of any width a register holds; anything
    /// else — out of bounds, or wider than 8 bytes — is `OutOfBounds` from
    /// both, as the buffered view of global memory answers it.
    #[test]
    fn region_roundtrip(size in 1usize..256, off in 0u64..256, width in 0u64..=16, value: i64) {
        let mut r = Region::with_size(size);
        if width <= 8 && off + width <= size as u64 {
            r.write(off, width, value).unwrap();
            let got = r.read(off, width).unwrap();
            let mask = if width == 8 { -1i64 } else { (1i64 << (width*8)) - 1 };
            prop_assert_eq!(got, value & mask);
        } else {
            let before = r.bytes.clone();
            prop_assert_eq!(r.write(off, width, value), Err(TrapKind::OutOfBounds));
            prop_assert_eq!(r.read(off, width), Err(TrapKind::OutOfBounds));
            prop_assert_eq!(&r.bytes, &before);
        }
    }

    /// Disjoint writes never interfere.
    #[test]
    fn region_disjoint_writes(a: i64, b: i64) {
        let mut r = Region::with_size(32);
        r.write(0, 8, a).unwrap();
        r.write(16, 8, b).unwrap();
        prop_assert_eq!(r.read(0, 8).unwrap(), a);
        prop_assert_eq!(r.read(16, 8).unwrap(), b);
        prop_assert_eq!(r.read(8, 8).unwrap(), 0);
    }

    /// Overlapping narrow writes merge little-endian.
    #[test]
    fn region_narrow_overlays(full: i64, byte in 0u8..=255) {
        let mut r = Region::with_size(8);
        r.write(0, 8, full).unwrap();
        r.write(3, 1, byte as i64).unwrap();
        let got = r.read(0, 8).unwrap() as u64;
        let mut expect = (full as u64).to_le_bytes();
        expect[3] = byte;
        prop_assert_eq!(got, u64::from_le_bytes(expect));
    }
}
