//! Tagged runtime values.

use crate::memory::DevPtr;

/// A dynamically typed value: what a launch argument is, and what the
/// interpreter — the tagged oracle — computes with, converting at a use
/// whose domain differs from the tag. The bytecode tier keeps only the
/// bits (`to_bits`) and converts at no use; it runs only modules whose
/// uses the verifier's value-domain rule shows never differ. A tag decides nothing
/// else: `I` and `P` are the same bits to every reader, the sanitizer's
/// release hook included. Integers of all widths
/// are carried as `i64` (the IR performs arithmetic in 64-bit two's
/// complement); memory access width comes from the instruction type.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RtVal {
    I(i64),
    F(f64),
    P(DevPtr),
}

impl RtVal {
    #[inline]
    pub fn as_i(self) -> i64 {
        match self {
            RtVal::I(v) => v,
            RtVal::P(p) => p.0 as i64,
            RtVal::F(v) => v as i64,
        }
    }

    #[inline]
    pub fn as_f(self) -> f64 {
        match self {
            RtVal::F(v) => v,
            RtVal::I(v) => v as f64,
            RtVal::P(p) => p.0 as f64,
        }
    }

    #[inline]
    pub fn as_ptr(self) -> DevPtr {
        match self {
            RtVal::P(p) => p,
            RtVal::I(v) => DevPtr(v as u64),
            RtVal::F(_) => DevPtr::NULL,
        }
    }

    #[inline]
    pub fn as_bool(self) -> bool {
        self.as_i() != 0
    }

    /// Bit pattern for storing to memory.
    #[inline]
    pub fn to_bits(self) -> i64 {
        match self {
            RtVal::I(v) => v,
            RtVal::F(v) => v.to_bits() as i64,
            RtVal::P(p) => p.0 as i64,
        }
    }
}

impl From<i64> for RtVal {
    fn from(v: i64) -> Self {
        RtVal::I(v)
    }
}

impl From<f64> for RtVal {
    fn from(v: f64) -> Self {
        RtVal::F(v)
    }
}

impl From<DevPtr> for RtVal {
    fn from(p: DevPtr) -> Self {
        RtVal::P(p)
    }
}

impl From<bool> for RtVal {
    fn from(v: bool) -> Self {
        RtVal::I(v as i64)
    }
}
