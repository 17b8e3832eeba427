//! Scalar types and memory address spaces.

use std::fmt;

/// Scalar value types. Aggregates are expressed as byte offsets off a base
/// pointer (like LLVM after SROA/GEP lowering), so the type system stays
/// flat. Integer arithmetic is performed in 64-bit two's complement; the
/// narrower integer types only matter for memory access width and for
/// explicit casts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 1-bit boolean (stored as one byte).
    I1,
    /// 8-bit integer.
    I8,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// IEEE-754 double.
    F64,
    /// Pointer (8 bytes; address-space tag lives in the value at runtime).
    Ptr,
}

impl Ty {
    /// Width in bytes when stored to memory.
    #[inline]
    pub fn size(self) -> u64 {
        match self {
            Ty::I1 | Ty::I8 => 1,
            Ty::I32 => 4,
            Ty::I64 | Ty::F64 | Ty::Ptr => 8,
        }
    }

    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, Ty::F64)
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::I1 => "i1",
            Ty::I8 => "i8",
            Ty::I32 => "i32",
            Ty::I64 => "i64",
            Ty::F64 => "f64",
            Ty::Ptr => "ptr",
        };
        f.write_str(s)
    }
}

/// GPU memory spaces (ref. paper Fig. 2). The space determines both access
/// cost in the virtual GPU and visibility: `Local` memory belongs to a
/// single thread — other threads dereferencing it trap, which is exactly why
/// the OpenMP frontend performs *globalization* of shared locals (§IV-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Space {
    /// Device global memory: visible to all threads of all teams.
    Global,
    /// Per-team shared memory (CUDA `__shared__`): visible within the team.
    Shared,
    /// Per-thread private memory (registers/stack spills).
    Local,
    /// Read-only constant memory, set before launch.
    Constant,
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Space::Global => "global",
            Space::Shared => "shared",
            Space::Local => "local",
            Space::Constant => "constant",
        };
        f.write_str(s)
    }
}
