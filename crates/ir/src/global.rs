//! Module-level global variables.

use crate::func::Linkage;
use crate::types::Space;

/// Dense index of a global within its module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

impl GlobalId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Static initializer of a global.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Init {
    /// All-zero bytes. The field-sensitive access analysis exploits this for
    /// the "loads from a zero-initialized region fold to zero" deduction
    /// (paper §IV-B1, thread-states array).
    Zero,
    /// Explicit byte image.
    Bytes(Vec<u8>),
    /// Convenience: a single little-endian i64 (e.g. the compile-time
    /// configuration globals the oversubscription flags lower to, §III-F).
    I64(i64),
}

impl Init {
    pub fn byte_at(&self, off: u64) -> u8 {
        match self {
            Init::Zero => 0,
            Init::Bytes(b) => b.get(off as usize).copied().unwrap_or(0),
            Init::I64(v) => {
                if off < 8 {
                    v.to_le_bytes()[off as usize]
                } else {
                    0
                }
            }
        }
    }

    /// Write the initializer's image over `dst` (the global's storage):
    /// [`Init::byte_at`] for every offset of `dst`, as slice copies.
    pub fn fill(&self, dst: &mut [u8]) {
        let image: &[u8] = match self {
            Init::Zero => &[],
            Init::Bytes(b) => b,
            Init::I64(v) => &v.to_le_bytes(),
        };
        let n = image.len().min(dst.len());
        let (head, tail) = dst.split_at_mut(n);
        head.copy_from_slice(&image[..n]);
        tail.fill(0);
    }

    /// Read `size` (1/4/8) little-endian bytes at `off` as a sign-free int.
    pub fn read_int(&self, off: u64, size: u64) -> i64 {
        let mut bytes = [0u8; 8];
        for i in 0..size {
            bytes[i as usize] = self.byte_at(off + i);
        }
        i64::from_le_bytes(bytes)
    }
}

/// A global variable. Shared-space globals are the runtime state the
/// paper's optimizations try to eliminate — their total retained size is
/// the "SMem" column of Fig. 11.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Global {
    pub name: String,
    pub space: Space,
    pub size: u64,
    pub init: Init,
    /// Immutable after launch. Constant globals participate in load folding
    /// (this is how the compile-time flag globals of §III-F/§III-G work).
    pub constant: bool,
    pub linkage: Linkage,
}

impl Global {
    pub fn new(name: impl Into<String>, space: Space, size: u64, init: Init) -> Global {
        Global {
            name: name.into(),
            space,
            size,
            init,
            constant: false,
            linkage: Linkage::Internal,
        }
    }

    pub fn constant(name: impl Into<String>, space: Space, size: u64, init: Init) -> Global {
        Global {
            constant: true,
            ..Global::new(name, space, size, init)
        }
    }
}
