//! `nzomp-ir` — a miniature SSA intermediate representation.
//!
//! This crate is the substrate standing in for LLVM IR in the reproduction of
//! *"Co-Designing an OpenMP GPU Runtime and Optimizations for Near-Zero
//! Overhead Execution"* (IPDPS 2022). The paper's device runtime is shipped
//! as an IR library, linked into application kernels, and optimized together
//! with them; everything in `nzomp-opt` and `nzomp-vgpu` operates on the
//! types defined here.
//!
//! Design notes:
//! * SSA values are instruction results ([`InstId`]) or function parameters;
//!   [`Operand`] is a small copyable reference to either, or to a constant.
//! * Pointers are address-space tagged **at runtime** (see `nzomp-vgpu`);
//!   statically there is a single [`Ty::Ptr`] type. Globals carry their
//!   [`Space`], which is what the field-sensitive access analysis needs.
//! * Blocks always have a terminator; the builder installs
//!   [`Term::Unreachable`] until one is set, so no `Option` noise.
//!
//! Library code must not abort on malformed input: `unwrap`/`expect` are
//! denied crate-wide (tests are exempt).

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod builder;
pub mod func;
pub mod global;
pub mod inst;
pub mod link;
pub mod module;
pub mod ops;
pub mod parser;
pub mod printer;
pub mod types;
pub mod value;
pub mod verify;

pub use builder::FuncBuilder;
pub use func::{Block, BlockId, FnAttrs, Function, Linkage};
pub use global::{Global, GlobalId, Init};
pub use inst::{AtomicOp, BinOp, CastKind, Inst, InstId, Intrinsic, Pred, Term, UnOp};
pub use module::{ExecMode, Kernel, LaunchDims, Module};
pub use ops::OpClass;
pub use parser::{parse_module, parse_module_strict, ParseError};
pub use printer::{fmt_f64, print_function, print_module, FORMAT_VERSION};
pub use types::{Space, Ty};
pub use value::Operand;
pub use verify::{verify_domains, verify_function, verify_module, VerifyError};
