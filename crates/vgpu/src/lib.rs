//! `nzomp-vgpu` — a deterministic virtual GPU.
//!
//! Stands in for the NVIDIA A100 of the paper's evaluation. The device
//! executes `nzomp-ir` modules with the OpenMP-on-GPU execution model of
//! paper §II-C: a grid of *teams*, each team a set of hardware threads with
//! team-private shared memory, thread-private local memory, and device-wide
//! global/constant memory.
//!
//! Two properties make it a usable evaluation substrate:
//!
//! 1. **Deterministic scheduling** — threads within a team run to the next
//!    synchronization point in thread-id order; barriers release when every
//!    live thread arrives. Kernel results and cycle counts are exactly
//!    reproducible.
//! 2. **A cost model that prices what the paper optimizes** — runtime
//!    calls, memory traffic by address space, barriers (aligned or not),
//!    device-side malloc, and an occupancy model driven by register and
//!    shared-memory consumption. Removing runtime state therefore moves
//!    kernel time / #regs / SMem the same way the A100 numbers move in
//!    Fig. 10–13.
//!
//! The crate is panic-free by policy: malformed IR is refused at launch
//! (an image is a verified module, [`Image`]), and bad launches, bad host
//! accesses and injected faults all surface as typed [`ExecError`]s, never
//! process aborts. The lint gate below enforces it (tests are exempt).

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod bytecode;
pub mod cost;
pub mod device;
pub mod error;
pub mod exec;
pub mod faults;
pub mod gmem;
pub mod interp;
pub mod memory;
pub mod metrics;
mod ops;
mod par;
pub mod run;
pub mod sanitize;
pub mod value;

pub use cost::DeviceConfig;
pub use device::{Device, DeviceState, Image, WaveStats};
pub use exec::ExecTier;
pub use error::{ExecError, TrapKind};
pub use faults::{DeviceFaultKind, DeviceFaultSite, FaultAction, FaultPlan, FaultSite};
pub use memory::{DevPtr, Segment};
pub use metrics::KernelMetrics;
pub use run::{RunConfig, Sanitize};
pub use sanitize::{AccessKind, AccessSite, DivergenceReport, RaceReport, SanReport};
pub use value::RtVal;
