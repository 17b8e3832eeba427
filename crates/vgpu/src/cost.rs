//! Cost model and device shape (two tables of constants), the occupancy
//! model over them, and the device configuration.
//!
//! The constants are not an A100 die model; they are chosen so that the
//! artifacts the paper's co-design eliminates — runtime calls, shared-state
//! traffic, barriers, device malloc, register pressure — have first-order
//! impact on the simulated kernel time, which is what makes the Fig. 10–13
//! shapes reproducible.

use nzomp_ir::OpClass;

use crate::memory::Segment;

/// Base issue cost charged for every executed instruction.
pub const ISSUE: u64 = 1;
/// Integer / pointer ALU op (on top of issue).
pub const ALU: u64 = 0;
/// f64 arithmetic.
pub const FP: u64 = 3;
/// Transcendentals (sin/cos/exp/log/sqrt).
pub const TRANSCENDENTAL: u64 = 19;
/// Global-memory access (per load/store).
pub const MEM_GLOBAL: u64 = 39;
/// Shared-memory access.
pub const MEM_SHARED: u64 = 7;
/// Local (per-thread) memory access.
pub const MEM_LOCAL: u64 = 3;
/// Constant-memory access (cached, cheap).
pub const MEM_CONSTANT: u64 = 3;
/// Team barrier, aligned (all threads arrive together).
pub const BARRIER_ALIGNED: u64 = 29;
/// Team barrier from divergent control flow (state machine).
pub const BARRIER_UNALIGNED: u64 = 44;
/// Atomic RMW / CAS.
pub const ATOMIC: u64 = 59;
/// Direct call / return bookkeeping.
pub const CALL: u64 = 14;
/// Indirect call penalty (on top of `CALL`).
pub const INDIRECT_CALL: u64 = 10;
/// Device-side malloc (global heap fallback of the shared stack).
pub const MALLOC: u64 = 799;

/// The charge (on top of issue) for an arithmetic operator of class `c`.
#[inline]
pub const fn class(c: OpClass) -> u64 {
    match c {
        OpClass::Alu => ALU,
        OpClass::Fp => FP,
        OpClass::Transcendental => TRANSCENDENTAL,
    }
}

/// The charge for one access to memory segment `seg`.
#[inline]
pub const fn mem(seg: Segment) -> u64 {
    match seg {
        Segment::Global => MEM_GLOBAL,
        Segment::Shared => MEM_SHARED,
        Segment::Local => MEM_LOCAL,
        Segment::Constant => MEM_CONSTANT,
        _ => MEM_GLOBAL,
    }
}

/// Number of streaming multiprocessors.
pub const NUM_SMS: u32 = 8;
/// Register file size per SM (32-bit registers).
pub const REGS_PER_SM: u32 = 65_536;
/// Shared memory per SM in bytes.
pub const SMEM_PER_SM: u64 = 96 * 1024;
/// Max resident threads per SM.
pub const MAX_THREADS_PER_SM: u32 = 2048;
/// Max resident teams per SM.
pub const MAX_TEAMS_PER_SM: u32 = 32;
/// Clock in GHz (cycles -> time conversion for reports).
pub const CLOCK_GHZ: f64 = 1.4;
/// Device heap size in bytes.
pub const HEAP_BYTES: u64 = 64 * 1024 * 1024;
/// Latency-hiding model: the memory portion of a team's cycles is scaled
/// by `1 + LATENCY_PENALTY / resident_teams_per_sm`. High occupancy (many
/// resident teams) hides memory latency; a kernel whose shared-memory or
/// register footprint caps residency pays exposed latency — this is how
/// the paper's SMem/register reductions turn into kernel-time reductions
/// ("most performance benefits can be traced to reducing and/or
/// eliminating the shared memory and register usage").
pub const LATENCY_PENALTY: f64 = 8.0;

/// What a caller chooses about a device; its shape is the constants above.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Interpreter step budget per launch (runaway guard).
    pub max_steps: u64,
    /// Verify `assume` operands and run debug-only runtime paths. Mirrors
    /// the paper's debug builds (§III-G): assumptions become assertions.
    pub check_assumes: bool,
}

impl Default for DeviceConfig {
    fn default() -> DeviceConfig {
        DeviceConfig {
            max_steps: 2_000_000_000,
            check_assumes: true,
        }
    }
}

/// Memory-latency exposure factor for a given residency.
pub fn latency_exposure(resident_teams_per_sm: u32) -> f64 {
    1.0 + LATENCY_PENALTY / resident_teams_per_sm.max(1) as f64
}

/// Teams issued per wave at the given residency — the chunking used by
/// *both* the cycle aggregation and the parallel team engine, so the
/// two can never disagree about wave boundaries.
pub fn wave_size(resident_teams_per_sm: u32) -> usize {
    (NUM_SMS * resident_teams_per_sm).max(1) as usize
}

/// Resident teams per SM given per-thread register demand and per-team
/// shared-memory demand — the occupancy calculation behind the paper's
/// observation that "most performance benefits can be traced to reducing
/// and/or eliminating the shared memory and register usage".
pub fn teams_per_sm(regs_per_thread: u32, threads_per_team: u32, smem_per_team: u64) -> u32 {
    let by_regs = if regs_per_thread == 0 {
        MAX_TEAMS_PER_SM
    } else {
        REGS_PER_SM / (regs_per_thread * threads_per_team.max(1)).max(1)
    };
    let by_smem = if smem_per_team == 0 {
        MAX_TEAMS_PER_SM
    } else {
        (SMEM_PER_SM / smem_per_team) as u32
    };
    let by_threads = MAX_THREADS_PER_SM / threads_per_team.max(1);
    MAX_TEAMS_PER_SM
        .min(by_regs)
        .min(by_smem)
        .min(by_threads)
        // Registers only: a register demand no SM can hold still runs, one
        // team at a time (`Device::launch` refuses a thread count or shared
        // memory past an SM).
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_limits() {
        // Unconstrained: thread-count limited (2048/128 = 16).
        assert_eq!(teams_per_sm(0, 128, 0), 16);
        // Register limited: 65536/(255*128) = 2.
        assert_eq!(teams_per_sm(255, 128, 0), 2);
        // Shared-memory limited: 96K/48K = 2.
        assert_eq!(teams_per_sm(32, 128, 48 * 1024), 2);
        // Never zero.
        assert_eq!(teams_per_sm(10_000, 1024, 1 << 20), 1);
    }
}
