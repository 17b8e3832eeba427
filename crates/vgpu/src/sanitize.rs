//! Data-race & barrier-divergence sanitizer (opt-in shadow memory).
//!
//! The paper's headline optimizations — barrier elimination (§IV-D) and
//! aligned-execution reasoning (§IV-C) — are only sound if every removed
//! barrier was truly redundant. This module machine-checks that: when
//! sanitizing is enabled ([`crate::RunConfig::sanitize`], `Device::set_sanitize`),
//! every shared- and global-space access is mirrored into shadow cells and
//! checked against a happens-before model; conflicts surface as typed
//! [`RaceReport`]s through [`crate::Device::sanitizer_reports`] and the
//! kernel metrics — never as a panic, and never as a change to execution
//! (results, traps, cycles and all pre-existing metrics are bit-identical
//! with the sanitizer on or off).
//!
//! # The happens-before model
//!
//! *Within a team*, the interpreter's run-to-synchronization-point
//! scheduling means every access between two barrier releases belongs to
//! one **barrier epoch**: a per-team counter bumped at every release
//! (aligned or not — both synchronize all live threads). Two accesses from
//! different threads of the team are ordered iff their epochs differ;
//! same-epoch conflicting accesses — same byte, at least one write, not
//! both atomic — are a data race. Atomic RMWs and CAS count as
//! *synchronizing writes*: atomic/atomic pairs never race, atomic/plain
//! pairs do.
//!
//! *Across teams*, nothing orders two teams of one launch (the device has
//! no grid-wide barrier; kernel entry and exit are the only cross-team
//! ordering points). Any two accesses to the same global byte from
//! different teams conflict unless both are atomic. Per-team byte
//! summaries are folded into a launch-level shadow **in ascending team
//! order** — the same order as the wave-ordered merge — so the verdict and
//! the report text are identical at any worker-thread count.
//!
//! A companion check flags **barrier divergence**: an aligned barrier
//! released with waiters arriving from different instructions, mixed with
//! unaligned waiters, or reached while sibling threads already exited
//! (the aligned-barrier promise of §IV-C broken). Purely unaligned
//! barriers may legally pair across different sites — that is exactly how
//! the generic-mode worker state machine synchronizes — and are never
//! flagged.
//!
//! # Suppression
//!
//! The modern runtime's conditional-write idiom (paper Fig. 7b) makes
//! *every* thread perform a store and steers non-main threads to a
//! designated dummy sink ([`COND_WRITE_SINK`]) so the optimizer sees an
//! unconditional store. Those sink stores are concurrent plain writes by
//! design and are suppressed by name — the sanitizer's one suppression,
//! mirroring real-world sanitizer suppression lists.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use nzomp_ir::Module;

use crate::memory::{DevPtr, Segment};

/// Shared-space global the modern runtime uses as the write-only sink of
/// the Fig. 7b conditional-write idiom (`__omp_rtl_dummy` in
/// `nzomp-rt`). Accesses to it are benign by construction and suppressed.
pub const COND_WRITE_SINK: &str = "__omp_rtl_dummy";

/// The modern runtime's team-state block (`__omp_rtl_team_state` in
/// `nzomp-rt`). Its `HasThreadState` flag is set with a plain store of the
/// constant `1` by *any* thread entering a serialized nested parallel
/// region — the same deliberately benign idempotent-flag idiom as the real
/// deviceRTL's `TeamState.HasThreadState = true`. Only that 8-byte field
/// is suppressed; races on the rest of the team state still report.
pub const TEAM_STATE: &str = "__omp_rtl_team_state";

/// `(byte offset, length)` of the benign `HasThreadState` flag within
/// [`TEAM_STATE`] (`abi::team_state::HAS_THREAD_STATE` in `nzomp-rt`).
pub const TEAM_STATE_BENIGN_FIELD: (u64, u64) = (40, 8);

/// Runtime entry points that release memory back to an allocator stack
/// (`__kmpc_free_shared` and the legacy data-sharing pop, both with
/// signature `(ptr, size)`). The allocator's atomic stack-top bookkeeping
/// orders the releasing owner before any future owner of the same bytes,
/// so a call to one of these retires the shadow for the range — the same
/// ownership-transfer treatment thread sanitizers give `free`/`malloc`
/// recycling. Without it, run-to-sync scheduling makes every reuse of a
/// globalized-local scratch slot (paper §IV-A2) look like a same-epoch
/// conflict between the old and new owning threads.
pub const REGION_RELEASE_FNS: [&str; 2] =
    ["__kmpc_free_shared", "__kmpc_data_sharing_pop_stack_old"];

/// What the sanitizer knows about a loaded module — a pure function of the
/// module and where its globals live, computed once and shared by the
/// [`TeamSan`] of every team of every launch.
#[derive(Debug)]
pub struct ModuleSan {
    /// Shared-space `(offset, length)` ranges exempt from race checking:
    /// the cond-write sink and the benign team-state flag.
    suppress_shared: Vec<(u64, u64)>,
    /// Function indices of [`REGION_RELEASE_FNS`], for the call hook.
    release_fns: Vec<u32>,
}

impl ModuleSan {
    /// `addr_of` is the device address of each module global, by index.
    pub fn new(module: &Module, addr_of: &[DevPtr]) -> ModuleSan {
        ModuleSan {
            suppress_shared: module
                .globals
                .iter()
                .zip(addr_of)
                .filter(|(_, addr)| addr.segment() == Segment::Shared)
                .filter_map(|(g, addr)| match g.name.as_str() {
                    // The cond-write sink (Fig. 7b): every byte is benign.
                    COND_WRITE_SINK => Some((addr.offset(), g.size)),
                    // Team state: only the idempotent `HasThreadState` flag.
                    TEAM_STATE => {
                        let (field_off, len) = TEAM_STATE_BENIGN_FIELD;
                        Some((addr.offset() + field_off, len))
                    }
                    _ => None,
                })
                .collect(),
            release_fns: module
                .funcs
                .iter()
                .enumerate()
                .filter(|(_, f)| REGION_RELEASE_FNS.contains(&f.name.as_str()))
                .map(|(i, _)| i as u32)
                .collect(),
        }
    }
}

/// Per-team cap on retained race reports (further races are counted, not
/// stored — keeps pathological kernels bounded and deterministic).
const TEAM_REPORT_CAP: usize = 16;
/// Per-team cap on retained divergence reports.
const TEAM_DIVERGENCE_CAP: usize = 8;
/// Launch-level cap on retained reports across all teams.
const LAUNCH_REPORT_CAP: usize = 64;

/// IR location of one executed access: function index, basic block id,
/// instruction id — the coordinates `nzomp-ir`'s printer shows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IrLoc {
    pub func: u32,
    pub block: u32,
    pub inst: u32,
}

impl IrLoc {
    /// `@func bb2 %17`, resolving the function name through the module.
    fn render(&self, module: &Module) -> String {
        let name = module
            .funcs
            .get(self.func as usize)
            .map(|f| f.name.as_str())
            .unwrap_or("?");
        format!("@{} bb{} %{}", name, self.block, self.inst)
    }
}

/// How a location was accessed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Read,
    Write,
    /// Atomic RMW or CAS — a synchronizing access.
    Atomic,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
            AccessKind::Atomic => write!(f, "atomic"),
        }
    }
}

/// One endpoint of a reported conflict, fully resolved (self-contained
/// after the module borrow ends).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessSite {
    pub team: u32,
    pub thread: u32,
    pub kind: AccessKind,
    /// Barrier epoch of the access within its team.
    pub epoch: u32,
    /// Rendered IR location (`@func bb2 %17`).
    pub loc: String,
}

/// A detected data race: two conflicting accesses with no happens-before
/// ordering. `first` is the access recorded earlier in the deterministic
/// schedule; `second` the one that completed the conflict.
#[derive(Clone, Debug, PartialEq)]
pub struct RaceReport {
    /// Memory space of the racing location.
    pub space: Segment,
    /// Byte offset of the first conflicting byte within the space.
    pub offset: u64,
    pub first: AccessSite,
    pub second: AccessSite,
    /// Whether the endpoints belong to different teams.
    pub cross_team: bool,
    /// Additional accesses deduplicated onto this report (same site pair
    /// and kinds).
    pub count: u64,
}

fn space_name(s: Segment) -> &'static str {
    match s {
        Segment::Global => "global",
        Segment::Shared => "shared",
        Segment::Local => "local",
        Segment::Constant => "constant",
        _ => "?",
    }
}

impl fmt::Display for RaceReport {
    /// Remark-style rendering, mirroring `nzomp-opt`'s
    /// `[{kind}:{pass}] @{func}: {message}` format.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[race:sanitize] {}+0x{:x}: {} by team {} thread {} at {}",
            space_name(self.space),
            self.offset,
            self.second.kind,
            self.second.team,
            self.second.thread,
            self.second.loc,
        )?;
        if !self.cross_team {
            write!(f, " (epoch {})", self.second.epoch)?;
        }
        write!(
            f,
            " conflicts with {} by team {} thread {} at {}",
            self.first.kind, self.first.team, self.first.thread, self.first.loc,
        )?;
        if self.cross_team {
            write!(f, " (cross-team)")?;
        } else {
            write!(f, " (epoch {})", self.first.epoch)?;
        }
        if self.count > 1 {
            write!(f, " [x{}]", self.count)?;
        }
        Ok(())
    }
}

/// A barrier-divergence finding: an aligned barrier released (or broken)
/// with a non-uniform arrival pattern.
#[derive(Clone, Debug, PartialEq)]
pub struct DivergenceReport {
    pub team: u32,
    /// Epoch in which the divergent barrier released.
    pub epoch: u32,
    /// Pre-rendered description of the arrival pattern.
    pub detail: String,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[divergence:sanitize] team {} epoch {}: {}",
            self.team, self.epoch, self.detail
        )
    }
}

/// Any sanitizer finding, in the order of detection.
#[derive(Clone, Debug, PartialEq)]
pub enum SanReport {
    Race(RaceReport),
    Divergence(DivergenceReport),
}

impl fmt::Display for SanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SanReport::Race(r) => r.fmt(f),
            SanReport::Divergence(d) => d.fmt(f),
        }
    }
}

/// One recorded access (compact; names resolved only when reporting).
#[derive(Clone, Copy, Debug)]
struct Access {
    tid: u32,
    loc: IrLoc,
}

/// Epoch-scoped shadow of one byte: first plain writer, up to two
/// distinct-thread plain readers, first atomic accessor. Two reader slots
/// suffice — a later writer conflicts with whichever recorded reader has a
/// different thread id, and two readers never conflict with each other.
#[derive(Clone, Copy, Debug, Default)]
struct Cell {
    epoch: u32,
    write: Option<Access>,
    reads: [Option<Access>; 2],
    atomic: Option<Access>,
}

/// Launch-scoped summary of one global byte: the first plain read, plain
/// write, and atomic access this team performed, for cross-team folding.
#[derive(Clone, Copy, Debug, Default)]
struct Summary {
    read: Option<Access>,
    write: Option<Access>,
    atomic: Option<Access>,
}

/// Global-space shadow byte: the intra-team epoch cell plus the
/// cross-team summary, kept together so one hash lookup serves both.
#[derive(Clone, Copy, Debug, Default)]
struct GByte {
    cell: Cell,
    sum: Summary,
}

/// Deduplication key: one report per (space, site pair, kind pair).
type DedupKey = (u8, IrLoc, AccessKind, IrLoc, AccessKind);

fn dedup_key(space: Segment, first: (IrLoc, AccessKind), second: (IrLoc, AccessKind)) -> DedupKey {
    let s = match space {
        Segment::Shared => 1u8,
        _ => 0u8,
    };
    (s, first.0, first.1, second.0, second.1)
}

/// Barrier-arrival info the interpreter hands to
/// [`TeamSan::on_barrier_release`] for each waiting thread.
#[derive(Clone, Copy, Debug)]
pub struct BarrierArrival {
    pub tid: u32,
    pub aligned: bool,
    pub site: Option<IrLoc>,
}

/// Per-team sanitizer state, owned by the
/// [`TeamExec`](crate::exec::TeamExec) when sanitizing is enabled
/// (`None` otherwise — the hot path then pays one pointer test per
/// access, the same zero-cost-when-disabled shape as
/// [`FaultPlan`](crate::faults::FaultPlan)).
#[derive(Debug)]
pub struct TeamSan {
    team: u32,
    /// Barrier epoch: bumped at every barrier release.
    epoch: u32,
    /// Shared-space shadow (per-team memory; purely intra-team).
    shared: HashMap<u64, Cell>,
    /// Global-space shadow plus the cross-team byte summary.
    global: HashMap<u64, GByte>,
    /// Suppressed ranges and release entry points of the loaded module,
    /// shared with it — never copied per team.
    module: Arc<ModuleSan>,
    reports: Vec<RaceReport>,
    dedup: HashMap<DedupKey, usize>,
    divergences: Vec<DivergenceReport>,
    /// Distinct races detected (deduplicated site pairs), including any
    /// beyond the report cap.
    races: u64,
    /// Divergent releases detected, including any beyond the cap.
    diverged: u64,
}

impl TeamSan {
    pub fn new(team: u32, module: Arc<ModuleSan>) -> TeamSan {
        TeamSan {
            team,
            epoch: 0,
            shared: HashMap::new(),
            global: HashMap::new(),
            module,
            reports: Vec::new(),
            dedup: HashMap::new(),
            divergences: Vec::new(),
            races: 0,
            diverged: 0,
        }
    }

    /// Whether `func` is one of the allocator release entry points the
    /// interpreter must report through [`TeamSan::on_region_release`].
    #[inline]
    pub fn is_release_fn(&self, func: u32) -> bool {
        self.module.release_fns.contains(&func)
    }

    /// `[off, off+size)` of `space` was released back to a runtime
    /// allocator. The allocator's atomic bookkeeping orders this owner
    /// before any future owner of the bytes, so the range's shadow — both
    /// the epoch cells and the cross-team byte summary — is retired.
    pub fn on_region_release(&mut self, space: Segment, off: u64, size: u64) {
        match space {
            Segment::Shared => {
                for b in off..off + size {
                    self.shared.remove(&b);
                }
            }
            Segment::Global => {
                for b in off..off + size {
                    self.global.remove(&b);
                }
            }
            _ => {}
        }
    }

    /// Record one executed access and check it against the shadow.
    /// Local space is skipped (cross-thread local access already traps)
    /// and constant space is read-only.
    #[allow(clippy::too_many_arguments)]
    pub fn record_access(
        &mut self,
        module: &Module,
        tid: u32,
        kind: AccessKind,
        loc: IrLoc,
        space: Segment,
        off: u64,
        size: u64,
    ) {
        match space {
            Segment::Shared => {
                if self
                    .module
                    .suppress_shared
                    .iter()
                    .any(|&(s, len)| off >= s && off + size <= s + len)
                {
                    return;
                }
                let mut conflict = None;
                for b in off..off + size {
                    let cell = self.shared.entry(b).or_default();
                    if let Some(c) =
                        check_cell(cell, self.epoch, tid, kind, loc, conflict.is_some())
                    {
                        conflict.get_or_insert((b, c));
                    }
                }
                if let Some((b, (prior, prior_kind))) = conflict {
                    self.report_intra(module, Segment::Shared, b, prior, prior_kind, tid, kind, loc);
                }
            }
            Segment::Global => {
                let mut conflict = None;
                for b in off..off + size {
                    let g = self.global.entry(b).or_default();
                    if let Some(c) =
                        check_cell(&mut g.cell, self.epoch, tid, kind, loc, conflict.is_some())
                    {
                        conflict.get_or_insert((b, c));
                    }
                    let slot = match kind {
                        AccessKind::Read => &mut g.sum.read,
                        AccessKind::Write => &mut g.sum.write,
                        AccessKind::Atomic => &mut g.sum.atomic,
                    };
                    if slot.is_none() {
                        *slot = Some(Access { tid, loc });
                    }
                }
                if let Some((b, (prior, prior_kind))) = conflict {
                    self.report_intra(module, Segment::Global, b, prior, prior_kind, tid, kind, loc);
                }
            }
            _ => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn report_intra(
        &mut self,
        module: &Module,
        space: Segment,
        offset: u64,
        prior: Access,
        prior_kind: AccessKind,
        tid: u32,
        kind: AccessKind,
        loc: IrLoc,
    ) {
        let key = dedup_key(space, (prior.loc, prior_kind), (loc, kind));
        if let Some(&i) = self.dedup.get(&key) {
            self.reports[i].count += 1;
            return;
        }
        self.races += 1;
        if self.reports.len() >= TEAM_REPORT_CAP {
            return;
        }
        let report = RaceReport {
            space,
            offset,
            first: AccessSite {
                team: self.team,
                thread: prior.tid,
                kind: prior_kind,
                epoch: self.epoch,
                loc: prior.loc.render(module),
            },
            second: AccessSite {
                team: self.team,
                thread: tid,
                kind,
                epoch: self.epoch,
                loc: loc.render(module),
            },
            cross_team: false,
            count: 1,
        };
        self.dedup.insert(key, self.reports.len());
        self.reports.push(report);
    }

    /// A barrier is releasing with the given live-thread arrivals.
    /// Checks divergence (report-only; behavior is unchanged), then
    /// advances the epoch.
    pub fn on_barrier_release(&mut self, module: &Module, arrivals: &[BarrierArrival]) {
        let any_aligned = arrivals.iter().any(|a| a.aligned);
        if any_aligned {
            let any_unaligned = arrivals.iter().any(|a| !a.aligned);
            let aligned_sites: Vec<Option<IrLoc>> = arrivals
                .iter()
                .filter(|a| a.aligned)
                .map(|a| a.site)
                .collect();
            let diverged_sites = aligned_sites.windows(2).any(|w| w[0] != w[1]);
            if any_unaligned || diverged_sites {
                let detail = format!(
                    "aligned barrier released with divergent arrivals: {}",
                    arrivals
                        .iter()
                        .map(|a| {
                            format!(
                                "thread {} {} at {}",
                                a.tid,
                                if a.aligned { "(aligned)" } else { "(unaligned)" },
                                a.site.map(|l| l.render(module)).unwrap_or_else(|| "?".into()),
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                self.push_divergence(detail);
            }
        }
        self.epoch += 1;
    }

    /// An aligned barrier's promise broke: `waiting` live threads wait
    /// while `done` threads already exited (the interpreter traps with
    /// `BarrierDeadlock` right after this report).
    pub fn on_aligned_subset(&mut self, module: &Module, waiting: &[BarrierArrival], done: usize) {
        let site = waiting
            .iter()
            .find(|a| a.aligned)
            .and_then(|a| a.site)
            .map(|l| l.render(module))
            .unwrap_or_else(|| "?".into());
        let detail = format!(
            "aligned barrier at {} reached by only {} of {} threads ({} already exited)",
            site,
            waiting.len(),
            waiting.len() + done,
            done,
        );
        self.push_divergence(detail);
    }

    fn push_divergence(&mut self, detail: String) {
        self.diverged += 1;
        if self.divergences.len() >= TEAM_DIVERGENCE_CAP {
            return;
        }
        self.divergences.push(DivergenceReport {
            team: self.team,
            epoch: self.epoch,
            detail,
        });
    }
}

/// Check one shadow cell against a new access and record the access.
/// Returns the conflicting prior access (and its kind) if this access
/// races with it; `skip_report` still records but skips conflict lookup
/// (used once a conflict was already found for this access).
fn check_cell(
    cell: &mut Cell,
    epoch: u32,
    tid: u32,
    kind: AccessKind,
    loc: IrLoc,
    skip_report: bool,
) -> Option<(Access, AccessKind)> {
    if cell.epoch != epoch {
        *cell = Cell {
            epoch,
            ..Cell::default()
        };
    }
    let mut conflict = None;
    if !skip_report {
        let other = |a: &Option<Access>| a.filter(|x| x.tid != tid);
        conflict = match kind {
            // A plain write conflicts with any other-thread access.
            AccessKind::Write => other(&cell.write)
                .map(|a| (a, AccessKind::Write))
                .or_else(|| {
                    cell.reads
                        .iter()
                        .find_map(|r| r.filter(|x| x.tid != tid))
                        .map(|a| (a, AccessKind::Read))
                })
                .or_else(|| other(&cell.atomic).map(|a| (a, AccessKind::Atomic))),
            // A plain read conflicts with other-thread writes (plain or
            // atomic); reads never conflict with reads.
            AccessKind::Read => other(&cell.write)
                .map(|a| (a, AccessKind::Write))
                .or_else(|| other(&cell.atomic).map(|a| (a, AccessKind::Atomic))),
            // Atomics conflict with plain accesses only.
            AccessKind::Atomic => other(&cell.write)
                .map(|a| (a, AccessKind::Write))
                .or_else(|| {
                    cell.reads
                        .iter()
                        .find_map(|r| r.filter(|x| x.tid != tid))
                        .map(|a| (a, AccessKind::Read))
                }),
        };
    }
    // Record this access.
    let acc = Access { tid, loc };
    match kind {
        AccessKind::Write => {
            if cell.write.is_none() {
                cell.write = Some(acc);
            }
        }
        AccessKind::Read => {
            let known = cell
                .reads
                .iter()
                .any(|r| r.is_some_and(|x| x.tid == tid));
            if !known {
                if let Some(slot) = cell.reads.iter_mut().find(|r| r.is_none()) {
                    *slot = Some(acc);
                }
            }
        }
        AccessKind::Atomic => {
            if cell.atomic.is_none() {
                cell.atomic = Some(acc);
            }
        }
    }
    conflict
}

/// One candidate cross-team conflict: `(new access, new kind, prior
/// (team, access), prior kind)`.
type ConflictPair = (Option<Access>, AccessKind, Option<(u32, Access)>, AccessKind);

/// Cross-team summary of one global byte at the launch level: the first
/// access of each kind from any already-folded (lower-index) team.
#[derive(Clone, Copy, Debug, Default)]
struct LaunchByte {
    read: Option<(u32, Access)>,
    write: Option<(u32, Access)>,
    atomic: Option<(u32, Access)>,
}

/// Launch-level sanitizer state: team outcomes folded in ascending team
/// order (the wave-merge order), which makes reports and verdicts
/// independent of the worker-thread count.
#[derive(Debug, Default)]
pub struct LaunchSan {
    global: HashMap<u64, LaunchByte>,
    /// All retained findings, in fold (= team) order.
    pub reports: Vec<SanReport>,
    dedup: HashMap<DedupKey, usize>,
    /// Total distinct data races (intra- and cross-team), including any
    /// beyond the report cap.
    pub races: u64,
    /// Total divergent barrier releases.
    pub divergences: u64,
}

impl LaunchSan {
    /// Fold one finished team's sanitizer state, in ascending team order.
    pub fn fold_team(&mut self, module: &Module, san: TeamSan) {
        let TeamSan {
            team,
            global,
            reports,
            divergences,
            races,
            diverged,
            ..
        } = san;
        self.races += races;
        self.divergences += diverged;
        for r in reports {
            if self.reports.len() < LAUNCH_REPORT_CAP {
                self.reports.push(SanReport::Race(r));
            }
        }
        for d in divergences {
            if self.reports.len() < LAUNCH_REPORT_CAP {
                self.reports.push(SanReport::Divergence(d));
            }
        }
        // Cross-team check: this team's global byte summary against the
        // accumulated summary of all lower-index teams. Offsets are
        // visited in ascending order so report selection is deterministic.
        let mut offs: Vec<u64> = global.keys().copied().collect();
        offs.sort_unstable();
        for off in offs {
            let Some(g) = global.get(&off) else { continue };
            let sum = g.sum;
            let prior = self.global.get(&off).copied().unwrap_or_default();
            // (new access, new kind) vs (prior access, prior kind):
            // plain write vs anything; plain read vs write/atomic;
            // atomic vs plain. Atomic/atomic synchronizes.
            let pairs: [ConflictPair; 5] = [
                (sum.write, AccessKind::Write, prior.write, AccessKind::Write),
                (sum.write, AccessKind::Write, prior.read, AccessKind::Read),
                (sum.write, AccessKind::Write, prior.atomic, AccessKind::Atomic),
                (sum.read, AccessKind::Read, prior.write, AccessKind::Write),
                (sum.atomic, AccessKind::Atomic, prior.write, AccessKind::Write),
            ];
            let mut found: Option<(Access, AccessKind, (u32, Access), AccessKind)> = None;
            for (new, nk, pr, pk) in pairs {
                if let (Some(n), Some(p)) = (new, pr) {
                    found = Some((n, nk, p, pk));
                    break;
                }
            }
            // Also: prior read vs new atomic (read recorded first).
            if found.is_none() {
                if let (Some(n), Some(p)) = (sum.atomic, prior.read) {
                    found = Some((n, AccessKind::Atomic, p, AccessKind::Read));
                }
            }
            if let Some((n, nk, (pteam, p), pk)) = found {
                self.report_cross(module, off, team, n, nk, pteam, p, pk);
            }
            // Merge this team's summary into the launch shadow.
            let slot = self.global.entry(off).or_default();
            if slot.read.is_none() {
                if let Some(a) = sum.read {
                    slot.read = Some((team, a));
                }
            }
            if slot.write.is_none() {
                if let Some(a) = sum.write {
                    slot.write = Some((team, a));
                }
            }
            if slot.atomic.is_none() {
                if let Some(a) = sum.atomic {
                    slot.atomic = Some((team, a));
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn report_cross(
        &mut self,
        module: &Module,
        offset: u64,
        team: u32,
        acc: Access,
        kind: AccessKind,
        prior_team: u32,
        prior: Access,
        prior_kind: AccessKind,
    ) {
        // Cross-team findings come from per-byte summaries, so one wide
        // store surfaces once per byte — dedup hits are not additional
        // accesses and do not bump the count (unlike intra-team dedup).
        let key = dedup_key(Segment::Global, (prior.loc, prior_kind), (acc.loc, kind));
        if self.dedup.contains_key(&key) {
            return;
        }
        self.races += 1;
        if self.reports.len() >= LAUNCH_REPORT_CAP {
            return;
        }
        let report = RaceReport {
            space: Segment::Global,
            offset,
            first: AccessSite {
                team: prior_team,
                thread: prior.tid,
                kind: prior_kind,
                epoch: 0,
                loc: prior.loc.render(module),
            },
            second: AccessSite {
                team,
                thread: acc.tid,
                kind,
                epoch: 0,
                loc: acc.loc.render(module),
            },
            cross_team: true,
            count: 1,
        };
        self.dedup.insert(key, self.reports.len());
        self.reports.push(SanReport::Race(report));
    }
}
