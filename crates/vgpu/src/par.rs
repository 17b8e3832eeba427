//! The parallel team engine: executes one occupancy wave of teams on a
//! host worker pool.
//!
//! Design (see `docs/parallel-vgpu.md` for the user-facing contract):
//!
//! * Teams are issued **wave by wave**, mirroring the occupancy model —
//!   a wave is `NUM_SMS × teams_per_sm` teams, exactly the chunking the
//!   cycle aggregation in `Device::launch` uses. Within a wave, teams run
//!   concurrently on up to `worker_threads` host threads, each against a
//!   [`BufferedGlobal`](crate::gmem::BufferedGlobal) copy-on-write view
//!   of global memory taken at wave start (teams share the immutable
//!   wave-start image and copy only the chunks they write, so peak
//!   memory stays near one region regardless of worker count). The
//!   view's tables are the worker's ([`WaveScratch`]), handed from one
//!   team to the next.
//! * After the wave, the device replays each team's effect log onto the
//!   master region **in ascending team order** and reconciles the shared
//!   fuel budget, so results, metrics, and traps are bit-identical to the
//!   sequential interpreter — independent of the worker count and of any
//!   wall-clock races.
//! * Work distribution is a single atomic next-team cursor; the *claiming*
//!   order is racy, but nothing observable depends on it — every team's
//!   execution is a pure function of the wave-start snapshot.
//!
//! The paper-adjacent motivation: "Parallelizing a modern GPU simulator"
//! (Huerta & González 2025) parallelizes across SM-like units while
//! preserving fidelity; we reproduce that shape with the stronger
//! guarantee of bit-exact equivalence to the sequential semantics.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::error::TrapKind;
use crate::exec::{Counters, LaunchCtx, TeamEngine, TeamOutcome, TeamResult};
use crate::gmem::{BufferedGlobal, GlobalMem, TeamLog, WaveScratch};
use crate::memory::Region;
use crate::sanitize::TeamSan;

/// Outcome of one team's buffered run, in merge-ready form.
pub(crate) struct TeamRun {
    pub result: TeamResult,
    /// Fuel units this team consumed (possibly up to the full wave-start
    /// budget; the merge reconciles against the running budget).
    pub steps: u64,
    pub counters: Counters,
    /// The worker that ran the team (an index into the wave's scratches),
    /// whose [`WaveScratch::log`] holds the team's effects.
    pub worker: usize,
    pub log: TeamLog,
    /// Sanitizer state of the buffered run (used only when the run
    /// merges; re-run teams contribute the re-run's state instead). A
    /// merged team's buffered access trace is identical to its sequential
    /// trace (the merge validates every observation), so its sanitizer
    /// verdict is too — worker-count independence for free.
    pub san: Option<Box<TeamSan>>,
}

impl TeamRun {
    /// True if this run aborted because it needs direct-mode re-execution
    /// (device malloc/free under a buffered view).
    pub fn bailed(&self) -> bool {
        matches!(self.result, Err((TrapKind::ParallelBailout, _)))
    }
}

/// Run one team against a fresh snapshot of `master` with its own fuel
/// budget, returning the merge-ready outcome.
fn run_one_team(
    ctx: &LaunchCtx<'_>,
    master: &Region,
    team: u32,
    fuel: u64,
    (worker, scratch): (usize, &mut WaveScratch),
) -> TeamRun {
    let view = GlobalMem::Buffered(BufferedGlobal::new(&master.bytes, scratch));
    let TeamOutcome {
        result,
        counters,
        fuel_left,
        san,
        global,
    } = TeamEngine::new(ctx, team, view, fuel).run(ctx);
    let log = match global {
        GlobalMem::Buffered(b) => b.finish(),
        GlobalMem::Direct { .. } => TeamLog::default(),
    };
    TeamRun {
        result,
        steps: fuel - fuel_left,
        counters,
        worker,
        log,
        san,
    }
}

/// Execute the teams of one wave concurrently, one worker thread per
/// entry of `scratch` (and no more workers than teams). Returns one
/// [`TeamRun`] per team, in team order.
pub(crate) fn run_wave(
    ctx: &LaunchCtx<'_>,
    master: &Region,
    teams: Range<u32>,
    fuel: u64,
    scratch: &mut [WaveScratch],
) -> Vec<TeamRun> {
    let workers = scratch.len().min(teams.len());
    let scratch = &mut scratch[..workers];
    scratch.iter_mut().for_each(WaveScratch::start_wave);
    if let [own] = scratch {
        return teams.map(|t| run_one_team(ctx, master, t, fuel, (0, own))).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<TeamRun>>> = teams.clone().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        let (cursor, slots, teams) = (&cursor, &slots, &teams);
        for (worker, own) in scratch.iter_mut().enumerate() {
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(team) = teams.clone().nth(i) else { break };
                let run = run_one_team(ctx, master, team, fuel, (worker, own));
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(run);
                }
            });
        }
    });
    slots
        .into_iter()
        .zip(teams)
        .map(|(m, team)| {
            m.into_inner()
                .unwrap_or_else(|poison| poison.into_inner())
                // Unreachable in practice: every claimed slot is filled,
                // and a worker that died mid-team could only do so by
                // panicking, which `std::thread::scope` propagates before
                // this runs. Kept as a typed-trap backstop (the crate is
                // panic-free by policy), naming the team the empty slot
                // stands in for.
                .unwrap_or_else(|| TeamRun {
                    result: Err((
                        TrapKind::MalformedIr(format!(
                            "parallel worker produced no result for team {team}"
                        )),
                        0,
                    )),
                    steps: 0,
                    counters: Counters::default(),
                    worker: 0,
                    log: TeamLog::default(),
                    san: None,
                })
        })
        .collect()
}
