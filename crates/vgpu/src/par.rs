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
//!   wave-start image and overlay only the chunks they write, so peak
//!   memory stays near one region regardless of worker count).
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::error::TrapKind;
use crate::exec::{Counters, LaunchCtx, TeamEngine, TeamResult};
use crate::gmem::{BufferedGlobal, GlobalEffect, GlobalMem};
use crate::memory::Region;
use crate::sanitize::TeamSan;

/// Outcome of one team's buffered run, in merge-ready form.
pub(crate) struct TeamRun {
    pub result: TeamResult,
    /// Fuel units this team consumed (possibly up to the full wave-start
    /// budget; the merge reconciles against the running budget).
    pub steps: u64,
    pub counters: Counters,
    pub effects: Vec<GlobalEffect>,
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
fn run_one_team(ctx: &LaunchCtx<'_>, master: &Region, team: u32, fuel: u64) -> TeamRun {
    let view = GlobalMem::Buffered(BufferedGlobal::new(&master.bytes));
    let out = TeamEngine::new(ctx, team, view, fuel).run(ctx);
    let effects = match out.global {
        GlobalMem::Buffered(b) => b.log,
        GlobalMem::Direct { .. } => Vec::new(),
    };
    TeamRun {
        result: out.result,
        steps: fuel - out.fuel_left,
        counters: out.counters,
        effects,
        san: out.san,
    }
}

/// Execute the teams of one wave concurrently on up to `workers` threads.
/// Returns one [`TeamRun`] per team, in the order of `teams`.
pub(crate) fn run_wave(
    ctx: &LaunchCtx<'_>,
    master: &Region,
    teams: &[u32],
    fuel: u64,
    workers: usize,
) -> Vec<TeamRun> {
    let workers = workers.min(teams.len()).max(1);
    if workers == 1 || teams.len() == 1 {
        return teams
            .iter()
            .map(|&t| run_one_team(ctx, master, t, fuel))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<TeamRun>>> = teams.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&team) = teams.get(i) else { break };
                let run = run_one_team(ctx, master, team, fuel);
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(run);
                }
            });
        }
    });
    slots
        .into_iter()
        .zip(teams)
        .map(|(m, &team)| {
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
                    effects: Vec::new(),
                    san: None,
                })
        })
        .collect()
}
