//! The compile pipeline: application module → runtime link → optimization.
//!
//! Mirrors §II-B: "the GPU runtime library is first linked into the user
//! code as an LLVM bytecode library and then optimized together with the
//! user application", followed by loading the result onto the (virtual)
//! device.
//!
//! Every stage reports failure as a typed [`CompileError`] rather than a
//! process abort, so hosts (and the differential harness) can treat a bad
//! module the same way they treat a device trap: inspect, log, continue.

use std::fmt;
use std::rc::Rc;

use nzomp_ir::link::LinkError;
use nzomp_ir::verify::VerifyError;
use nzomp_ir::Module;
use nzomp_opt::{optimize_module_timed, PassOptions, PassTimings, Remarks};
use nzomp_rt::{build_runtime, RtConfig};

use crate::config::BuildConfig;

/// Result of compiling an application module under a configuration.
pub struct CompileOutput {
    /// The linked, optimized device image.
    pub module: Module,
    /// Optimization remarks (`-Rpass[-missed]=openmp-opt`).
    pub remarks: Remarks,
    /// Per-pass profile and analysis-cache counters from the optimizer
    /// (the `-ftime-report` analogue; `nzbench` reports them as
    /// `opt.pass.*_us` and `opt.cache_hit_share`).
    pub timings: PassTimings,
}

/// Why the pipeline refused to produce a device image.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Linking the runtime library into the application failed
    /// (duplicate symbols, signature mismatches).
    Link(LinkError),
    /// The module failed verification — on entry to the [`CompileCache`]
    /// (names the text format cannot carry: stage `input`), straight after
    /// the link (malformed input) or after optimization (a broken pass).
    /// The stage name distinguishes them.
    Verify { stage: &'static str, err: VerifyError },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Link(e) => write!(f, "runtime link failed: {e}"),
            CompileError::Verify { stage, err } => {
                write!(f, "module failed verification after {stage}: {err}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LinkError> for CompileError {
    fn from(e: LinkError) -> CompileError {
        CompileError::Link(e)
    }
}

/// Compile `app` under `config` (release mode, no debug features).
pub fn compile(app: Module, config: BuildConfig) -> Result<CompileOutput, CompileError> {
    compile_with(app, config, config.rt_config(), config.pass_options())
}

/// The front half of [`compile_with`]: link the runtime library into `app`
/// and verify the result, without optimizing — the optimizer's true
/// input (what `nzbench` times as `core.link_only_us`, and what
/// `tests/golden_ir.rs` re-optimizes with the analysis cache off).
pub fn link_only(
    mut app: Module,
    config: BuildConfig,
    rt_cfg: &RtConfig,
) -> Result<Module, CompileError> {
    if let Some(flavor) = config.runtime() {
        // Kernels that globalize variables under the legacy runtime get the
        // data-sharing stack reserved (the Old-RT SMem delta of Fig. 11).
        let needs_ds = app
            .find_func(nzomp_rt::abi::OLD_DATA_SHARING_PUSH)
            .is_some();
        let rt = build_runtime(flavor, rt_cfg, needs_ds);
        nzomp_ir::link::link(&mut app, rt)?;
    }
    // Link-time verification: catch malformed input (e.g. a phi missing an
    // incoming for one of its predecessors) before it reaches the
    // optimizer or the device.
    nzomp_ir::verify_module(&app).map_err(|err| CompileError::Verify { stage: "link", err })?;
    Ok(app)
}

/// Compile with explicit runtime configuration and pass options (used for
/// debug builds and the Fig. 13 ablations).
pub fn compile_with(
    app: Module,
    config: BuildConfig,
    rt_cfg: RtConfig,
    mut opts: PassOptions,
) -> Result<CompileOutput, CompileError> {
    let mut app = link_only(app, config, &rt_cfg)?;
    // Debug builds must keep assumptions (they are runtime-checked, §III-G).
    if rt_cfg.debug_kind != 0 {
        opts.drop_assumes = false;
    }
    let (remarks, timings) = optimize_module_timed(&mut app, &opts);
    // Where the optimizer verified after every pass (debug builds), a
    // failure names the offending pass instead of the generic
    // "optimization" stage below.
    if let Some(vf) = &timings.verify_failure {
        return Err(CompileError::Verify {
            stage: vf.pass,
            err: vf.err.clone(),
        });
    }
    nzomp_ir::verify_module(&app)
        .map_err(|err| CompileError::Verify { stage: "optimization", err })?;
    Ok(CompileOutput {
        module: app,
        remarks,
        timings,
    })
}

/// Structural fingerprint of a module: FNV-1a over its printed IR. Two
/// modules with the same print are the same compilation input, so the
/// fingerprint keys the [`CompileCache`] (and the per-device kernel-image
/// registries built on top of it in `nzomp-host`).
pub fn module_fingerprint(m: &Module) -> u64 {
    let text = nzomp_ir::printer::print_module(m);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Memoized compile pipeline: repeated compilations of the same
/// application module under the same [`BuildConfig`] skip the link +
/// optimization pipeline entirely and share one [`CompileOutput`].
///
/// This is the host runtime's recompile eliminator: every launch of an
/// already-registered kernel image must cost a table lookup, not an
/// optimizer run (`compile_cache_eliminates_recompiles` in
/// `crates/host/tests/scheduler.rs` asserts the hit counter).
#[derive(Default)]
pub struct CompileCache {
    entries: Vec<(u64, BuildConfig, Rc<CompileOutput>)>,
    /// Compilations served from the cache.
    pub hits: u64,
    /// Compilations that ran the real pipeline.
    pub misses: u64,
}

impl CompileCache {
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// Compile `app` under `config`, reusing a previous output when the
    /// `(fingerprint, config)` pair was seen before.
    pub fn compile(
        &mut self,
        app: Module,
        config: BuildConfig,
    ) -> Result<Rc<CompileOutput>, CompileError> {
        // The fingerprint is of the printed text, which identifies a module
        // only while its names print unambiguously.
        nzomp_ir::verify::verify_names(&app)
            .map_err(|err| CompileError::Verify { stage: "input", err })?;
        let fp = module_fingerprint(&app);
        if let Some((_, _, out)) = self
            .entries
            .iter()
            .find(|(f, c, _)| *f == fp && *c == config)
        {
            self.hits += 1;
            return Ok(Rc::clone(out));
        }
        self.misses += 1;
        let out = Rc::new(compile(app, config)?);
        self.entries.push((fp, config, Rc::clone(&out)));
        Ok(out)
    }

    /// Number of distinct compiled images held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}
