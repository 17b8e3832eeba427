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

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::{Rc, Weak};
use std::sync::Arc;

use nzomp_ir::link::LinkError;
use nzomp_ir::verify::VerifyError;
use nzomp_ir::Module;
use nzomp_opt::{optimize_module_timed, PassOptions, PassTimings, Remarks};
use nzomp_rt::{runtime_library, RtConfig};
use nzomp_vgpu::Image;

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

/// The front half of [`compile_with`]: link a copy of the prebuilt runtime
/// library, `rt_cfg` patched onto its flag globals (§III-F/G), into `app`
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
        nzomp_ir::link::link(&mut app, runtime_library(flavor, rt_cfg, needs_ds))?;
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

/// A stable diagnostic digest of a module: FNV-1a (fixed seed) over its
/// structural [`Hash`]. Nothing decides anything on it — the
/// [`CompileCache`] compares modules with `==` — it is public for logs
/// and for the benchmark's `core.fingerprint_us` rung.
pub fn module_fingerprint(m: &Module) -> u64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn write(&mut self, bytes: &[u8]) {
            let step = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
            self.0 = bytes.iter().fold(self.0, step);
        }
        fn finish(&self) -> u64 {
            self.0
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    m.hash(&mut h);
    h.finish()
}

/// Memoized compile pipeline: repeated compilations of the same
/// application module under the same [`BuildConfig`] skip the link +
/// optimization pipeline entirely and share one [`CompileOutput`].
///
/// "The same module" is the IR's structural `==` (bit-exact floats): the
/// map is keyed on `(Module, BuildConfig)`, so a hit is reachable only
/// through `Module == Module`, and is never iterated in an order anything
/// observes, so its hasher seed reaches no observable value. The slot of
/// an entry is the image's identity — the host's `ImageId` (DESIGN.md
/// §4d): numbered from 0 in miss order and never reused.
///
/// This is the host runtime's recompile eliminator: every launch of an
/// already-registered kernel image must cost a table lookup, not an
/// optimizer run (`compile_cache_eliminates_recompiles` in
/// `crates/host/tests/scheduler.rs` asserts the hit counter).
///
/// It is also the one store of loaded images, and it is bounded: an entry
/// owns its output and, from the first [`CompileCache::loaded`] on, the
/// [`Image`] every device running it shares. At most [`CACHE_ENTRIES`]
/// entries are held; a miss past that evicts the least recently used one
/// (recency is a counter that every hit, miss and load advances, so
/// eviction is deterministic). An entry whose image is shared — a device
/// runs it — is never evicted. An evicted slot names nothing from then on,
/// and the module, submitted again, is a miss that compiles anew.
///
/// A caller that holds its module in an `Rc` and submits it again and
/// again ([`CompileCache::compile_slot_rc`]) pays for `==` once per `Rc`:
/// `seen` remembers which slot `==` resolved that allocation to. A pointer
/// is only ever used to repeat such a decision, and only while a `Weak`
/// of the entry pins it: the allocation cannot be freed and handed to
/// another module, and its content cannot change in place (`Rc::get_mut`
/// refuses while a `Weak` exists, `Rc::make_mut` moves to a new address).
/// A `Weak` does not keep the module alive, and a remembered slot is
/// answered only while its entry is still held.
#[derive(Default)]
pub struct CompileCache {
    slots: HashMap<(Module, BuildConfig), usize>,
    entries: BTreeMap<usize, Entry>,
    seen: HashMap<(*const Module, BuildConfig), (Weak<Module>, usize)>,
    /// The slot the next miss gets.
    next_slot: usize,
    /// The recency clock: one tick per hit, miss and load.
    clock: u64,
    /// Compilations served from the cache.
    pub hits: u64,
    /// Compilations that ran the real pipeline.
    pub misses: u64,
}

/// One compiled module: its output, its loaded form once a device asked
/// for it, and when it was last used.
struct Entry {
    output: Rc<CompileOutput>,
    image: Option<Arc<Image>>,
    last_used: u64,
}

impl Entry {
    /// Whether anything beyond the cache holds the loaded image: a device
    /// runs it, or a host slot keeps it for one.
    fn in_use(&self) -> bool {
        self.image.as_ref().is_some_and(|i| Arc::strong_count(i) > 1)
    }
}

/// Most entries a [`CompileCache`] holds: the retention bound of a
/// long-lived service. A module is reused only if it comes back within
/// this many other modules (`serve_cold` reuses each after 100). A cache
/// whose every entry is in use grows past it rather than refuse a
/// compile, which takes more devices than this.
pub const CACHE_ENTRIES: usize = 256;

/// Most `Rc`s [`CompileCache::compile_slot_rc`] remembers at once.
const SEEN_MAX: usize = 1024;

impl CompileCache {
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// Compile `app` under `config`, reusing a previous output when an
    /// equal `(module, config)` pair is still held.
    pub fn compile(
        &mut self,
        app: Module,
        config: BuildConfig,
    ) -> Result<Rc<CompileOutput>, CompileError> {
        let slot = self.compile_slot(app, config)?;
        // The entry was just hit or inserted.
        Ok(Rc::clone(&self.entries[&slot].output))
    }

    /// [`CompileCache::compile`], answering with the entry's slot:
    /// numbered from 0 in miss order, never reused, and never assigned to
    /// a module that failed to compile.
    pub fn compile_slot(&mut self, app: Module, config: BuildConfig) -> Result<usize, CompileError> {
        // Tenant input: names the text format cannot carry are refused.
        nzomp_ir::verify::verify_names(&app)
            .map_err(|err| CompileError::Verify { stage: "input", err })?;
        let key = (app, config);
        if let Some(&slot) = self.slots.get(&key) {
            self.hits += 1;
            self.touch(slot);
            return Ok(slot);
        }
        self.misses += 1;
        let output = Rc::new(compile(key.0.clone(), config)?);
        if self.entries.len() >= CACHE_ENTRIES {
            self.evict_one();
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        self.clock += 1;
        self.entries.insert(slot, Entry { output, image: None, last_used: self.clock });
        self.slots.insert(key, slot);
        Ok(slot)
    }

    /// [`CompileCache::compile_slot`] of a shared module: the same slot,
    /// the same counters (a repeated `Rc` is a hit), without cloning,
    /// re-verifying, hashing and comparing a module this cache resolved
    /// before through the very same `Rc` into an entry it still holds.
    /// Anything else is `compile_slot` of a clone; a module that fails to
    /// compile is never remembered.
    pub fn compile_slot_rc(&mut self, app: &Rc<Module>, config: BuildConfig) -> Result<usize, CompileError> {
        let key = (Rc::as_ptr(app), config);
        if let Some(&(_, slot)) = self.seen.get(&key) {
            if self.touch(slot).is_some() {
                self.hits += 1;
                return Ok(slot);
            }
        }
        let slot = self.compile_slot(Module::clone(app), config)?;
        if self.seen.len() >= SEEN_MAX {
            // Forget the modules that are gone and the entries evicted; if
            // nothing is, forget them all — `seen` only saves time.
            let entries = &self.entries;
            self.seen
                .retain(|_, (pin, slot)| pin.strong_count() > 0 && entries.contains_key(slot));
            if self.seen.len() >= SEEN_MAX {
                self.seen.clear();
            }
        }
        self.seen.insert(key, (Rc::downgrade(app), slot));
        Ok(slot)
    }

    /// The compiled image in `slot`; `None` once it was evicted.
    pub fn output(&self, slot: usize) -> Option<&CompileOutput> {
        self.entries.get(&slot).map(|e| e.output.as_ref())
    }

    /// The loaded form of the image in `slot`, shared by every device that
    /// runs it: loaded at the first call, kept as long as the entry. Counts
    /// as a use of the entry. `None` once it was evicted.
    pub fn loaded(&mut self, slot: usize) -> Option<Arc<Image>> {
        let e = self.touch(slot)?;
        let image = e.image.get_or_insert_with(|| Arc::new(Image::new(e.output.module.clone())));
        Some(Arc::clone(image))
    }

    /// Number of entries held: at most [`CACHE_ENTRIES`], unless more are
    /// in use.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mark the entry in `slot` used now; `None` once it was evicted.
    fn touch(&mut self, slot: usize) -> Option<&mut Entry> {
        let e = self.entries.get_mut(&slot)?;
        self.clock += 1;
        e.last_used = self.clock;
        Some(e)
    }

    /// Drop the least recently used entry that is not in use, if any. Its
    /// slot then answers nothing: it is never handed out again.
    fn evict_one(&mut self) {
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| !e.in_use())
            .min_by_key(|(_, e)| e.last_used)
            .map(|(&slot, _)| slot);
        if let Some(victim) = victim {
            self.entries.remove(&victim);
            self.slots.retain(|_, slot| *slot != victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nzomp_front::spmd_kernel_for;
    use nzomp_ir::{ExecMode, FuncBuilder, Operand, Ty};
    use nzomp_rt::RuntimeFlavor;

    const CFG: BuildConfig = BuildConfig::NewRtNoAssumptions;

    /// `out[i] = a[i] * scale`, built from scratch on every call.
    fn app(scale: f64) -> Module {
        let mut m = Module::new("cache_test_app");
        spmd_kernel_for(
            &mut m,
            RuntimeFlavor::Modern,
            "k",
            &[Ty::Ptr, Ty::Ptr, Ty::I64],
            |_b, p| p[2],
            move |_m, b, iv, p| {
                let pa = b.gep(p[0], iv, 8);
                let x = b.load(Ty::F64, pa);
                let v = b.fmul(x, Operand::f64(scale));
                let po = b.gep(p[1], iv, 8);
                b.store(Ty::F64, po, v);
            },
        );
        m
    }

    /// Verifies on entry, fails at the link stage: a phi with no incoming
    /// for one of its predecessors.
    fn malformed() -> Module {
        let mut m = Module::new("mal");
        let mut b = FuncBuilder::new("mal", vec![], None);
        let tid = b.thread_id();
        let never = b.icmp_eq(tid, Operand::i64(-1));
        let t = b.new_block();
        let join = b.new_block();
        b.cond_br(never, t, join);
        b.switch_to(t);
        b.br(join);
        b.switch_to(join);
        let _ = b.phi(Ty::I64, vec![(t, Operand::i64(1))]);
        b.ret(None);
        let f = m.add_function(b.finish());
        m.add_kernel(f, ExecMode::Spmd);
        m
    }

    #[test]
    fn separately_built_equal_modules_hit() {
        let mut c = CompileCache::new();
        let a = c.compile(app(2.0), CFG).unwrap();
        let b = c.compile(app(2.0), CFG).unwrap();
        assert_eq!(Rc::as_ptr(&a), Rc::as_ptr(&b), "one shared output");
        assert_eq!((c.hits, c.misses, c.len()), (1, 1, 1));
    }

    #[test]
    fn one_immediate_of_difference_misses() {
        let mut c = CompileCache::new();
        let a = c.compile(app(2.0), CFG).unwrap();
        let b = c.compile(app(2.5), CFG).unwrap();
        assert_ne!(a.module, b.module, "each tenant gets its own kernel");
        assert_eq!((c.hits, c.misses, c.len()), (0, 2, 2));
        // Bitwise floats: `0.0 == -0.0` in IEEE, but not as a cache key.
        assert_ne!(
            c.compile_slot(app(0.0), CFG).unwrap(),
            c.compile_slot(app(-0.0), CFG).unwrap()
        );
    }

    #[test]
    fn one_module_under_two_configs_is_two_slots() {
        let mut c = CompileCache::new();
        let full = c.compile_slot(app(2.0), CFG).unwrap();
        let nightly = c.compile_slot(app(2.0), BuildConfig::NewRtNightly).unwrap();
        assert_ne!(full, nightly);
        assert_eq!(c.compile_slot(app(2.0), CFG).unwrap(), full);
        assert_eq!((c.hits, c.misses, c.len()), (1, 2, 2));
    }

    /// A module that reads a value outside its domain — here a branch on
    /// a double — fails verification at the `link` stage, before the
    /// optimizer runs: a miss, like every failed compile, and no slot.
    #[test]
    fn an_ill_classed_module_fails_verification() {
        let mut m = Module::new("branch_on_f64");
        let mut b = FuncBuilder::new("k", vec![Ty::F64], None);
        let (t, f) = (b.new_block(), b.new_block());
        b.cond_br(Operand::Param(0), t, f);
        for bb in [t, f] {
            b.switch_to(bb);
            b.ret(None);
        }
        let k = m.add_function(b.finish());
        m.add_kernel(k, ExecMode::Spmd);
        assert!(nzomp_ir::verify_module(&m).is_err());
        let mut c = CompileCache::new();
        let err = c.compile_slot(m, BuildConfig::Cuda).unwrap_err();
        assert!(matches!(err, CompileError::Verify { stage: "link", .. }), "{err}");
        assert!(err.to_string().contains("@k: terminator of bb0: reads float bits"), "{err}");
        assert_eq!((c.hits, c.misses, c.len()), (0, 1, 0));
    }

    #[test]
    fn failed_compile_leaves_no_slot_and_fails_identically_again() {
        let mut c = CompileCache::new();
        let first = c.compile_slot(malformed(), CFG).unwrap_err();
        assert!(matches!(first, CompileError::Verify { stage: "link", .. }), "{first}");
        assert!(c.is_empty() && c.output(0).is_none());
        let second = c.compile_slot(malformed(), CFG).unwrap_err();
        assert_eq!(first, second);
        assert_eq!((c.hits, c.misses, c.len()), (0, 2, 0));
        // The failure did not burn a slot: the next image is slot 0.
        assert_eq!(c.compile_slot(app(2.0), CFG).unwrap(), 0);
    }

    #[test]
    fn slots_are_dense_and_stable() {
        let mut c = CompileCache::new();
        let slots: Vec<usize> = [2.0, 3.0, 2.0]
            .map(|s| c.compile_slot(app(s), CFG).unwrap())
            .to_vec();
        assert_eq!(slots, [0, 1, 0]);
        let a = c.compile(app(2.0), CFG).unwrap();
        assert_eq!(Rc::as_ptr(&a), std::ptr::from_ref(c.output(0).unwrap()), "compile is the slot's output");
        assert!(c.output(2).is_none());
    }

    /// Two more distinct modules than the bound: the cache never holds
    /// more than `CACHE_ENTRIES`, the least recently used entry goes first
    /// unless its loaded image is in use, an evicted slot answers nothing
    /// and is never handed out again, and the evicted module compiles anew
    /// to an output equal to the first.
    #[test]
    fn the_cache_is_bounded_and_evicts_the_least_recently_used() {
        let mut c = CompileCache::new();
        let evicted = c.compile(app(0.0), CFG).unwrap();
        assert_eq!(c.compile_slot(app(1.0), CFG).unwrap(), 1);
        let in_use = c.loaded(1).unwrap();
        for k in 2..CACHE_ENTRIES + 2 {
            assert_eq!(c.compile_slot(app(k as f64), CFG).unwrap(), k);
            assert!(c.len() <= CACHE_ENTRIES);
        }
        assert_eq!(c.len(), CACHE_ENTRIES);
        // Slot 1 is the oldest, but a device would be running it.
        assert!(c.output(0).is_none() && c.loaded(0).is_none());
        assert!(c.output(1).is_some() && c.output(2).is_none() && c.output(3).is_some());

        let again = c.compile_slot(app(0.0), CFG).unwrap();
        assert_eq!(again, CACHE_ENTRIES + 2, "an evicted slot is never handed out again");
        assert_eq!(c.output(again).unwrap().module, evicted.module);
        assert!(c.output(3).is_none(), "the next least recently used went");
        assert_eq!((c.hits, c.misses, c.len()), (0, CACHE_ENTRIES as u64 + 3, CACHE_ENTRIES));

        // Out of use, the oldest entry is the next to go.
        drop(in_use);
        c.compile_slot(app(-1.0), CFG).unwrap();
        assert!(c.output(1).is_none() && c.output(4).is_some());
    }

    /// SplitMix64: the seeded choices of the memo tests.
    struct Mix(u64);
    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// The reference a cache must agree with: the keys it holds, least
    /// recently used first, each with its slot, never more than
    /// `CACHE_ENTRIES` of them.
    #[derive(Default)]
    struct Lru {
        keys: Vec<((Module, BuildConfig), usize)>,
        next: usize,
    }

    impl Lru {
        /// The slot a lookup of `key` answers, and whether it is a hit.
        fn lookup(&mut self, key: (Module, BuildConfig)) -> (usize, bool) {
            if let Some(at) = self.keys.iter().position(|(k, _)| *k == key) {
                let held = self.keys.remove(at);
                let slot = held.1;
                self.keys.push(held);
                return (slot, true);
            }
            if self.keys.len() == CACHE_ENTRIES {
                self.keys.remove(0);
            }
            self.keys.push((key, self.next));
            self.next += 1;
            (self.next - 1, false)
        }
    }

    /// `compile_slot_rc` can only repeat a decision `==` made, and only
    /// while the entry it made it for is held: over a stream of `Rc`s that
    /// are resubmitted, dropped and re-created (with equal and with
    /// unequal content, so the allocator hands old addresses to new
    /// modules), shared, and changed through `Rc::make_mut` between
    /// submissions, it answers and counts exactly as `compile_slot` of a
    /// clone does on a cache of its own, and both answer as the reference
    /// LRU does. Two kinds of stream: six contents under three
    /// configurations, which always fit, and 300 `Rc`s drawn from 1 000
    /// contents, which do not, so `seen` keeps remembering `Rc`s whose
    /// entries were evicted.
    #[test]
    fn remembered_rcs_agree_with_structural_lookup() {
        const CONFIGS: [BuildConfig; 3] =
            [CFG, BuildConfig::NewRtNightly, BuildConfig::NewRt];
        // (seed, `Rc`s, contents, configurations, steps)
        let streams = [(1, 8, 3, 3, 3_000), (2, 8, 3, 3, 3_000), (7, 8, 3, 3, 3_000), (3, 300, 1_000, 1, 1_200)];
        for (seed, n_rcs, contents, configs, steps) in streams {
            let mut rng = Mix(seed);
            // A miss costs a real compile.
            let content = |rng: &mut Mix| app(2.0 + rng.below(contents) as f64);
            let mut rcs: Vec<Rc<Module>> = (0..n_rcs).map(|_| Rc::new(content(&mut rng))).collect();
            let mut sharers: Vec<Rc<Module>> = Vec::new();
            let (mut by_rc, mut by_value) = (CompileCache::new(), CompileCache::new());
            let mut model = Lru::default();
            for step in 0..steps {
                let i = rng.below(rcs.len());
                match rng.below(10) {
                    // Dropped and re-created: its address is free again.
                    0 => rcs[i] = Rc::new(content(&mut rng)),
                    // Changed in place, alone (a `Weak` of `seen` makes
                    // `make_mut` move it) or shared (it clones).
                    1 => {
                        if rng.below(2) == 0 {
                            sharers.push(Rc::clone(&rcs[i]));
                        }
                        let renamed = ["cache_test_app", "renamed"][rng.below(2)];
                        Rc::make_mut(&mut rcs[i]).name = renamed.to_string();
                        sharers.truncate(2);
                    }
                    _ => {}
                }
                let config = CONFIGS[rng.below(configs)];
                let hits = by_rc.hits;
                let slot = by_rc.compile_slot_rc(&rcs[i], config).unwrap();
                let want = model.lookup((Module::clone(&rcs[i]), config));
                assert_eq!((slot, by_rc.hits > hits), want, "seed {seed} step {step}");
                assert_eq!(
                    slot,
                    by_value.compile_slot(Module::clone(&rcs[i]), config).unwrap(),
                    "seed {seed} step {step}"
                );
                assert_eq!(by_rc.output(slot).unwrap().module, by_value.output(slot).unwrap().module);
                assert_eq!(
                    (by_rc.hits, by_rc.misses, by_rc.len()),
                    (by_value.hits, by_value.misses, by_value.len()),
                    "seed {seed} step {step}"
                );
            }
            if contents == 3 {
                assert!(by_rc.len() <= 6 * 3 && by_rc.hits > 2_900);
            } else {
                assert_eq!(by_rc.len(), CACHE_ENTRIES);
                assert!(by_rc.misses > CACHE_ENTRIES as u64 + 100 && by_rc.hits > 500, "{} hits", by_rc.hits);
            }
        }
    }

    /// `seen` is bounded by its constant and pins no module: 10⁵
    /// short-lived `Rc`s leave at most `SEEN_MAX` entries, every one of a
    /// dropped module dead, and an `Rc` that outlives them all is still
    /// remembered.
    #[test]
    fn remembered_rcs_are_bounded_and_not_kept_alive() {
        let mut c = CompileCache::new();
        let kept = Rc::new(app(2.0));
        let slot = c.compile_slot_rc(&kept, CFG).unwrap();
        // Two contents, so an address a forgotten module gave back comes
        // round again holding the other one.
        let templates = [app(3.0), app(4.0)];
        let slots = [1, 2];
        assert_eq!(templates.each_ref().map(|t| c.compile_slot(t.clone(), CFG).unwrap()), slots);
        let mut rng = Mix(20);
        let mut last = Weak::new();
        for _ in 0..100_000 {
            let which = rng.below(2);
            let short_lived = Rc::new(templates[which].clone());
            assert_eq!(c.compile_slot_rc(&short_lived, CFG).unwrap(), slots[which]);
            assert!(c.seen.len() <= SEEN_MAX);
            last = Rc::downgrade(&short_lived);
        }
        assert_eq!(last.strong_count(), 0, "the cache kept a dropped module alive");
        let live = c.seen.values().filter(|(pin, _)| pin.strong_count() > 0).count();
        assert_eq!(live, 1, "only `kept` is alive");
        assert_eq!(Rc::strong_count(&kept), 1);
        let hits = c.hits;
        assert_eq!(c.compile_slot_rc(&kept, CFG).unwrap(), slot);
        assert_eq!((c.hits, c.misses, c.len()), (hits + 1, 3, 3));

        // Full of live modules: forgotten wholesale, never over the bound.
        let live: Vec<Rc<Module>> = (0..SEEN_MAX + 8).map(|_| Rc::new(templates[0].clone())).collect();
        for rc in &live {
            c.compile_slot_rc(rc, CFG).unwrap();
            assert!(c.seen.len() <= SEEN_MAX);
        }
    }
}
