//! Seeded random kernel generator for the structured differential fuzzer.
//!
//! [`generate`] maps a `u64` seed to a complete, verifiable, *executable*
//! module. Coverage is by construction, not by chance: every generated
//! module contains every [`Inst`] variant, every terminator, every binary /
//! unary / cast / predicate / atomic operation, every intrinsic, every
//! address space, every `Init` form, and both exec modes — the seed varies
//! operand selection, constants, and grid shape, never coverage.
//!
//! Generated kernels are safe to run under any optimization pipeline and
//! any worker-thread count:
//! * trap-free — divisors are forced odd (`or x, 1`), shift amounts masked
//!   (`and x, 63`), `assert.fail` sits behind a never-taken `gid < 0`
//!   branch, and every `assume` states a true fact;
//! * race-free — contended atomics discard their (order-dependent under
//!   reordering) results, value-producing atomics hit per-thread disjoint
//!   slots, and shared-memory neighbor reads are separated from the writes
//!   by an aligned barrier;
//! * heap-deterministic — only global thread 0 calls `malloc`/`free`.
//!
//! The corpus (`tests/corpus/gen-*.nzir`) is exactly `generate(seed)` for
//! pinned seeds, so every corpus file is reproducible from its name.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;

use nzomp_ir::builder::build_counted_loop;
use nzomp_ir::{
    AtomicOp, BinOp, CastKind, ExecMode, FuncBuilder, Function, Global, Init, Inst, Intrinsic,
    Linkage, Module, Operand, Pred, Space, Term, Ty, UnOp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Contended i64 cells at the front of the device buffer.
pub const CELLS: u64 = 4;

/// A generated module plus everything needed to launch it: grid shape,
/// buffer size, and where the observable output lives.
pub struct GenModule {
    pub module: Module,
    pub teams: u32,
    pub threads: u32,
    /// Size of the single `ptr` argument's buffer.
    pub buf_bytes: u64,
    /// Byte offset of the output region within the buffer.
    pub out_off: u64,
    /// Number of 8-byte output slots (2 per global thread: f64 + i64).
    pub out_slots: usize,
}

impl GenModule {
    /// Launch metadata as a printer-comment line, stored in corpus files
    /// right after the version header (the parser skips it, the corpus
    /// runner reads it back via [`parse_launch_comment`]).
    pub fn launch_comment(&self) -> String {
        format!(
            "; launch teams={} threads={} buf={} out_off={} out_slots={}",
            self.teams, self.threads, self.buf_bytes, self.out_off, self.out_slots
        )
    }
}

/// Launch metadata recovered from a corpus file's `; launch` comment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchMeta {
    pub teams: u32,
    pub threads: u32,
    pub buf_bytes: u64,
    pub out_off: u64,
    pub out_slots: usize,
}

/// Parse the `; launch teams=.. threads=.. buf=.. out_off=.. out_slots=..`
/// comment out of a corpus file, if present.
pub fn parse_launch_comment(text: &str) -> Option<LaunchMeta> {
    let line = text
        .lines()
        .find(|l| l.trim().starts_with("; launch "))?
        .trim();
    let mut teams = None;
    let mut threads = None;
    let mut buf = None;
    let mut out_off = None;
    let mut out_slots = None;
    for tok in line.trim_start_matches("; launch ").split_whitespace() {
        let (key, val) = tok.split_once('=')?;
        match key {
            "teams" => teams = val.parse::<u32>().ok(),
            "threads" => threads = val.parse::<u32>().ok(),
            "buf" => buf = val.parse::<u64>().ok(),
            "out_off" => out_off = val.parse::<u64>().ok(),
            "out_slots" => out_slots = val.parse::<usize>().ok(),
            _ => return None,
        }
    }
    Some(LaunchMeta {
        teams: teams?,
        threads: threads?,
        buf_bytes: buf?,
        out_off: out_off?,
        out_slots: out_slots?,
    })
}

/// The operator pools the generator draws from, read off each enum's `ALL`:
/// a new variant is generated with no edit here.
fn bin_pool(float: bool) -> Vec<BinOp> {
    let of_kind = |op: &&BinOp| op.is_float() == float;
    BinOp::ALL.iter().filter(of_kind).copied().collect()
}

fn float_un_pool() -> Vec<UnOp> {
    UnOp::ALL.iter().filter(|op| op.is_float()).copied().collect()
}

const F64_SPECIALS: [f64; 7] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::MIN_POSITIVE,
    1.000_000_000_000_000_2,
];
const I64_EDGES: [i64; 5] = [i64::MAX, i64::MIN, -1, 1, 63];

fn pick(rng: &mut StdRng, pool: &[Operand]) -> Operand {
    pool[rng.gen_range(0..pool.len())]
}

/// Deterministically generate one executable module from a seed.
pub fn generate(seed: u64) -> GenModule {
    let mut rng = StdRng::seed_from_u64(seed);
    let (int_bins, float_bins, float_uns) = (bin_pool(false), bin_pool(true), float_un_pool());
    let teams = rng.gen_range(1..=4u32);
    let threads = rng.gen_range(1..=8u32);
    let n = (teams * threads) as u64;
    let scratch_off = CELLS * 8;
    let out_off = scratch_off + n * 8;
    let out_slots = (2 * n) as usize;
    let buf_bytes = out_off + n * 16;

    let mut m = Module::new(format!("fuzz_{seed}"));

    // Globals: one per address space, all three Init forms, both linkages.
    let g_counter = m.add_global(Global::new(
        "g_counter",
        Space::Global,
        8,
        Init::I64(rng.gen_range(-100..100)),
    ));
    let table: Vec<u8> = (0..16).map(|_| rng.gen_range(0..=255u8)).collect();
    let g_table = m.add_global(Global::constant(
        "g_table",
        Space::Constant,
        16,
        Init::Bytes(table),
    ));
    let g_shared = m.add_global(Global::new(
        "g_shared",
        Space::Shared,
        threads as u64 * 8,
        Init::Zero,
    ));
    m.add_global(Global::new("g_local", Space::Local, 8, Init::Zero));
    let mut g_ext = Global::new("g_ext", Space::Global, 8, Init::Zero);
    g_ext.linkage = Linkage::External;
    m.add_global(g_ext);

    // An external declaration (never called) and an internal helper with a
    // diamond + phi + value return, called from the kernel.
    m.add_function(Function::declaration(
        "ext_fn",
        vec![Ty::Ptr],
        Some(Ty::I64),
    ));
    let mut hb = FuncBuilder::new("helper", vec![Ty::I64, Ty::I64], Some(Ty::I64));
    hb.set_linkage(Linkage::Internal);
    if rng.gen_range(0..2) == 0 {
        hb.attrs_mut().no_inline = true;
    } else {
        hb.attrs_mut().always_inline = true;
    }
    let (ha, hc) = (hb.param(0), hb.param(1));
    let cond = hb.icmp_slt(ha, hc);
    let t_blk = hb.new_block();
    let f_blk = hb.new_block();
    let join = hb.new_block();
    hb.cond_br(cond, t_blk, f_blk);
    hb.switch_to(t_blk);
    let tv = hb.mul(ha, Operand::i64(rng.gen_range(1..7)));
    hb.br(join);
    hb.switch_to(f_blk);
    let fv = hb.sub(hc, ha);
    hb.br(join);
    hb.switch_to(join);
    let hphi = hb.phi(Ty::I64, vec![(t_blk, tv), (f_blk, fv)]);
    hb.ret(Some(hphi));
    let helper = m.add_function(hb.finish());

    // The kernel.
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    if rng.gen_range(0..2) == 0 {
        // Sound: every barrier below is executed by all threads together.
        b.attrs_mut().aligned_barrier = true;
    }
    let buf = b.param(0);
    let tid = b.thread_id();
    let bid = b.block_id();
    let bdim = b.block_dim();
    let gdim = b.grid_dim();
    let base = b.mul(bid, bdim);
    let gid = b.add(base, tid);
    // True-only assumes.
    let a0 = b.icmp_sge(tid, Operand::i64(0));
    b.assume(a0);
    let a1 = b.icmp_slt(tid, bdim);
    b.assume(a1);
    // assert.fail + unreachable behind a never-taken branch.
    let bad = b.icmp_slt(gid, Operand::i64(0));
    let fail_blk = b.new_block();
    let cont = b.new_block();
    b.cond_br(bad, fail_blk, cont);
    b.switch_to(fail_blk);
    b.assert_fail();
    b.unreachable();
    b.switch_to(cont);

    // Value pools the random choices draw from.
    let mut ints = vec![
        gid,
        tid,
        bid,
        bdim,
        gdim,
        Operand::i64(rng.gen_range(-9..10)),
        Operand::i64(I64_EDGES[rng.gen_range(0..I64_EDGES.len())]),
    ];
    let gid_f = b.si_to_fp(gid);
    let mut floats = vec![
        gid_f,
        Operand::f64(rng.gen_range(-4.0..4.0)),
        Operand::f64(F64_SPECIALS[rng.gen_range(0..F64_SPECIALS.len())]),
    ];

    // Every binary op, with trap guards on divisors and shift amounts.
    for &op in &int_bins {
        let lhs = pick(&mut rng, &ints);
        let mut rhs = pick(&mut rng, &ints);
        rhs = match op {
            BinOp::SDiv | BinOp::SRem | BinOp::UDiv | BinOp::URem => {
                b.or(rhs, Operand::i64(1)) // odd, hence nonzero
            }
            BinOp::Shl | BinOp::LShr | BinOp::AShr => b.and(rhs, Operand::i64(63)),
            _ => rhs,
        };
        let v = b.bin(op, Ty::I64, lhs, rhs);
        ints.push(v);
    }
    for &op in &float_bins {
        let (l, r) = (pick(&mut rng, &floats), pick(&mut rng, &floats));
        let v = b.bin(op, Ty::F64, l, r);
        floats.push(v);
    }
    // Every unary op.
    let x = pick(&mut rng, &ints);
    let v = b.un(UnOp::Neg, Ty::I64, x);
    ints.push(v);
    let x = pick(&mut rng, &ints);
    let v = b.un(UnOp::Not, Ty::I64, x);
    ints.push(v);
    for &op in &float_uns {
        let x = pick(&mut rng, &floats);
        let v = b.un(op, Ty::F64, x);
        floats.push(v);
    }
    // Every cast kind (PtrCast round-trips the buffer pointer).
    let x = pick(&mut rng, &ints);
    let v = b.cast(CastKind::IntCast, Ty::I32, x);
    ints.push(v);
    let x = pick(&mut rng, &ints);
    let v = b.cast(CastKind::ZExtCast, Ty::I8, x);
    ints.push(v);
    let x = pick(&mut rng, &ints);
    let v = b.si_to_fp(x);
    floats.push(v);
    let x = pick(&mut rng, &floats);
    let v = b.fp_to_si(x);
    ints.push(v);
    let buf_as_int = b.cast(CastKind::PtrCast, Ty::I64, buf);
    let buf_again = b.cast(CastKind::PtrCast, Ty::Ptr, buf_as_int);
    // Every predicate, via select chains (plus one float compare).
    for &pred in Pred::ALL {
        let (l, r) = (pick(&mut rng, &ints), pick(&mut rng, &ints));
        let c = b.cmp(pred, Ty::I64, l, r);
        let (t, f) = (pick(&mut rng, &ints), pick(&mut rng, &ints));
        let v = b.select(Ty::I64, c, t, f);
        ints.push(v);
    }
    let (l, r) = (pick(&mut rng, &floats), pick(&mut rng, &floats));
    let fc = b.cmp(Pred::Slt, Ty::F64, l, r);
    let (t, f) = (pick(&mut rng, &floats), pick(&mut rng, &floats));
    let v = b.select(Ty::F64, fc, t, f);
    floats.push(v);

    // Private memory: alloca with i64/f64/i32/i8 stores and loads.
    let slot = b.alloca(24);
    let x = pick(&mut rng, &ints);
    b.store(Ty::I64, slot, x);
    let v = b.load(Ty::I64, slot);
    ints.push(v);
    let slot8 = b.ptr_add(slot, Operand::i64(8));
    let x = pick(&mut rng, &floats);
    b.store(Ty::F64, slot8, x);
    let v = b.load(Ty::F64, slot8);
    floats.push(v);
    let slot16 = b.ptr_add(slot, Operand::i64(16));
    let x = pick(&mut rng, &ints);
    b.store(Ty::I32, slot16, x);
    let v = b.load(Ty::I32, slot16);
    ints.push(v);
    let x = pick(&mut rng, &ints);
    b.store(Ty::I8, slot16, x);
    let v = b.load(Ty::I8, slot16);
    ints.push(v);

    // Shared memory: write own slot, aligned barrier, read the neighbor's
    // slot (race-free because of the barrier), then a plain barrier.
    let sslot = b.gep(Operand::Global(g_shared), tid, 8);
    b.store(Ty::I64, sslot, gid);
    b.aligned_barrier();
    let succ = b.add(tid, Operand::i64(1));
    let nidx = b.srem(succ, bdim); // bdim >= 1, never zero
    let nslot = b.gep(Operand::Global(g_shared), nidx, 8);
    let v = b.load(Ty::I64, nslot);
    ints.push(v);
    b.barrier();

    // Constant-table load.
    let tix = b.and(tid, Operand::i64(1));
    let tp = b.gep(Operand::Global(g_table), tix, 8);
    let v = b.load(Ty::I64, tp);
    ints.push(v);

    // Contended atomics: results discarded (their old-values depend on
    // scheduling order), final cell states are order-insensitive.
    b.atomic_add(
        Ty::I64,
        Operand::Global(g_counter),
        Operand::i64(rng.gen_range(1..5)),
    );
    let cell_a = b.ptr_add(buf, Operand::i64(rng.gen_range(0..CELLS as i64) * 8));
    b.atomic(AtomicOp::Min, Ty::I64, cell_a, gid);
    let cell_b = b.ptr_add(buf, Operand::i64(rng.gen_range(0..CELLS as i64) * 8));
    b.atomic(AtomicOp::Max, Ty::I64, cell_b, gid);

    // Per-thread scratch slot: every atomic op + cas, results usable
    // because no other thread touches the slot.
    let scr_base = b.ptr_add(buf, Operand::i64(scratch_off as i64));
    let scr = b.gep(scr_base, gid, 8);
    let x = pick(&mut rng, &ints);
    let v = b.atomic_add(Ty::I64, scr, x);
    ints.push(v);
    let x = pick(&mut rng, &ints);
    let v = b.atomic(AtomicOp::Min, Ty::I64, scr, x);
    ints.push(v);
    let x = pick(&mut rng, &ints);
    let v = b.atomic(AtomicOp::Max, Ty::I64, scr, x);
    ints.push(v);
    let x = pick(&mut rng, &ints);
    let v = b.atomic(AtomicOp::Exchange, Ty::I64, scr, x);
    ints.push(v);
    let x = pick(&mut rng, &floats);
    let v = b.atomic(AtomicOp::Add, Ty::F64, scr, x);
    floats.push(v);
    let (e, nv) = (pick(&mut rng, &ints), pick(&mut rng, &ints));
    let v = b.cas(Ty::I64, scr, e, nv);
    ints.push(v);

    // malloc/free diamond: only global thread 0 touches the heap, so the
    // heap image is identical at every worker count.
    let from = b.current_block();
    let is0 = b.icmp_eq(gid, Operand::i64(0));
    let heap_blk = b.new_block();
    let heap_join = b.new_block();
    b.cond_br(is0, heap_blk, heap_join);
    b.switch_to(heap_blk);
    let hp = b.malloc(Operand::i64(16));
    b.store(Ty::I64, hp, Operand::i64(rng.gen_range(0..1000)));
    let hv = b.load(Ty::I64, hp);
    b.free(hp);
    b.br(heap_join);
    b.switch_to(heap_join);
    let v = b.phi(Ty::I64, vec![(from, Operand::i64(0)), (heap_blk, hv)]);
    ints.push(v);

    // Three-way join: a phi with more than two incoming edges.
    let way = b.and(gid, Operand::i64(3));
    let from3 = b.current_block();
    let way_a = b.new_block();
    let way_rest = b.new_block();
    let way_b = b.new_block();
    let way_c = b.new_block();
    let way_join = b.new_block();
    let is_a = b.icmp_eq(way, Operand::i64(0));
    b.cond_br(is_a, way_a, way_rest);
    b.switch_to(way_rest);
    let is_b = b.icmp_eq(way, Operand::i64(1));
    b.cond_br(is_b, way_b, way_c);
    b.switch_to(way_a);
    let va = b.add(gid, Operand::i64(rng.gen_range(1..20)));
    b.br(way_join);
    b.switch_to(way_b);
    let vb = b.mul(gid, Operand::i64(rng.gen_range(2..9)));
    b.br(way_join);
    b.switch_to(way_c);
    let vc = b.sub(gid, Operand::i64(rng.gen_range(1..20)));
    b.br(way_join);
    b.switch_to(way_join);
    let v = b.phi(
        Ty::I64,
        vec![(way_a, va), (way_b, vb), (way_c, vc)],
    );
    ints.push(v);
    let _ = from3;

    // Direct call of the internal helper.
    let (x, y) = (pick(&mut rng, &ints), pick(&mut rng, &ints));
    if let Some(v) = b.call(Operand::Func(helper), vec![x, y], Some(Ty::I64)) {
        ints.push(v);
    }

    // A counted loop with a data-dependent trip count (1..=4) and a
    // loop-carried accumulator in private memory.
    let trip_lo = b.and(gid, Operand::i64(3));
    let trip = b.add(trip_lo, Operand::i64(1));
    b.store(Ty::I64, slot, Operand::i64(0));
    build_counted_loop(&mut b, Operand::i64(0), trip, Operand::i64(1), |b, iv| {
        let cur = b.load(Ty::I64, slot);
        let nx = b.add(cur, iv);
        b.store(Ty::I64, slot, nx);
    });
    let v = b.load(Ty::I64, slot);
    ints.push(v);

    // Random tail: extra arithmetic whose shape depends on the seed.
    for _ in 0..rng.gen_range(4..24) {
        match rng.gen_range(0..5) {
            0 => {
                let op = int_bins[rng.gen_range(0..int_bins.len())];
                let lhs = pick(&mut rng, &ints);
                let mut rhs = pick(&mut rng, &ints);
                rhs = match op {
                    BinOp::SDiv | BinOp::SRem | BinOp::UDiv | BinOp::URem => {
                        b.or(rhs, Operand::i64(1))
                    }
                    BinOp::Shl | BinOp::LShr | BinOp::AShr => b.and(rhs, Operand::i64(63)),
                    _ => rhs,
                };
                let v = b.bin(op, Ty::I64, lhs, rhs);
                ints.push(v);
            }
            1 => {
                let op = float_bins[rng.gen_range(0..float_bins.len())];
                let (l, r) = (pick(&mut rng, &floats), pick(&mut rng, &floats));
                let v = b.bin(op, Ty::F64, l, r);
                floats.push(v);
            }
            2 => {
                let op = float_uns[rng.gen_range(0..float_uns.len())];
                let x = pick(&mut rng, &floats);
                let v = b.un(op, Ty::F64, x);
                floats.push(v);
            }
            3 => {
                let pred = Pred::ALL[rng.gen_range(0..Pred::ALL.len())];
                let (l, r) = (pick(&mut rng, &ints), pick(&mut rng, &ints));
                let c = b.cmp(pred, Ty::I64, l, r);
                let (t, f) = (pick(&mut rng, &ints), pick(&mut rng, &ints));
                let v = b.select(Ty::I64, c, t, f);
                ints.push(v);
            }
            _ => {
                let x = pick(&mut rng, &ints);
                let v = b.si_to_fp(x);
                floats.push(v);
            }
        }
    }

    // Fold both pools and write the observable outputs: out[gid] holds
    // (f64 accumulator, i64 accumulator). Xor keeps the int fold stable
    // under huge intermediate values.
    let mut acc_i = Operand::i64(0);
    for v in ints.clone() {
        acc_i = b.bin(BinOp::Xor, Ty::I64, acc_i, v);
    }
    let seed_f = b.si_to_fp(acc_i);
    let mut acc_f = seed_f;
    for v in floats.clone() {
        acc_f = b.fadd(acc_f, v);
    }
    // Store the int accumulator into the per-thread scratch slot through
    // the ptr-cast round-tripped base pointer (exercises PtrCast end to
    // end; own slot, so still race-free).
    let scr2_base = b.ptr_add(buf_again, Operand::i64(scratch_off as i64));
    let scr2 = b.gep(scr2_base, gid, 8);
    b.store(Ty::I64, scr2, acc_i);
    let out_base = b.ptr_add(buf, Operand::i64(out_off as i64));
    let o_f = b.gep(out_base, gid, 16);
    b.store(Ty::F64, o_f, acc_f);
    let o_i = b.ptr_add(o_f, Operand::i64(8));
    b.store(Ty::I64, o_i, acc_i);
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);

    // A trivial Generic-mode kernel so both exec modes appear in every
    // module (never launched by the harness).
    let mut ab = FuncBuilder::new("k_aux", vec![], None);
    ab.ret(None);
    let aux = m.add_function(ab.finish());
    m.add_kernel(aux, ExecMode::Generic);

    // Normal form: the exact round-trip contract `parse(print(m)) == m`
    // holds for normalized modules (the builder's alloca/phi insertions
    // leave the arena out of block order).
    m.renumber();

    GenModule {
        module: m,
        teams,
        threads,
        buf_bytes,
        out_off,
        out_slots,
    }
}

/// Feature labels the coverage test checks off. Every generated module
/// must cover every label — coverage is structural, not probabilistic.
/// Operator labels come from each enum's `ALL`, so a variant the generator
/// does not emit is a missing label with no edit here.
pub fn all_labels() -> BTreeSet<String> {
    let fixed = [
        // Inst variants
        "inst:Bin",
        "inst:Un",
        "inst:Cast",
        "inst:Cmp",
        "inst:Select",
        "inst:Load",
        "inst:Store",
        "inst:PtrAdd",
        "inst:Alloca",
        "inst:Call",
        "inst:Atomic",
        "inst:Cas",
        "inst:Intr",
        "inst:Phi",
        // Terminators
        "term:Br",
        "term:CondBr",
        "term:RetVoid",
        "term:RetValue",
        "term:Unreachable",
        // Exec modes, spaces, init forms, linkage
        "mode:Generic",
        "mode:Spmd",
        "space:Global",
        "space:Shared",
        "space:Local",
        "space:Constant",
        "init:Zero",
        "init:I64",
        "init:Bytes",
        "linkage:Internal",
        "linkage:External",
        "func:declaration",
    ];
    let mut s: BTreeSet<String> = fixed.into_iter().map(String::from).collect();
    s.extend(BinOp::ALL.iter().map(|op| op_label("bin", op.mnemonic())));
    s.extend(UnOp::ALL.iter().map(|op| op_label("un", op.mnemonic())));
    s.extend(CastKind::ALL.iter().map(|k| op_label("cast", k.mnemonic())));
    s.extend(Pred::ALL.iter().map(|p| op_label("pred", p.mnemonic())));
    s.extend(AtomicOp::ALL.iter().map(|a| op_label("atomic", a.mnemonic())));
    s.extend(Intrinsic::ALL.iter().map(|i| op_label("intr", i.mnemonic())));
    s
}

/// `family:mnemonic` — the family keeps `BinOp::Add` and `AtomicOp::Add` apart.
fn op_label(family: &str, mnemonic: &str) -> String {
    format!("{family}:{mnemonic}")
}

/// Which feature labels a module actually contains.
pub fn coverage_labels(m: &Module) -> BTreeSet<String> {
    let mut s = BTreeSet::new();
    let mut add = |label: &str| s.insert(label.to_string());
    for g in &m.globals {
        add(match g.space {
            Space::Global => "space:Global",
            Space::Shared => "space:Shared",
            Space::Local => "space:Local",
            Space::Constant => "space:Constant",
        });
        add(match g.init {
            Init::Zero => "init:Zero",
            Init::I64(_) => "init:I64",
            Init::Bytes(_) => "init:Bytes",
        });
        add(match g.linkage {
            Linkage::Internal => "linkage:Internal",
            Linkage::External => "linkage:External",
        });
    }
    for k in &m.kernels {
        add(match k.exec_mode {
            ExecMode::Generic => "mode:Generic",
            ExecMode::Spmd => "mode:Spmd",
        });
    }
    for f in &m.funcs {
        if f.is_declaration() {
            add("func:declaration");
        }
        add(match f.linkage {
            Linkage::Internal => "linkage:Internal",
            Linkage::External => "linkage:External",
        });
        for blk in &f.blocks {
            add(match &blk.term {
                Term::Br(_) => "term:Br",
                Term::CondBr { .. } => "term:CondBr",
                Term::Ret(None) => "term:RetVoid",
                Term::Ret(Some(_)) => "term:RetValue",
                Term::Unreachable => "term:Unreachable",
            });
            for &iid in &blk.insts {
                let (variant, operator) = match f.inst(iid) {
                    Inst::Bin { op, .. } => ("inst:Bin", Some(("bin", op.mnemonic()))),
                    Inst::Un { op, .. } => ("inst:Un", Some(("un", op.mnemonic()))),
                    Inst::Cast { kind, .. } => ("inst:Cast", Some(("cast", kind.mnemonic()))),
                    Inst::Cmp { pred, .. } => ("inst:Cmp", Some(("pred", pred.mnemonic()))),
                    Inst::Select { .. } => ("inst:Select", None),
                    Inst::Load { .. } => ("inst:Load", None),
                    Inst::Store { .. } => ("inst:Store", None),
                    Inst::PtrAdd { .. } => ("inst:PtrAdd", None),
                    Inst::Alloca { .. } => ("inst:Alloca", None),
                    Inst::Call { .. } => ("inst:Call", None),
                    Inst::Atomic { op, .. } => ("inst:Atomic", Some(("atomic", op.mnemonic()))),
                    Inst::Cas { .. } => ("inst:Cas", None),
                    Inst::Intr { intr, .. } => ("inst:Intr", Some(("intr", intr.mnemonic()))),
                    Inst::Phi { .. } => ("inst:Phi", None),
                };
                add(variant);
                if let Some((family, mnemonic)) = operator {
                    add(&op_label(family, mnemonic));
                }
            }
        }
    }
    s
}
