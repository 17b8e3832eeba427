//! Seeded inputs and their oracles. Every workload is a pool of
//! [`OpSpec`]s — one target region each: module, configuration, launch
//! shape, map clauses, and the answer the benchmark computed itself — and
//! a driver (`workloads.rs`) that pushes them through one layer of the
//! stack. The same pool feeds the ladder of the traced run.

use std::rc::Rc;

use crate::api::{
    self, BuildConfig, DevPtr, Device, KernelMetrics, Launch, Module, PassOptions, RtVal,
};
use crate::span::Tracer;
use crate::stats::Rng;

/// One map clause or firstprivate scalar, in kernel-parameter order.
#[derive(Clone, Debug)]
pub enum Arg {
    To(Rc<Vec<u8>>),
    From(u64),
    Alloc(u64),
    Scalar(RtVal),
}

/// What a correct execution of the region produces. None of these come
/// from the system under test.
#[derive(Clone, Debug)]
pub enum Check {
    /// Output buffer `arg` read as f64s, each within relative `tol` of the
    /// host reference (`tol == 0` demands equal bits).
    F64 {
        arg: usize,
        expected: Rc<Vec<f64>>,
        tol: f64,
    },
    /// Output buffer `arg` read as i64s, equal to the host closed form.
    I64 { arg: usize, expected: Rc<Vec<i64>> },
    /// The launch must trap with a message containing this text.
    Trap(&'static str),
}

/// How the application module of an op is built, so the ladder can time
/// the front end on the workload's own modules.
#[derive(Clone)]
pub enum Build {
    Scale(f64),
    Div,
    Loop { branchy: bool, iters: i64 },
    Proxy(Rc<dyn api::Proxy>),
}

#[derive(Clone)]
pub struct OpSpec {
    /// Index into the workload's kinds (its distinct kernels).
    pub kind: usize,
    pub build: Build,
    pub module: Rc<Module>,
    pub config: BuildConfig,
    /// `Some` only for the Fig. 13 ablation cells of `compile`.
    pub opts: Option<PassOptions>,
    pub kernel: &'static str,
    pub launch: Launch,
    pub args: Vec<Arg>,
    pub check: Check,
}

pub fn f64_bytes(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn words(b: &[u8]) -> impl Iterator<Item = [u8; 8]> + '_ {
    b.chunks_exact(8)
        .map(|c| [c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
}

impl OpSpec {
    /// Build the application module again, as `module` was built.
    pub fn front_build(&self, tr: &mut Tracer) -> Module {
        match &self.build {
            Build::Scale(factor) => tr.span("front.build", || api::scale_module(*factor)),
            Build::Div => tr.span("front.build", api::div_module),
            Build::Loop { branchy, iters } => {
                tr.span("front.build", || api::loop_module(*branchy, *iters))
            }
            Build::Proxy(p) => api::front_build(tr, p.as_ref(), self.config),
        }
    }

    /// Index of the verified output argument, if the op completes.
    pub fn out_arg(&self) -> Option<usize> {
        match &self.check {
            Check::F64 { arg, .. } | Check::I64 { arg, .. } => Some(*arg),
            Check::Trap(_) => None,
        }
    }

    pub fn traps(&self) -> bool {
        matches!(self.check, Check::Trap(_))
    }

    /// Bytes moved host→device plus device→host by the map clauses.
    pub fn mapped_bytes(&self) -> u64 {
        self.args
            .iter()
            .map(|a| match a {
                Arg::To(b) => b.len() as u64,
                Arg::From(n) => *n,
                Arg::Alloc(_) | Arg::Scalar(_) => 0,
            })
            .sum()
    }

    /// Does `out` (the bytes of the output argument) match the oracle?
    pub fn output_ok(&self, out: &[u8]) -> bool {
        match &self.check {
            Check::F64 { expected, tol, .. } => {
                out.len() == expected.len() * 8
                    && words(out).zip(expected.iter()).all(|(w, e)| {
                        let g = f64::from_le_bytes(w);
                        if *tol == 0.0 {
                            g.to_bits() == e.to_bits()
                        } else {
                            (g - e).abs() / e.abs().max(1.0) <= *tol
                        }
                    })
            }
            Check::I64 { expected, .. } => {
                out.len() == expected.len() * 8
                    && words(out)
                        .zip(expected.iter())
                        .all(|(w, e)| i64::from_le_bytes(w) == *e)
            }
            Check::Trap(_) => false,
        }
    }

    pub fn trap_ok(&self, error: &str) -> bool {
        matches!(self.check, Check::Trap(text) if error.contains(text))
    }

    pub fn region_args(&self) -> Vec<api::RegionArg> {
        self.args
            .iter()
            .map(|a| match a {
                Arg::To(b) => api::RegionArg::To((**b).clone()),
                Arg::From(n) => api::RegionArg::From(*n),
                Arg::Alloc(n) => api::RegionArg::Alloc(*n),
                Arg::Scalar(v) => api::RegionArg::Scalar(*v),
            })
            .collect()
    }

    pub fn request(&self) -> api::RequestSpec {
        api::RequestSpec {
            module: Rc::clone(&self.module),
            config: self.config,
            kernel: self.kernel.to_string(),
            launch: self.launch,
            args: self
                .args
                .iter()
                .map(|a| match a {
                    Arg::To(b) => api::ReqArg::In(Rc::clone(b)),
                    Arg::From(n) => api::ReqArg::Out(*n),
                    Arg::Alloc(n) => api::ReqArg::Scratch(*n),
                    Arg::Scalar(v) => api::ReqArg::Scalar(*v),
                })
                .collect(),
        }
    }
}

// ---- the direct device path (bottom rung, and every reference run) -------

/// An op's buffers materialized on a bare device, in argument order.
pub struct Placed {
    pub args: Vec<RtVal>,
    pub out: Option<(DevPtr, usize)>,
}

pub fn place(tr: &mut Tracer, dev: &mut Device, op: &OpSpec) -> Result<Placed, String> {
    let mut args = Vec::with_capacity(op.args.len());
    let mut out = None;
    for (i, a) in op.args.iter().enumerate() {
        let (val, len) = match a {
            Arg::To(b) => {
                let p = api::device_alloc(tr, dev, b.len() as u64);
                api::device_write_bytes(tr, dev, p, b)?;
                (RtVal::P(p), b.len())
            }
            Arg::From(n) | Arg::Alloc(n) => (RtVal::P(api::device_alloc(tr, dev, *n)), *n as usize),
            Arg::Scalar(v) => (*v, 0),
        };
        if op.out_arg() == Some(i) {
            if let RtVal::P(p) = val {
                out = Some((p, len));
            }
        }
        args.push(val);
    }
    Ok(Placed { args, out })
}

/// What one clean run of an op on a bare single-worker bytecode device
/// looks like: the reference every higher layer must reproduce exactly.
pub struct Reference {
    /// `None` for an op that traps, as its oracle demands.
    pub metrics: Option<KernelMetrics>,
    pub out: Vec<u8>,
    /// The device's whole global memory after the run.
    pub global: Vec<u8>,
    pub code_insts: u64,
}

pub fn compile_op(tr: &mut Tracer, op: &OpSpec) -> Result<api::CompileOutput, String> {
    let image = api::compile_with(tr, (*op.module).clone(), op.config, op.opts.clone())?;
    api::verify_module(tr, &image.module)?;
    Ok(image)
}

/// Load `image` on a fresh device, place the op's buffers and launch
/// once. Returns the device too, so a workload can keep launching on it.
pub fn run_on_fresh_device(
    tr: &mut Tracer,
    image: Module,
    op: &OpSpec,
    workers: usize,
) -> Result<(Reference, Device, Placed), String> {
    let code_insts = api::live_inst_count(&image);
    let mut dev = api::device_load(tr, image, api::ExecTier::Bytecode, workers);
    let placed = place(tr, &mut dev, op)?;
    let launched = api::device_launch(tr, &mut dev, op.kernel, op.launch, &placed.args);
    let (metrics, out) = match (launched, placed.out) {
        (Ok(metrics), Some((p, len))) => {
            let out = api::device_read_bytes(tr, &mut dev, p, len)?;
            if !op.output_ok(&out) {
                return Err(format!(
                    "kind {}: a clean run contradicts the oracle",
                    op.kind
                ));
            }
            (Some(metrics), out)
        }
        (Err(e), None) if op.trap_ok(&e) => (None, Vec::new()),
        (Ok(_), None) => return Err(format!("kind {} completed but must trap", op.kind)),
        (Err(e), _) => return Err(format!("kind {}: clean run failed: {e}", op.kind)),
    };
    let global = api::device_global_bytes(&dev).to_vec();
    Ok((
        Reference {
            metrics,
            out,
            global,
            code_insts,
        },
        dev,
        placed,
    ))
}

pub fn reference(tr: &mut Tracer, op: &OpSpec) -> Result<Reference, String> {
    let image = compile_op(tr, op)?;
    run_on_fresh_device(tr, image.module, op, 1).map(|(r, _, _)| r)
}

// ---- op pools ---------------------------------------------------------------

pub const LANES: usize = 16;
pub const DIV_TRAP: &str = "division by zero";
const SERVE_CFG: BuildConfig = BuildConfig::NewRtNoAssumptions;

fn tiny_launch() -> Launch {
    Launch {
        teams: 1,
        threads_per_team: LANES as u32,
        dyn_smem_bytes: 0,
    }
}

/// A `scale` request over a seeded 128-byte input; the oracle is the
/// closed form `in[i] * factor + i`, bit for bit.
pub fn scale_op(kind: usize, module: &Rc<Module>, factor: f64, rng: &mut Rng) -> OpSpec {
    let input: Vec<f64> = (0..LANES).map(|_| rng.unit() * 8.0).collect();
    let expected: Vec<f64> = input
        .iter()
        .enumerate()
        .map(|(i, x)| x * factor + i as f64)
        .collect();
    OpSpec {
        kind,
        build: Build::Scale(factor),
        module: Rc::clone(module),
        config: SERVE_CFG,
        opts: None,
        kernel: "k",
        launch: tiny_launch(),
        args: vec![
            Arg::To(Rc::new(f64_bytes(&input))),
            Arg::From(8 * LANES as u64),
            Arg::Scalar(RtVal::I(LANES as i64)),
        ],
        check: Check::F64 {
            arg: 1,
            expected: Rc::new(expected),
            tol: 0.0,
        },
    }
}

/// A request that divides by zero on every lane.
pub fn div_op(kind: usize, module: &Rc<Module>) -> OpSpec {
    OpSpec {
        kind,
        build: Build::Div,
        module: Rc::clone(module),
        config: SERVE_CFG,
        opts: None,
        kernel: "d",
        launch: tiny_launch(),
        args: vec![
            Arg::From(8 * LANES as u64),
            Arg::Scalar(RtVal::I(0)),
            Arg::Scalar(RtVal::I(LANES as i64)),
        ],
        check: Check::Trap(DIV_TRAP),
    }
}

/// One proxy as a target region under `config`.
pub fn proxy_op(
    tr: &mut Tracer,
    kind: usize,
    p: &Rc<dyn api::Proxy>,
    config: BuildConfig,
    opts: Option<PassOptions>,
) -> OpSpec {
    let hp = p.host_prepare();
    OpSpec {
        kind,
        build: Build::Proxy(Rc::clone(p)),
        module: Rc::new(api::front_build(tr, p.as_ref(), config)),
        config,
        opts,
        kernel: p.kernel_name(),
        launch: hp.launch,
        args: hp
            .args
            .into_iter()
            .map(|a| match a {
                api::RegionArg::To(b) => Arg::To(Rc::new(b)),
                api::RegionArg::From(n) => Arg::From(n),
                api::RegionArg::Alloc(n) => Arg::Alloc(n),
                api::RegionArg::Scalar(v) => Arg::Scalar(v),
            })
            .collect(),
        check: Check::F64 {
            arg: hp.out_arg,
            expected: Rc::new(hp.expected),
            tol: hp.tol,
        },
    }
}

/// The `exec_tier` loop kernels; the oracle re-computes the mixer on the
/// host with the same wrapping arithmetic.
pub fn loop_op(
    kind: usize,
    branchy: bool,
    teams: u32,
    threads: u32,
    iters: i64,
    salt: i64,
) -> OpSpec {
    let n = (teams * threads) as usize;
    let expected: Vec<i64> = (0..n as i64)
        .map(|gid| {
            let mut acc = (gid ^ salt) as u64;
            for _ in 0..iters {
                let mixed = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let shift = if branchy && mixed & 1 == 1 { 13 } else { 17 };
                acc = mixed ^ (mixed >> shift);
            }
            acc as i64
        })
        .collect();
    OpSpec {
        kind,
        build: Build::Loop { branchy, iters },
        module: Rc::new(api::loop_module(branchy, iters)),
        config: BuildConfig::Cuda,
        opts: None,
        kernel: if branchy { "branchy" } else { "alu" },
        launch: Launch {
            teams,
            threads_per_team: threads,
            dyn_smem_bytes: 0,
        },
        args: vec![Arg::From(8 * n as u64), Arg::Scalar(RtVal::I(salt))],
        check: Check::I64 {
            arg: 0,
            expected: Rc::new(expected),
        },
    }
}

pub const PROXY_NAMES: [&str; 5] = ["xsbench", "rsbench", "testsnap", "minifmm", "gridmini"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_check_is_bit_exact_at_zero_tolerance_and_relative_otherwise() {
        let m = Rc::new(Module::new("t"));
        let mut op = scale_op(0, &m, 2.0, &mut Rng::new(1));
        let Check::F64 { expected, .. } = &op.check else {
            panic!("scale ops check f64 output")
        };
        let good = f64_bytes(expected);
        assert!(op.output_ok(&good));
        let mut off = expected.to_vec();
        off[3] += off[3].abs().max(1.0) * 1e-13;
        assert!(
            !op.output_ok(&f64_bytes(&off)),
            "zero tolerance demands equal bits"
        );
        assert!(
            !op.output_ok(&good[..good.len() - 8]),
            "short output is wrong output"
        );
        op.check = Check::F64 {
            arg: 1,
            expected: Rc::new(off.clone()),
            tol: 1e-9,
        };
        assert!(op.output_ok(&good));
        assert_eq!(op.mapped_bytes(), 256);
        assert!(div_op(1, &m).trap_ok("thread 3: integer division by zero"));
        assert!(!div_op(1, &m).trap_ok("out of bounds"));
        assert!(
            !div_op(1, &m).output_ok(&good),
            "a trapping op has no correct output"
        );
    }

    #[test]
    fn loop_oracle_follows_the_seeded_salt() {
        let a = loop_op(0, true, 1, 4, 10, 5);
        let b = loop_op(0, true, 1, 4, 10, 6);
        let (Check::I64 { expected: ea, .. }, Check::I64 { expected: eb, .. }) =
            (&a.check, &b.check)
        else {
            panic!("loop ops check i64 output")
        };
        assert_eq!(ea.len(), 4);
        assert_ne!(ea, eb);
    }
}
