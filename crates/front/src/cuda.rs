//! Native CUDA-style baseline kernels: no OpenMP runtime, grid-stride loops
//! written directly against the hardware intrinsics. These are the "CUDA
//! (NVCC)" rows/bars of the paper's evaluation.

use nzomp_ir::module::FuncRef;
use nzomp_ir::{ExecMode, FuncBuilder, Module, Operand, Ty};

/// Emit a grid-stride kernel: parameters are passed by value (registers),
/// the idiomatic CUDA shape the paper contrasts with OpenMP's by-reference
/// aggregates (§VII).
pub fn grid_stride_kernel(
    m: &mut Module,
    name: &str,
    params: &[Ty],
    trip_count: impl FnOnce(&mut FuncBuilder, &[Operand]) -> Operand,
    body: impl FnOnce(&mut Module, &mut FuncBuilder, Operand, &[Operand]),
) -> FuncRef {
    let mut b = FuncBuilder::new(name, params.to_vec(), None);
    let param_vals: Vec<Operand> = (0..params.len() as u32).map(Operand::Param).collect();
    let n = trip_count(&mut b, &param_vals);
    let tid = b.thread_id();
    let bid = b.block_id();
    let bdim = b.block_dim();
    let gdim = b.grid_dim();
    let base = b.mul(bid, bdim);
    let start = b.add(base, tid);
    let stride = b.mul(bdim, gdim);

    let preheader = b.current_block();
    let header = b.new_block();
    let body_bb = b.new_block();
    let exit = b.new_block();
    b.br(header);
    b.switch_to(header);
    let iv = b.phi(Ty::I64, vec![(preheader, start)]);
    let cond = b.icmp_slt(iv, n);
    b.cond_br(cond, body_bb, exit);
    b.switch_to(body_bb);
    body(m, &mut b, iv, &param_vals);
    let next = b.add(iv, stride);
    let latch = b.current_block();
    b.br(header);
    b.phi_add_incoming(iv, latch, next);
    b.switch_to(exit);
    b.ret(None);

    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    k
}
