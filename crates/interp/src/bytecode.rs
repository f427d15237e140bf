//! The compiled register-bytecode execution backend.
//!
//! [`BcModule::compile`] lowers every IR [`Function`] to a contiguous
//! `Vec<Op>` over virtual registers (one per slot) with **pre-resolved
//! block offsets** — branch targets are op indices, not block ids, so the
//! dispatch loop is a single indexed match over a flat array instead of
//! the tree-walk's block/index double indirection. The compiler also:
//!
//! * **fuses superinstructions** for the hot sequences — `Const`+`Bin`
//!   into [`Op::BinImm`], a block-trailing compare feeding its branch
//!   into [`Op::CmpBr`] (materializing the compare slot only when
//!   liveness says a later read needs it), the load-index-store
//!   read-modify-write triple into [`Op::ElemRmw`], and falls through
//!   unconditional jumps to the next block entirely;
//! * **inline-caches intrinsic call sites** as [`CallSite`] records: the
//!   `IntrinsicId`, destination register and argument bindings (slot or
//!   pre-interned string literal) are resolved once at compile time, so
//!   surfacing a special is a site-index lookup, not an argument re-scan.
//!
//! Every fused or folded op carries a **retire weight** — the number of
//! IR instructions/terminators it stands for, at the tree-walk cost
//! schedule (1 per instruction or terminator, 3 per program-function
//! call). `step()` reports that weight as its `cost`, so the simulated
//! clock of a bytecode run is *bit-identical* to the tree-walk clock:
//! same `sim_time`, same blocking points, same deterministic schedules.
//!
//! [`BcVm`] implements the resumable [`StepOutcome::Special`] contract
//! (watched calls, `resolve_special`, `retry_special_later`) and is the
//! only engine: the sequential, discrete-event and real-thread
//! executors, the supervisor ladder and the checker all drive it. The
//! tree-walk [`Vm`](crate::vm::Vm) is kept as the reference the parity
//! tests compare it against.

use crate::error::ExecError;
use crate::vm::{eval_bin, eval_un, zero_of, CallEvent, GlobalMem, PendingSpecial, StepOutcome};
use commset_ir::liveness::{LiveAfter, Liveness};
use commset_ir::repr::{
    Arg, ArrRef, Callee, Const, FuncId, Function, GlobalId, Inst, InstNode, IntrinsicId, Module,
    Terminator,
};
use commset_lang::ast::{BinOp, Type, UnOp};
use commset_runtime::Value;
use commset_transform::{runtime_op, RtOp};

/// A register index (virtual registers are the function's slots).
pub type Reg = u16;

/// An array reference with the local/global distinction pre-split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BcArr {
    /// Frame-local array, by index.
    Local(u16),
    /// Global array.
    Global(GlobalId),
}

/// The right-hand side of a fused read-modify-write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RmwRhs {
    /// A register operand.
    Reg(Reg),
    /// An immediate folded from a `Const`.
    Imm(Value),
}

/// A call argument binding, resolved at compile time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BcCallArg {
    /// Pass the register's value.
    Reg(Reg),
    /// A string-literal argument: the placeholder `Int(0)` is passed and
    /// the literal rides along in [`CallSite::strs`].
    Str,
}

/// One inline-cached intrinsic call site.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSite {
    /// The pre-resolved intrinsic.
    pub intrinsic: IntrinsicId,
    /// Its decoded runtime op (`None` for a world call), resolved once
    /// per intrinsic id at compile time.
    pub op: Option<RtOp>,
    /// Where the result lands, if anywhere.
    pub dst: Option<Reg>,
    /// Argument bindings, in positional order.
    pub args: Vec<BcCallArg>,
    /// Pre-interned string-literal arguments (position, literal) —
    /// computed once here instead of cloned out of the IR on every call.
    pub strs: Vec<(usize, String)>,
}

/// One bytecode operation. Branch operands are pre-resolved op offsets.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `dst = imm`
    Const { dst: Reg, val: Value },
    /// `dst = src`
    Copy { dst: Reg, src: Reg },
    /// `dst = op src`
    Un { dst: Reg, op: UnOp, src: Reg },
    /// `dst = lhs op rhs`
    Bin {
        dst: Reg,
        op: BinOp,
        lhs: Reg,
        rhs: Reg,
    },
    /// Superinstruction: `Const` + `Bin` — `dst = lhs op imm`.
    BinImm {
        dst: Reg,
        op: BinOp,
        lhs: Reg,
        imm: Value,
    },
    /// `dst = ty(src)`
    Cast { dst: Reg, ty: Type, src: Reg },
    /// `dst = load @g`
    LoadG { dst: Reg, g: GlobalId },
    /// `store @g = src`
    StoreG { g: GlobalId, src: Reg },
    /// `dst = arr[idx]`
    LoadElem { dst: Reg, arr: BcArr, idx: Reg },
    /// `arr[idx] = src`
    StoreElem { arr: BcArr, idx: Reg, src: Reg },
    /// Superinstruction: load-index-store — `arr[idx] = arr[idx] op rhs`.
    ElemRmw {
        arr: BcArr,
        idx: Reg,
        op: BinOp,
        rhs: RmwRhs,
    },
    /// Program-function call (pushes a frame; retire weight 3).
    CallFunc {
        dst: Option<Reg>,
        func: FuncId,
        args: Box<[BcCallArg]>,
    },
    /// Intrinsic call: surfaces [`StepOutcome::Special`] from the
    /// inline-cached [`CallSite`] at this index.
    CallIntr { site: u32 },
    /// Unconditional jump to a pre-resolved offset (emitted only when the
    /// target is not the next op — fall-throughs are folded away).
    Jump { target: u32 },
    /// Conditional branch on a register.
    Br { cond: Reg, then_t: u32, else_t: u32 },
    /// Superinstruction: block-trailing compare (or any `Bin`) fused with
    /// its branch. `keep` materializes the compare result only when it is
    /// live out of the block.
    CmpBr {
        op: BinOp,
        lhs: Reg,
        rhs: RmwRhs,
        keep: Option<Reg>,
        then_t: u32,
        else_t: u32,
    },
    /// Return from the current frame.
    Ret { src: Option<Reg> },
}

/// Display names of the opcode kinds, indexed by [`Op::kind`]. The
/// metrics registry's per-opcode retire counts use these labels.
pub const OPCODE_NAMES: [&str; 17] = [
    "Const",
    "Copy",
    "Un",
    "Bin",
    "BinImm",
    "Cast",
    "LoadG",
    "StoreG",
    "LoadElem",
    "StoreElem",
    "ElemRmw",
    "CallFunc",
    "CallIntr",
    "Jump",
    "Br",
    "CmpBr",
    "Ret",
];

impl Op {
    /// Dense opcode-kind index (an index into [`OPCODE_NAMES`]), used by
    /// the metrics layer to count retires per opcode with one array add.
    pub fn kind(&self) -> usize {
        match self {
            Op::Const { .. } => 0,
            Op::Copy { .. } => 1,
            Op::Un { .. } => 2,
            Op::Bin { .. } => 3,
            Op::BinImm { .. } => 4,
            Op::Cast { .. } => 5,
            Op::LoadG { .. } => 6,
            Op::StoreG { .. } => 7,
            Op::LoadElem { .. } => 8,
            Op::StoreElem { .. } => 9,
            Op::ElemRmw { .. } => 10,
            Op::CallFunc { .. } => 11,
            Op::CallIntr { .. } => 12,
            Op::Jump { .. } => 13,
            Op::Br { .. } => 14,
            Op::CmpBr { .. } => 15,
            Op::Ret { .. } => 16,
        }
    }
}

/// One compiled function.
#[derive(Debug)]
pub struct BcFunction {
    /// The function's name (diagnostics and call-event labels).
    pub name: String,
    /// Parameter count (arity checking at frame creation).
    pub param_count: usize,
    /// The flat op array.
    pub ops: Vec<Op>,
    /// Per-op retire weights: how many IR instructions/terminators the op
    /// stands for, at tree-walk costs (fused ops > 1, folded jumps accrue
    /// onto their block's last op).
    pub weights: Vec<u32>,
    /// Inline-cached intrinsic call sites, indexed by [`Op::CallIntr`].
    pub sites: Vec<CallSite>,
    /// Op offset of each source block (disassembly labels).
    pub block_offsets: Vec<u32>,
    /// Register file template: one zero value per slot, params first.
    regs_init: Vec<Value>,
    /// Local-array templates: (zero value, length) per array.
    arrays_init: Vec<(Value, usize)>,
}

impl BcFunction {
    /// Index of the source basic block containing op offset `pc`
    /// (hot-block attribution: `block_offsets` is sorted ascending, so
    /// this is the last block starting at or before `pc`).
    pub fn block_of(&self, pc: u32) -> usize {
        self.block_offsets
            .partition_point(|off| *off <= pc)
            .saturating_sub(1)
    }
}

/// A whole module compiled to bytecode, indexed by [`FuncId`].
#[derive(Debug)]
pub struct BcModule {
    /// Compiled functions, parallel to `Module::funcs`.
    pub funcs: Vec<BcFunction>,
}

/// Ops whose operand order can be swapped without changing the result
/// *or* any error message (mixed-type diagnostics print operands in
/// order, so only same-type outcomes may commute — which is why this
/// stays unused for lhs-immediate fusion and the compiler simply leaves
/// those sequences unfused).
fn is_comparison_or_bin(_op: BinOp) -> bool {
    true
}

struct FnCompiler<'f> {
    f: &'f Function,
    /// Decoded runtime op per intrinsic id.
    rt_ops: &'f [Option<RtOp>],
    ops: Vec<Op>,
    weights: Vec<u32>,
    sites: Vec<CallSite>,
    block_offsets: Vec<u32>,
    /// (op offset, target block) pairs to patch once offsets are known.
    fixups: Vec<(usize, BlockTargets)>,
}

enum BlockTargets {
    Jump(u32),
    Br(u32, u32),
}

fn reg(s: commset_ir::Slot) -> Reg {
    debug_assert!(s.0 <= u32::from(u16::MAX), "register file overflow");
    s.0 as Reg
}

fn call_args(args: &[Arg]) -> (Vec<BcCallArg>, Vec<(usize, String)>) {
    let mut bound = Vec::with_capacity(args.len());
    let mut strs = Vec::new();
    for (i, a) in args.iter().enumerate() {
        match a {
            Arg::Slot(s) => bound.push(BcCallArg::Reg(reg(*s))),
            Arg::Str(s) => {
                strs.push((i, s.clone()));
                bound.push(BcCallArg::Str);
            }
        }
    }
    (bound, strs)
}

fn bc_arr(a: &ArrRef) -> BcArr {
    match a {
        ArrRef::Local(a) => BcArr::Local(a.0 as u16),
        ArrRef::Global(g) => BcArr::Global(*g),
    }
}

impl<'f> FnCompiler<'f> {
    fn push(&mut self, op: Op, weight: u32) {
        self.ops.push(op);
        self.weights.push(weight);
    }

    /// Translates one block, fusing superinstructions. Returns whether
    /// the terminator was consumed by a `CmpBr` fusion.
    fn compile_block(&mut self, b: usize, lv: &Liveness, after: &mut LiveAfter) -> bool {
        let block = &self.f.blocks[b];
        lv.live_after(self.f, b, after);
        let insts = &block.insts[..];
        let n = insts.len();
        let mut i = 0usize;
        // Index (into `insts`) of the IR instruction behind the last
        // emitted op of this block, for terminator fusion.
        let mut last_emitted: Option<usize> = None;
        while i < n {
            // Load-index-store RMW: LoadElem t / [Const c] / Bin u=t⊕x /
            // StoreElem same cell = u, with every temp dead afterwards.
            if let Some((consumed, op)) = self.try_elem_rmw(insts, i, after) {
                self.push(op, consumed as u32);
                i += consumed;
                last_emitted = Some(i - 1);
                continue;
            }
            // Const + Bin with the constant as rhs and dead afterwards.
            if let Some(op) = self.try_bin_imm(insts, i, after) {
                self.push(op, 2);
                i += 2;
                last_emitted = Some(i - 1);
                continue;
            }
            self.emit_plain(&insts[i].inst);
            i += 1;
            last_emitted = Some(i - 1);
        }
        // Terminator. A block-trailing Bin/BinImm feeding the branch
        // condition fuses into CmpBr; the result register is written only
        // if live out of the block.
        match &block.term {
            Terminator::Br {
                cond,
                then_bb,
                else_bb,
            } => {
                let cond = reg(*cond);
                if let Some(li) = last_emitted {
                    if li == n - 1 {
                        let fused = match self.ops.last() {
                            Some(Op::Bin { dst, op, lhs, rhs }) if *dst == cond => {
                                Some((*op, *lhs, RmwRhs::Reg(*rhs), *dst))
                            }
                            Some(Op::BinImm { dst, op, lhs, imm }) if *dst == cond => {
                                Some((*op, *lhs, RmwRhs::Imm(*imm), *dst))
                            }
                            _ => None,
                        };
                        if let Some((op, lhs, rhs, dst)) = fused {
                            if is_comparison_or_bin(op) {
                                let keep = lv
                                    .live_out(b)
                                    .contains(commset_ir::Slot(u32::from(dst)))
                                    .then_some(dst);
                                let w = self.weights.pop().expect("weight") + 1;
                                self.ops.pop();
                                let at = self.ops.len();
                                self.push(
                                    Op::CmpBr {
                                        op,
                                        lhs,
                                        rhs,
                                        keep,
                                        then_t: 0,
                                        else_t: 0,
                                    },
                                    w,
                                );
                                self.fixups
                                    .push((at, BlockTargets::Br(then_bb.0, else_bb.0)));
                                return true;
                            }
                        }
                    }
                }
                let at = self.ops.len();
                self.push(
                    Op::Br {
                        cond,
                        then_t: 0,
                        else_t: 0,
                    },
                    1,
                );
                self.fixups
                    .push((at, BlockTargets::Br(then_bb.0, else_bb.0)));
            }
            Terminator::Jump(t) => {
                // A CallIntr carries no retirable weight — its step
                // surfaces Special, never Ran — so folding the jump into
                // one would silently drop the terminator's tick.
                let foldable = !matches!(self.ops.last(), None | Some(Op::CallIntr { .. }));
                if t.0 as usize == b + 1 && foldable && last_emitted.is_some() {
                    // Fall through: fold the jump into the block's last
                    // op (its retire weight still charges the tick).
                    *self.weights.last_mut().expect("weight") += 1;
                } else {
                    let at = self.ops.len();
                    self.push(Op::Jump { target: 0 }, 1);
                    self.fixups.push((at, BlockTargets::Jump(t.0)));
                }
            }
            Terminator::Ret(v) => {
                self.push(Op::Ret { src: v.map(reg) }, 1);
            }
        }
        false
    }

    fn try_elem_rmw(&self, insts: &[InstNode], i: usize, after: &LiveAfter) -> Option<(usize, Op)> {
        // The lowerer emits an array read-modify-write in one of three
        // shapes, depending on surface syntax:
        //   A: Const c; LoadElem t=a[x]; Bin u=t⊕c; StoreElem a[x]=u
        //      (`a[x] += 1` — the rhs constant is lowered first)
        //   B: LoadElem t; Const c; Bin u=t⊕c; StoreElem
        //      (`a[x] = a[x] + 1` — the load is part of the rhs expr)
        //   C: LoadElem t; Bin u=t⊕r; StoreElem   (register rhs)
        let (lead, load_at) = match insts[i].inst {
            Inst::Const { dst, value } => (Some((dst, value)), i + 1),
            Inst::LoadElem { .. } => (None, i),
            _ => return None,
        };
        let Inst::LoadElem { dst: t, arr, idx } = insts.get(load_at)?.inst else {
            return None;
        };
        let (imm, bin_at) = match (lead, insts.get(load_at + 1).map(|n| &n.inst)) {
            (Some(c), _) => (Some(c), load_at + 1),
            (None, Some(&Inst::Const { dst, value })) => (Some((dst, value)), load_at + 2),
            (None, _) => (None, load_at + 1),
        };
        let Inst::Bin {
            dst: u,
            op,
            lhs,
            rhs,
        } = insts.get(bin_at)?.inst
        else {
            return None;
        };
        let Inst::StoreElem {
            arr: sarr,
            idx: sidx,
            src,
        } = insts.get(bin_at + 1)?.inst
        else {
            return None;
        };
        // The window must be a closed rmw on one cell: the load feeds the
        // op, the op feeds the store, and no temp aliases the index slot
        // (a clobbered index would change which cell the store hits).
        if lhs != t || sarr != arr || sidx != idx || src != u || u == idx || t == idx {
            return None;
        }
        let rhs = match imm {
            Some((c, value)) => {
                if rhs != c || c == t || c == idx {
                    return None;
                }
                // The folded constant must die at the Bin.
                if after.get(bin_at).contains(c) {
                    return None;
                }
                RmwRhs::Imm(match value {
                    Const::Int(v) => Value::Int(v),
                    Const::Float(v) => Value::Float(v),
                })
            }
            None => {
                if rhs == t {
                    return None;
                }
                RmwRhs::Reg(reg(rhs))
            }
        };
        // Both the loaded value and the op result must be dead after the
        // store — nothing downstream may observe the skipped writes.
        let live = after.get(bin_at + 1);
        if live.contains(t) || live.contains(u) {
            return None;
        }
        let consumed = bin_at + 2 - i;
        Some((
            consumed,
            Op::ElemRmw {
                arr: bc_arr(&arr),
                idx: reg(idx),
                op,
                rhs,
            },
        ))
    }

    fn try_bin_imm(&self, insts: &[InstNode], i: usize, after: &LiveAfter) -> Option<Op> {
        let Inst::Const { dst: c, value } = insts[i].inst else {
            return None;
        };
        let Inst::Bin { dst, op, lhs, rhs } = insts.get(i + 1)?.inst else {
            return None;
        };
        // Only rhs-immediate forms fuse: swapping operands would reorder
        // mixed-type error messages, and lhs immediates are rare.
        if rhs != c || lhs == c {
            return None;
        }
        if after.get(i + 1).contains(c) {
            return None;
        }
        Some(Op::BinImm {
            dst: reg(dst),
            op,
            lhs: reg(lhs),
            imm: match value {
                Const::Int(v) => Value::Int(v),
                Const::Float(v) => Value::Float(v),
            },
        })
    }

    fn emit_plain(&mut self, inst: &Inst) {
        let op = match inst {
            Inst::Const { dst, value } => Op::Const {
                dst: reg(*dst),
                val: match value {
                    Const::Int(v) => Value::Int(*v),
                    Const::Float(v) => Value::Float(*v),
                },
            },
            Inst::Copy { dst, src } => Op::Copy {
                dst: reg(*dst),
                src: reg(*src),
            },
            Inst::Un { dst, op, src } => Op::Un {
                dst: reg(*dst),
                op: *op,
                src: reg(*src),
            },
            Inst::Bin { dst, op, lhs, rhs } => Op::Bin {
                dst: reg(*dst),
                op: *op,
                lhs: reg(*lhs),
                rhs: reg(*rhs),
            },
            Inst::Cast { dst, ty, src } => Op::Cast {
                dst: reg(*dst),
                ty: *ty,
                src: reg(*src),
            },
            Inst::LoadG { dst, global } => Op::LoadG {
                dst: reg(*dst),
                g: *global,
            },
            Inst::StoreG { global, src } => Op::StoreG {
                g: *global,
                src: reg(*src),
            },
            Inst::LoadElem { dst, arr, idx } => Op::LoadElem {
                dst: reg(*dst),
                arr: bc_arr(arr),
                idx: reg(*idx),
            },
            Inst::StoreElem { arr, idx, src } => Op::StoreElem {
                arr: bc_arr(arr),
                idx: reg(*idx),
                src: reg(*src),
            },
            Inst::Call { dst, callee, args } => {
                let (bound, strs) = call_args(args);
                match callee {
                    Callee::Func(fid) => {
                        self.push(
                            Op::CallFunc {
                                dst: dst.map(reg),
                                func: *fid,
                                args: bound.into_boxed_slice(),
                            },
                            3,
                        );
                        return;
                    }
                    Callee::Intrinsic(iid) => {
                        let site = self.sites.len() as u32;
                        self.sites.push(CallSite {
                            intrinsic: *iid,
                            op: self.rt_ops[iid.0 as usize],
                            dst: dst.map(reg),
                            args: bound,
                            strs,
                        });
                        // Intrinsic call steps surface a Special and are
                        // charged by the executor (base + extra), never
                        // as retired instructions — weight 0.
                        self.push(Op::CallIntr { site }, 0);
                        return;
                    }
                }
            }
        };
        self.push(op, 1);
    }
}

fn compile_function(f: &Function, rt_ops: &[Option<RtOp>]) -> BcFunction {
    let lv = Liveness::compute(f);
    let mut c = FnCompiler {
        f,
        rt_ops,
        ops: Vec::with_capacity(f.inst_count() + f.blocks.len()),
        weights: Vec::new(),
        sites: Vec::new(),
        block_offsets: Vec::with_capacity(f.blocks.len()),
        fixups: Vec::new(),
    };
    let mut after = LiveAfter::default();
    for b in 0..f.blocks.len() {
        c.block_offsets.push(c.ops.len() as u32);
        c.compile_block(b, &lv, &mut after);
    }
    for (at, t) in std::mem::take(&mut c.fixups) {
        match (&mut c.ops[at], t) {
            (Op::Jump { target }, BlockTargets::Jump(b)) => {
                *target = c.block_offsets[b as usize];
            }
            (Op::Br { then_t, else_t, .. }, BlockTargets::Br(tb, eb))
            | (Op::CmpBr { then_t, else_t, .. }, BlockTargets::Br(tb, eb)) => {
                *then_t = c.block_offsets[tb as usize];
                *else_t = c.block_offsets[eb as usize];
            }
            _ => unreachable!("fixup op kind mismatch"),
        }
    }
    BcFunction {
        name: f.name.clone(),
        param_count: f.param_count,
        ops: c.ops,
        weights: c.weights,
        sites: c.sites,
        block_offsets: c.block_offsets,
        regs_init: f.slots.iter().map(|s| zero_of(s.ty)).collect(),
        arrays_init: f.arrays.iter().map(|a| (zero_of(a.ty), a.len)).collect(),
    }
}

impl BcModule {
    /// Compiles every function of `module` to bytecode.
    pub fn compile(module: &Module) -> Self {
        let rt_ops: Vec<Option<RtOp>> = (0..module.intrinsics.len())
            .map(|i| runtime_op(module.intrinsics.name(i)))
            .collect();
        BcModule {
            funcs: module
                .funcs
                .iter()
                .map(|f| compile_function(f, &rt_ops))
                .collect(),
        }
    }
}

#[derive(Debug)]
struct BcFrame {
    func: FuncId,
    pc: u32,
    regs: Vec<Value>,
    arrays: Vec<Vec<Value>>,
    ret_dst: Option<Reg>,
    watched: bool,
}

#[derive(Debug, Default)]
struct WatchState {
    set: std::collections::BTreeSet<FuncId>,
    events: Vec<CallEvent>,
    depth: usize,
}

/// A resumable bytecode machine — the compiled twin of [`Vm`], with the
/// same step/special/resume contract and the same dynamic-error surface.
///
/// [`Vm`]: crate::vm::Vm
pub struct BcVm<'m> {
    module: &'m Module,
    bc: &'m BcModule,
    frames: Vec<BcFrame>,
    pending: bool,
    finished: bool,
    watch: Option<WatchState>,
}

impl std::fmt::Debug for BcVm<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BcVm")
            .field("depth", &self.frames.len())
            .field("pending", &self.pending)
            .field("finished", &self.finished)
            .finish()
    }
}

fn new_frame(
    bf: &BcFunction,
    func: FuncId,
    args: &[Value],
    ret_dst: Option<Reg>,
) -> Result<BcFrame, ExecError> {
    if args.len() != bf.param_count {
        return Err(ExecError::ArityMismatch {
            func: bf.name.clone(),
            expected: bf.param_count,
            got: args.len(),
        });
    }
    let mut regs = bf.regs_init.clone();
    regs[..args.len()].copy_from_slice(args);
    let arrays = bf.arrays_init.iter().map(|(z, n)| vec![*z; *n]).collect();
    Ok(BcFrame {
        func,
        pc: 0,
        regs,
        arrays,
        ret_dst,
        watched: false,
    })
}

impl<'m> BcVm<'m> {
    /// Creates a machine poised to run `func(args...)`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::ArityMismatch`] when `args` does not match the
    /// function's parameter count.
    pub fn new(
        module: &'m Module,
        bc: &'m BcModule,
        func: FuncId,
        args: &[Value],
    ) -> Result<Self, ExecError> {
        let bf = &bc.funcs[func.0 as usize];
        Ok(BcVm {
            module,
            bc,
            frames: vec![new_frame(bf, func, args, None)?],
            pending: false,
            finished: false,
            watch: None,
        })
    }

    /// Convenience: machine for a function by name.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownFunction`] when the function does not
    /// exist and [`ExecError::ArityMismatch`] on a bad argument count.
    pub fn for_name(
        module: &'m Module,
        bc: &'m BcModule,
        name: &str,
        args: &[Value],
    ) -> Result<Self, ExecError> {
        let id = module
            .func_id(name)
            .ok_or_else(|| ExecError::UnknownFunction {
                name: name.to_string(),
            })?;
        BcVm::new(module, bc, id, args)
    }

    /// True once the entry function has returned.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Starts recording [`CallEvent`]s for calls to the given functions.
    /// Unknown names are ignored. Calling again replaces the watch set but
    /// keeps undrained events.
    pub fn watch_calls<'a>(&mut self, funcs: impl IntoIterator<Item = &'a str>) {
        let mut set = std::collections::BTreeSet::new();
        for name in funcs {
            if let Some(id) = self.module.func_id(name) {
                set.insert(id);
            }
        }
        let st = self.watch.get_or_insert_with(WatchState::default);
        st.set = set;
    }

    /// Watches every module function whose name starts with `prefix`.
    pub fn watch_calls_matching(&mut self, prefix: &str) {
        let names: Vec<String> = self
            .module
            .funcs
            .iter()
            .filter(|f| f.name.starts_with(prefix))
            .map(|f| f.name.clone())
            .collect();
        self.watch_calls(names.iter().map(String::as_str));
    }

    /// Removes and returns the recorded call-boundary events.
    pub fn drain_call_events(&mut self) -> Vec<CallEvent> {
        match &mut self.watch {
            Some(st) => std::mem::take(&mut st.events),
            None => Vec::new(),
        }
    }

    /// Number of watched frames currently on the stack.
    pub fn watched_depth(&self) -> usize {
        self.watch.as_ref().map_or(0, |st| st.depth)
    }

    /// Name of the function currently on top of the stack (diagnostics).
    pub fn current_function(&self) -> &str {
        match self.frames.last() {
            Some(fr) => &self.bc.funcs[fr.func.0 as usize].name,
            None => "<finished>",
        }
    }

    /// The `(function id, op offset)` the next [`step`](Self::step) will
    /// retire, or `None` once finished. The metrics layer samples this
    /// *before* stepping to attribute the retired cost to an opcode kind
    /// and a source basic block.
    pub fn site(&self) -> Option<(u32, u32)> {
        if self.finished {
            return None;
        }
        self.frames.last().map(|fr| (fr.func.0, fr.pc))
    }

    /// Supplies the result of the pending intrinsic call and advances.
    ///
    /// # Panics
    ///
    /// Panics if no special is pending — an executor bug, unreachable from
    /// program input.
    pub fn resolve_special(&mut self, value: Value) {
        assert!(self.pending, "no pending special");
        self.pending = false;
        let fr = self.frames.last_mut().expect("frame");
        let bf = &self.bc.funcs[fr.func.0 as usize];
        if let Op::CallIntr { site } = bf.ops[fr.pc as usize] {
            if let Some(d) = bf.sites[site as usize].dst {
                fr.regs[d as usize] = value;
            }
        }
        fr.pc += 1;
    }

    /// Abandons the pending intrinsic call so it can be retried later.
    pub fn retry_special_later(&mut self) {
        assert!(self.pending, "no pending special");
        self.pending = false;
    }

    /// Executes one bytecode op; fused ops retire several IR instructions
    /// in one step and report the sum as `cost`.
    ///
    /// # Errors
    ///
    /// Returns the same [`ExecError`]s, with the same payloads, as the
    /// tree-walk [`Vm::step`](crate::vm::Vm::step) on the same program
    /// point.
    ///
    /// # Panics
    ///
    /// Panics when stepping a finished or pending machine — executor
    /// contract violations, unreachable from program input.
    pub fn step(&mut self, globals: &mut dyn GlobalMem) -> Result<StepOutcome, ExecError> {
        assert!(!self.pending, "resolve the pending special first");
        assert!(!self.finished, "machine already finished");
        let fr = self.frames.last_mut().expect("frame");
        let bf = &self.bc.funcs[fr.func.0 as usize];
        let pc = fr.pc as usize;
        let cost = u64::from(bf.weights[pc]);
        match &bf.ops[pc] {
            Op::Const { dst, val } => {
                fr.regs[*dst as usize] = *val;
            }
            Op::Copy { dst, src } => {
                fr.regs[*dst as usize] = fr.regs[*src as usize];
            }
            Op::Un { dst, op, src } => {
                let v = fr.regs[*src as usize];
                fr.regs[*dst as usize] = eval_un(*op, v, &bf.name)?;
            }
            Op::Bin { dst, op, lhs, rhs } => {
                let a = fr.regs[*lhs as usize];
                let b = fr.regs[*rhs as usize];
                fr.regs[*dst as usize] = eval_bin(*op, a, b, &bf.name)?;
            }
            Op::BinImm { dst, op, lhs, imm } => {
                let a = fr.regs[*lhs as usize];
                fr.regs[*dst as usize] = eval_bin(*op, a, *imm, &bf.name)?;
            }
            Op::Cast { dst, ty, src } => {
                let v = fr.regs[*src as usize];
                fr.regs[*dst as usize] = match (ty, v) {
                    (Type::Float, Value::Int(i)) => Value::Float(i as f64),
                    (Type::Int, Value::Float(f)) => Value::Int(f as i64),
                    _ => v,
                };
            }
            Op::LoadG { dst, g } => {
                fr.regs[*dst as usize] = globals.load(*g);
            }
            Op::StoreG { g, src } => {
                globals.store(*g, fr.regs[*src as usize]);
            }
            Op::LoadElem { dst, arr, idx } => {
                let i = fr.regs[*idx as usize].as_int();
                fr.regs[*dst as usize] = load_elem(&bf.name, &fr.arrays, globals, *arr, i)?;
            }
            Op::StoreElem { arr, idx, src } => {
                let i = fr.regs[*idx as usize].as_int();
                let v = fr.regs[*src as usize];
                store_elem(&bf.name, &mut fr.arrays, globals, *arr, i, v)?;
            }
            Op::ElemRmw { arr, idx, op, rhs } => {
                let i = fr.regs[*idx as usize].as_int();
                let cur = load_elem(&bf.name, &fr.arrays, globals, *arr, i)?;
                let b = match rhs {
                    RmwRhs::Reg(r) => fr.regs[*r as usize],
                    RmwRhs::Imm(v) => *v,
                };
                let v = eval_bin(*op, cur, b, &bf.name)?;
                store_elem(&bf.name, &mut fr.arrays, globals, *arr, i, v)?;
            }
            Op::CallFunc { dst, func, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| match a {
                        BcCallArg::Reg(r) => fr.regs[*r as usize],
                        BcCallArg::Str => Value::Int(0),
                    })
                    .collect();
                let callee = &self.bc.funcs[func.0 as usize];
                let mut frame = new_frame(callee, *func, &vals, *dst)?;
                if let Some(st) = &mut self.watch {
                    if st.set.contains(func) {
                        frame.watched = true;
                        st.depth += 1;
                        st.events.push(CallEvent {
                            enter: true,
                            func: *func,
                            args: vals,
                            depth: st.depth,
                        });
                    }
                }
                self.frames.push(frame);
                return Ok(StepOutcome::Ran { cost });
            }
            Op::CallIntr { site } => {
                let site = &bf.sites[*site as usize];
                let args: Vec<Value> = site
                    .args
                    .iter()
                    .map(|a| match a {
                        BcCallArg::Reg(r) => fr.regs[*r as usize],
                        BcCallArg::Str => Value::Int(0),
                    })
                    .collect();
                self.pending = true;
                return Ok(StepOutcome::Special(PendingSpecial {
                    intrinsic: site.intrinsic,
                    op: site.op,
                    args,
                    str_args: site.strs.clone(),
                }));
            }
            Op::Jump { target } => {
                fr.pc = *target;
                return Ok(StepOutcome::Ran { cost });
            }
            Op::Br {
                cond,
                then_t,
                else_t,
            } => {
                fr.pc = if fr.regs[*cond as usize].is_true() {
                    *then_t
                } else {
                    *else_t
                };
                return Ok(StepOutcome::Ran { cost });
            }
            Op::CmpBr {
                op,
                lhs,
                rhs,
                keep,
                then_t,
                else_t,
            } => {
                let a = fr.regs[*lhs as usize];
                let b = match rhs {
                    RmwRhs::Reg(r) => fr.regs[*r as usize],
                    RmwRhs::Imm(v) => *v,
                };
                let v = eval_bin(*op, a, b, &bf.name)?;
                if let Some(d) = keep {
                    fr.regs[*d as usize] = v;
                }
                fr.pc = if v.is_true() { *then_t } else { *else_t };
                return Ok(StepOutcome::Ran { cost });
            }
            Op::Ret { src } => {
                let value = src.map(|s| fr.regs[s as usize]);
                let ret_dst = fr.ret_dst;
                let popped = self.frames.pop().expect("frame");
                if popped.watched {
                    if let Some(st) = &mut self.watch {
                        st.depth = st.depth.saturating_sub(1);
                        st.events.push(CallEvent {
                            enter: false,
                            func: popped.func,
                            args: Vec::new(),
                            depth: st.depth,
                        });
                    }
                }
                match self.frames.last_mut() {
                    Some(caller) => {
                        if let (Some(d), Some(v)) = (ret_dst, value) {
                            caller.regs[d as usize] = v;
                        }
                        caller.pc += 1;
                    }
                    None => {
                        self.finished = true;
                        return Ok(StepOutcome::Finished(value));
                    }
                }
                return Ok(StepOutcome::Ran { cost });
            }
        }
        fr.pc += 1;
        Ok(StepOutcome::Ran { cost })
    }
}

fn load_elem(
    fname: &str,
    arrays: &[Vec<Value>],
    globals: &mut dyn GlobalMem,
    arr: BcArr,
    i: i64,
) -> Result<Value, ExecError> {
    match arr {
        BcArr::Local(a) => {
            let arr = &arrays[a as usize];
            match usize::try_from(i).ok().and_then(|i| arr.get(i)) {
                Some(v) => Ok(*v),
                None => Err(ExecError::IndexOutOfBounds {
                    func: fname.to_string(),
                    index: i,
                    len: arr.len(),
                    global: false,
                }),
            }
        }
        BcArr::Global(g) => globals
            .load_elem(g, i)
            .map_err(|e| ExecError::IndexOutOfBounds {
                func: fname.to_string(),
                index: e.index,
                len: e.len,
                global: true,
            }),
    }
}

fn store_elem(
    fname: &str,
    arrays: &mut [Vec<Value>],
    globals: &mut dyn GlobalMem,
    arr: BcArr,
    i: i64,
    v: Value,
) -> Result<(), ExecError> {
    match arr {
        BcArr::Local(a) => {
            let arr = &mut arrays[a as usize];
            let len = arr.len();
            match usize::try_from(i).ok().and_then(|i| arr.get_mut(i)) {
                Some(slot) => {
                    *slot = v;
                    Ok(())
                }
                None => Err(ExecError::IndexOutOfBounds {
                    func: fname.to_string(),
                    index: i,
                    len,
                    global: false,
                }),
            }
        }
        BcArr::Global(g) => globals
            .store_elem(g, i, v)
            .map_err(|e| ExecError::IndexOutOfBounds {
                func: fname.to_string(),
                index: e.index,
                len: e.len,
                global: true,
            }),
    }
}

// ---------------------------------------------------------------------
// Disassembler
// ---------------------------------------------------------------------

fn rmw_rhs(r: &RmwRhs) -> String {
    match r {
        RmwRhs::Reg(r) => format!("r{r}"),
        RmwRhs::Imm(v) => format!("#{v}"),
    }
}

fn arr_str(m: &Module, a: &BcArr) -> String {
    match a {
        BcArr::Local(i) => format!("a{i}"),
        BcArr::Global(g) => format!("@{}", m.global(*g).name),
    }
}

fn site_str(m: &Module, s: &CallSite) -> String {
    let args: Vec<String> = s
        .args
        .iter()
        .enumerate()
        .map(|(i, a)| match a {
            BcCallArg::Reg(r) => format!("r{r}"),
            BcCallArg::Str => {
                let lit = s
                    .strs
                    .iter()
                    .find(|(p, _)| *p == i)
                    .map(|(_, l)| l.as_str())
                    .unwrap_or("?");
                format!("{lit:?}")
            }
        })
        .collect();
    let call = format!(
        "call !{}({})",
        m.intrinsics.name(s.intrinsic.0 as usize),
        args.join(", ")
    );
    match s.dst {
        Some(d) => format!("r{d} = {call}"),
        None => call,
    }
}

/// Renders one op (for the disassembly listing).
pub fn print_op(m: &Module, bf: &BcFunction, op: &Op) -> String {
    match op {
        Op::Const { dst, val } => format!("r{dst} = const {val}"),
        Op::Copy { dst, src } => format!("r{dst} = r{src}"),
        Op::Un { dst, op, src } => format!("r{dst} = {}r{src}", op.as_str()),
        Op::Bin { dst, op, lhs, rhs } => {
            format!("r{dst} = r{lhs} {} r{rhs}", op.as_str())
        }
        Op::BinImm { dst, op, lhs, imm } => {
            format!("r{dst} = r{lhs} {} #{imm}", op.as_str())
        }
        Op::Cast { dst, ty, src } => format!("r{dst} = {ty}(r{src})"),
        Op::LoadG { dst, g } => format!("r{dst} = load @{}", m.global(*g).name),
        Op::StoreG { g, src } => format!("store @{} = r{src}", m.global(*g).name),
        Op::LoadElem { dst, arr, idx } => {
            format!("r{dst} = {}[r{idx}]", arr_str(m, arr))
        }
        Op::StoreElem { arr, idx, src } => {
            format!("{}[r{idx}] = r{src}", arr_str(m, arr))
        }
        Op::ElemRmw { arr, idx, op, rhs } => {
            let a = arr_str(m, arr);
            format!("{a}[r{idx}] = {a}[r{idx}] {} {}", op.as_str(), rmw_rhs(rhs))
        }
        Op::CallFunc { dst, func, args } => {
            let args: Vec<String> = args
                .iter()
                .map(|a| match a {
                    BcCallArg::Reg(r) => format!("r{r}"),
                    BcCallArg::Str => "\"?\"".to_string(),
                })
                .collect();
            let call = format!("call {}({})", m.func(*func).name, args.join(", "));
            match dst {
                Some(d) => format!("r{d} = {call}"),
                None => call,
            }
        }
        Op::CallIntr { site } => site_str(m, &bf.sites[*site as usize]),
        Op::Jump { target } => format!("jump @{target}"),
        Op::Br {
            cond,
            then_t,
            else_t,
        } => format!("br r{cond} ? @{then_t} : @{else_t}"),
        Op::CmpBr {
            op,
            lhs,
            rhs,
            keep,
            then_t,
            else_t,
        } => {
            let keep = match keep {
                Some(d) => format!(" keep r{d}"),
                None => String::new(),
            };
            format!(
                "cmpbr r{lhs} {} {}{keep} ? @{then_t} : @{else_t}",
                op.as_str(),
                rmw_rhs(rhs)
            )
        }
        Op::Ret { src: Some(s) } => format!("ret r{s}"),
        Op::Ret { src: None } => "ret".to_string(),
    }
}

/// Renders one compiled function as a labeled listing with per-op retire
/// weights (weight 1 is implicit).
pub fn print_bc_function(m: &Module, bf: &BcFunction) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let fused = bf.weights.iter().filter(|w| **w > 1).count();
    let _ = writeln!(
        out,
        "func {} ({} ops, {} sites, {} fused) {{",
        bf.name,
        bf.ops.len(),
        bf.sites.len(),
        fused
    );
    for (i, op) in bf.ops.iter().enumerate() {
        if let Some(b) = bf.block_offsets.iter().position(|o| *o as usize == i) {
            let _ = writeln!(out, "bb{b}:");
        }
        let w = bf.weights[i];
        let suffix = if w == 1 {
            String::new()
        } else {
            format!("    ; w{w}")
        };
        let _ = writeln!(out, "  {i:>4}: {}{suffix}", print_op(m, bf, op));
    }
    out.push_str("}\n");
    out
}

/// Renders a whole compiled module (the `--dump-bytecode` listing).
pub fn print_bc_module(m: &Module, bc: &BcModule) -> String {
    bc.funcs.iter().map(|bf| print_bc_function(m, bf)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::globals::PlainGlobals;
    use crate::vm::Vm;
    use commset_ir::{lower_program, IntrinsicTable};

    fn module(src: &str) -> Module {
        let unit = commset_lang::compile_unit(src).unwrap();
        lower_program(&unit.program, IntrinsicTable::new()).unwrap()
    }

    fn module_with_intrinsic(src: &str) -> Module {
        let mut table = IntrinsicTable::new();
        table.register(
            "ask",
            vec![commset_lang::ast::Type::Int],
            commset_lang::ast::Type::Int,
            &[],
            &["Q"],
            10,
        );
        let unit = commset_lang::compile_unit(src).unwrap();
        lower_program(&unit.program, table).unwrap()
    }

    /// Runs a module under both engines, resolving intrinsics with
    /// `value = arg + 1`, and asserts identical results, identical total
    /// retired cost, and identical special sequences.
    fn assert_engine_parity(m: &Module) {
        let bc = BcModule::compile(m);
        let mut tg = PlainGlobals::new(m);
        let mut bg = PlainGlobals::new(m);
        let mut tree = Vm::for_name(m, "main", &[]).unwrap();
        let mut byte = BcVm::for_name(m, &bc, "main", &[]).unwrap();
        trait Engine {
            fn step(&mut self, g: &mut dyn GlobalMem) -> Result<StepOutcome, ExecError>;
            fn resolve(&mut self, v: Value);
        }
        impl Engine for Vm<'_> {
            fn step(&mut self, g: &mut dyn GlobalMem) -> Result<StepOutcome, ExecError> {
                Vm::step(self, g)
            }
            fn resolve(&mut self, v: Value) {
                self.resolve_special(v);
            }
        }
        impl Engine for BcVm<'_> {
            fn step(&mut self, g: &mut dyn GlobalMem) -> Result<StepOutcome, ExecError> {
                BcVm::step(self, g)
            }
            fn resolve(&mut self, v: Value) {
                self.resolve_special(v);
            }
        }
        #[allow(clippy::type_complexity)]
        fn run(
            vm: &mut dyn Engine,
            g: &mut dyn GlobalMem,
        ) -> (
            Result<Option<Value>, ExecError>,
            u64,
            Vec<(commset_ir::IntrinsicId, Vec<Value>, Vec<(usize, String)>)>,
        ) {
            let mut cost = 0u64;
            let mut specials = Vec::new();
            let result = loop {
                match vm.step(g) {
                    Ok(StepOutcome::Ran { cost: c }) => cost += c,
                    Ok(StepOutcome::Special(p)) => {
                        specials.push((p.intrinsic, p.args.clone(), p.str_args.clone()));
                        let v = Value::Int(p.args[0].as_int() + 1);
                        vm.resolve(v);
                    }
                    Ok(StepOutcome::Finished(v)) => break Ok(v),
                    Err(e) => break Err(e),
                }
            };
            (result, cost, specials)
        }
        let t = run(&mut tree, &mut tg);
        let b = run(&mut byte, &mut bg);
        assert_eq!(t.0, b.0, "results must match");
        assert_eq!(t.1, b.1, "total retired cost must be bit-identical");
        assert_eq!(t.2, b.2, "special sequences must match");
    }

    const PARITY_CORPUS: &[&str] = &[
        "int main() { int s = 0; for (int i = 0; i < 10; i = i + 1) { if (i % 2 == 0) s += i; } return s; }",
        "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); } int main() { return fib(10); }",
        "int main() { float x = 1.5; float y = x * 2.0; return int(y) + int(float(3)); }",
        "int g = 5; int a[4]; int main() { a[0] = g; a[1] = a[0] * 2; int buf[2]; buf[1] = a[1] + 1; g = buf[1]; return g; }",
        "int g = 0; int f() { return 0; } int h() { g = 1; return 1; } int main() { if (f() && h()) { return 9; } return g; }",
        "int main() { int s = 0; int i = 0; while (1) { i = i + 1; if (i > 10) break; if (i % 3 != 0) continue; s += i; } return s; }",
        "int h[8]; int main() { for (int i = 0; i < 32; i = i + 1) { h[i % 8] = h[i % 8] + 1; } return h[3]; }",
        "int h[8]; int main() { int j = 3; for (int i = 0; i < 16; i = i + 1) { h[j] += 1; h[j] = h[j] + 2; h[i % 8] += i; j = (j + 1) % 8; } return h[0] + h[3] + h[7]; }",
        "int main() { int a[16]; for (int i = 0; i < 16; i = i + 1) { a[i] = i * i; } int s = 0; for (int j = 0; j < 16; j = j + 1) { s = s + a[j]; } return s; }",
    ];

    #[test]
    fn engines_agree_on_results_cost_and_specials() {
        for src in PARITY_CORPUS {
            assert_engine_parity(&module(src));
        }
        assert_engine_parity(&module_with_intrinsic(
            "extern int ask(int x); int main() { int s = 0; for (int i = 0; i < 5; i = i + 1) { s = s + ask(i); } return s; }",
        ));
        // A block *ending* in an intrinsic call followed by a fall-through:
        // the jump tick must not be folded into the CallIntr (whose weight
        // is never retired — its step surfaces Special, not Ran).
        assert_engine_parity(&module_with_intrinsic(
            "extern int ask(int x); int main() { int s = 0; for (int i = 0; i < 6; i = i + 1) { s = s + 1; ask(s); } return s; }",
        ));
    }

    #[test]
    fn superinstructions_are_emitted() {
        // `h[i % 8] += 1` lowers the index once (the `=`-form lowers it
        // twice, into different temps, and cannot fuse).
        let m = module(
            "int h[8]; int main() { int s = 0; int j = 0; for (int i = 0; i < 32; i = i + 1) { h[i % 8] += 1; h[j] += 1; s = s + 2; } return s; }",
        );
        let bc = BcModule::compile(&m);
        let main = &bc.funcs[m.func_id("main").unwrap().0 as usize];
        let has = |pred: &dyn Fn(&Op) -> bool| main.ops.iter().any(pred);
        assert!(
            has(&|o| matches!(o, Op::CmpBr { .. })),
            "loop condition fuses: {}",
            print_bc_function(&m, main)
        );
        assert!(
            has(&|o| matches!(o, Op::BinImm { .. })),
            "constant operands fuse: {}",
            print_bc_function(&m, main)
        );
        assert!(
            has(&|o| matches!(o, Op::ElemRmw { .. })),
            "load-op-store fuses: {}",
            print_bc_function(&m, main)
        );
        // Fused ops carry their retired-instruction weight.
        for (op, w) in main.ops.iter().zip(&main.weights) {
            match op {
                Op::ElemRmw {
                    rhs: RmwRhs::Imm(_),
                    ..
                } => assert!(*w >= 4, "imm RMW retires 4 IR ops"),
                Op::ElemRmw { .. } => assert!(*w >= 3),
                Op::CmpBr {
                    rhs: RmwRhs::Imm(_),
                    ..
                } => assert!(*w >= 3, "imm compare-branch retires 3"),
                Op::CmpBr { .. } | Op::BinImm { .. } => assert!(*w >= 2),
                Op::CallFunc { .. } => assert_eq!(*w, 3),
                Op::CallIntr { .. } => assert_eq!(*w, 0),
                _ => assert!(*w >= 1),
            }
        }
    }

    #[test]
    fn compare_result_is_materialized_only_when_live() {
        // `c` is read after the branch, so the fused CmpBr must keep it.
        let m = module("int main() { int c = 3 < 5; if (c) { return c; } return 0; }");
        let bc = BcModule::compile(&m);
        let main = &bc.funcs[m.func_id("main").unwrap().0 as usize];
        if let Some(Op::CmpBr { keep, .. }) =
            main.ops.iter().find(|o| matches!(o, Op::CmpBr { .. }))
        {
            assert!(keep.is_some(), "live compare result must be kept");
        }
        assert_engine_parity(&m);

        // Here the compare temp is branch-only: no materialization.
        let m = module("int main() { int i = 3; if (i < 5) { return 1; } return 0; }");
        let bc = BcModule::compile(&m);
        let main = &bc.funcs[m.func_id("main").unwrap().0 as usize];
        if let Some(Op::CmpBr { keep, .. }) =
            main.ops.iter().find(|o| matches!(o, Op::CmpBr { .. }))
        {
            assert!(keep.is_none(), "dead compare result must not be kept");
        }
        assert_engine_parity(&m);
    }

    #[test]
    fn dynamic_errors_match_the_tree_walk_exactly() {
        for src in [
            "int main() { int z = 0; return 1 / z; }",
            "int main() { int z = 0; return 1 % z; }",
            "int main() { int a[2]; a[5] = 1; return 0; }",
            "int main() { int a[2]; int i = 0 - 1; return a[i]; }",
            "int g[3]; int helper() { return g[7]; } int main() { return helper(); }",
        ] {
            let m = module(src);
            let bc = BcModule::compile(&m);
            let mut tg = PlainGlobals::new(&m);
            let mut bg = PlainGlobals::new(&m);
            let mut tree = Vm::for_name(&m, "main", &[]).unwrap();
            let mut byte = BcVm::for_name(&m, &bc, "main", &[]).unwrap();
            let te = loop {
                match tree.step(&mut tg) {
                    Ok(StepOutcome::Finished(_)) => panic!("expected error"),
                    Ok(_) => {}
                    Err(e) => break e,
                }
            };
            let be = loop {
                match byte.step(&mut bg) {
                    Ok(StepOutcome::Finished(_)) => panic!("expected error"),
                    Ok(_) => {}
                    Err(e) => break e,
                }
            };
            assert_eq!(te, be, "{src}");
        }
    }

    #[test]
    fn watched_calls_record_identical_events() {
        let m = module(
            "int helper(int x) { return x + 1; } int main() { int a = helper(1); return helper(a); }",
        );
        let bc = BcModule::compile(&m);
        let mut tg = PlainGlobals::new(&m);
        let mut bg = PlainGlobals::new(&m);
        let mut tree = Vm::for_name(&m, "main", &[]).unwrap();
        let mut byte = BcVm::for_name(&m, &bc, "main", &[]).unwrap();
        tree.watch_calls(["helper"]);
        byte.watch_calls(["helper"]);
        loop {
            if let StepOutcome::Finished(_) = tree.step(&mut tg).unwrap() {
                break;
            }
        }
        loop {
            if let StepOutcome::Finished(_) = byte.step(&mut bg).unwrap() {
                break;
            }
        }
        let te = tree.drain_call_events();
        let be = byte.drain_call_events();
        assert_eq!(te, be);
        assert_eq!(te.len(), 4);
    }

    #[test]
    fn retry_special_later_replays_the_site() {
        let m = module_with_intrinsic("extern int ask(int x); int main() { return ask(7); }");
        let bc = BcModule::compile(&m);
        let mut g = PlainGlobals::new(&m);
        let mut vm = BcVm::for_name(&m, &bc, "main", &[]).unwrap();
        let mut asked = 0;
        loop {
            match vm.step(&mut g).unwrap() {
                StepOutcome::Ran { .. } => {}
                StepOutcome::Special(p) => {
                    asked += 1;
                    if asked == 1 {
                        vm.retry_special_later();
                    } else {
                        vm.resolve_special(Value::Int(p.args[0].as_int() * 6));
                    }
                }
                StepOutcome::Finished(v) => {
                    assert_eq!(v, Some(Value::Int(42)));
                    break;
                }
            }
        }
        assert_eq!(asked, 2, "abandoned special is re-surfaced");
    }

    #[test]
    fn disassembly_is_stable_and_labeled() {
        let m = module(
            "int g; int main() { int s = 0; for (int i = 0; i < 4; i = i + 1) { s = s + i; } g = s; return s; }",
        );
        let bc = BcModule::compile(&m);
        let text = print_bc_module(&m, &bc);
        assert!(text.contains("func main"), "{text}");
        assert!(text.contains("bb0:"), "{text}");
        assert!(text.contains("cmpbr"), "{text}");
        assert!(text.contains("store @g"), "{text}");
        // Weights annotate every fused op.
        assert!(text.contains("; w"), "{text}");
    }

    #[test]
    fn unknown_entry_and_arity_mirror_the_tree_walk() {
        let m = module("int main() { return 0; }");
        let bc = BcModule::compile(&m);
        let err = BcVm::for_name(&m, &bc, "nope", &[]).err().unwrap();
        assert_eq!(
            err,
            ExecError::UnknownFunction {
                name: "nope".into()
            }
        );
        let err = BcVm::for_name(&m, &bc, "main", &[Value::Int(1)])
            .err()
            .unwrap();
        assert!(matches!(
            err,
            ExecError::ArityMismatch {
                expected: 0,
                got: 1,
                ..
            }
        ));
    }
}
