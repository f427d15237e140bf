//! The IR data structures: modules, functions, basic blocks, instructions.
//!
//! The IR is a non-SSA register machine: every scalar local (including
//! compiler temporaries) is a [`Slot`] in the frame; local arrays get their
//! own [`ArrayId`]-indexed storage. Every instruction carries the
//! [`StmtId`] of the source statement it was lowered from, which is how the
//! statement-level PDG maps back and forth to the IR.

use crate::effects::IntrinsicTable;
use commset_lang::ast::{BinOp, StmtId, Type, UnOp};
use std::collections::HashMap;

/// Index of a function in a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Index of a global variable in a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Index of an intrinsic in the [`IntrinsicTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntrinsicId(pub u32);

/// Index of a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Index of a scalar slot within a function frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot(pub u32);

/// Index of a local array within a function frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

impl std::fmt::Display for FuncId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{}", self.0)
    }
}
impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bb{}", self.0)
    }
}
impl std::fmt::Display for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A compile-time constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Const {
    /// Integer (also booleans and handles).
    Int(i64),
    /// Float.
    Float(f64),
}

impl Const {
    /// The type of the constant.
    pub fn ty(self) -> Type {
        match self {
            Const::Int(_) => Type::Int,
            Const::Float(_) => Type::Float,
        }
    }
}

impl std::fmt::Display for Const {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Const::Int(v) => write!(f, "{v}"),
            Const::Float(v) => write!(f, "{v}f"),
        }
    }
}

/// Reference to an array: a frame-local array or a global one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrRef {
    /// A local array of the current frame.
    Local(ArrayId),
    /// A global array.
    Global(GlobalId),
}

/// The target of a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A function defined in the module.
    Func(FuncId),
    /// A runtime intrinsic.
    Intrinsic(IntrinsicId),
}

/// A call argument: a slot value or a string literal (intrinsics only).
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Pass the value of a slot.
    Slot(Slot),
    /// Pass a string literal (e.g. a channel or file name).
    Str(String),
}

/// A single IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = const`
    Const {
        /// Destination slot.
        dst: Slot,
        /// The constant.
        value: Const,
    },
    /// `dst = src`
    Copy {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
    },
    /// `dst = op src`
    Un {
        /// Destination slot.
        dst: Slot,
        /// The operator.
        op: UnOp,
        /// Operand.
        src: Slot,
    },
    /// `dst = lhs op rhs`
    Bin {
        /// Destination slot.
        dst: Slot,
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Slot,
        /// Right operand.
        rhs: Slot,
    },
    /// `dst = ty(src)`
    Cast {
        /// Destination slot.
        dst: Slot,
        /// Target type.
        ty: Type,
        /// Operand.
        src: Slot,
    },
    /// `dst = global`
    LoadG {
        /// Destination slot.
        dst: Slot,
        /// The global read.
        global: GlobalId,
    },
    /// `global = src`
    StoreG {
        /// The global written.
        global: GlobalId,
        /// Source slot.
        src: Slot,
    },
    /// `dst = arr[idx]`
    LoadElem {
        /// Destination slot.
        dst: Slot,
        /// The array.
        arr: ArrRef,
        /// Index slot (int).
        idx: Slot,
    },
    /// `arr[idx] = src`
    StoreElem {
        /// The array.
        arr: ArrRef,
        /// Index slot (int).
        idx: Slot,
        /// Source slot.
        src: Slot,
    },
    /// `dst? = callee(args...)`
    Call {
        /// Destination slot, if the result is used.
        dst: Option<Slot>,
        /// Function or intrinsic.
        callee: Callee,
        /// Arguments.
        args: Vec<Arg>,
    },
}

impl Inst {
    /// The slot this instruction defines, if any.
    pub fn def(&self) -> Option<Slot> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cast { dst, .. }
            | Inst::LoadG { dst, .. }
            | Inst::LoadElem { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::StoreG { .. } | Inst::StoreElem { .. } => None,
        }
    }

    /// The slots this instruction reads.
    pub fn uses(&self) -> Vec<Slot> {
        match self {
            Inst::Const { .. } | Inst::LoadG { .. } => vec![],
            Inst::Copy { src, .. } | Inst::Un { src, .. } | Inst::Cast { src, .. } => vec![*src],
            Inst::Bin { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::LoadElem { idx, .. } => vec![*idx],
            Inst::StoreG { src, .. } => vec![*src],
            Inst::StoreElem { idx, src, .. } => vec![*idx, *src],
            Inst::Call { args, .. } => args
                .iter()
                .filter_map(|a| match a {
                    Arg::Slot(s) => Some(*s),
                    Arg::Str(_) => None,
                })
                .collect(),
        }
    }

    /// Calls `f` on every slot this instruction reads, in [`Inst::uses`]
    /// order, without building a vector (the liveness pass's hot path).
    pub fn for_each_use(&self, mut f: impl FnMut(Slot)) {
        match self {
            Inst::Const { .. } | Inst::LoadG { .. } => {}
            Inst::Copy { src, .. }
            | Inst::Un { src, .. }
            | Inst::Cast { src, .. }
            | Inst::StoreG { src, .. } => f(*src),
            Inst::LoadElem { idx, .. } => f(*idx),
            Inst::Bin { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::StoreElem { idx, src, .. } => {
                f(*idx);
                f(*src);
            }
            Inst::Call { args, .. } => {
                for a in args {
                    if let Arg::Slot(s) = a {
                        f(*s);
                    }
                }
            }
        }
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch on an int slot (nonzero = taken).
    Br {
        /// Condition slot.
        cond: Slot,
        /// Target when nonzero.
        then_bb: BlockId,
        /// Target when zero.
        else_bb: BlockId,
    },
    /// Function return.
    Ret(Option<Slot>),
}

impl Terminator {
    /// Successor blocks.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Br {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Ret(_) => vec![],
        }
    }

    /// Calls `f` on every successor block, in [`Terminator::successors`]
    /// order, without building a vector.
    pub fn for_each_successor(&self, mut f: impl FnMut(BlockId)) {
        match self {
            Terminator::Jump(b) => f(*b),
            Terminator::Br {
                then_bb, else_bb, ..
            } => {
                f(*then_bb);
                f(*else_bb);
            }
            Terminator::Ret(_) => {}
        }
    }
}

/// An instruction with its source-statement provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstNode {
    /// The instruction.
    pub inst: Inst,
    /// The statement it was lowered from.
    pub stmt: StmtId,
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Straight-line instructions.
    pub insts: Vec<InstNode>,
    /// The terminator.
    pub term: Terminator,
    /// Provenance of the terminator.
    pub term_stmt: StmtId,
}

/// Declaration of a scalar slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotDecl {
    /// Source name, or a `%tN` name for temporaries.
    pub name: String,
    /// Type.
    pub ty: Type,
}

/// Declaration of a frame-local array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    /// Source name.
    pub name: String,
    /// Element type.
    pub ty: Type,
    /// Length.
    pub len: usize,
}

/// A lowered function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Number of parameters (the first `param_count` slots).
    pub param_count: usize,
    /// Return type.
    pub ret: Type,
    /// All scalar slots (params first).
    pub slots: Vec<SlotDecl>,
    /// All local arrays.
    pub arrays: Vec<ArrayDecl>,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
}

impl Function {
    /// The entry block.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// The block with id `b`.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.0 as usize]
    }

    /// Total instruction count (for profile weights and tests).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len() + 1).sum()
    }
}

/// A global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// Name.
    pub name: String,
    /// Element type.
    pub ty: Type,
    /// `Some(n)` for arrays.
    pub len: Option<usize>,
    /// Initial scalar value (zero of `ty` when absent).
    pub init: Option<Const>,
}

/// A lowered module: functions, globals, and the intrinsic table they were
/// lowered against.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// All functions.
    pub funcs: Vec<Function>,
    /// All globals.
    pub globals: Vec<GlobalDecl>,
    /// The intrinsic table (effect signatures).
    pub intrinsics: IntrinsicTable,
    func_ids: HashMap<String, FuncId>,
    global_ids: HashMap<String, GlobalId>,
}

impl Module {
    /// Creates an empty module over `intrinsics`.
    pub fn new(intrinsics: IntrinsicTable) -> Self {
        Module {
            intrinsics,
            ..Default::default()
        }
    }

    /// Adds a function, returning its id.
    ///
    /// # Panics
    ///
    /// Panics on duplicate function names.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        assert!(
            self.func_ids.insert(f.name.clone(), id).is_none(),
            "duplicate function `{}`",
            f.name
        );
        self.funcs.push(f);
        id
    }

    /// Adds a global, returning its id.
    ///
    /// # Panics
    ///
    /// Panics on duplicate global names.
    pub fn add_global(&mut self, g: GlobalDecl) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        assert!(
            self.global_ids.insert(g.name.clone(), id).is_none(),
            "duplicate global `{}`",
            g.name
        );
        self.globals.push(g);
        id
    }

    /// Looks up a function by name.
    pub fn func_id(&self, name: &str) -> Option<FuncId> {
        self.func_ids.get(name).copied()
    }

    /// The function with id `f`.
    pub fn func(&self, f: FuncId) -> &Function {
        &self.funcs[f.0 as usize]
    }

    /// Looks up a global by name.
    pub fn global_id(&self, name: &str) -> Option<GlobalId> {
        self.global_ids.get(name).copied()
    }

    /// The global with id `g`.
    pub fn global(&self, g: GlobalId) -> &GlobalDecl {
        &self.globals[g.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_and_uses() {
        let i = Inst::Bin {
            dst: Slot(2),
            op: BinOp::Add,
            lhs: Slot(0),
            rhs: Slot(1),
        };
        assert_eq!(i.def(), Some(Slot(2)));
        assert_eq!(i.uses(), vec![Slot(0), Slot(1)]);

        let s = Inst::StoreElem {
            arr: ArrRef::Local(ArrayId(0)),
            idx: Slot(3),
            src: Slot(4),
        };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses(), vec![Slot(3), Slot(4)]);

        let c = Inst::Call {
            dst: None,
            callee: Callee::Intrinsic(IntrinsicId(0)),
            args: vec![Arg::Slot(Slot(1)), Arg::Str("FS".into())],
        };
        assert_eq!(c.uses(), vec![Slot(1)]);
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Jump(BlockId(3)).successors(), vec![BlockId(3)]);
        assert_eq!(
            Terminator::Br {
                cond: Slot(0),
                then_bb: BlockId(1),
                else_bb: BlockId(2)
            }
            .successors(),
            vec![BlockId(1), BlockId(2)]
        );
        assert!(Terminator::Ret(None).successors().is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn duplicate_function_panics() {
        let mut m = Module::new(IntrinsicTable::new());
        let f = Function {
            name: "f".into(),
            param_count: 0,
            ret: Type::Void,
            slots: vec![],
            arrays: vec![],
            blocks: vec![Block {
                insts: vec![],
                term: Terminator::Ret(None),
                term_stmt: StmtId(0),
            }],
        };
        m.add_func(f.clone());
        m.add_func(f);
    }
}
