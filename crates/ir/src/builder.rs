//! Mechanical construction of IR functions.

use crate::repr::*;
use commset_lang::ast::{StmtId, Type};

/// Incrementally builds a [`Function`]: blocks are created, filled with
/// instructions (tagged with the current source statement) and sealed with
/// terminators.
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    param_count: usize,
    ret: Type,
    slots: Vec<SlotDecl>,
    arrays: Vec<ArrayDecl>,
    blocks: Vec<Option<Block>>,
    pending: Vec<Option<Vec<InstNode>>>,
    current: BlockId,
    current_stmt: StmtId,
    temp_count: u32,
}

impl FunctionBuilder {
    /// Starts building a function with the given parameters (which become
    /// the first slots). The entry block is created and made current.
    pub fn new(name: impl Into<String>, params: &[(String, Type)], ret: Type) -> Self {
        let mut b = FunctionBuilder {
            name: name.into(),
            param_count: params.len(),
            ret,
            slots: params
                .iter()
                .map(|(n, t)| SlotDecl {
                    name: n.clone(),
                    ty: *t,
                })
                .collect(),
            arrays: Vec::new(),
            blocks: Vec::new(),
            pending: Vec::new(),
            current: BlockId(0),
            current_stmt: StmtId(0),
            temp_count: 0,
        };
        let entry = b.new_block();
        b.current = entry;
        b
    }

    /// Sets the statement all subsequently pushed instructions are
    /// attributed to.
    pub fn set_stmt(&mut self, stmt: StmtId) {
        self.current_stmt = stmt;
    }

    /// The current provenance statement.
    pub fn current_stmt(&self) -> StmtId {
        self.current_stmt
    }

    /// Parameter slots.
    pub fn param_slot(&self, i: usize) -> Slot {
        assert!(i < self.param_count);
        Slot(i as u32)
    }

    /// Declares a named scalar slot.
    pub fn new_slot(&mut self, name: impl Into<String>, ty: Type) -> Slot {
        let s = Slot(self.slots.len() as u32);
        self.slots.push(SlotDecl {
            name: name.into(),
            ty,
        });
        s
    }

    /// Declares an anonymous temporary slot.
    pub fn new_temp(&mut self, ty: Type) -> Slot {
        self.temp_count += 1;
        let name = format!("%t{}", self.temp_count);
        self.new_slot(name, ty)
    }

    /// The type of a slot.
    pub fn slot_ty(&self, s: Slot) -> Type {
        self.slots[s.0 as usize].ty
    }

    /// Declares a local array.
    pub fn new_array(&mut self, name: impl Into<String>, ty: Type, len: usize) -> ArrayId {
        let a = ArrayId(self.arrays.len() as u32);
        self.arrays.push(ArrayDecl {
            name: name.into(),
            ty,
            len,
        });
        a
    }

    /// Creates a new, empty, unsealed block.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(None);
        self.pending.push(Some(Vec::new()));
        id
    }

    /// Makes `b` the current block.
    ///
    /// # Panics
    ///
    /// Panics if `b` is already sealed.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(
            self.pending[b.0 as usize].is_some(),
            "block {b} is already sealed"
        );
        self.current = b;
    }

    /// True if the current block is still open (not terminated).
    pub fn current_open(&self) -> bool {
        self.pending[self.current.0 as usize].is_some()
    }

    /// Appends an instruction to the current block.
    ///
    /// # Panics
    ///
    /// Panics if the current block is sealed.
    pub fn push(&mut self, inst: Inst) {
        let stmt = self.current_stmt;
        self.pending[self.current.0 as usize]
            .as_mut()
            .expect("push into sealed block")
            .push(InstNode { inst, stmt });
    }

    /// Seals the current block with `term`.
    ///
    /// # Panics
    ///
    /// Panics if the current block is already sealed.
    pub fn terminate(&mut self, term: Terminator) {
        let idx = self.current.0 as usize;
        let insts = self.pending[idx].take().expect("double terminate");
        self.blocks[idx] = Some(Block {
            insts,
            term,
            term_stmt: self.current_stmt,
        });
    }

    /// Finishes the function.
    ///
    /// Any still-open block is sealed with a `Ret` of the zero value (this
    /// covers function bodies whose last statement is not a `return`, as in
    /// C).
    pub fn finish(mut self) -> Function {
        for idx in 0..self.blocks.len() {
            if self.blocks[idx].is_none() {
                let insts = self.pending[idx].take().unwrap();
                let term = if self.ret == Type::Void {
                    Terminator::Ret(None)
                } else {
                    // Implicit `return 0` / `return 0.0`.
                    let tmp = Slot(self.slots.len() as u32);
                    self.slots.push(SlotDecl {
                        name: "%implicit_ret".into(),
                        ty: self.ret,
                    });
                    let value = match self.ret {
                        Type::Float => Const::Float(0.0),
                        _ => Const::Int(0),
                    };
                    let mut insts = insts;
                    insts.push(InstNode {
                        inst: Inst::Const { dst: tmp, value },
                        stmt: self.current_stmt,
                    });
                    self.blocks[idx] = Some(Block {
                        insts,
                        term: Terminator::Ret(Some(tmp)),
                        term_stmt: self.current_stmt,
                    });
                    continue;
                };
                self.blocks[idx] = Some(Block {
                    insts,
                    term,
                    term_stmt: self.current_stmt,
                });
            }
        }
        Function {
            name: self.name,
            param_count: self.param_count,
            ret: self.ret,
            slots: self.slots,
            arrays: self.arrays,
            blocks: self.blocks.into_iter().map(Option::unwrap).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_lang::ast::BinOp;

    #[test]
    fn builds_straight_line_function() {
        let mut b = FunctionBuilder::new(
            "add",
            &[("a".into(), Type::Int), ("b".into(), Type::Int)],
            Type::Int,
        );
        let t = b.new_temp(Type::Int);
        b.push(Inst::Bin {
            dst: t,
            op: BinOp::Add,
            lhs: b.param_slot(0),
            rhs: b.param_slot(1),
        });
        b.terminate(Terminator::Ret(Some(t)));
        let f = b.finish();
        assert_eq!(f.param_count, 2);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 1);
    }

    #[test]
    fn open_blocks_get_implicit_return() {
        let b = FunctionBuilder::new("f", &[], Type::Int);
        let f = b.finish();
        assert!(matches!(f.blocks[0].term, Terminator::Ret(Some(_))));

        let b = FunctionBuilder::new("g", &[], Type::Void);
        let f = b.finish();
        assert!(matches!(f.blocks[0].term, Terminator::Ret(None)));
    }

    #[test]
    #[should_panic(expected = "double terminate")]
    fn double_terminate_panics() {
        let mut b = FunctionBuilder::new("f", &[], Type::Void);
        b.terminate(Terminator::Ret(None));
        b.terminate(Terminator::Ret(None));
    }
}
