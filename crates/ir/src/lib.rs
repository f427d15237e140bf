//! # commset-ir
//!
//! The compiler's intermediate representation and its analyses.
//!
//! Cmm functions are lowered ([`lower`]) to a flat register-machine IR
//! ([`repr`]) over basic blocks: every scalar local is a slot, every
//! instruction records the source statement it came from, and calls target
//! either program functions or *intrinsics* — runtime operations with
//! declared side-effect channels ([`effects`]).
//!
//! The IR is built with [`builder`] and carries one analysis of its own,
//! slot [`liveness`]. Loop shape — the induction variable, its bound and
//! whether the loop is countable (paper §4.3–4.4) — is recognized once, on
//! the AST, by `commset_analysis::hotloop`.

pub mod builder;
pub mod effects;
pub mod liveness;
pub mod lower;
pub mod repr;

pub use effects::{ChannelId, EffectSig, IntrinsicTable};
pub use liveness::{Liveness, SlotSet};
pub use lower::lower_program;
pub use repr::{
    Arg, ArrRef, ArrayId, BlockId, Callee, Const, FuncId, Function, GlobalId, Inst, IntrinsicId,
    Module, Slot, Terminator,
};
