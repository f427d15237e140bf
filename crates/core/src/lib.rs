//! # commset
//!
//! The COMMSET compiler, end to end — a Rust reproduction of
//! *"Commutative Set: A Language Extension for Implicit Parallel
//! Programming"* (Prabhu, Ghosh, Zhang, Johnson, August — PLDI 2011).
//!
//! This facade crate re-exports the [`Compiler`] driver (paper Figure 5),
//! which lives in `commset-transform`, and adds the effects-sidecar
//! parser, profiling, replay and reporting on top of the whole pipeline:
//!
//! 1. front end: parse + type check + COMMSET pragma resolution
//!    (`commset-lang`),
//! 2. metadata manager: named-block inlining, commutative-region
//!    outlining, well-formedness (`commset-analysis`),
//! 3. PDG construction and Algorithm 1 — `uco`/`ico` annotation of memory
//!    dependences under symbolically proven predicates,
//! 4. parallelizing transforms: DOALL, DSWP, PS-DSWP with the
//!    rank-ordered synchronization engine (`commset-transform`),
//! 5. lowering and execution: sequential, simulated-multicore
//!    (discrete-event) and real-thread executors (`commset-ir`,
//!    `commset-interp`).
//!
//! # Examples
//!
//! ```
//! use commset::{Compiler, Scheme, SyncMode};
//! use commset_ir::IntrinsicTable;
//! use commset_lang::ast::Type;
//!
//! let mut table = IntrinsicTable::new();
//! table.register("work", vec![Type::Int], Type::Void, &[], &["OUT"], 200);
//! let compiler = Compiler::new(table);
//! let analysis = compiler.analyze(r#"
//!     extern void work(int i);
//!     int main() {
//!         int n = 32;
//!         for (int i = 0; i < n; i = i + 1) {
//!             #pragma CommSet(SELF)
//!             { work(i); }
//!         }
//!         return 0;
//!     }
//! "#)?;
//! assert!(analysis.doall_legal());
//! let (module, plan) = compiler.compile(&analysis, Scheme::Doall, 4, SyncMode::Spin)?;
//! assert_eq!(plan.workers.len(), 4);
//! # let _ = module;
//! # Ok::<(), commset_lang::Diagnostic>(())
//! ```

pub use commset_transform::{Analysis, Compiler, ParallelPlan, ParallelProgram, Scheme, SyncMode};

pub mod merge_law;
pub mod profile;
pub mod replay;
pub mod report;
pub mod spec;
