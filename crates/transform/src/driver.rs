//! The end-to-end COMMSET compiler driver (paper Figure 5): front end,
//! metadata manager, PDG with Algorithm 1, DAG-SCC, then DOALL / DSWP /
//! PS-DSWP and lowering. The `commset` facade re-exports it, and the
//! checker and the executors' tests compile through it too, so the
//! pipeline exists once.

use crate::{doall, dswp, ParallelPlan, ParallelProgram, Scheme, SyncMode};
use commset_analysis::depanalysis::analyze_commutativity;
use commset_analysis::effects::{summarize, FuncEffects};
use commset_analysis::hotloop::find_hot_loop;
use commset_analysis::metadata::manage;
use commset_analysis::pdg::{DepKind, Pdg};
use commset_analysis::scc::{dag_scc, DagScc};
use commset_analysis::{HotLoop, ManagedUnit};
use commset_ir::{lower_program, IntrinsicTable, Module};
use commset_lang::diag::{Diagnostic, Phase};
use std::collections::{BTreeSet, HashMap};

/// The result of the analysis half of the pipeline: everything the
/// transforms (and the diagnostics) need.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The canonicalized program and CommSet tables.
    pub managed: ManagedUnit,
    /// The hot loop.
    pub hot: HotLoop,
    /// The PDG, with Algorithm 1 annotations applied.
    pub pdg: Pdg,
    /// Its DAG-SCC.
    pub dag: DagScc,
    /// Function effect summaries.
    pub summaries: HashMap<String, FuncEffects>,
    /// Number of memory edges Algorithm 1 annotated.
    pub relaxed_edges: usize,
    /// Number of `#pragma` annotation lines in the source.
    pub annotation_lines: usize,
    /// Source lines of code (non-blank).
    pub sloc: usize,
}

impl Analysis {
    /// True if the relaxed PDG admits DOALL (countability checked by the
    /// transform).
    pub fn doall_legal(&self) -> bool {
        self.pdg.doall_legal() && self.hot.shape.is_countable()
    }

    /// Human-readable list of the loop-carried dependences that still
    /// inhibit parallelization — the feedback the paper's workflow shows
    /// the programmer (Figure 5).
    pub fn explain_inhibitors(&self) -> Vec<String> {
        self.pdg
            .inhibitors()
            .iter()
            .map(|e| {
                let what = match &e.kind {
                    DepKind::RegFlow(v) => format!("value of `{v}`"),
                    DepKind::Memory { loc, src_call, .. } => match src_call {
                        Some(c) => format!("{loc} via call to `{}`", c.callee),
                        None => format!("{loc}"),
                    },
                    DepKind::Control => "loop control".to_string(),
                };
                format!(
                    "loop-carried dependence {} -> {} on {} (line {} -> line {})",
                    self.pdg.nodes[e.src.0].label,
                    self.pdg.nodes[e.dst.0].label,
                    what,
                    self.pdg.nodes[e.src.0].span.line,
                    self.pdg.nodes[e.dst.0].span.line,
                )
            })
            .collect()
    }

    /// The PDG rendered for debugging (Figure 2 in text form).
    pub fn pdg_dump(&self) -> String {
        self.pdg.dump()
    }
}

/// The end-to-end COMMSET compiler driver.
#[derive(Debug, Clone)]
pub struct Compiler {
    /// Intrinsic signatures (types, effect channels, base costs).
    pub intrinsics: IntrinsicTable,
    /// Channels whose effects cannot be rolled back (I/O); members touching
    /// them reject the TM sync mode, as in the paper's evaluation.
    pub irrevocable: BTreeSet<String>,
    /// The function whose first top-level loop is the parallelization
    /// target (profiling stand-in; default `main`).
    pub hot_func: String,
}

impl Compiler {
    /// Creates a driver over the given intrinsic table.
    pub fn new(intrinsics: IntrinsicTable) -> Self {
        Compiler {
            intrinsics,
            irrevocable: BTreeSet::new(),
            hot_func: "main".to_string(),
        }
    }

    /// Declares irrevocable channels (builder style).
    pub fn with_irrevocable(mut self, channels: &[&str]) -> Self {
        self.irrevocable = channels.iter().map(|c| c.to_string()).collect();
        self
    }

    /// Sets the hot function (builder style).
    pub fn with_hot_func(mut self, name: &str) -> Self {
        self.hot_func = name.to_string();
        self
    }

    /// Runs the analysis half of the pipeline on `source`.
    ///
    /// # Errors
    ///
    /// Returns the first front-end, metadata-manager or hot-loop
    /// diagnostic.
    pub fn analyze(&self, source: &str) -> Result<Analysis, Diagnostic> {
        let annotation_lines = source
            .lines()
            .filter(|l| l.trim_start().starts_with("#pragma"))
            .count();
        let sloc = source.lines().filter(|l| !l.trim().is_empty()).count();
        let unit = commset_lang::compile_unit(source)?;
        let managed = manage(unit)?;
        let summaries = summarize(&managed.program, &self.intrinsics);
        let hot = find_hot_loop(&managed, &summaries, &self.intrinsics, &self.hot_func)?;
        let mut pdg = Pdg::build(&hot);
        let relaxed_edges = analyze_commutativity(&mut pdg, &managed, &hot);
        let dag = dag_scc(&pdg);
        Ok(Analysis {
            managed,
            hot,
            pdg,
            dag,
            summaries,
            relaxed_edges,
            annotation_lines,
            sloc,
        })
    }

    /// Lowers the *sequential* (untransformed) program.
    ///
    /// # Errors
    ///
    /// Returns lowering diagnostics.
    pub fn compile_sequential(&self, analysis: &Analysis) -> Result<Module, Diagnostic> {
        lower_program(&analysis.managed.program, self.intrinsics.clone())
    }

    /// Applies `scheme` with `nthreads` workers under `sync`, returning
    /// the lowered module and its execution plan.
    ///
    /// # Errors
    ///
    /// Returns the transform's applicability diagnostic (e.g. "DOALL
    /// illegal", "PS-DSWP inapplicable", "transactions are not
    /// applicable").
    pub fn compile(
        &self,
        analysis: &Analysis,
        scheme: Scheme,
        nthreads: usize,
        sync: SyncMode,
    ) -> Result<(Module, ParallelPlan), Diagnostic> {
        let pp = self.compile_to_ast(analysis, scheme, nthreads, sync)?;
        let module = lower_program(&pp.program, self.intrinsics.clone())?;
        Ok((module, pp.plan))
    }

    /// Applies `scheme` and returns the transformed program as *source
    /// AST* — worker functions, queue and lock calls, and the rewritten
    /// `main` — plus the plan. Pretty-print it with
    /// [`commset_lang::printer::print_program`] to inspect what the
    /// transforms generated.
    ///
    /// # Errors
    ///
    /// Returns the transform's applicability diagnostic, as
    /// [`Compiler::compile`] does, and rejects `nthreads == 0` (a plan
    /// with no workers would run no iteration).
    pub fn compile_to_ast(
        &self,
        analysis: &Analysis,
        scheme: Scheme,
        nthreads: usize,
        sync: SyncMode,
    ) -> Result<ParallelProgram, Diagnostic> {
        if nthreads == 0 {
            return Err(Diagnostic::global(
                Phase::Commset,
                "a parallel schedule needs at least 1 thread",
            ));
        }
        let pp = match scheme {
            Scheme::Sequential => {
                return Err(Diagnostic::global(
                    Phase::Commset,
                    "use compile_sequential for the sequential scheme",
                ))
            }
            Scheme::Doall => doall::apply_doall(
                &analysis.managed,
                &analysis.hot,
                &analysis.pdg,
                &analysis.summaries,
                &self.irrevocable,
                nthreads,
                sync,
                0,
            )?,
            Scheme::Dswp => dswp::apply_pipeline(
                &analysis.managed,
                &analysis.hot,
                &analysis.pdg,
                &analysis.dag,
                &analysis.summaries,
                &self.irrevocable,
                nthreads,
                sync,
                0,
            )?,
            Scheme::PsDswp => dswp::apply_ps_dswp(
                &analysis.managed,
                &analysis.hot,
                &analysis.pdg,
                &analysis.dag,
                &analysis.summaries,
                &self.irrevocable,
                nthreads,
                sync,
                0,
            )?,
        };
        Ok(pp)
    }

    /// Compiles every applicable (scheme, sync mode) combination at
    /// `nthreads`, returning them ranked by the static performance
    /// estimate (lowest estimated cost first).
    ///
    /// This is the selection step the paper leaves to "a production
    /// quality compiler \[that\] would typically use heuristics to select
    /// the optimal across all parallelization schemes" (§4.5).
    pub fn compile_all(
        &self,
        analysis: &Analysis,
        nthreads: usize,
    ) -> Vec<(Scheme, SyncMode, Module, ParallelPlan)> {
        let mut out = Vec::new();
        for scheme in [Scheme::Doall, Scheme::Dswp, Scheme::PsDswp] {
            for sync in [SyncMode::Lib, SyncMode::Spin, SyncMode::Mutex, SyncMode::Tm] {
                if let Ok((module, plan)) = self.compile(analysis, scheme, nthreads, sync) {
                    out.push((scheme, sync, module, plan));
                }
            }
        }
        out.sort_by(|a, b| {
            a.3.estimated_cost
                .partial_cmp(&b.3.estimated_cost)
                .expect("estimates are finite")
        });
        out
    }

    /// The estimator's preferred schedule at `nthreads`, if any applies.
    pub fn compile_best(
        &self,
        analysis: &Analysis,
        nthreads: usize,
    ) -> Option<(Scheme, SyncMode, Module, ParallelPlan)> {
        self.compile_all(analysis, nthreads).into_iter().next()
    }

    /// Which transforms apply to this loop at `nthreads` threads, mirroring
    /// the "Parallelizing Transforms" column of Table 2.
    pub fn applicable_schemes(&self, analysis: &Analysis, nthreads: usize) -> Vec<Scheme> {
        let mut out = Vec::new();
        for scheme in [Scheme::Doall, Scheme::Dswp, Scheme::PsDswp] {
            if self
                .compile(analysis, scheme, nthreads, SyncMode::Lib)
                .is_ok()
            {
                out.push(scheme);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_lang::ast::Type;

    fn compiler() -> Compiler {
        let mut table = IntrinsicTable::new();
        table.register("io_read", vec![Type::Int], Type::Int, &["FS"], &["FS"], 100);
        table.register("emit", vec![Type::Int], Type::Void, &[], &["CONSOLE"], 40);
        table.register("pure", vec![Type::Int], Type::Int, &[], &[], 300);
        Compiler::new(table).with_irrevocable(&["FS", "CONSOLE"])
    }

    const ANNOTATED: &str = r#"
        #pragma CommSetDecl(FSET, Group)
        #pragma CommSetPredicate(FSET, (i1), (i2), i1 != i2)
        extern int io_read(int i);
        extern void emit(int d);
        extern int pure(int x);
        int main() {
            int n = 16;
            for (int i = 0; i < n; i = i + 1) {
                int x = 0;
                #pragma CommSet(SELF, FSET(i))
                { x = io_read(i); }
                int d = pure(x);
                #pragma CommSet(SELF, FSET(i))
                { emit(d); }
            }
            return 0;
        }
    "#;

    #[test]
    fn full_pipeline_compiles_all_schemes() {
        let c = compiler();
        let a = c.analyze(ANNOTATED).unwrap();
        assert!(a.relaxed_edges > 0);
        assert!(a.doall_legal(), "{}", a.pdg_dump());
        assert_eq!(a.annotation_lines, 4);
        let schemes = c.applicable_schemes(&a, 8);
        assert!(schemes.contains(&Scheme::Doall), "{schemes:?}");
        assert!(schemes.contains(&Scheme::PsDswp), "{schemes:?}");
        let (module, plan) = c.compile(&a, Scheme::Doall, 8, SyncMode::Spin).unwrap();
        assert_eq!(plan.workers.len(), 8);
        assert!(module.func_id("__par0_doall").is_some());
    }

    #[test]
    fn unannotated_program_reports_inhibitors() {
        let c = compiler();
        let src = r#"
            extern int io_read(int i);
            int main() {
                int n = 16;
                for (int i = 0; i < n; i = i + 1) {
                    int x = io_read(i);
                }
                return 0;
            }
        "#;
        let a = c.analyze(src).unwrap();
        assert!(!a.doall_legal());
        let inhibitors = a.explain_inhibitors();
        assert!(!inhibitors.is_empty());
        assert!(
            inhibitors.iter().any(|m| m.contains("io_read")),
            "{inhibitors:?}"
        );
        assert!(c.compile(&a, Scheme::Doall, 4, SyncMode::Spin).is_err());
    }

    #[test]
    fn tm_rejected_on_irrevocable_channels() {
        let c = compiler();
        let a = c.analyze(ANNOTATED).unwrap();
        let e = c.compile(&a, Scheme::Doall, 4, SyncMode::Tm).unwrap_err();
        assert!(e.message.contains("irrevocable"), "{e}");
    }

    #[test]
    fn compile_best_prefers_lockless_doall_here() {
        let c = compiler();
        let a = c.analyze(ANNOTATED).unwrap();
        let ranked = c.compile_all(&a, 8);
        assert!(ranked.len() >= 4, "several schedules apply");
        let (scheme, sync, _, _) = c.compile_best(&a, 8).expect("something applies");
        assert_eq!(scheme, Scheme::Doall);
        assert_eq!(sync, SyncMode::Lib, "no locks beats locks in the estimate");
        // Ranking is by estimated cost, ascending.
        for pair in ranked.windows(2) {
            assert!(pair[0].3.estimated_cost <= pair[1].3.estimated_cost);
        }
    }

    #[test]
    fn zero_threads_is_a_diagnostic() {
        let c = compiler();
        let a = c.analyze(ANNOTATED).unwrap();
        for scheme in [Scheme::Doall, Scheme::Dswp, Scheme::PsDswp] {
            let e = c.compile(&a, scheme, 0, SyncMode::Lib).unwrap_err();
            assert!(e.message.contains("at least 1 thread"), "{e}");
        }
        assert!(c.applicable_schemes(&a, 0).is_empty());
        assert!(c.compile_best(&a, 0).is_none());
    }

    #[test]
    fn deterministic_variant_loses_doall_keeps_pipeline() {
        // Omitting SELF on the emit block (deterministic output, §2) must
        // forbid DOALL but keep PS-DSWP — the md5sum Figure 3 story.
        let c = compiler();
        let det = ANNOTATED.replace(
            "#pragma CommSet(SELF, FSET(i))\n                { emit(d); }",
            "#pragma CommSet(FSET(i))\n                { emit(d); }",
        );
        let a = c.analyze(&det).unwrap();
        assert!(!a.doall_legal(), "{}", a.pdg_dump());
        let schemes = c.applicable_schemes(&a, 8);
        assert!(!schemes.contains(&Scheme::Doall));
        assert!(schemes.contains(&Scheme::PsDswp), "{schemes:?}");
    }
}
