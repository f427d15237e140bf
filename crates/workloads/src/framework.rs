//! The workload harness: compiles and runs a workload's scheme variants
//! through the COMMSET pipeline, producing the speedup numbers behind
//! Table 2 and Figure 6.

use commset::{Analysis, Compiler, ParallelPlan, Scheme, SyncMode};
use commset_interp::ExecError;
use commset_ir::{IntrinsicTable, Module};
use commset_lang::diag::Diagnostic;
use commset_runtime::{Registry, World};
use commset_sim::CostModel;
use std::sync::Arc;

/// One scheme series of a workload's Figure 6 panel.
#[derive(Debug, Clone)]
pub struct SchemeSpec {
    /// Legend label, e.g. `Comm-DOALL (Spin)`.
    pub label: String,
    /// Index into [`Workload::variants`] (which annotated source to use).
    pub variant: usize,
    /// The transform.
    pub scheme: Scheme,
    /// The sync mode.
    pub sync: SyncMode,
    /// True if the series relies on COMMSET annotations (`Comm-` prefix in
    /// the paper's legends).
    pub commset: bool,
}

impl SchemeSpec {
    /// Creates a spec.
    pub fn new(label: &str, variant: usize, scheme: Scheme, sync: SyncMode, commset: bool) -> Self {
        SchemeSpec {
            label: label.to_string(),
            variant,
            scheme,
            sync,
            commset,
        }
    }
}

/// Paper-reported numbers for EXPERIMENTS.md comparisons.
#[derive(Debug, Clone)]
pub struct PaperRow {
    /// Best speedup on eight threads reported by the paper.
    pub best_speedup: f64,
    /// The paper's best scheme label, e.g. `DOALL + Lib`.
    pub best_scheme: &'static str,
    /// The paper's annotation count.
    pub annotations: u32,
    /// The paper's non-COMMSET best speedup (1.0 = sequential only).
    pub noncomm_speedup: f64,
}

/// A world validator: compares a parallel run's final world against the
/// sequential reference.
pub type Validator = Arc<dyn Fn(&World, &World) -> Result<(), String> + Send + Sync>;

/// A complete evaluation workload.
pub struct Workload {
    /// Program name (Table 2 column 1).
    pub name: &'static str,
    /// Origin suite (Table 2 column 2).
    pub origin: &'static str,
    /// Fraction of execution time in the hot loop (Table 2 column 3).
    pub exec_fraction: &'static str,
    /// Annotated sources; index 0 is the primary variant whose annotation
    /// count Table 2 reports. Additional variants encode the alternative
    /// semantic choices the paper evaluates (e.g. deterministic output).
    pub variants: Vec<String>,
    /// The Figure 6 series to evaluate.
    pub schemes: Vec<SchemeSpec>,
    /// Intrinsic signatures.
    pub table: IntrinsicTable,
    /// Intrinsic handlers.
    pub registry: Registry,
    /// Irrevocable channels (reject TM).
    pub irrevocable: Vec<&'static str>,
    /// Builds a fresh, deterministic input world.
    pub make_world: Arc<dyn Fn() -> World + Send + Sync>,
    /// Validates a parallel run's world against the sequential one
    /// (order-insensitive where the workload's semantics allow).
    pub validate: Validator,
    /// Paper numbers for the reproduction report.
    pub paper: PaperRow,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("variants", &self.variants.len())
            .field("schemes", &self.schemes.len())
            .finish()
    }
}

/// Removes every `#pragma` line — the paper's property that eliding the
/// annotations yields the sequential program (§3.2).
pub fn strip_pragmas(src: &str) -> String {
    src.lines()
        .filter(|l| !l.trim_start().starts_with("#pragma"))
        .collect::<Vec<_>>()
        .join("\n")
}

impl Workload {
    /// The pragma-stripped sequential baseline of the primary variant.
    pub fn plain_source(&self) -> String {
        strip_pragmas(&self.variants[0])
    }

    /// A compiler configured for this workload.
    pub fn compiler(&self) -> Compiler {
        Compiler::new(self.table.clone()).with_irrevocable(&self.irrevocable)
    }

    /// Analyzes one variant.
    ///
    /// # Errors
    ///
    /// Propagates compiler diagnostics.
    pub fn analyze(&self, variant: usize) -> Result<Analysis, Diagnostic> {
        self.compiler().analyze(&self.variants[variant])
    }

    /// Number of `#pragma` lines in the primary variant (Table 2
    /// "# CommSet Annotations").
    pub fn annotation_count(&self) -> usize {
        self.variants[0]
            .lines()
            .filter(|l| l.trim_start().starts_with("#pragma"))
            .count()
    }

    /// Non-blank source lines of the primary variant (Table 2 "SLOC").
    pub fn sloc(&self) -> usize {
        self.variants[0]
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count()
    }

    /// Runs the sequential baseline; returns (simulated time, final world).
    ///
    /// # Panics
    ///
    /// Panics if the baseline fails to compile — workload sources are
    /// fixed and must always compile.
    pub fn run_sequential(&self, cm: &CostModel) -> (u64, World) {
        let src = self.plain_source();
        let compiler = self.compiler();
        let analysis = compiler
            .analyze(&src)
            .unwrap_or_else(|e| panic!("{}: baseline analysis failed: {e}", self.name));
        let module = compiler
            .compile_sequential(&analysis)
            .unwrap_or_else(|e| panic!("{}: baseline lowering failed: {e}", self.name));
        let mut world = (self.make_world)();
        let out = commset_interp::run_sequential(&module, &self.registry, &mut world, cm, "main")
            .unwrap_or_else(|e| panic!("{}: baseline execution failed: {e}", self.name));
        (out.sim_time, world)
    }

    /// The source a series compiles: its annotated variant, or the
    /// pragma-stripped baseline for a non-COMMSET series.
    fn spec_source(&self, spec: &SchemeSpec) -> String {
        if spec.commset {
            self.variants[spec.variant].clone()
        } else {
            self.plain_source()
        }
    }

    /// Analyzes `spec`'s source and applies its transform at `nthreads`:
    /// the one compile path of every `run_scheme*` entry point.
    fn compile_spec(
        &self,
        spec: &SchemeSpec,
        nthreads: usize,
    ) -> Result<(Module, ParallelPlan), Diagnostic> {
        let compiler = self.compiler();
        let analysis = compiler.analyze(&self.spec_source(spec))?;
        compiler.compile(&analysis, spec.scheme, nthreads, spec.sync)
    }

    /// Runs one scheme at `nthreads`; returns (simulated time, final
    /// world), or the applicability diagnostic.
    ///
    /// # Errors
    ///
    /// Returns the transform's diagnostic when the scheme does not apply.
    pub fn run_scheme(
        &self,
        spec: &SchemeSpec,
        nthreads: usize,
        cm: &CostModel,
    ) -> Result<(u64, World), Diagnostic> {
        if spec.scheme == Scheme::Sequential {
            let compiler = self.compiler();
            let module =
                compiler.compile_sequential(&compiler.analyze(&self.spec_source(spec))?)?;
            let mut world = (self.make_world)();
            let out =
                commset_interp::run_sequential(&module, &self.registry, &mut world, cm, "main")
                    .unwrap_or_else(|e| {
                        panic!("{}: sequential scheme execution failed: {e}", self.name)
                    });
            return Ok((out.sim_time, world));
        }
        let (module, plan) = self.compile_spec(spec, nthreads)?;
        let mut world = (self.make_world)();
        let out = commset_interp::run_simulated(&module, &self.registry, &[plan], &mut world, cm)
            .unwrap_or_else(|e| {
                panic!(
                    "{}: simulated execution failed for {}: {e}",
                    self.name, spec.label
                )
            });
        Ok((out.sim_time, world))
    }

    /// Runs one scheme at `nthreads` under an explicit executor
    /// configuration (fault plan, backoff, watchdog) — the entry point of
    /// the torture harness. Unlike [`Workload::run_scheme`], executor
    /// errors are returned, not panicked: a fault plan is *supposed* to be
    /// able to break a run, and the caller decides what is acceptable.
    ///
    /// # Errors
    ///
    /// `Err(Ok(diag))` when the scheme does not apply; `Err(Err(e))` when
    /// the executor reports a structured failure under the fault plan.
    #[allow(clippy::type_complexity)]
    pub fn run_scheme_with(
        &self,
        spec: &SchemeSpec,
        nthreads: usize,
        cm: &CostModel,
        cfg: &commset_interp::ExecConfig,
    ) -> Result<(u64, World, commset_interp::SimStats), Result<Diagnostic, ExecError>> {
        let (module, plan) = self.compile_spec(spec, nthreads).map_err(Ok)?;
        let mut world = (self.make_world)();
        let out = commset_interp::run_simulated_with(
            &module,
            &self.registry,
            &[plan],
            &mut world,
            cm,
            cfg,
        )
        .map_err(Err)?;
        Ok((out.sim_time, world, out.stats))
    }

    /// Runs one scheme at `nthreads` on **real OS threads** under `cfg`
    /// — the entry point of the real-thread test suites (the world
    /// equivalence suite and the interned-id routes). The executor's
    /// `cfg.world` knob selects the world: single mutex, sharded, or
    /// per-worker deltas.
    ///
    /// # Errors
    ///
    /// `Err(Ok(diag))` when the scheme does not apply; `Err(Err(e))` when
    /// the real-thread executor reports a structured failure.
    #[allow(clippy::type_complexity)]
    pub fn run_scheme_threaded(
        &self,
        spec: &SchemeSpec,
        nthreads: usize,
        cfg: &commset_interp::ExecConfig,
    ) -> Result<commset_interp::ThreadOutcome, Result<Diagnostic, ExecError>> {
        let (module, plan) = self.compile_spec(spec, nthreads).map_err(Ok)?;
        let world = (self.make_world)();
        commset_interp::run_threaded_with(
            &module,
            &self.registry,
            std::slice::from_ref(&plan),
            world,
            cfg,
        )
        .map_err(Err)
    }

    /// Speedup of `spec` at `nthreads` over the sequential baseline,
    /// validating the parallel world. `None` when inapplicable.
    ///
    /// # Panics
    ///
    /// Panics if validation fails — a correctness bug, never a tuning
    /// matter.
    pub fn speedup(&self, spec: &SchemeSpec, nthreads: usize, cm: &CostModel) -> Option<f64> {
        let (seq_time, seq_world) = self.run_sequential(cm);
        match self.run_scheme(spec, nthreads, cm) {
            Ok((par_time, par_world)) => {
                (self.validate)(&seq_world, &par_world).unwrap_or_else(|e| {
                    panic!(
                        "{}: validation failed for {} x{nthreads}: {e}",
                        self.name, spec.label
                    )
                });
                Some(seq_time as f64 / par_time as f64)
            }
            Err(_) => None,
        }
    }

    /// Speedups at 2..=max_threads (Figure 6 series; thread count 1 is
    /// defined as 1.0 in the paper's plots).
    pub fn sweep(&self, spec: &SchemeSpec, max_threads: usize, cm: &CostModel) -> Vec<Option<f64>> {
        (2..=max_threads)
            .map(|t| self.speedup(spec, t, cm))
            .collect()
    }

    /// The best (speedup, label) over all COMMSET schemes at `nthreads`.
    pub fn best_commset(&self, nthreads: usize, cm: &CostModel) -> Option<(f64, String)> {
        self.schemes
            .iter()
            .filter(|s| s.commset)
            .filter_map(|s| self.speedup(s, nthreads, cm).map(|v| (v, s.label.clone())))
            .max_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN speedups"))
    }

    /// The best non-COMMSET speedup at `nthreads` (1.0 when only the
    /// sequential baseline applies).
    pub fn best_noncomm(&self, nthreads: usize, cm: &CostModel) -> (f64, String) {
        self.schemes
            .iter()
            .filter(|s| !s.commset)
            .filter_map(|s| self.speedup(s, nthreads, cm).map(|v| (v, s.label.clone())))
            .max_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN speedups"))
            .unwrap_or((1.0, "Sequential".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_pragmas_removes_only_pragmas() {
        let src = "#pragma CommSetDecl(S, Group)\nint main() {\n    #pragma CommSet(S)\n    { return 0; }\n}";
        let plain = strip_pragmas(src);
        assert!(!plain.contains("#pragma"));
        assert!(plain.contains("int main()"));
        assert_eq!(plain.lines().count(), 3);
    }
}
