//! The `compile` workload: every workload variant, plus its
//! pragma-stripped baseline, through analysis, every Figure 6 scheme spec
//! at 2 and 8 threads, and bytecode compilation. Nothing executes, so a
//! runtime change must leave this workload unmoved.
//!
//! The untraced run calls the `commset::Compiler` facade. The traced run
//! makes the same public phase calls the facade makes, one span each, and
//! checks once per job that this path yields the facade's modules.

use crate::bench::{ratio, RunLog, Values, Workload};
use crate::trace::Tracer;
use commset::{Analysis, Compiler, ParallelPlan, Scheme, SyncMode};
use commset_analysis::depanalysis::analyze_commutativity;
use commset_analysis::effects::summarize;
use commset_analysis::hotloop::find_hot_loop;
use commset_analysis::metadata::manage;
use commset_analysis::pdg::Pdg;
use commset_analysis::scc::dag_scc;
use commset_interp::{print_bc_module, BcModule};
use commset_ir::{lower_program, Module};
use commset_lang::diag::Diagnostic;
use commset_workloads::SchemeSpec;

/// Thread counts each scheme spec is compiled at.
const THREADS: [usize; 2] = [2, 8];

/// True where EXPERIMENTS.md's Figure 6 prints `n/a`: the scheme does not
/// apply at that thread count. Everywhere else it must apply.
pub fn figure6_na(workload: &str, label: &str, threads: usize) -> bool {
    workload == "456.hmmer" && label == "Comm-PS-DSWP (Lib)" && threads == 2
}

/// [`Compiler::analyze`], one span per phase.
///
/// # Errors
///
/// The first front-end, metadata-manager or hot-loop diagnostic.
pub fn analyze_phased(c: &Compiler, source: &str, t: &mut Tracer) -> Result<Analysis, Diagnostic> {
    let annotation_lines = source
        .lines()
        .filter(|l| l.trim_start().starts_with("#pragma"))
        .count();
    let sloc = source.lines().filter(|l| !l.trim().is_empty()).count();
    let unit = t.span("lang.compile_unit", |_| commset_lang::compile_unit(source))?;
    let managed = t.span("analysis.manage", |_| manage(unit))?;
    let summaries = t.span("analysis.summarize", |_| {
        summarize(&managed.program, &c.intrinsics)
    });
    let hot = t.span("analysis.hot_loop", |_| {
        find_hot_loop(&managed, &summaries, &c.intrinsics, &c.hot_func)
    })?;
    let mut pdg = t.span("analysis.pdg_build", |_| Pdg::build(&hot));
    let relaxed_edges = t.span("analysis.alg1", |_| {
        analyze_commutativity(&mut pdg, &managed, &hot)
    });
    let dag = t.span("analysis.dag_scc", |_| dag_scc(&pdg));
    t.count("analysis.pdg_edges", pdg.edges.len() as u64);
    t.count("analysis.relaxed_edges", relaxed_edges as u64);
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

/// [`Compiler::compile`], one span for the transform and one for lowering.
///
/// # Errors
///
/// The transform's applicability diagnostic, or a lowering diagnostic.
pub fn compile_phased(
    c: &Compiler,
    a: &Analysis,
    scheme: Scheme,
    nthreads: usize,
    sync: SyncMode,
    t: &mut Tracer,
) -> Result<(Module, ParallelPlan), Diagnostic> {
    let pp = t.span("transform.apply", |_| {
        c.compile_to_ast(a, scheme, nthreads, sync)
    })?;
    let module = t.span("ir.lower", |_| {
        lower_program(&pp.program, c.intrinsics.clone())
    })?;
    Ok((module, pp.plan))
}

/// [`Compiler::compile_sequential`] under the `ir.lower` span.
///
/// # Errors
///
/// A lowering diagnostic.
pub fn lower_sequential(c: &Compiler, a: &Analysis, t: &mut Tracer) -> Result<Module, Diagnostic> {
    t.span("ir.lower", |_| c.compile_sequential(a))
}

/// `BcModule::compile` under its span, counting instructions in and ops out.
pub fn bc_compile(m: &Module, t: &mut Tracer) -> BcModule {
    let bc = t.span("interp.bc_compile", |_| BcModule::compile(m));
    t.count(
        "ir.insts",
        m.funcs.iter().map(|f| f.inst_count() as u64).sum(),
    );
    t.count(
        "interp.bc_ops",
        bc.funcs.iter().map(|f| f.ops.len() as u64).sum(),
    );
    bc
}

/// One compile job: a source text and the scheme specs compiled from it.
struct Job {
    workload: &'static str,
    compiler: Compiler,
    source: String,
    /// The pragma-stripped baseline, which is also lowered sequentially.
    baseline: bool,
    specs: Vec<SchemeSpec>,
}

/// The compile workload.
pub struct CompileBench {
    jobs: Vec<Job>,
}

impl CompileBench {
    /// Builds the job list from the evaluation workloads.
    pub fn new() -> Self {
        let mut jobs = Vec::new();
        for w in commset_workloads::all() {
            let sources = w
                .variants
                .iter()
                .cloned()
                .map(|s| (s, false))
                .chain([(w.plain_source(), true)]);
            for (v, (source, baseline)) in sources.enumerate() {
                let specs = w
                    .schemes
                    .iter()
                    .filter(|s| {
                        if baseline {
                            !s.commset
                        } else {
                            s.commset && s.variant == v
                        }
                    })
                    .cloned()
                    .collect();
                jobs.push(Job {
                    workload: w.name,
                    compiler: w.compiler(),
                    source,
                    baseline,
                    specs,
                });
            }
        }
        CompileBench { jobs }
    }

    /// Compiles job `i` along the facade or the phase-by-phase path.
    /// Applicability that differs from Figure 6 is an error. With
    /// `rendered`, each output module is also rendered (bytecode listing
    /// and plan) for the equivalence check.
    fn compile_job(
        &self,
        i: usize,
        phased: bool,
        t: &mut Tracer,
        mut rendered: Option<&mut Vec<String>>,
    ) -> Result<(), String> {
        let job = &self.jobs[i];
        let c = &job.compiler;
        let a = if phased {
            analyze_phased(c, &job.source, t)
        } else {
            c.analyze(&job.source)
        }
        .map_err(|d| format!("{}: analysis failed: {d}", job.workload))?;
        let mut emit = |m: &Module, plan: Option<&ParallelPlan>, t: &mut Tracer| {
            let bc = bc_compile(m, t);
            match rendered.as_deref_mut() {
                Some(out) => out.push(format!("{}{plan:?}", print_bc_module(m, &bc))),
                None => drop(std::hint::black_box(bc)),
            }
        };
        for spec in &job.specs {
            for threads in THREADS {
                t.count("transform.attempted", 1);
                let compiled = if phased {
                    compile_phased(c, &a, spec.scheme, threads, spec.sync, t)
                } else {
                    c.compile(&a, spec.scheme, threads, spec.sync)
                };
                match (compiled, figure6_na(job.workload, &spec.label, threads)) {
                    (Ok((m, plan)), false) => {
                        t.count("transform.applied", 1);
                        emit(&m, Some(&plan), t);
                    }
                    (Err(_), true) => {}
                    (Ok(_), true) => {
                        return Err(format!(
                            "{} {} x{threads} applies where Figure 6 has n/a",
                            job.workload, spec.label
                        ))
                    }
                    (Err(d), false) => {
                        return Err(format!(
                            "{} {} x{threads} does not apply: {d}",
                            job.workload, spec.label
                        ))
                    }
                }
            }
        }
        if job.baseline {
            let m = if phased {
                lower_sequential(c, &a, t)
            } else {
                c.compile_sequential(&a)
            }
            .map_err(|d| format!("{}: baseline lowering failed: {d}", job.workload))?;
            emit(&m, None, t);
        }
        Ok(())
    }
}

impl Default for CompileBench {
    fn default() -> Self {
        CompileBench::new()
    }
}

impl Workload for CompileBench {
    fn job_count(&self) -> usize {
        self.jobs.len()
    }

    fn run_job(&mut self, job: usize, t: &mut Tracer) -> Result<(), String> {
        let phased = t.is_on();
        self.compile_job(job, phased, t, None)
    }

    fn layer_metrics(
        &mut self,
        t: &mut Tracer,
        _traced: &RunLog,
        problems: &mut Vec<String>,
    ) -> Values {
        let applied = ratio(
            t.counter("transform.applied") as f64,
            t.counter("transform.attempted") as f64,
        );
        let mut quiet = Tracer::new(false);
        for i in 0..self.jobs.len() {
            let (mut facade, mut phased) = (Vec::new(), Vec::new());
            let a = self.compile_job(i, false, &mut quiet, Some(&mut facade));
            let b = self.compile_job(i, true, &mut quiet, Some(&mut phased));
            if a.is_err() || a != b || facade != phased {
                problems.push(format!(
                    "{}: the phase-by-phase path and Compiler::compile disagree",
                    self.jobs[i].workload
                ));
            }
        }
        Values::from([("transform.applied_ratio", applied)])
    }
}
