//! `commsetc` — the COMMSET compiler as a command-line tool.
//!
//! Analyzes an annotated Cmm source file, explains what inhibits
//! parallelization, ranks the applicable schedules, and emits the
//! transformed (parallelized) source:
//!
//! ```text
//! commsetc analyze  prog.cmm [--effects prog.effects] [--pdg] [--threads N]
//! commsetc schedules prog.cmm [--effects prog.effects] [--threads N]
//! commsetc emit     prog.cmm --scheme doall [--sync spin] [--threads N]
//!                            [--effects prog.effects]
//! commsetc compile  prog.cmm [--dump-bytecode] [--scheme doall]
//!                            [--sync spin] [--threads N]
//!                            [--effects prog.effects]
//! commsetc check    prog.cmm [--effects prog.effects] [--threads N]
//!                            [--budget N] [--seed N] [--jobs N] [--fuzz]
//!                            [--trace-out fail.json] [--corpus DIR]
//!                            [--capture-corpus]
//! commsetc profile  prog.cmm --scheme dswp [--sync spin] [--threads N]
//!                            [--effects prog.effects] [--real]
//!                            [--trace-out run.json] [--metrics]
//!                            [--journal-out run.jsonl] [--top N]
//! commsetc report   prog.cmm --scheme dswp [--sync spin] [--threads N]
//!                            [--effects prog.effects] [--real] [--top N]
//!                            [--journal-out run.jsonl]
//! commsetc report   --journal run.jsonl [--top N]
//! ```
//!
//! `compile` lowers the program to the interpreter's flat register
//! bytecode (the compiled execution backend) and prints a per-function
//! summary: op count, fused superinstructions, inline-cached intrinsic
//! call sites. `--dump-bytecode` prints the full disassembled listing
//! instead — block labels, registers, retire weights. With `--scheme`
//! the *transformed* (parallelized) module is compiled; the default is
//! the sequential module.
//!
//! `check` runs the dynamic commutativity checker: it replays the
//! transformed program under a budget of systematically permuted region
//! schedules and compares every outcome against the sequential oracle;
//! `--jobs N` fans the schedule space across N checker threads over a
//! fixed partition plan (the merged report is bit-identical for every N);
//! `--fuzz` additionally mutates the annotations (drop a predicate, widen
//! a set with `SELF`, strip `NoSync`) and asserts the weakened variants
//! are caught, with mutants fanned across the same pool. The sidecar's
//! `commutative CHANS`, `model size= stream=` and `relaxed [window=N]`
//! directives configure the checker's abstract world (the latter opting
//! into store-buffered schedule variants). Exit status: 0 if the verdict
//! is clean, 1 otherwise. With `--trace-out`, a failing check additionally
//! writes the canonical and failing interleavings as one Chrome
//! trace-event JSON file.
//!
//! Before checking the input, `check` replays the regression corpus: every
//! `.cmm`/`.effects` pair under `--corpus DIR` (default `fixtures/corpus`,
//! silently skipped when absent) must still be flagged unsound; a corpus
//! entry going green is itself a failure. `--capture-corpus` auto-captures
//! a newly found violation — the input source plus its sidecar — into the
//! corpus directory under a content-hashed name, growing the corpus with
//! every new bug the explorer finds.
//!
//! `profile` executes one run of the chosen schedule against a synthetic
//! deterministic world (the checker's model semantics, costs from the
//! sidecar) with its trace on, and prints the unified run profile: stage
//! balance, lock contention by rank, queue traffic and runtime counters.
//! The default backend is the discrete-event simulator (bit-deterministic
//! profiles); `--real` uses OS threads and monotonic clocks instead.
//! `--trace-out FILE` also writes the span timeline as Chrome trace-event
//! JSON, loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
//! `--metrics` additionally prints the hotspot registry (hot blocks,
//! opcode mix, contended locks/channels, queue occupancy, counters);
//! `--journal-out FILE` renders the run's JSONL event journal after the
//! run and saves it.
//!
//! `report` is the hotspot view: it runs the profile with the metrics
//! registry on, renders the journal and prints its causal run summary
//! plus the top-`--top` hotspot tables. With `--journal FILE` it skips
//! execution and renders a previously saved JSONL journal instead (the
//! `metrics` event embeds the registry, so saved journals are
//! self-contained).
//!
//! Intrinsic *types* come from the source's `extern` declarations. Their
//! *effects* come from an optional sidecar file (`--effects`), one line
//! per extern:
//!
//! ```text
//! # name  [reads=A,B]  [writes=C,D]  [cost=N]  [fresh]  [per_instance]
//! fs_open    writes=FS cost=50 fresh
//! fs_read    reads=FS writes=FS cost=120
//! md5_chunk  cost=700
//! irrevocable FS,CONSOLE
//! per_instance FS
//! ```
//!
//! `fresh` marks a handle-returning allocator (each call yields a
//! distinct instance); `per_instance CHAN` partitions a channel by
//! handle; `irrevocable CHANS` rejects the TM sync mode for members
//! touching those channels. Externs absent from the sidecar default to
//! pure compute with cost 100.

use commset::merge_law::validate_custom_merges;
use commset::profile::run_profile_with;
use commset::replay::{replay_bundle, run_profile_supervised, SyntheticSource};
use commset::report::{parse_journal, render_journal};
use commset::spec::{build_table, parse_effects};
use commset::{Compiler, Scheme, SyncMode};
use commset_checker::{check_source, fuzz_annotations};
use commset_interp::{run_id, Backend, ExecConfig, FailureBundle, RecoveryPolicy, TraceSink};
use commset_lang::printer::print_program;
use commset_telemetry::chrome_trace_json;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: commsetc <analyze|schedules|emit|compile|check|profile|report> <file.cmm> \
         [--effects <file>] [--pdg] [--threads N] \
         [--scheme doall|dswp|ps-dswp] [--sync spin|mutex|tm|lib] \
         [--hot-func NAME] [--dump-bytecode] \
         [--budget N] [--seed N] [--jobs N] [--fuzz] \
         [--corpus DIR] [--capture-corpus] \
         [--trace-out <file.json>] [--real] \
         [--metrics] [--journal-out <file.jsonl>] [--top N] \
         [--recover] [--deadline-ms N] [--max-retries N] [--repro-dir DIR]\n\
         \u{20}      commsetc report --journal <run.jsonl> [--top N]\n\
         \u{20}      commsetc replay <bundle.repro.json>"
    );
    ExitCode::from(2)
}

#[derive(Debug)]
struct Args {
    command: String,
    file: String,
    effects: Option<String>,
    pdg: bool,
    threads: usize,
    scheme: Option<Scheme>,
    sync: SyncMode,
    hot_func: Option<String>,
    dump_bytecode: bool,
    budget: Option<usize>,
    seed: Option<u64>,
    jobs: usize,
    corpus: Option<String>,
    capture_corpus: bool,
    fuzz: bool,
    trace_out: Option<String>,
    real: bool,
    metrics: bool,
    journal: Option<String>,
    journal_out: Option<String>,
    top: usize,
    recover: bool,
    deadline_ms: Option<u64>,
    max_retries: Option<u32>,
    repro_dir: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    argv.next(); // program name
    let command = argv.next().ok_or("missing command")?;
    if !matches!(
        command.as_str(),
        "analyze" | "schedules" | "emit" | "compile" | "check" | "profile" | "report" | "replay"
    ) {
        return Err(format!("unknown command `{command}`"));
    }
    // `report --journal run.jsonl` has no source positional; a leading
    // flag is pushed back into the flag loop instead of being eaten as
    // the input file.
    let mut pending_flag: Option<String> = None;
    let file = match argv.next() {
        Some(tok) if tok.starts_with("--") => {
            pending_flag = Some(tok);
            String::new()
        }
        Some(tok) => tok,
        None => String::new(),
    };
    let mut args = Args {
        command,
        file,
        effects: None,
        pdg: false,
        threads: 8,
        scheme: None,
        sync: SyncMode::Spin,
        hot_func: None,
        dump_bytecode: false,
        budget: None,
        seed: None,
        jobs: 1,
        corpus: None,
        capture_corpus: false,
        fuzz: false,
        trace_out: None,
        real: false,
        metrics: false,
        journal: None,
        journal_out: None,
        top: 10,
        recover: false,
        deadline_ms: None,
        max_retries: None,
        repro_dir: None,
    };
    while let Some(flag) = pending_flag.take().or_else(|| argv.next()) {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--effects" => args.effects = Some(value()?),
            "--pdg" => args.pdg = true,
            "--threads" => {
                let t: usize = value()?
                    .parse()
                    .map_err(|_| "--threads needs a number".to_string())?;
                if t == 0 {
                    return Err("--threads must be at least 1".into());
                }
                args.threads = t;
            }
            "--scheme" => {
                args.scheme = Some(match value()?.as_str() {
                    "doall" => Scheme::Doall,
                    "dswp" => Scheme::Dswp,
                    "ps-dswp" | "psdswp" => Scheme::PsDswp,
                    other => return Err(format!("unknown scheme `{other}`")),
                })
            }
            "--sync" => {
                args.sync = match value()?.as_str() {
                    "spin" => SyncMode::Spin,
                    "mutex" => SyncMode::Mutex,
                    "tm" => SyncMode::Tm,
                    "lib" => SyncMode::Lib,
                    other => return Err(format!("unknown sync mode `{other}`")),
                }
            }
            "--hot-func" => args.hot_func = Some(value()?),
            "--dump-bytecode" => args.dump_bytecode = true,
            "--budget" => {
                let b: usize = value()?
                    .parse()
                    .map_err(|_| "--budget needs a number".to_string())?;
                if b == 0 {
                    return Err("--budget must be at least 1 (0 explores no schedules)".into());
                }
                args.budget = Some(b);
            }
            "--seed" => {
                // Accept both decimal and the `0x…` hex form the REPLAY:
                // line prints, so a failure's replay knobs paste verbatim.
                let v = value()?;
                let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                args.seed = Some(parsed.map_err(|_| "--seed needs a number".to_string())?);
            }
            "--jobs" => {
                let j: usize = value()?
                    .parse()
                    .map_err(|_| "--jobs needs a number".to_string())?;
                if j == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                args.jobs = j;
            }
            "--corpus" => args.corpus = Some(value()?),
            "--capture-corpus" => args.capture_corpus = true,
            "--fuzz" => args.fuzz = true,
            "--trace-out" => args.trace_out = Some(value()?),
            "--real" => args.real = true,
            "--metrics" => args.metrics = true,
            "--journal" => args.journal = Some(value()?),
            "--journal-out" => args.journal_out = Some(value()?),
            "--top" => {
                let t: usize = value()?
                    .parse()
                    .map_err(|_| "--top needs a number".to_string())?;
                if t == 0 {
                    return Err("--top must be at least 1".into());
                }
                args.top = t;
            }
            "--recover" => args.recover = true,
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--deadline-ms needs a number".to_string())?,
                )
            }
            "--max-retries" => {
                args.max_retries = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--max-retries needs a number".to_string())?,
                )
            }
            "--repro-dir" => args.repro_dir = Some(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.file.is_empty() && !(args.command == "report" && args.journal.is_some()) {
        return Err("missing input file".to_string());
    }
    if args.command == "report" && args.journal.is_none() && args.scheme.is_none() {
        return Err("report needs --scheme doall|dswp|ps-dswp (or --journal FILE)".to_string());
    }
    Ok(args)
}

/// Replays every `.cmm`/`.effects` pair in the corpus directory (sorted
/// by name): each committed entry is a known-unsound fixture and must
/// still be flagged by the checker, with its own sidecar supplying the
/// model knobs and the full-family budget guaranteeing the relaxed
/// (`sb[w]:`) schedules are not truncated away. Returns the entry count;
/// an entry that goes green — or stops compiling — is a regression.
fn replay_corpus(dir: &std::path::Path, jobs: usize) -> Result<usize, String> {
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "cmm"))
        .collect();
    entries.sort();
    let mut regressions: Vec<String> = Vec::new();
    for path in &entries {
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?");
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let fx = path.with_extension("effects");
        let effects_text = if fx.is_file() {
            std::fs::read_to_string(&fx).map_err(|e| format!("{}: {e}", fx.display()))?
        } else {
            String::new()
        };
        let spec = parse_effects(&effects_text)?;
        let table = build_table(&source, &spec)?;
        let mut cfg = spec.checker_config();
        cfg.budget = cfg.full_family_budget();
        cfg.jobs = jobs;
        match check_source(&source, &table, &cfg) {
            Ok(report) if report.is_fail() => println!(
                "corpus: {name} still flagged ({} of {} schedules violate)",
                report.violations.len(),
                report.explored.len()
            ),
            Ok(report) => regressions.push(format!(
                "{name}: no longer flagged ({})",
                match &report.verdict {
                    commset_checker::Verdict::Pass { schedules, .. } =>
                        format!("passed all {schedules} schedules"),
                    commset_checker::Verdict::Skipped { reason } => format!("skipped: {reason}"),
                    commset_checker::Verdict::Fail(_) => unreachable!("is_fail was false"),
                }
            )),
            Err(d) => regressions.push(format!("{name}: stopped compiling: {}", d.message)),
        }
    }
    if regressions.is_empty() {
        Ok(entries.len())
    } else {
        Err(format!(
            "corpus regression — known-unsound fixtures went quiet:\n  {}",
            regressions.join("\n  ")
        ))
    }
}

/// Captures a newly found violation into the corpus: writes the input
/// source and its sidecar under a content-hashed name (FNV-1a over both),
/// so re-capturing the same bug is idempotent.
fn capture_into_corpus(
    dir: &std::path::Path,
    input: &str,
    source: &str,
    effects_text: &str,
) -> Result<std::path::PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in source.bytes().chain(effects_text.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let stem = std::path::Path::new(input)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("input");
    let base = dir.join(format!("cap_{stem}_{h:016x}"));
    let cmm = base.with_extension("cmm");
    std::fs::write(&cmm, source).map_err(|e| format!("{}: {e}", cmm.display()))?;
    let fx = base.with_extension("effects");
    std::fs::write(&fx, effects_text).map_err(|e| format!("{}: {e}", fx.display()))?;
    Ok(cmm)
}

/// The deterministic run id of a `profile`/`report` run: the one a
/// supervised run stamps on its bundles, too.
fn journal_run_id(args: &Args, scheme: Scheme) -> u64 {
    let backend = if args.real {
        Backend::Threads
    } else {
        Backend::Sim
    };
    run_id(
        &args.file,
        &scheme.to_string(),
        &args.sync.to_string(),
        args.threads,
        backend.name(),
    )
}

/// Writes the journal `jsonl` renders when `--journal-out` names a file.
fn save_journal(args: &Args, jsonl: impl FnOnce() -> String) -> Result<(), String> {
    if let Some(path) = &args.journal_out {
        std::fs::write(path, jsonl()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote event journal to {path}");
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    // `report --journal`: render a saved journal, no compilation at all.
    if args.command == "report" {
        if let Some(path) = &args.journal {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let report = parse_journal(&text).map_err(|e| format!("{path}: {e}"))?;
            print!("{}", report.render_text(args.top));
            return Ok(());
        }
    }
    let source = std::fs::read_to_string(&args.file).map_err(|e| format!("{}: {e}", args.file))?;
    let effects_text = match &args.effects {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        None => String::new(),
    };
    let spec = parse_effects(&effects_text)?;
    let table = build_table(&source, &spec)?;
    let irrevocable: Vec<&str> = spec.irrevocable.iter().map(String::as_str).collect();
    let mut compiler = Compiler::new(table).with_irrevocable(&irrevocable);
    if let Some(f) = &args.hot_func {
        compiler = compiler.with_hot_func(f);
    }
    let analysis = compiler.analyze(&source).map_err(|d| d.to_string())?;

    match args.command.as_str() {
        "analyze" => {
            println!("file:              {}", args.file);
            println!("sloc:              {}", analysis.sloc);
            println!("annotation lines:  {}", analysis.annotation_lines);
            println!("relaxed PDG edges: {}", analysis.relaxed_edges);
            println!("countable loop:    {}", analysis.hot.shape.is_countable());
            println!("DOALL legal:       {}", analysis.doall_legal());
            let schemes = compiler.applicable_schemes(&analysis, args.threads);
            let names: Vec<String> = schemes.iter().map(|s| s.to_string()).collect();
            println!("applicable:        [{}]", names.join(", "));
            let inhibitors = analysis.explain_inhibitors();
            if inhibitors.is_empty() {
                println!("inhibitors:        none");
            } else {
                println!("inhibitors:");
                for line in inhibitors {
                    println!("  {line}");
                }
            }
            if args.pdg {
                println!("\n{}", analysis.pdg_dump());
            }
            Ok(())
        }
        "schedules" => {
            let ranked = compiler.compile_all(&analysis, args.threads);
            if ranked.is_empty() {
                return Err("no schedule applies; run `analyze` for why".to_string());
            }
            println!(
                "{:<22} {:>12} {:>8} {:>7} {:>7}",
                "schedule", "est. cost", "workers", "queues", "locks"
            );
            for (scheme, sync, _, plan) in &ranked {
                println!(
                    "{:<22} {:>12.0} {:>8} {:>7} {:>7}",
                    format!("{scheme} + {sync}"),
                    plan.estimated_cost,
                    plan.workers.len(),
                    plan.queues.len(),
                    plan.locks.len()
                );
            }
            Ok(())
        }
        "check" => {
            // Regression corpus first: committed known-unsound fixtures
            // must still be red before the input is even looked at.
            let corpus_dir = args
                .corpus
                .clone()
                .unwrap_or_else(|| "fixtures/corpus".to_string());
            let corpus_path = std::path::Path::new(&corpus_dir).to_path_buf();
            if corpus_path.is_dir() {
                let n = replay_corpus(&corpus_path, args.jobs)?;
                println!("corpus: {n} entries replayed, all still flagged");
            } else if args.corpus.is_some() {
                return Err(format!("{corpus_dir}: corpus directory not found"));
            }
            // Custom merge operators must obey the merge laws
            // (commutativity, associativity, identity 0) before any
            // delta-privatized schedule is trusted.
            validate_custom_merges(&source, &spec, &compiler.intrinsics)
                .map_err(|d| d.to_string())?;
            let mut cfg = spec.checker_config();
            cfg.nthreads = args.threads;
            cfg.jobs = args.jobs;
            if let Some(b) = args.budget {
                cfg.budget = b;
            }
            if let Some(s) = args.seed {
                cfg.seed = s;
            }
            if args.fuzz {
                let report = fuzz_annotations(&source, &compiler.intrinsics, &cfg)
                    .map_err(|d| d.to_string())?;
                print!("{report}");
                if report.sound() {
                    Ok(())
                } else {
                    Err("annotation fuzzing found a weakness the checker missed".to_string())
                }
            } else {
                let report =
                    check_source(&source, &compiler.intrinsics, &cfg).map_err(|d| d.to_string())?;
                print!("{report}");
                if let commset_checker::Verdict::Fail(fail) = &report.verdict {
                    // A failing check exports both interleavings as a
                    // Chrome trace so the divergence can be eyeballed.
                    if let Some(path) = &args.trace_out {
                        std::fs::write(path, fail.chrome_trace_json())
                            .map_err(|e| format!("{path}: {e}"))?;
                        eprintln!("wrote schedule trace to {path}");
                    }
                    // A newly found violation grows the corpus.
                    if args.capture_corpus {
                        let dest =
                            capture_into_corpus(&corpus_path, &args.file, &source, &effects_text)?;
                        eprintln!("captured corpus entry {}", dest.display());
                    }
                }
                if report.is_fail() {
                    Err("commutativity check failed".to_string())
                } else {
                    Ok(())
                }
            }
        }
        "report" => {
            let scheme = args
                .scheme
                .ok_or("report needs --scheme doall|dswp|ps-dswp (or --journal FILE)")?;
            let cfg = ExecConfig {
                metrics: true,
                ..ExecConfig::default()
            };
            let out = run_profile_with(
                &compiler,
                &analysis,
                &spec,
                scheme,
                args.threads,
                args.sync,
                args.real,
                &cfg,
            )?;
            // Render through the journal loader: the live view and a
            // saved `--journal` view of the same run are identical.
            let jsonl = render_journal(
                journal_run_id(args, scheme),
                Some(&out.report),
                out.sim_time,
                out.metrics.as_ref(),
                None,
            );
            let report = parse_journal(&jsonl)?;
            print!("{}", report.render_text(args.top));
            if let Some(t) = out.sim_time {
                println!("total simulated time: {t} ticks");
            }
            save_journal(args, || jsonl)
        }
        "profile" => {
            let scheme = args
                .scheme
                .ok_or("profile needs --scheme doall|dswp|ps-dswp")?;
            let run_id = journal_run_id(args, scheme);
            if args.recover {
                // Supervised profile: deadlines, transient retries, the
                // degradation ladder, and failure-bundle capture.
                let src =
                    SyntheticSource::new(&args.file, &source, &effects_text, scheme, args.sync)?;
                let cfg = ExecConfig {
                    trace: Some(TraceSink::new()),
                    metrics: args.metrics,
                    ..ExecConfig::default()
                };
                let mut policy = RecoveryPolicy {
                    deadline_ms: args.deadline_ms,
                    bundle_dir: Some(
                        args.repro_dir
                            .clone()
                            .unwrap_or_else(|| "target/repro".to_string())
                            .into(),
                    ),
                    ..RecoveryPolicy::default()
                };
                if let Some(r) = args.max_retries {
                    policy.max_retries = r;
                }
                match run_profile_supervised(&src, args.real, args.threads, &cfg, &policy) {
                    Ok(out) => {
                        match &out.telemetry {
                            Some(report) => {
                                print!("{}", report.render_text());
                                if let Some(path) = &args.trace_out {
                                    std::fs::write(path, chrome_trace_json(report))
                                        .map_err(|e| format!("{path}: {e}"))?;
                                    eprintln!("wrote Chrome trace to {path}");
                                }
                            }
                            None => {
                                println!("(no telemetry: run completed on the sequential fallback)")
                            }
                        }
                        if args.metrics {
                            match &out.metrics {
                                Some(reg) => print!("{}", reg.render_text(args.top)),
                                None => println!("metrics:\n  (no metrics recorded)"),
                            }
                        }
                        save_journal(args, || {
                            render_journal(
                                run_id,
                                out.telemetry.as_ref(),
                                out.sim_time,
                                out.metrics.as_ref(),
                                Some(&out.recovery),
                            )
                        })?;
                        if out.recovery.is_clean() {
                            println!(
                                "recovery: clean ({} attempt, no retries, no degradation)",
                                out.recovery.attempts
                            );
                        } else {
                            print!("{}", out.recovery.render_text());
                        }
                        Ok(())
                    }
                    Err(fail) => {
                        print!("{}", fail.recovery.render_text());
                        // The journal of a terminally failed run is the
                        // most interesting one; save it when asked.
                        let jsonl =
                            || render_journal(run_id, None, None, None, Some(&fail.recovery));
                        if let Err(e) = save_journal(args, jsonl) {
                            eprintln!("{e}");
                        }
                        Err(format!("supervised run failed terminally: {}", fail.error))
                    }
                }
            } else {
                let cfg = ExecConfig {
                    metrics: args.metrics,
                    ..ExecConfig::default()
                };
                let out = run_profile_with(
                    &compiler,
                    &analysis,
                    &spec,
                    scheme,
                    args.threads,
                    args.sync,
                    args.real,
                    &cfg,
                )?;
                print!("{}", out.report.render_text());
                if let Some(reg) = &out.metrics {
                    print!("{}", reg.render_text(args.top));
                }
                if let Some(t) = out.sim_time {
                    println!("total simulated time: {t} ticks");
                }
                if let Some(path) = &args.trace_out {
                    std::fs::write(path, chrome_trace_json(&out.report))
                        .map_err(|e| format!("{path}: {e}"))?;
                    eprintln!(
                        "wrote Chrome trace to {path} \
                         (load in chrome://tracing or ui.perfetto.dev)"
                    );
                }
                save_journal(args, || {
                    render_journal(
                        run_id,
                        Some(&out.report),
                        out.sim_time,
                        out.metrics.as_ref(),
                        None,
                    )
                })
            }
        }
        "compile" => {
            let module = match args.scheme {
                Some(scheme) => {
                    compiler
                        .compile(&analysis, scheme, args.threads, args.sync)
                        .map_err(|d| d.to_string())?
                        .0
                }
                None => compiler
                    .compile_sequential(&analysis)
                    .map_err(|d| d.to_string())?,
            };
            let bc = commset_interp::BcModule::compile(&module);
            let mut out = String::new();
            if args.dump_bytecode {
                out.push_str(&commset_interp::print_bc_module(&module, &bc));
            } else {
                for bf in &bc.funcs {
                    let fused = bf.weights.iter().filter(|w| **w > 1).count();
                    out.push_str(&format!(
                        "{:<28} {:>5} ops {:>4} fused {:>3} call sites\n",
                        bf.name,
                        bf.ops.len(),
                        fused,
                        bf.sites.len()
                    ));
                }
            }
            // One write, errors ignored: `commsetc compile | head` must
            // not panic on the closed pipe.
            use std::io::Write;
            let _ = std::io::stdout().write_all(out.as_bytes());
            Ok(())
        }
        "emit" => {
            let scheme = args
                .scheme
                .ok_or("emit needs --scheme doall|dswp|ps-dswp")?;
            let pp = compiler
                .compile_to_ast(&analysis, scheme, args.threads, args.sync)
                .map_err(|d| d.to_string())?;
            let mut out = format!(
                "// {} x{} ({}), estimated cost {:.0}\n",
                scheme, args.threads, args.sync, pp.plan.estimated_cost
            );
            for (i, d) in pp.plan.stage_desc.iter().enumerate() {
                out.push_str(&format!("// stage {i}: {d}\n"));
            }
            for q in &pp.plan.queues {
                out.push_str(&format!(
                    "// queue {}: {} (capacity {})\n",
                    q.id, q.what, q.capacity
                ));
            }
            for l in &pp.plan.locks {
                out.push_str(&format!("// lock {}: set {}\n", l.id, l.set));
            }
            out.push_str(&print_program(&pp.program));
            // One write, errors ignored: `commsetc emit | head` must not
            // panic on the closed pipe.
            use std::io::Write;
            let _ = std::io::stdout().write_all(out.as_bytes());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Replays a failure bundle; returns whether the recorded failure
/// reproduced. A missing or corrupt bundle is a *usage* error (`Err`),
/// handled in `main` with exit status 2.
fn run_replay(args: &Args) -> Result<bool, String> {
    let bundle = FailureBundle::load(std::path::Path::new(&args.file))?;
    let out = replay_bundle(&bundle)?;
    println!("bundle:   {}", args.file);
    println!("program:  {}", bundle.program_path);
    println!("rung:     {}", out.rung);
    println!("expected: {}", out.expected);
    match &out.observed {
        Some(e) => println!("observed: {e}"),
        None => println!("observed: (run succeeded)"),
    }
    println!(
        "verdict:  {}",
        if out.reproduced {
            "REPRODUCED"
        } else {
            "NOT REPRODUCED"
        }
    );
    Ok(out.reproduced)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if args.command == "replay" {
        // Bundle problems (missing file, corrupt JSON, unknown knobs) are
        // usage errors: exit 2 with the usage message, never a panic.
        return match run_replay(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        };
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(std::iter::once("commsetc".to_string()).chain(v.iter().map(|s| s.to_string())))
    }

    #[test]
    fn defaults_and_flags_parse() {
        let a = args(&["analyze", "f.cmm"]).unwrap();
        assert_eq!(a.command, "analyze");
        assert_eq!(a.file, "f.cmm");
        assert_eq!(a.threads, 8);
        assert!(!a.pdg);
        assert_eq!(a.sync, SyncMode::Spin);
        assert!(a.scheme.is_none());

        let a = args(&[
            "emit",
            "p.cmm",
            "--scheme",
            "ps-dswp",
            "--threads",
            "4",
            "--sync",
            "lib",
            "--effects",
            "p.fx",
            "--pdg",
            "--hot-func",
            "work",
        ])
        .unwrap();
        assert_eq!(a.scheme, Some(Scheme::PsDswp));
        assert_eq!(a.threads, 4);
        assert_eq!(a.sync, SyncMode::Lib);
        assert_eq!(a.effects.as_deref(), Some("p.fx"));
        assert!(a.pdg);
        assert_eq!(a.hot_func.as_deref(), Some("work"));

        let a = args(&[
            "check",
            "p.cmm",
            "--threads",
            "2",
            "--budget",
            "12",
            "--seed",
            "7",
            "--fuzz",
        ])
        .unwrap();
        assert_eq!(a.command, "check");
        assert_eq!(a.threads, 2);
        assert_eq!(a.budget, Some(12));
        assert_eq!(a.seed, Some(7));
        assert!(a.fuzz);
        assert_eq!(a.jobs, 1, "jobs defaults to 1");
        assert!(a.corpus.is_none() && !a.capture_corpus);

        let a = args(&[
            "check",
            "p.cmm",
            "--jobs",
            "8",
            "--corpus",
            "my/corpus",
            "--capture-corpus",
        ])
        .unwrap();
        assert_eq!(a.jobs, 8);
        assert_eq!(a.corpus.as_deref(), Some("my/corpus"));
        assert!(a.capture_corpus);

        let a = args(&["compile", "p.cmm", "--dump-bytecode"]).unwrap();
        assert_eq!(a.command, "compile");
        assert!(a.dump_bytecode);
        let a = args(&["compile", "p.cmm", "--scheme", "doall"]).unwrap();
        assert!(!a.dump_bytecode, "dump is opt-in");
        assert_eq!(a.scheme, Some(Scheme::Doall));

        // The REPLAY: line prints the seed in hex; it must paste back.
        let a = args(&["check", "p.cmm", "--seed", "0x5eedc0de"]).unwrap();
        assert_eq!(a.seed, Some(0x5eed_c0de));

        let a = args(&[
            "profile",
            "p.cmm",
            "--scheme",
            "dswp",
            "--threads",
            "4",
            "--trace-out",
            "run.json",
            "--real",
        ])
        .unwrap();
        assert_eq!(a.command, "profile");
        assert_eq!(a.scheme, Some(Scheme::Dswp));
        assert_eq!(a.trace_out.as_deref(), Some("run.json"));
        assert!(a.real);
        // Defaults: DES backend, no trace export, observability opt-in.
        let a = args(&["profile", "p.cmm", "--scheme", "doall"]).unwrap();
        assert!(!a.real);
        assert!(a.trace_out.is_none());
        assert!(!a.metrics && a.journal.is_none() && a.journal_out.is_none());
        assert_eq!(a.top, 10, "hotspot tables default to 10 rows");

        let a = args(&[
            "profile",
            "p.cmm",
            "--scheme",
            "doall",
            "--metrics",
            "--journal-out",
            "run.jsonl",
            "--top",
            "3",
        ])
        .unwrap();
        assert!(a.metrics);
        assert_eq!(a.journal_out.as_deref(), Some("run.jsonl"));
        assert_eq!(a.top, 3);
    }

    #[test]
    fn report_parses_live_and_saved_journal_forms() {
        // Live: a source positional plus the usual schedule knobs.
        let a = args(&["report", "p.cmm", "--scheme", "dswp", "--top", "5"]).unwrap();
        assert_eq!(a.command, "report");
        assert_eq!(a.file, "p.cmm");
        assert_eq!(a.scheme, Some(Scheme::Dswp));
        assert_eq!(a.top, 5);
        // Saved: `--journal FILE` with no source positional at all.
        let a = args(&["report", "--journal", "run.jsonl"]).unwrap();
        assert_eq!(a.journal.as_deref(), Some("run.jsonl"));
        assert!(a.file.is_empty());
        // Without --journal, report still needs an input file.
        let err = args(&["report", "--top", "4"]).unwrap_err();
        assert!(err.contains("missing input file"), "{err}");
        // A live report with no schedule knob is a usage error (exit 2),
        // caught at parse time rather than deep inside run().
        let err = args(&["report", "p.cmm"]).unwrap_err();
        assert!(err.contains("report needs --scheme"), "{err}");
        // And so does every other command.
        let err = args(&["profile", "--scheme", "doall"]).unwrap_err();
        assert!(err.contains("missing input file"), "{err}");
    }

    #[test]
    fn malformed_invocations_are_rejected() {
        assert!(args(&[]).is_err(), "missing command");
        assert!(args(&["analyze"]).is_err(), "missing file");
        assert!(args(&["emit", "f.cmm", "--scheme", "magic"]).is_err());
        assert!(args(&["emit", "f.cmm", "--sync", "rcu"]).is_err());
        assert!(args(&["emit", "f.cmm", "--threads", "many"]).is_err());
        assert!(
            args(&["emit", "f.cmm", "--threads"]).is_err(),
            "value missing"
        );
        assert!(args(&["analyze", "f.cmm", "--frobnicate"]).is_err());
        assert!(args(&["check", "f.cmm", "--budget", "lots"]).is_err());
        assert!(args(&["check", "f.cmm", "--seed", "entropy"]).is_err());
        assert!(
            args(&["profile", "f.cmm", "--trace-out"]).is_err(),
            "value missing"
        );
        // Unknown commands are rejected before any file is touched.
        let err = args(&["bogus", "f.cmm"]).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
        // A zero schedule budget explores nothing: rejected at parse time
        // so the CLI exits 2 with the usage message instead of running a
        // vacuous check (or worse, panicking downstream).
        let err = args(&["check", "f.cmm", "--budget", "0"]).unwrap_err();
        assert!(err.contains("--budget"), "{err}");
        // Zero checker threads would explore nothing in parallel mode.
        let err = args(&["check", "f.cmm", "--jobs", "0"]).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        // A zero-worker plan would drop every iteration.
        let err = args(&["emit", "f.cmm", "--threads", "0"]).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        // Zero hotspot rows would render empty tables.
        let err = args(&["report", "f.cmm", "--top", "0"]).unwrap_err();
        assert!(err.contains("--top"), "{err}");
        assert!(args(&["report", "f.cmm", "--top", "many"]).is_err());
        assert!(args(&["report", "--journal"]).is_err(), "value missing");
        assert!(args(&["check", "f.cmm", "--jobs", "many"]).is_err());
        assert!(
            args(&["check", "f.cmm", "--corpus"]).is_err(),
            "value missing"
        );
        assert!(args(&["profile", "f.cmm", "--deadline-ms", "soon"]).is_err());
        assert!(args(&["profile", "f.cmm", "--max-retries", "lots"]).is_err());
        assert!(
            args(&["profile", "f.cmm", "--repro-dir"]).is_err(),
            "value missing"
        );
    }

    #[test]
    fn recovery_flags_parse() {
        let a = args(&[
            "profile",
            "p.cmm",
            "--scheme",
            "doall",
            "--recover",
            "--deadline-ms",
            "250",
            "--max-retries",
            "5",
            "--repro-dir",
            "out/repro",
        ])
        .unwrap();
        assert!(a.recover);
        assert_eq!(a.deadline_ms, Some(250));
        assert_eq!(a.max_retries, Some(5));
        assert_eq!(a.repro_dir.as_deref(), Some("out/repro"));
        // Recovery is opt-in.
        let a = args(&["profile", "p.cmm", "--scheme", "doall"]).unwrap();
        assert!(!a.recover);
        assert!(a.deadline_ms.is_none());
    }

    #[test]
    fn replay_with_missing_or_corrupt_bundle_is_a_usage_error() {
        let a = args(&["replay", "/nonexistent/x.repro.json"]).unwrap();
        let err = run_replay(&a).unwrap_err();
        assert!(err.contains("cannot read bundle"), "{err}");

        let dir = std::env::temp_dir().join("commsetc_replay_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.repro.json");
        std::fs::write(&bad, "{ this is not json").unwrap();
        let a = args(&["replay", bad.to_str().unwrap()]).unwrap();
        let err = run_replay(&a).unwrap_err();
        assert!(err.contains("corrupt bundle"), "{err}");
    }

    #[test]
    fn profile_without_scheme_is_a_run_error() {
        let dir = std::env::temp_dir().join("commsetc_profile_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("p.cmm");
        std::fs::write(
            &file,
            "int main() {\n    int n = 4;\n    int s = 0;\n    \
             for (int i = 0; i < n; i = i + 1) { s = s + i; }\n    \
             return s;\n}\n",
        )
        .unwrap();
        let a = args(&["profile", file.to_str().unwrap()]).unwrap();
        let err = run(&a).unwrap_err();
        assert!(err.contains("--scheme"), "{err}");
    }

    #[test]
    fn missing_input_file_is_a_run_error() {
        let a = args(&["analyze", "/nonexistent/x.cmm"]).unwrap();
        let err = run(&a).unwrap_err();
        assert!(err.contains("x.cmm"), "{err}");
    }
}
