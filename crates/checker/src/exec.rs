//! The controlled (schedule-driven) executor.
//!
//! Replays a *transformed* parallel program with the scheduling decisions
//! taken by an explicit [`Scheduler`] instead of a clock or the OS: each
//! worker runs until its next **visible event** — the entry of an outlined
//! commutative region (`__commset_region_*`), a blocking queue pop, or
//! (under [`ModelConfig::pause_at_world_calls`]) a bare world-intrinsic
//! call, the schedule-space analogue of a shard acquisition in the real
//! runtime's sharded world — and the scheduler picks which paused worker
//! executes next. A chosen
//! region runs *atomically* (the paper's synchronization already
//! guarantees mutual exclusion of same-set members; the checker varies
//! only their *order*). Lock and transaction intrinsics are therefore
//! no-ops here; pipeline queues are real FIFOs.
//!
//! Without a plan, the same loop runs the untransformed program: that is
//! the sequential oracle every schedule is compared to.
//!
//! The run is a pure function of `(module, plan, scheduler, model config)`
//! — same inputs, same interleaving, same final world. The caller compiles
//! the module's bytecode once and passes it in: a checker campaign runs
//! dozens of schedules (and every shrink replay) on one compilation.

use crate::model::{ModelConfig, ModelWorld};
use commset_interp::globals::PlainGlobals;
use commset_interp::vm::GlobalMem;
use commset_interp::{BcModule, BcVm, ExecError, StepOutcome};
use commset_ir::repr::FuncId;
use commset_ir::Module;
use commset_runtime::rng::SplitMix64;
use commset_runtime::Value;
use commset_transform::{ParallelPlan, RtOp};
use std::collections::{HashMap, VecDeque};

/// A failure of a controlled run.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// The VM reported a dynamic error.
    Exec(String),
    /// No worker can advance but not all are done.
    Deadlock {
        /// Human-readable per-worker states.
        states: Vec<String>,
    },
    /// The step budget was exhausted (runaway schedule).
    BudgetExhausted,
    /// A queue pop blocked *inside* a commutative region — the controlled
    /// executor cannot keep the region atomic.
    PopInsideRegion {
        /// The region function.
        func: String,
    },
    /// The program shape is unsupported (nested sections, unknown queue).
    Unsupported(String),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Exec(e) => write!(f, "execution error: {e}"),
            CheckError::Deadlock { states } => {
                write!(f, "schedule deadlocked: [{}]", states.join(", "))
            }
            CheckError::BudgetExhausted => write!(f, "step budget exhausted"),
            CheckError::PopInsideRegion { func } => {
                write!(f, "queue pop blocked inside region {func}")
            }
            CheckError::Unsupported(s) => write!(f, "unsupported: {s}"),
        }
    }
}

impl From<ExecError> for CheckError {
    fn from(e: ExecError) -> Self {
        CheckError::Exec(e.to_string())
    }
}

/// One scheduled region execution (the interleaving log's unit).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionExec {
    /// Worker index within the section.
    pub worker: usize,
    /// The region function.
    pub func: String,
    /// The region instance arguments.
    pub args: Vec<Value>,
}

impl std::fmt::Display for RegionExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let args = self
            .args
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        write!(f, "[w{}] {}({args})", self.worker, self.func)
    }
}

/// Renders an interleaving, one region per line.
pub fn render_interleaving(log: &[RegionExec]) -> String {
    log.iter().map(|r| format!("  {r}\n")).collect()
}

/// Final state of a controlled run.
#[derive(Debug, Clone)]
pub struct ControlledOutcome {
    /// The abstract world after execution.
    pub world: ModelWorld,
    /// Final scalar globals (name, value), `__`-prefixed names excluded.
    pub globals: Vec<(String, Value)>,
    /// The region interleaving that was executed.
    pub log: Vec<RegionExec>,
    /// VM steps spent (against the step budget).
    pub steps: u64,
}

/// A schedule: picks which paused worker advances next.
pub trait Scheduler {
    /// The schedule's stable, human-readable name.
    fn name(&self) -> String;
    /// Picks one element of `ready` (worker ids, ascending). The default
    /// contract: must return a member of `ready`.
    fn pick(&mut self, ready: &[usize]) -> usize;
}

/// Always the lowest-numbered ready worker (runs whole workers in order).
pub struct Canonical;
impl Scheduler for Canonical {
    fn name(&self) -> String {
        "canonical".into()
    }
    fn pick(&mut self, ready: &[usize]) -> usize {
        ready[0]
    }
}

/// Always the highest-numbered ready worker.
pub struct Reverse;
impl Scheduler for Reverse {
    fn name(&self) -> String {
        "reverse".into()
    }
    fn pick(&mut self, ready: &[usize]) -> usize {
        *ready.last().expect("nonempty ready set")
    }
}

/// Cycles through workers, one region each.
pub struct RoundRobin {
    next: usize,
}
impl RoundRobin {
    /// Starts at worker 0.
    pub fn new() -> Self {
        RoundRobin { next: 0 }
    }
}
impl Default for RoundRobin {
    fn default() -> Self {
        RoundRobin::new()
    }
}
impl Scheduler for RoundRobin {
    fn name(&self) -> String {
        "round-robin".into()
    }
    fn pick(&mut self, ready: &[usize]) -> usize {
        let w = ready
            .iter()
            .copied()
            .find(|w| *w >= self.next)
            .unwrap_or(ready[0]);
        self.next = w + 1;
        w
    }
}

/// Holds back one worker until the others have executed `hold` regions —
/// the systematic pair-flip: it reorders the victim's k-th same-set
/// instance after its neighbors'.
pub struct Delay {
    victim: usize,
    hold: usize,
    executed_others: usize,
}
impl Delay {
    /// Delay `victim`'s first region until `hold` other regions ran.
    pub fn new(victim: usize, hold: usize) -> Self {
        Delay {
            victim,
            hold,
            executed_others: 0,
        }
    }
}
impl Scheduler for Delay {
    fn name(&self) -> String {
        format!("delay(w{},{})", self.victim, self.hold)
    }
    fn pick(&mut self, ready: &[usize]) -> usize {
        let non_victim = ready.iter().copied().find(|w| *w != self.victim);
        match non_victim {
            Some(w) if self.executed_others < self.hold => {
                self.executed_others += 1;
                w
            }
            _ => {
                if ready.contains(&self.victim) {
                    self.victim
                } else {
                    ready[0]
                }
            }
        }
    }
}

/// Wraps a scheduler and records every decision it takes — the raw
/// material for the counterexample shrinker and the schedule-diversity
/// guard.
pub struct Recording<'a> {
    inner: &'a mut dyn Scheduler,
    /// The chosen worker at each decision point, in order.
    pub trace: Vec<usize>,
}
impl<'a> Recording<'a> {
    /// Records `inner`'s picks.
    pub fn new(inner: &'a mut dyn Scheduler) -> Self {
        Recording {
            inner,
            trace: Vec::new(),
        }
    }
}
impl Scheduler for Recording<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn pick(&mut self, ready: &[usize]) -> usize {
        let c = self.inner.pick(ready);
        self.trace.push(c);
        c
    }
}

/// Replays a recorded decision trace. `None` entries (and positions past
/// the trace, and recorded picks that are no longer ready) fall back to
/// the canonical choice — so a partially-canonicalized trace is always a
/// valid schedule. This is the shrinker's search space: flip recorded
/// decisions back to canonical one at a time and keep the flips that
/// preserve the violation.
pub struct Replay {
    decisions: Vec<Option<usize>>,
    pos: usize,
}
impl Replay {
    /// Replays `decisions`; `None` means "canonical choice here".
    pub fn new(decisions: Vec<Option<usize>>) -> Self {
        Replay { decisions, pos: 0 }
    }
}
impl Scheduler for Replay {
    fn name(&self) -> String {
        let flips = self.decisions.iter().flatten().count();
        format!("replay({flips} pinned)")
    }
    fn pick(&mut self, ready: &[usize]) -> usize {
        let want = self.decisions.get(self.pos).copied().flatten();
        self.pos += 1;
        match want {
            Some(w) if ready.contains(&w) => w,
            _ => ready[0],
        }
    }
}

/// Seeded random choice — the bounded "everything else" of the budget.
pub struct Chaos {
    rng: SplitMix64,
    seed: u64,
}
impl Chaos {
    /// A chaos schedule with the given seed.
    pub fn new(seed: u64) -> Self {
        Chaos {
            rng: SplitMix64::new(seed),
            seed,
        }
    }
}
impl Scheduler for Chaos {
    fn name(&self) -> String {
        format!("chaos({:#x})", self.seed)
    }
    fn pick(&mut self, ready: &[usize]) -> usize {
        ready[self.rng.next_below(ready.len() as u64) as usize]
    }
}

#[derive(Debug, Clone, PartialEq)]
enum WState {
    /// Paused at the entry of a region (frame pushed, body unexecuted).
    AtRegion {
        func: FuncId,
        args: Vec<Value>,
    },
    /// Paused at a bare world-intrinsic call (shard-acquisition point);
    /// only reachable under [`ModelConfig::pause_at_world_calls`].
    AtWorldCall {
        intrinsic: usize,
        args: Vec<Value>,
    },
    /// Blocked popping queue `q` (by plan index).
    BlockedPop(usize),
    Done,
}

struct CWorker<'m> {
    vm: BcVm<'m>,
    state: WState,
}

struct Machine<'m> {
    module: &'m Module,
    world: ModelWorld,
    budget: u64,
    queues: Vec<VecDeque<u64>>,
    queue_index: HashMap<i64, usize>,
    /// Pause workers at bare world calls (shard-acquisition points).
    pause_world: bool,
}

impl<'m> Machine<'m> {
    fn spend(&mut self) -> Result<(), CheckError> {
        if self.budget == 0 {
            return Err(CheckError::BudgetExhausted);
        }
        self.budget -= 1;
        Ok(())
    }

    /// Steps `vm` until its next pause point. Inside `region`, queue-pop
    /// blocking is an error (regions must stay atomic) and the run returns
    /// at the region's *exit* instead of the next entry.
    fn run_vm(
        &mut self,
        vm: &mut BcVm<'_>,
        globals: &mut PlainGlobals,
        region: Option<FuncId>,
    ) -> Result<WState, CheckError> {
        let in_region = region.is_some();
        // Copy the module reference out so intrinsic names can stay
        // borrowed `&str` across the `self.world` calls below.
        let module = self.module;
        loop {
            self.spend()?;
            match vm.step(globals)? {
                StepOutcome::Ran { .. } => {
                    for ev in vm.drain_call_events() {
                        if !in_region && ev.enter && ev.depth == 1 {
                            return Ok(WState::AtRegion {
                                func: ev.func,
                                args: ev.args,
                            });
                        }
                    }
                    if let (Some(func), 0) = (region, vm.watched_depth()) {
                        // Region exit; the caller continues to the next
                        // pause.
                        return Ok(WState::AtRegion {
                            func,
                            args: Vec::new(),
                        });
                    }
                }
                StepOutcome::Finished(_) => return Ok(WState::Done),
                StepOutcome::Special(p) => {
                    match p.op {
                        Some(
                            RtOp::LockAcquire | RtOp::LockRelease | RtOp::TxBegin | RtOp::TxCommit,
                        ) => {
                            // Regions execute atomically: synchronization
                            // is vacuous under the controlled scheduler.
                            vm.resolve_special(Value::Int(0));
                        }
                        Some(RtOp::Push { .. }) => {
                            let q = self.qidx(p.args[0].as_int())?;
                            self.queues[q].push_back(p.args[1].to_bits());
                            vm.resolve_special(Value::Int(0));
                        }
                        Some(RtOp::Pop { float }) => {
                            let q = self.qidx(p.args[0].as_int())?;
                            match self.queues[q].pop_front() {
                                Some(bits) => {
                                    vm.resolve_special(Value::from_bits(bits, float));
                                }
                                None => {
                                    if let Some(func) = region {
                                        return Err(CheckError::PopInsideRegion {
                                            func: module.func(func).name.clone(),
                                        });
                                    }
                                    vm.retry_special_later();
                                    return Ok(WState::BlockedPop(q));
                                }
                            }
                        }
                        Some(RtOp::ParInvoke) => {
                            return Err(CheckError::Unsupported("nested parallel section".into()))
                        }
                        None => {
                            let intrinsic = p.intrinsic.0 as usize;
                            if self.pause_world && !in_region {
                                // A bare world call is a shard-acquisition
                                // point: surface it to the scheduler. The
                                // special stays pending; the section loop
                                // executes it when this worker is picked.
                                return Ok(WState::AtWorldCall {
                                    intrinsic,
                                    args: p.args.clone(),
                                });
                            }
                            let v = self.world.call_id(&module.intrinsics, intrinsic, &p.args);
                            vm.resolve_special(v);
                        }
                    }
                }
            }
        }
    }

    fn qidx(&self, id: i64) -> Result<usize, CheckError> {
        self.queue_index
            .get(&id)
            .copied()
            .ok_or(CheckError::Unsupported(format!("unknown queue {id}")))
    }
}

/// VM steps one controlled run may spend (guards against runaway loops).
const STEP_BUDGET: u64 = 2_000_000;

/// Runs `module`, whose compiled bytecode is `bc`, against a fresh model
/// world built from `model_cfg`. With a `plan`, this is a transformed
/// program: its parallel section runs with same-section region instances
/// scheduled by `sched`. Without one, it is the sequential oracle every
/// schedule is compared to: sequentially consistent (no store-buffer
/// window), every runtime intrinsic is rejected, and `sched` is never
/// consulted.
///
/// # Errors
///
/// Returns a [`CheckError`] on dynamic errors, deadlock, budget
/// exhaustion or unsupported program shapes.
pub fn run_controlled(
    module: &Module,
    bc: &BcModule,
    plan: Option<&ParallelPlan>,
    mut model_cfg: ModelConfig,
    sched: &mut dyn Scheduler,
) -> Result<ControlledOutcome, CheckError> {
    if plan.is_none() {
        // The oracle is sequentially consistent by definition.
        model_cfg.sb_window = None;
    }
    let queues = plan.map_or(&[][..], |p| &p.queues);
    let mut machine = Machine {
        module,
        budget: STEP_BUDGET,
        queues: queues.iter().map(|_| VecDeque::new()).collect(),
        queue_index: queues.iter().enumerate().map(|(i, q)| (q.id, i)).collect(),
        pause_world: model_cfg.pause_at_world_calls,
        world: ModelWorld::new(model_cfg),
    };
    let mut globals = PlainGlobals::new(module);
    let mut main = BcVm::for_name(module, bc, "main", &[])?;
    let mut log: Vec<RegionExec> = Vec::new();

    loop {
        machine.spend()?;
        match main.step(&mut globals)? {
            StepOutcome::Ran { .. } => {}
            StepOutcome::Finished(_) => break,
            StepOutcome::Special(p) => {
                let id = p.intrinsic.0 as usize;
                let name = module.intrinsics.name(id);
                match (p.op, plan) {
                    (None, _) => {
                        let v = machine.world.call_id(&module.intrinsics, id, &p.args);
                        main.resolve_special(v);
                    }
                    (Some(_), None) => {
                        return Err(CheckError::Unsupported(format!(
                            "synchronization intrinsic {name} in the sequential oracle"
                        )))
                    }
                    (Some(RtOp::ParInvoke), Some(plan)) => {
                        let section = p.args[0].as_int();
                        if section != plan.section {
                            return Err(CheckError::Unsupported(format!(
                                "section {section} has no plan"
                            )));
                        }
                        run_section(&mut machine, bc, plan, &mut globals, sched, &mut log)?;
                        main.resolve_special(Value::Int(0));
                    }
                    (Some(_), Some(_)) => {
                        return Err(CheckError::Unsupported(format!(
                            "synchronization intrinsic {name} outside a section"
                        )))
                    }
                }
            }
        }
    }

    Ok(ControlledOutcome {
        steps: STEP_BUDGET - machine.budget,
        world: machine.world,
        globals: snapshot_globals(module, &mut globals),
        log,
    })
}

/// Final scalar globals (name, value), transform-introduced `__`-prefixed
/// names and arrays excluded, sorted by name.
fn snapshot_globals(module: &Module, globals: &mut PlainGlobals) -> Vec<(String, Value)> {
    let mut finals: Vec<(String, Value)> = Vec::new();
    for g in &module.globals {
        if g.name.starts_with("__") || g.len.is_some() {
            continue;
        }
        if let Some(id) = module.global_id(&g.name) {
            finals.push((g.name.clone(), globals.load(id)));
        }
    }
    finals.sort_by(|a, b| a.0.cmp(&b.0));
    finals
}

fn run_section<'m, 'e>(
    machine: &mut Machine<'m>,
    bc: &'e BcModule,
    plan: &ParallelPlan,
    globals: &mut PlainGlobals,
    sched: &mut dyn Scheduler,
    log: &mut Vec<RegionExec>,
) -> Result<(), CheckError>
where
    'm: 'e,
{
    let mut workers: Vec<CWorker<'e>> = Vec::with_capacity(plan.workers.len());
    for (i, w) in plan.workers.iter().enumerate() {
        let mut vm = BcVm::for_name(
            machine.module,
            bc,
            &w.func,
            &[Value::Int(w.tid), Value::Int(w.nt)],
        )?;
        vm.watch_calls_matching("__commset_region_");
        // Run the pre-region prefix (private computation) eagerly, in
        // worker order — deterministic and schedule-irrelevant.
        machine.world.set_worker(i + 1);
        let state = machine.run_vm(&mut vm, globals, None)?;
        workers.push(CWorker { vm, state });
    }

    loop {
        // Re-arm blocked pops whose queue has data.
        let ready: Vec<usize> = workers
            .iter()
            .enumerate()
            .filter(|(_, w)| match &w.state {
                WState::AtRegion { .. } | WState::AtWorldCall { .. } => true,
                WState::BlockedPop(q) => !machine.queues[*q].is_empty(),
                WState::Done => false,
            })
            .map(|(i, _)| i)
            .collect();
        if ready.is_empty() {
            if workers.iter().all(|w| w.state == WState::Done) {
                // Section barrier: every store buffer drains, so the
                // final write multisets match an SC interleaving.
                machine.world.flush_all();
                machine.world.set_worker(0);
                return Ok(());
            }
            return Err(CheckError::Deadlock {
                states: workers
                    .iter()
                    .enumerate()
                    .map(|(i, w)| match &w.state {
                        WState::AtRegion { func, args } => format!(
                            "w{i}:AtRegion {{ func: {:?}, args: {args:?} }}",
                            machine.module.func(*func).name
                        ),
                        state => format!("w{i}:{state:?}"),
                    })
                    .collect(),
            });
        }
        let chosen = sched.pick(&ready);
        debug_assert!(ready.contains(&chosen), "scheduler returned non-ready");
        // Every scheduled event is one tick of the store-buffer clock;
        // parked writes older than the window drain before the event runs.
        machine.world.tick_advance();
        machine.world.set_worker(chosen + 1);
        let w = &mut workers[chosen];
        match std::mem::replace(&mut w.state, WState::Done) {
            WState::AtRegion { func, args } => {
                // Execute the region body atomically...
                let after = machine.run_vm(&mut w.vm, globals, Some(func))?;
                w.state = match after {
                    WState::Done => WState::Done,
                    // ...then run to the next pause point.
                    _ => machine.run_vm(&mut w.vm, globals, None)?,
                };
                // Logged once the region ran: an error drops the log.
                log.push(RegionExec {
                    worker: chosen,
                    func: machine.module.func(func).name.clone(),
                    args,
                });
            }
            WState::AtWorldCall { intrinsic, args } => {
                // Execute the pending world call (the shard acquisition
                // the worker paused at), then run to the next pause.
                let v = machine
                    .world
                    .call_id(&machine.module.intrinsics, intrinsic, &args);
                w.vm.resolve_special(v);
                w.state = machine.run_vm(&mut w.vm, globals, None)?;
            }
            WState::BlockedPop(_) => {
                w.state = machine.run_vm(&mut w.vm, globals, None)?;
            }
            WState::Done => unreachable!("done workers are not ready"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedulers_respect_the_ready_set() {
        let ready = vec![0, 2, 3];
        assert_eq!(Canonical.pick(&ready), 0);
        assert_eq!(Reverse.pick(&ready), 3);
        let mut rr = RoundRobin::new();
        assert_eq!(rr.pick(&ready), 0);
        assert_eq!(rr.pick(&ready), 2);
        assert_eq!(rr.pick(&ready), 3);
        assert_eq!(rr.pick(&ready), 0);
        let mut d = Delay::new(0, 2);
        assert_eq!(d.pick(&ready), 2);
        assert_eq!(d.pick(&ready), 2);
        assert_eq!(d.pick(&ready), 0, "victim released after hold");
        let mut c = Chaos::new(7);
        for _ in 0..20 {
            assert!(ready.contains(&c.pick(&ready)));
        }
    }

    #[test]
    fn recording_and_replay_round_trip() {
        let ready = vec![0, 1, 2];
        let mut base = Reverse;
        let mut rec = Recording::new(&mut base);
        for _ in 0..3 {
            rec.pick(&ready);
        }
        assert_eq!(rec.trace, vec![2, 2, 2]);
        // Replaying the trace reproduces it; canonicalizing one decision
        // falls back to ready[0]; past the trace end is canonical too.
        let mut rep = Replay::new(vec![Some(2), None, Some(2)]);
        assert_eq!(rep.pick(&ready), 2);
        assert_eq!(rep.pick(&ready), 0);
        assert_eq!(rep.pick(&ready), 2);
        assert_eq!(rep.pick(&ready), 0, "past-end is canonical");
        // A pinned worker that is no longer ready degrades to canonical.
        let mut rep = Replay::new(vec![Some(7)]);
        assert_eq!(rep.pick(&ready), 0);
    }

    #[test]
    fn runtime_intrinsics_outside_a_section_are_unsupported() {
        let module = |src: &str| {
            let unit = commset_lang::compile_unit(src).unwrap();
            commset_ir::lower_program(&unit.program, commset_ir::IntrinsicTable::new()).unwrap()
        };
        let sync = module("extern void __tx_begin(); int main() { __tx_begin(); return 0; }");
        let sync_bc = BcModule::compile(&sync);
        let cfg = ModelConfig::default;
        let err = run_controlled(&sync, &sync_bc, None, cfg(), &mut Canonical).unwrap_err();
        assert_eq!(
            err,
            CheckError::Unsupported(
                "synchronization intrinsic __tx_begin in the sequential oracle".into()
            )
        );
        let plan = ParallelPlan {
            scheme: commset_transform::Scheme::Doall,
            sync: commset_transform::SyncMode::Spin,
            nthreads: 1,
            workers: Vec::new(),
            queues: Vec::new(),
            locks: Vec::new(),
            stage_desc: Vec::new(),
            section: 0,
            estimated_cost: 0.0,
        };
        let err = run_controlled(&sync, &sync_bc, Some(&plan), cfg(), &mut Canonical).unwrap_err();
        assert_eq!(
            err,
            CheckError::Unsupported(
                "synchronization intrinsic __tx_begin outside a section".into()
            )
        );
        // A user intrinsic is a world call, whatever its name looks like.
        let user = module("extern int __user_hook(int x); int main() { return __user_hook(3); }");
        let user_bc = BcModule::compile(&user);
        assert!(run_controlled(&user, &user_bc, None, cfg(), &mut Canonical).is_ok());
        assert!(run_controlled(&user, &user_bc, Some(&plan), cfg(), &mut Canonical).is_ok());
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let ready = vec![0, 1, 2, 3];
        let run = |seed| {
            let mut c = Chaos::new(seed);
            (0..32).map(|_| c.pick(&ready)).collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds explore differently");
    }
}
