//! Id-resolved world routing.
//!
//! Executors call intrinsics through `Registry::resolve`'s `Dispatch`:
//! handlers, slot footprints and merges indexed by intrinsic and slot id,
//! resolved once per run. The by-name `Registry::route` and
//! `Registry::delta_route` are the reference semantics. For every workload,
//! every call of the recorded sequential stream and of one DOALL stream
//! per world mode must route, and delta-route, to the same slots both
//! ways. Every intrinsic a workload declares must have a handler, and every
//! slot its bindings name must be installed by `make_world`.

use commset::Scheme;
use commset_interp::{run_sequential, ExecConfig, TraceEvent, TraceSink, WorldMode};
use commset_runtime::{stripe_slot, Registry, SlotBinding, Value, World};
use commset_sim::CostModel;
use commset_workloads::{all, Workload};
use std::sync::{Arc, Mutex};

type Calls = Vec<(String, Vec<Value>)>;

/// The sequential baseline's world calls, logged by a registry that wraps
/// every handler of the workload's.
fn sequential_stream(w: &Workload) -> Calls {
    let log: Arc<Mutex<Calls>> = Arc::default();
    let mut rec = Registry::new();
    for name in w.registry.names() {
        let handler = Arc::clone(w.registry.get(name).expect("listed handler exists"));
        let (log, owned) = (Arc::clone(&log), name.to_string());
        rec.register(name, move |world: &mut World, args: &[Value]| {
            log.lock().unwrap().push((owned.clone(), args.to_vec()));
            handler(world, args)
        });
    }
    let compiler = w.compiler();
    let analysis = compiler
        .analyze(&w.plain_source())
        .expect("baseline analyzes");
    let module = compiler
        .compile_sequential(&analysis)
        .expect("baseline lowers");
    let mut world = (w.make_world)();
    run_sequential(&module, &rec, &mut world, &CostModel::default(), "main")
        .unwrap_or_else(|e| panic!("{}: sequential run failed: {e}", w.name));
    let calls = std::mem::take(&mut *log.lock().unwrap());
    calls
}

/// The world calls of the workload's first applicable COMMSET DOALL
/// schedule on two threads under `mode`, from the run's event stream;
/// `None` when no DOALL schedule applies.
fn doall_stream(w: &Workload, mode: WorldMode) -> Option<Calls> {
    let sink = TraceSink::new();
    let cfg = ExecConfig {
        world: mode,
        ..ExecConfig::with_trace(sink.clone())
    };
    let doall = w
        .schemes
        .iter()
        .filter(|s| s.commset && s.scheme == Scheme::Doall);
    let out = doall
        .filter_map(|spec| match w.run_scheme_threaded(spec, 2, &cfg) {
            Ok(out) => Some(out),
            Err(Ok(_does_not_apply)) => None,
            Err(Err(e)) => panic!("{}: {} ({mode:?}) failed: {e}", w.name, spec.label),
        })
        .next()?;
    let (_, oracle) = w.run_sequential(&CostModel::default());
    (w.validate)(&oracle, &out.world).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let calls = sink
        .take()
        .into_iter()
        .filter_map(|r| match r.event {
            TraceEvent::WorldCall { intrinsic, args } => Some((intrinsic, args)),
            _ => None,
        })
        .collect();
    Some(calls)
}

/// Asserts every call of `calls` routes and delta-routes identically by
/// id and by name; returns how many calls delta-routed.
fn assert_parity(w: &Workload, label: &str, calls: &Calls) -> usize {
    let mut world = (w.make_world)();
    let table = &w.table;
    let dispatch = w
        .registry
        .resolve((0..table.len()).map(|i| table.name(i)), &mut world);
    let mut delta = 0;
    for (name, args) in calls {
        let (id, _) = table
            .lookup(name)
            .unwrap_or_else(|| panic!("{}: `{name}` is not in the table", w.name));
        assert_eq!(
            dispatch.route(id, args),
            w.registry.route(name, args),
            "{} {label}: route of {name}{args:?}",
            w.name
        );
        let by_name = w.registry.delta_route(name, args);
        assert_eq!(
            dispatch.delta_route(id, args),
            by_name,
            "{} {label}: delta route of {name}{args:?}",
            w.name
        );
        delta += usize::from(by_name.is_some());
    }
    delta
}

#[test]
fn resolved_routes_match_string_routes_on_every_recorded_call() {
    let (mut calls, mut doall_streams, mut delta_routed) = (0usize, 0usize, 0usize);
    for w in all() {
        let seq = sequential_stream(&w);
        assert!(!seq.is_empty(), "{}: no sequential world calls", w.name);
        assert_parity(&w, "sequential", &seq);
        calls += seq.len();
        for mode in [WorldMode::Auto, WorldMode::Sharded, WorldMode::Deltas] {
            let Some(stream) = doall_stream(&w, mode) else {
                continue;
            };
            let routed = assert_parity(&w, &format!("DOALL ({mode:?})"), &stream);
            if mode == WorldMode::Deltas && w.registry.has_merges() {
                delta_routed += routed;
            }
            calls += stream.len();
            doall_streams += 1;
        }
    }
    assert!(doall_streams >= 18, "only {doall_streams} DOALL streams");
    assert!(delta_routed > 0, "no recorded call delta-routes");
    assert!(calls > 20_000, "only {calls} calls compared");
}

#[test]
fn every_declared_intrinsic_has_a_handler_and_every_bound_slot_is_installed() {
    for w in all() {
        for (name, _) in w.table.iter() {
            assert!(
                w.registry.get(name).is_some(),
                "{}: no handler for `{name}`",
                w.name
            );
        }
        let world = (w.make_world)();
        for name in w.registry.names() {
            for b in w.registry.binding(name).unwrap_or_default() {
                let slots = match b {
                    SlotBinding::Fixed(s) => vec![s.clone()],
                    SlotBinding::Striped { base, stripes, .. } => {
                        (0..*stripes).map(|k| stripe_slot(base, k)).collect()
                    }
                };
                for s in slots {
                    assert!(
                        world.contains(&s),
                        "{}: `{name}` binds `{s}`, which make_world does not install",
                        w.name
                    );
                }
            }
        }
    }
}
