//! Cross-executor observation parity: the discrete-event simulator and
//! the real-thread executor share one observer, so the same program must
//! produce the same *number* of each observable event on both substrates.
//!
//! Each sample runs traced against the synthetic world, once under the
//! DES and once on OS threads. The executor records one event stream and
//! folds it into the trace records and the run report's spans; one count
//! per kind over both folds covers every kind the stream carries. Two
//! span kinds are left out by design: `*Wait` spans (whether a worker
//! waited depends on timing) and `Worker` lifetime spans (one per worker,
//! not an event). Timestamps, orders and durations differ between the
//! substrates and are not compared.

use commset::profile::SyntheticSource;
use commset::{Scheme, SyncMode};
use commset_interp::{run_attempt, Backend, ExecConfig, ProgramDesc, TraceEvent, TraceSink};
use commset_telemetry::SpanKind;
use std::collections::BTreeMap;

fn samples_dir() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../samples")
}

/// Per-kind event counts of one run.
type Counts = BTreeMap<String, u64>;

fn span_key(kind: &SpanKind) -> Option<String> {
    match kind {
        SpanKind::Worker
        | SpanKind::LockWait { .. }
        | SpanKind::QueuePushWait { .. }
        | SpanKind::QueuePopWait { .. } => None,
        // The DES models optimistic aborts, the thread executor's TM is
        // pessimistic: count windows, not their abort tallies.
        SpanKind::Tx { .. } => Some("span tx".into()),
        other => Some(format!("span {}", other.label())),
    }
}

fn event_key(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::RegionEnter { func, .. } => format!("enter {func}"),
        TraceEvent::RegionExit { func } => format!("exit {func}"),
        TraceEvent::LockAcquire { lock } => format!("lock+ {lock}"),
        TraceEvent::LockRelease { lock } => format!("lock- {lock}"),
        TraceEvent::QueuePush { queue } => format!("push {queue}"),
        TraceEvent::QueuePop { queue } => format!("pop {queue}"),
        TraceEvent::WorldCall { intrinsic, .. } => format!("call {intrinsic}"),
    }
}

fn observe(sample: &str, scheme: Scheme, threads: usize, real: bool) -> Counts {
    let dir = samples_dir();
    let src = SyntheticSource::new(ProgramDesc {
        path: format!("samples/{sample}.cmm"),
        source: std::fs::read_to_string(format!("{dir}/{sample}.cmm")).expect("sample source"),
        effects: std::fs::read_to_string(format!("{dir}/{sample}.effects"))
            .expect("sample sidecar"),
        scheme: scheme.to_string(),
        sync: SyncMode::Spin.to_string(),
        hot_func: None,
    })
    .expect("analyzes");
    let backend = if real { Backend::Threads } else { Backend::Sim };
    let sink = TraceSink::new();
    let cfg = ExecConfig::with_trace(sink.clone());
    let out = run_attempt(&src, backend, threads, &cfg)
        .unwrap_or_else(|e| panic!("{sample} (real={real}): {e}"));
    let report = out.telemetry.expect("the trace was on");
    let spans = report.spans.iter().filter_map(|sp| span_key(&sp.kind));
    let events = sink.take().into_iter().map(|r| event_key(&r.event));
    let mut counts = Counts::new();
    for k in spans.chain(events) {
        *counts.entry(k).or_insert(0) += 1;
    }
    counts
}

fn assert_parity(sample: &str, scheme: Scheme, threads: usize) {
    let des = observe(sample, scheme, threads, false);
    let thr = observe(sample, scheme, threads, true);
    let (spans, events): (Vec<&String>, _) = des.keys().partition(|k| k.starts_with("span "));
    assert!(!spans.is_empty() && !events.is_empty(), "{sample}");
    assert_eq!(
        des, thr,
        "{sample}: event counts differ (left: DES, right: threads)"
    );
}

#[test]
fn md5sum_dswp_observes_the_same_events_on_both_executors() {
    assert_parity("md5sum", Scheme::Dswp, 4);
}

#[test]
fn histogram_doall_observes_the_same_events_on_both_executors() {
    assert_parity("histogram", Scheme::Doall, 4);
}
