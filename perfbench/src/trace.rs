//! In-memory spans and counters recorded around the benchmark's calls into
//! each layer, folded into per-layer self times and exported as a Chrome
//! trace-event file (which Perfetto opens).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Job id of work outside the timed rounds: set-up and the traced run's
/// extra measurements.
pub const OUTSIDE_JOBS: u64 = 0;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `analysis.pdg_build`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job this span belongs to ([`OUTSIDE_JOBS`] outside the rounds).
    pub job: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span and counter recorder. When off, [`Tracer::span`] only calls its
/// closure and [`Tracer::count`] does nothing, so the untraced run goes
/// through the same code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u64,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer, recording or not.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: OUTSIDE_JOBS,
            counters: BTreeMap::new(),
        }
    }

    /// True while recording.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts or stops recording (between rounds, never inside a span).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Attributes the spans that follow to `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counters.entry(name).or_default() += n;
        }
    }

    /// Zeroes every counter (before the traced rounds, so set-up does not
    /// count towards per-round totals).
    pub fn reset_counters(&mut self) {
        self.counters.clear();
    }

    /// Ends the spans a panic left open, at the current time.
    pub fn close_open_spans(&mut self) {
        let now = self.now();
        for idx in self.stack.drain(..) {
            self.spans[idx].end_ns = now;
        }
    }

    /// A counter's total (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the durations of its direct
/// children (children nest inside their parent and never overlap, since
/// the benchmark calls one layer at a time).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Calls and self time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

impl LayerStat {
    /// Mean self time per call in microseconds (0 without calls).
    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Per-layer folds of a span list.
#[derive(Debug, Default)]
pub struct Layers {
    /// Every span, inside and outside jobs.
    pub all: BTreeMap<&'static str, LayerStat>,
    /// Spans inside timed jobs only.
    pub in_jobs: BTreeMap<&'static str, LayerStat>,
    /// Summed duration of the jobs' root spans, nanoseconds.
    pub job_ns: u64,
}

impl Layers {
    /// Folds `spans` by name.
    pub fn of(spans: &[Span]) -> Layers {
        let mut out = Layers::default();
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            for map in [
                Some(&mut out.all),
                (s.job != OUTSIDE_JOBS).then_some(&mut out.in_jobs),
            ]
            .into_iter()
            .flatten()
            {
                let e = map.entry(s.name).or_default();
                e.calls += 1;
                e.self_ns += self_ns;
            }
            if s.job != OUTSIDE_JOBS && s.parent.is_none() {
                out.job_ns += s.dur_ns();
            }
        }
        out
    }

    /// Mean self time per call of layer `name` over every span, µs.
    pub fn us_per_call(&self, name: &str) -> f64 {
        self.all.get(name).map_or(0.0, LayerStat::us_per_call)
    }

    /// Summed self time of `name` inside jobs, nanoseconds.
    pub fn job_self_ns(&self, name: &str) -> u64 {
        self.in_jobs.get(name).map_or(0, |s| s.self_ns)
    }

    /// The "where the time goes" table: self time, calls and share of job
    /// time per layer inside jobs, then the layers called outside jobs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<26} {:>9} {:>12} {:>11} {:>8}",
            "layer (in jobs)", "calls", "self ms", "us/call", "share"
        );
        let mut rows: Vec<_> = self.in_jobs.iter().collect();
        rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.self_ns));
        for (name, s) in rows {
            let share = if self.job_ns == 0 {
                0.0
            } else {
                100.0 * s.self_ns as f64 / self.job_ns as f64
            };
            let _ = writeln!(
                out,
                "  {:<26} {:>9} {:>12.3} {:>11.3} {:>7.2}%",
                name,
                s.calls,
                s.self_ns as f64 / 1e6,
                s.us_per_call(),
                share
            );
        }
        let _ = writeln!(
            out,
            "  {:<26} {:>9} {:>12} {:>11}",
            "layer (outside jobs)", "calls", "self ms", "us/call"
        );
        for (name, all) in &self.all {
            let inside = self.in_jobs.get(name).copied().unwrap_or_default();
            let calls = all.calls - inside.calls;
            if calls == 0 {
                continue;
            }
            let outside = LayerStat {
                calls,
                self_ns: all.self_ns - inside.self_ns,
            };
            let _ = writeln!(
                out,
                "  {:<26} {:>9} {:>12.3} {:>11.3}",
                name,
                calls,
                outside.self_ns as f64 / 1e6,
                outside.us_per_call()
            );
        }
        out
    }
}

/// The spans as Chrome trace-event JSON: one complete (`"ph": "X"`) event
/// per span on a single thread, so nesting shows as a flame stack.
pub fn chrome_trace(spans: &[Span], meta: &[(&str, String)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"otherData\": {");
    for (i, (k, v)) in meta.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{k}\": \"{v}\"");
    }
    out.push_str("}, \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"layer\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": 1, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"job\": {}}}}}{sep}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.job
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, job: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            job,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("job", 0, 100, None, 1),
            span("a", 10, 40, Some(0), 1),
            span("a.inner", 15, 35, Some(1), 1),
            span("b", 50, 90, Some(0), 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 20, 40]);
        let layers = Layers::of(&spans);
        assert_eq!(layers.job_ns, 100);
        assert_eq!(layers.in_jobs["job"].self_ns, 30);
        let total: u64 = layers.in_jobs.values().map(|s| s.self_ns).sum();
        assert_eq!(total, layers.job_ns, "self times partition the job");
    }

    #[test]
    fn outside_spans_count_per_call_but_not_job_time() {
        let spans = vec![
            span("setup", 0, 50, None, OUTSIDE_JOBS),
            span("x", 0, 20, Some(0), OUTSIDE_JOBS),
            span("job", 60, 80, None, 3),
            span("x", 60, 70, Some(2), 3),
        ];
        let layers = Layers::of(&spans);
        assert_eq!(layers.job_ns, 20);
        assert_eq!(layers.all["x"].calls, 2);
        assert_eq!(layers.in_jobs["x"].calls, 1);
        assert!((layers.us_per_call("x") - 0.015).abs() < 1e-12);
        assert_eq!(layers.us_per_call("missing"), 0.0);
        let table = layers.render();
        assert!(table.contains("setup"), "{table}");
    }

    #[test]
    fn tracer_records_nesting_and_counters_only_when_on() {
        let mut t = Tracer::new(false);
        let v = t.span("outer", |t| {
            t.count("n", 5);
            t.span("inner", |_| 7)
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("n"), 0);

        t.set_on(true);
        t.set_job(4);
        t.span("outer", |t| {
            t.count("n", 5);
            t.span("inner", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].job), ("outer", None, 4));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.counter("n"), 5);
    }

    #[test]
    fn chrome_trace_is_well_formed_json() {
        let spans = vec![
            span("job", 0, 2_000, None, 1),
            span("a", 500, 1_500, Some(0), 1),
        ];
        let text = chrome_trace(&spans, &[("workload", "compile".into())]);
        use commset_interp::bundle::Json;
        let json = Json::parse(&text).expect("valid JSON");
        let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
    }
}
