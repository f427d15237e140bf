//! The JSONL event journal: [`render_journal`] writes it once, after a
//! run, from what the run returned; [`parse_journal`] reads it back for
//! `commsetc report --journal`. This module is the one owner of the
//! format.
//!
//! Each line is one JSON object with a stable field order: `run` (the
//! 16-hex-digit [`run_id`](commset_interp::run_id)), `t`, `kind`, the
//! optional `section`, then the string `fields`. The events, in order:
//!
//! * `section_start` / `section_end` per parallel section of the run, at
//!   the section's span;
//! * `metrics`, whose `metrics` field embeds the registry JSON (escaped,
//!   as a string), so a saved journal alone renders the hotspot tables;
//! * `sim_finished` with the simulated time (DES runs).
//!
//! On the DES every timestamp is a tick and the run id is derived, so two
//! runs of the same program and knobs render byte-identical journals.

use commset_interp::bundle::Json;
use commset_runtime::Hist64;
use commset_telemetry::json::escape;
use commset_telemetry::{MetricsRegistry, RunReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One journal line before it is written.
#[derive(Default)]
struct Event<'a> {
    t: u64,
    kind: &'a str,
    section: Option<usize>,
    fields: Vec<(&'a str, String)>,
}

impl Event<'_> {
    fn write(&self, run_id: u64, out: &mut String) {
        let _ = write!(
            out,
            "{{\"run\":\"{run_id:016x}\",\"t\":{},\"kind\":\"{}\"",
            self.t, self.kind
        );
        if let Some(s) = self.section {
            let _ = write!(out, ",\"section\":{s}");
        }
        if !self.fields.is_empty() {
            let fields: Vec<String> = self
                .fields
                .iter()
                .map(|(k, v)| format!("\"{k}\":\"{}\"", escape(v)))
                .collect();
            let _ = write!(out, ",\"fields\":{{{}}}", fields.join(","));
        }
        out.push_str("}\n");
    }
}

/// Renders the JSONL journal of a finished run from what it returned:
/// its run report (the section spans), its simulated time (DES runs)
/// and its metrics registry. Absent inputs contribute no events.
pub fn render_journal(
    run_id: u64,
    report: Option<&RunReport>,
    sim_time: Option<u64>,
    metrics: Option<&MetricsRegistry>,
) -> String {
    let mut out = String::new();
    let mut emit = |ev: Event| ev.write(run_id, &mut out);
    let sections = report.map_or(&[][..], |r| &r.sections);
    for s in sections {
        emit(Event {
            t: s.span.0,
            kind: "section_start",
            section: Some(s.section),
            fields: vec![
                ("plan_section", s.plan_section.to_string()),
                ("workers", s.workers.len().to_string()),
            ],
        });
        emit(Event {
            t: s.span.1,
            kind: "section_end",
            section: Some(s.section),
            ..Event::default()
        });
    }
    let end = sim_time.or(sections.last().map(|s| s.span.1)).unwrap_or(0);
    if let Some(m) = metrics {
        emit(Event {
            t: end,
            kind: "metrics",
            fields: vec![("metrics", m.to_json())],
            ..Event::default()
        });
    }
    if let Some(t) = sim_time {
        emit(Event {
            t,
            kind: "sim_finished",
            fields: vec![("sim_time", t.to_string())],
            ..Event::default()
        });
    }
    out
}

/// What a saved journal says about its run: the event summary plus the
/// rebuilt metrics registry (absent when the run had metrics off).
#[derive(Debug, Clone)]
pub struct JournalReport {
    /// The 16-hex-digit causal run id stamped on every event.
    pub run_id: String,
    /// Total journal events.
    pub events: usize,
    /// Event count per kind, e.g. `section_start -> 2`.
    pub kinds: BTreeMap<String, usize>,
    /// The rebuilt metrics registry from the terminal `metrics` event.
    pub metrics: Option<MetricsRegistry>,
}

/// Rebuilds a [`MetricsRegistry`] from its [`MetricsRegistry::to_json`]
/// encoding.
///
/// # Errors
///
/// Returns a description of the first malformed section. Unknown keys are
/// ignored so newer journals load under older readers.
pub fn registry_from_json(v: &Json) -> Result<MetricsRegistry, String> {
    fn fold(v: &Json, section: &str, mut f: impl FnMut(&str, u64)) -> Result<(), String> {
        match v.get(section) {
            None => Ok(()),
            Some(Json::Obj(pairs)) => {
                for (k, val) in pairs {
                    let n = val
                        .as_u64()
                        .ok_or_else(|| format!("{section}.{k}: not a u64"))?;
                    f(k, n);
                }
                Ok(())
            }
            Some(_) => Err(format!("{section}: not an object")),
        }
    }
    let mut reg = MetricsRegistry::new();
    fold(v, "counters", |k, n| reg.inc(k, n))?;
    fold(v, "opcodes", |k, n| reg.record_opcode(k, n))?;
    fold(v, "blocks", |k, n| reg.record_block(k, n))?;
    match v.get("hists") {
        None => {}
        Some(Json::Obj(pairs)) => {
            for (k, hv) in pairs {
                let count = hv
                    .get("count")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("hists.{k}: missing count"))?;
                let sum = hv.get("sum").and_then(Json::as_u64).unwrap_or(0);
                let max = hv.get("max").and_then(Json::as_u64).unwrap_or(0);
                let buckets: Vec<u64> = hv
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("hists.{k}: missing buckets"))?
                    .iter()
                    .map(|b| b.as_u64().ok_or_else(|| format!("hists.{k}: bad bucket")))
                    .collect::<Result<_, _>>()?;
                reg.merge_hist(k, &Hist64::from_parts(&buckets, count, sum, max));
            }
        }
        Some(_) => return Err("hists: not an object".to_string()),
    }
    Ok(reg)
}

/// Parses a saved JSONL journal into a [`JournalReport`].
///
/// Each non-empty line must be one JSON object; the `kind="metrics"`
/// event (the last one, if several) supplies the registry.
///
/// # Errors
///
/// Returns a line-numbered diagnostic for unparsable lines or a
/// malformed embedded metrics payload.
pub fn parse_journal(text: &str) -> Result<JournalReport, String> {
    let mut report = JournalReport {
        run_id: String::new(),
        events: 0,
        kinds: BTreeMap::new(),
        metrics: None,
    };
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ev = Json::parse(line).map_err(|e| format!("journal line {}: {e}", lineno + 1))?;
        report.events += 1;
        if let Some(run) = ev.get("run").and_then(Json::as_str) {
            if report.run_id.is_empty() {
                report.run_id = run.to_string();
            }
        }
        let kind = ev
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("journal line {}: missing kind", lineno + 1))?
            .to_string();
        if kind == "metrics" {
            let payload = ev
                .get("fields")
                .and_then(|f| f.get("metrics"))
                .and_then(Json::as_str)
                .ok_or_else(|| {
                    format!("journal line {}: metrics event without payload", lineno + 1)
                })?;
            let parsed = Json::parse(payload)
                .map_err(|e| format!("journal line {}: embedded metrics: {e}", lineno + 1))?;
            report.metrics = Some(registry_from_json(&parsed)?);
        }
        *report.kinds.entry(kind).or_insert(0) += 1;
    }
    if report.events == 0 {
        return Err("journal is empty".to_string());
    }
    Ok(report)
}

impl JournalReport {
    /// Renders the run summary followed by the hotspot tables
    /// (`top` rows per table), matching the live `commsetc report`
    /// layout.
    pub fn render_text(&self, top: usize) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "run:      {}", self.run_id);
        let _ = writeln!(s, "events:   {}", self.events);
        let kinds: Vec<String> = self.kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
        let _ = writeln!(s, "kinds:    {}", kinds.join(" "));
        match &self.metrics {
            Some(reg) => s.push_str(&reg.render_text(top)),
            None => s.push_str("metrics:\n  (journal has no metrics event)\n"),
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_telemetry::{SectionProfile, WorkerReport};

    fn sample_registry() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.inc("delta.applies", 7);
        m.inc("shard.fast_acquires", 3);
        m.observe("lock_wait.FS", 12);
        m.observe("lock_wait.FS", 900);
        m.observe("queue_occupancy.0", 2);
        m.record_opcode("Bin", 41);
        m.record_block("main:bb1", 420);
        m
    }

    fn one_section_report() -> RunReport {
        RunReport {
            sections: vec![SectionProfile {
                section: 0,
                plan_section: 2,
                span: (3, 10),
                workers: vec![WorkerReport::default(); 2],
                ..SectionProfile::default()
            }],
            ..RunReport::default()
        }
    }

    #[test]
    fn registry_round_trips_through_journal_jsonl() {
        let reg = sample_registry();
        let jsonl = render_journal(
            0x00c0_ffee,
            Some(&one_section_report()),
            Some(99),
            Some(&reg),
        );
        let report = parse_journal(&jsonl).unwrap();
        assert_eq!(report.run_id, "0000000000c0ffee");
        assert_eq!(report.events, 4);
        assert_eq!(report.kinds["section_start"], 1);
        assert_eq!(report.kinds["sim_finished"], 1);
        let loaded = report.metrics.expect("metrics event parsed");
        // Counters, opcodes and blocks round-trip exactly; histograms
        // round-trip bucket-exactly (count/sum/max preserved verbatim).
        assert_eq!(loaded, reg);
    }

    #[test]
    fn metrics_event_embeds_registry_json() {
        let jsonl = render_journal(9, None, Some(77), Some(&sample_registry()));
        let metrics = jsonl.lines().next().unwrap();
        assert!(metrics.contains("\"t\":77,\"kind\":\"metrics\""), "{jsonl}");
        // The registry JSON rides inside the string field, escaped.
        assert!(metrics.contains("\\\"delta.applies\\\":7"), "{jsonl}");
    }

    #[test]
    fn journal_without_metrics_reports_none() {
        let report = parse_journal(&render_journal(5, None, Some(7), None)).unwrap();
        assert!(report.metrics.is_none());
        assert!(report.render_text(5).contains("no metrics event"));
    }

    #[test]
    fn malformed_lines_are_line_numbered_errors() {
        let err = parse_journal("{\"run\":\"x\",\"kind\":\"a\"}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(parse_journal("").unwrap_err().contains("empty"));
        let err = parse_journal("{\"run\":\"x\"}\n").unwrap_err();
        assert!(err.contains("missing kind"), "{err}");
    }

    #[test]
    fn jsonl_has_one_object_per_event_with_causal_ids() {
        let jsonl = render_journal(0xabcd, Some(&one_section_report()), Some(12), None);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines,
            [
                "{\"run\":\"000000000000abcd\",\"t\":3,\"kind\":\"section_start\",\"section\":0,\
                 \"fields\":{\"plan_section\":\"2\",\"workers\":\"2\"}}",
                "{\"run\":\"000000000000abcd\",\"t\":10,\"kind\":\"section_end\",\"section\":0}",
                "{\"run\":\"000000000000abcd\",\"t\":12,\"kind\":\"sim_finished\",\
                 \"fields\":{\"sim_time\":\"12\"}}",
            ]
        );
    }
}
