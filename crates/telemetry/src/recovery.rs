//! Recovery telemetry: what the execution supervisor did to finish a run.
//!
//! The supervisor (see `commset-interp`'s `supervise` module) retries
//! transient failures with backoff and walks a degradation ladder —
//! sharded world → single lock, thread count halving, sequential fallback
//! — until the run produces a validated result or fails terminally. A
//! [`RecoveryReport`] records that journey so `commsetc profile` can
//! surface *how* a result was obtained, not just that it was, and so a
//! rendered journal can write its supervisor events from it.

use std::fmt::Write;

/// The supervisor's account of one supervised run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Total executions attempted (including the final one).
    pub attempts: u32,
    /// Same-rung retries of transient failures.
    pub retries: u32,
    /// Descriptions of the ladder rungs walked, first to last
    /// (e.g. `threads(sharded, 8)` → `threads(single-lock, 8)` → …).
    pub rungs: Vec<String>,
    /// Total backoff slept between attempts, in milliseconds.
    pub backoff_ms: u64,
    /// The rung that produced the final outcome.
    pub final_mode: String,
    /// True when success came only after at least one failure.
    pub recovered: bool,
    /// True when the final rung differs from the first (the ladder was
    /// actually descended).
    pub degraded: bool,
    /// Renderings of every error encountered along the way, in order.
    pub errors: Vec<String>,
    /// Path of the captured `.repro.json` failure bundle, if one was
    /// written.
    pub bundle: Option<String>,
}

impl RecoveryReport {
    /// True when the run succeeded on its first attempt with nothing to
    /// report.
    pub fn is_clean(&self) -> bool {
        self.attempts <= 1 && self.errors.is_empty() && !self.recovered && !self.degraded
    }

    /// Renders the human-readable recovery section (empty string when
    /// clean, so callers can append unconditionally).
    pub fn render_text(&self) -> String {
        if self.is_clean() {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(out, "== recovery ==");
        let _ = writeln!(
            out,
            "attempts:   {} ({} transient retr{})",
            self.attempts,
            self.retries,
            if self.retries == 1 { "y" } else { "ies" }
        );
        let _ = writeln!(out, "ladder:     {}", self.rungs.join(" -> "));
        let _ = writeln!(out, "final mode: {}", self.final_mode);
        let _ = writeln!(out, "backoff:    {} ms", self.backoff_ms);
        let _ = writeln!(
            out,
            "outcome:    {}",
            match (self.recovered, self.degraded) {
                (true, true) => "recovered (degraded)",
                (true, false) => "recovered (same rung)",
                (false, _) => "failed",
            }
        );
        for e in &self.errors {
            let _ = writeln!(out, "  error: {e}");
        }
        if let Some(b) = &self.bundle {
            let _ = writeln!(out, "bundle:     {b}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RecoveryReport {
        RecoveryReport {
            attempts: 3,
            retries: 1,
            rungs: vec![
                "threads(sharded, 8)".into(),
                "threads(single-lock, 8)".into(),
            ],
            backoff_ms: 3,
            final_mode: "threads(single-lock, 8)".into(),
            recovered: true,
            degraded: true,
            errors: vec!["worker `w` failed: injected shard poison".into()],
            bundle: Some("target/repro-abc.repro.json".into()),
        }
    }

    #[test]
    fn clean_report_renders_nothing() {
        let r = RecoveryReport {
            attempts: 1,
            final_mode: "threads(sharded, 8)".into(),
            rungs: vec!["threads(sharded, 8)".into()],
            ..Default::default()
        };
        assert!(r.is_clean());
        assert_eq!(r.render_text(), "");
    }

    #[test]
    fn recovery_text_names_ladder_and_outcome() {
        let text = sample().render_text();
        assert!(text.contains("attempts:   3 (1 transient retry)"));
        assert!(text.contains("threads(sharded, 8) -> threads(single-lock, 8)"));
        assert!(text.contains("recovered (degraded)"));
        assert!(text.contains("repro-abc"));
    }
}
