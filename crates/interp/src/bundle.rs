//! Replayable failure bundles.
//!
//! When an attempt fails (see [`crate::attempt`]), [`crate::capture_bundle`]
//! writes everything needed to re-execute it deterministically into a
//! self-contained `.repro.json` file: the program source and effects
//! sidecar *inline* (so the bundle survives the original files moving),
//! the schedule knobs (scheme, sync mode, thread count, backend, world
//! mode), the full [`FaultPlan`], the deadline, and the failure's error
//! rendering. `commsetc replay <bundle>` re-runs the attempt and reports
//! whether the recorded failure reproduces.
//!
//! The workspace is intentionally dependency-free, so this module carries
//! its own small JSON reader ([`Json`]) alongside the hand-written writer
//! (shared escaping via `commset-telemetry`'s `json` helpers). Numbers are
//! kept as raw text until a typed accessor is called, so 64-bit seeds
//! round-trip without f64 precision loss.

use commset_runtime::{FaultPlan, SlowWorker, WorkerStall};
use commset_telemetry::json::escape;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text (lossless for u64/i64).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as a single JSON value (trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a byte-offset diagnostic for malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let v = parse_value(text, &mut pos)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_value(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(s, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(s, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(s, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(s, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let raw = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad utf8 in number")?;
            // Validate now so accessors can't be surprised later.
            raw.parse::<f64>()
                .map_err(|_| format!("bad number `{raw}` at byte {start}"))?;
            Ok(Json::Num(raw.to_string()))
        }
        Some(c) => Err(format!("unexpected byte `{}` at {pos}", *c as char)),
    }
}

fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape in one go.
                // Both are ASCII, so the run ends on a char boundary of the
                // already-valid input and multi-byte scalars stay intact.
                let start = *pos;
                while !matches!(b.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(&s[start..*pos]);
            }
        }
    }
}

/// Everything needed to re-execute one failed attempt deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureBundle {
    /// Bundle format version (currently 2).
    pub version: u32,
    /// Path of the original program (informational; `source` is inline).
    pub program_path: String,
    /// The Cmm program text.
    pub source: String,
    /// The effects sidecar text (may be empty).
    pub effects: String,
    /// Parallelization scheme name (`doall`, `dswp`, `ps-dswp`).
    pub scheme: String,
    /// Sync mode name (`lib`, `spin`, `mutex`, `tm`).
    pub sync: String,
    /// The hot-function override the program was analysed under, if any.
    pub hot_func: Option<String>,
    /// Worker thread count of the failing attempt.
    pub threads: usize,
    /// Executor backend of the failing attempt (`threads` or `sim`).
    pub backend: String,
    /// World mode of the failing attempt (`auto`, `single-lock`,
    /// `sharded`, `deltas`).
    pub world_mode: String,
    /// The deadline in effect, if any.
    pub deadline_ms: Option<u64>,
    /// The full fault-injection plan.
    pub fault: FaultPlan,
    /// The failure's error rendering.
    pub error: String,
    /// Causal run id linking this bundle to the journal of the run that
    /// captured it (see [`run_id`]).
    pub run_id: u64,
}

/// The causal run id of one run: FNV-1a over the program path, the scheme
/// and sync names (lowercased, so `DSWP` and `dswp` agree), the initial
/// thread count and the backend name, NUL-separated. There is no wall
/// clock in it, so the same program and knobs always get the same id.
/// Rendered journals and failure bundles carry it.
pub fn run_id(path: &str, scheme: &str, sync: &str, threads: usize, backend: &str) -> u64 {
    let parts = [
        path,
        &scheme.to_ascii_lowercase(),
        &sync.to_ascii_lowercase(),
        &threads.to_string(),
        backend,
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for b in p.bytes().chain([0]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn opt_u64(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

impl FailureBundle {
    /// Serializes the bundle as pretty-stable JSON.
    pub fn to_json(&self) -> String {
        let f = &self.fault;
        let stall = match f.stall {
            Some(WorkerStall { tid, every, cost }) => format!(
                "{{\"tid\":{},\"every\":{},\"cost\":{}}}",
                match tid {
                    Some(t) => t.to_string(),
                    None => "null".to_string(),
                },
                every,
                cost
            ),
            None => "null".to_string(),
        };
        let slow = match f.slow {
            Some(SlowWorker { tid, cost }) => {
                format!("{{\"tid\":{tid},\"cost\":{cost}}}")
            }
            None => "null".to_string(),
        };
        let clamp = match f.queue_capacity_clamp {
            Some(c) => c.to_string(),
            None => "null".to_string(),
        };
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": {},", self.version);
        let _ = writeln!(
            out,
            "  \"program_path\": \"{}\",",
            escape(&self.program_path)
        );
        let _ = writeln!(out, "  \"source\": \"{}\",", escape(&self.source));
        let _ = writeln!(out, "  \"effects\": \"{}\",", escape(&self.effects));
        let _ = writeln!(out, "  \"scheme\": \"{}\",", escape(&self.scheme));
        let _ = writeln!(out, "  \"sync\": \"{}\",", escape(&self.sync));
        let hot_func = match &self.hot_func {
            Some(f) => format!("\"{}\"", escape(f)),
            None => "null".to_string(),
        };
        let _ = writeln!(out, "  \"hot_func\": {hot_func},");
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"backend\": \"{}\",", escape(&self.backend));
        let _ = writeln!(out, "  \"world_mode\": \"{}\",", escape(&self.world_mode));
        let _ = writeln!(out, "  \"deadline_ms\": {},", opt_u64(self.deadline_ms));
        let _ = writeln!(
            out,
            "  \"fault\": {{\"seed\":{},\"stm_abort_every\":{},\"lock_delay_every\":{},\
             \"lock_delay_cost\":{},\"stall\":{},\"queue_capacity_clamp\":{},\
             \"shard_hold_every\":{},\"shard_hold_cost\":{},\"queue_stall_every\":{},\
             \"queue_stall_cost\":{},\"shard_poison_nth\":{},\"delta_poison_nth\":{},\
             \"slow\":{}}},",
            f.seed,
            f.stm_abort_every,
            f.lock_delay_every,
            f.lock_delay_cost,
            stall,
            clamp,
            f.shard_hold_every,
            f.shard_hold_cost,
            f.queue_stall_every,
            f.queue_stall_cost,
            f.shard_poison_nth,
            f.delta_poison_nth,
            slow
        );
        let _ = writeln!(out, "  \"error\": \"{}\",", escape(&self.error));
        let _ = writeln!(out, "  \"run_id\": {}", self.run_id);
        out.push('}');
        out
    }

    /// Parses a bundle from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed or missing field.
    pub fn from_json(text: &str) -> Result<FailureBundle, String> {
        let v = Json::parse(text)?;
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("bundle missing string field `{k}`"))
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("bundle missing numeric field `{k}`"))
        };
        let version = u64_field("version")? as u32;
        if version != 2 {
            return Err(format!("unsupported bundle version {version}"));
        }
        let fj = v
            .get("fault")
            .ok_or_else(|| "bundle missing `fault` object".to_string())?;
        let fault_u64 = |k: &str| -> Result<u64, String> {
            fj.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("fault plan missing field `{k}`"))
        };
        let stall = match fj.get("stall") {
            None | Some(Json::Null) => None,
            Some(s) => Some(WorkerStall {
                tid: s.get("tid").and_then(Json::as_i64),
                every: s
                    .get("every")
                    .and_then(Json::as_u64)
                    .ok_or("stall missing `every`")?,
                cost: s
                    .get("cost")
                    .and_then(Json::as_u64)
                    .ok_or("stall missing `cost`")?,
            }),
        };
        let slow = match fj.get("slow") {
            None | Some(Json::Null) => None,
            Some(s) => Some(SlowWorker {
                tid: s
                    .get("tid")
                    .and_then(Json::as_i64)
                    .ok_or("slow missing `tid`")?,
                cost: s
                    .get("cost")
                    .and_then(Json::as_u64)
                    .ok_or("slow missing `cost`")?,
            }),
        };
        let fault = FaultPlan {
            seed: fault_u64("seed")?,
            stm_abort_every: fault_u64("stm_abort_every")?,
            lock_delay_every: fault_u64("lock_delay_every")?,
            lock_delay_cost: fault_u64("lock_delay_cost")?,
            stall,
            queue_capacity_clamp: fj
                .get("queue_capacity_clamp")
                .and_then(Json::as_u64)
                .map(|c| c as usize),
            shard_hold_every: fault_u64("shard_hold_every")?,
            shard_hold_cost: fault_u64("shard_hold_cost")?,
            queue_stall_every: fault_u64("queue_stall_every")?,
            queue_stall_cost: fault_u64("queue_stall_cost")?,
            shard_poison_nth: fault_u64("shard_poison_nth")?,
            delta_poison_nth: fault_u64("delta_poison_nth")?,
            slow,
        };
        Ok(FailureBundle {
            version,
            program_path: str_field("program_path")?,
            source: str_field("source")?,
            effects: str_field("effects")?,
            scheme: str_field("scheme")?,
            sync: str_field("sync")?,
            hot_func: v.get("hot_func").and_then(Json::as_str).map(str::to_string),
            threads: u64_field("threads")? as usize,
            backend: str_field("backend")?,
            world_mode: str_field("world_mode")?,
            deadline_ms: v.get("deadline_ms").and_then(Json::as_u64),
            fault,
            error: str_field("error")?,
            run_id: u64_field("run_id")?,
        })
    }

    /// Reads and parses a bundle file.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures or malformed content.
    pub fn load(path: &Path) -> Result<FailureBundle, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read bundle `{}`: {e}", path.display()))?;
        FailureBundle::from_json(&text)
            .map_err(|e| format!("corrupt bundle `{}`: {e}", path.display()))
    }

    /// Writes the bundle into `dir` (created if missing) under a
    /// content-hashed deterministic name, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let json = self.to_json();
        // FNV-1a over the content: stable names, no clock dependence.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in json.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let path = dir.join(format!("repro-{h:016x}.repro.json"));
        std::fs::write(&path, json)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_ids_are_deterministic_and_input_sensitive() {
        let a = run_id("md5sum.cmm", "doall", "spin", 8, "sim");
        assert_eq!(a, run_id("md5sum.cmm", "doall", "spin", 8, "sim"));
        assert_ne!(a, run_id("md5sum.cmm", "doall", "spin", 4, "sim"));
        assert_ne!(a, run_id("md5sum.cmm", "doall", "spin", 8, "threads"));
        // `Display` names and CLI spellings give one id: the id the
        // committed `samples/md5sum.report.txt` shows.
        let golden = run_id("samples/md5sum.cmm", "DSWP", "Spin", 4, "sim");
        assert_eq!(
            golden,
            run_id("samples/md5sum.cmm", "dswp", "spin", 4, "sim")
        );
        assert_eq!(format!("{golden:016x}"), "3eaf7a31ee6e5fe2");
    }

    fn sample() -> FailureBundle {
        FailureBundle {
            version: 2,
            program_path: "progs/reduce.cmm".into(),
            source: "int main() {\n  return 0;\n}".into(),
            effects: "emit writes=OUT cost=25\n".into(),
            scheme: "doall".into(),
            sync: "spin".into(),
            hot_func: Some("work".into()),
            threads: 8,
            backend: "threads".into(),
            world_mode: "sharded".into(),
            deadline_ms: Some(40),
            fault: FaultPlan {
                seed: u64::MAX - 3,
                shard_poison_nth: 2,
                slow: Some(SlowWorker { tid: 3, cost: 500 }),
                stall: Some(WorkerStall {
                    tid: None,
                    every: 4,
                    cost: 60,
                }),
                queue_capacity_clamp: Some(1),
                ..FaultPlan::default()
            },
            error: "worker `w` failed: injected shard poison (fault plan)".into(),
            run_id: 0xdead_beef_0042_1111,
        }
    }

    #[test]
    fn json_parser_handles_the_grammar() {
        let v = Json::parse(r#"{"a": [1, -2.5, "x\n\"y\""], "b": null, "c": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\n\"y\"")
        );
        assert_eq!(v.get("b"), Some(&Json::Null));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
    }

    #[test]
    fn json_strings_keep_multibyte_utf8_and_escapes() {
        let v =
            Json::parse(r#"["héllo → 世界 🦀", "a\"é\\b\u00e9\n🦀\t", "", "\u4e16x"]"#).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some("héllo → 世界 🦀"));
        assert_eq!(items[1].as_str(), Some("a\"é\\bé\n🦀\t"));
        assert_eq!(items[2].as_str(), Some(""));
        assert_eq!(items[3].as_str(), Some("世x"));
        let obj = Json::parse("{\"clé\": \"über\"}").unwrap();
        assert_eq!(obj.get("clé").and_then(Json::as_str), Some("über"));
        assert!(Json::parse("\"née").is_err());
    }

    #[test]
    fn big_u64_survives_round_trip() {
        let v = Json::parse(&format!("{}", u64::MAX)).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn bundle_round_trips_losslessly() {
        let b = sample();
        let parsed = FailureBundle::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        let default_hot = FailureBundle {
            hot_func: None,
            ..sample()
        };
        let parsed = FailureBundle::from_json(&default_hot.to_json()).unwrap();
        assert_eq!(parsed, default_hot);
        // Bundles written while the watchdog was a knob carry a
        // `"watchdog"` key; the reader ignores it.
        let old = b.to_json().replace(
            "  \"deadline_ms\"",
            "  \"watchdog\": true,\n  \"deadline_ms\"",
        );
        assert!(old.contains("\"watchdog\": true,"), "{old}");
        assert_eq!(FailureBundle::from_json(&old).unwrap(), b);
        // Bundles written while the DSWP queue batch was a knob carry a
        // `"queue_batch"` key; the reader ignores it too.
        let old = b.to_json().replace(
            "  \"deadline_ms\"",
            "  \"queue_batch\": 8,\n  \"deadline_ms\"",
        );
        assert!(old.contains("\"queue_batch\": 8,"), "{old}");
        assert_eq!(FailureBundle::from_json(&old).unwrap(), b);
    }

    #[test]
    fn corrupt_bundles_are_rejected_with_field_names() {
        assert!(FailureBundle::from_json("not json").is_err());
        let missing = FailureBundle::from_json("{\"version\": 2}").unwrap_err();
        assert!(missing.contains('`'), "{missing}");
        let bad_version = FailureBundle::from_json("{\"version\": 9}").unwrap_err();
        assert!(bad_version.contains("version"), "{bad_version}");
    }

    #[test]
    fn write_then_load_round_trips_via_disk() {
        let dir = std::env::temp_dir().join("commset-bundle-test");
        let b = sample();
        let path = b.write(&dir).unwrap();
        assert!(path.extension().is_some());
        assert!(path.to_string_lossy().ends_with(".repro.json"));
        let loaded = FailureBundle::load(&path).unwrap();
        assert_eq!(loaded, b);
        let _ = std::fs::remove_file(path);
    }
}
