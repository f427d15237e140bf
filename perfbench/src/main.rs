//! Host benchmark of the COMMSET reproduction.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile|run-threads|fig6-sim|check> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client: jobs run one after
//! another, in rounds over a fixed job matrix whose order the seed
//! shuffles. Set-up (with one warm-up round) is repeated and timed first.
//! `--trace 0` measures untraced and prints the end-to-end metrics;
//! `--trace 1` measures an untraced half and a traced half, prints the
//! per-layer metrics, writes a Chrome trace-event file under
//! `perfbench/out/` and a "where the time goes" table on stderr. Every
//! job's output is checked; the last stdout line is the JSON result.
//! Times are reported at nominal host speed (see `calib`); stderr shows
//! the raw values beside them.

mod bench;
mod calib;
mod check;
mod compile;
mod fig6;
mod stats;
mod substrate;
mod threads;
mod trace;

use bench::{Kind, Options};
use std::path::PathBuf;

const USAGE: &str = "usage: commset-perfbench --workload <compile|run-threads|fig6-sim|check> \
                     --seed N --seconds S --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Options {
        kind,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        root: PathBuf::from("."),
        trace_out: Some(PathBuf::from(format!(
            "perfbench/out/trace-{}.json",
            kind.name()
        ))),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match bench::run(&opts) {
        Ok(outcome) => {
            eprint!("{}", outcome.report);
            println!("{}", bench::result_json(&outcome));
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
