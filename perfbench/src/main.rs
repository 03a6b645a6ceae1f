//! End-to-end campaign benchmark over four user paths.
//!
//! ```text
//! nvpim-perfbench --workload direct|daemon_durable|daemon_cached|fleet
//!                 --seed N --seconds S --trace 0|1
//!                 --daemon-bin PATH --work-dir DIR
//! nvpim-perfbench references PLANS.ndjson
//! ```
//!
//! A single-process, closed-loop load generator: one request in flight, the
//! next sent only after the previous report is verified against the direct
//! library run's SHA-256. `--trace 0` prints the end-to-end metrics, `--trace
//! 1` the per-layer split. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is non-zero
//! when any request failed or the daemons' counters disagree with the
//! traffic. See `README.md` beside this crate.

mod bench;
mod daemon;
mod plans;
mod probe;
mod stats;

use std::path::PathBuf;

use nvpim_service::flags::value_of;
use serde::Value;

fn parse_config(args: &[String]) -> Result<bench::Config, String> {
    let need = |flag: &str| value_of(args, flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?;
    let number = |flag: &str| -> Result<u64, String> {
        need(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a whole number"))
    };
    Ok(bench::Config {
        workload: bench::Workload::parse(&workload)
            .ok_or(format!("unknown workload `{workload}`"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
        },
        daemon_bin: PathBuf::from(need("--daemon-bin")?),
        work: PathBuf::from(need("--work-dir")?),
    })
}

fn result_line(outcome: &bench::Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let entry = vec![
                ("value".to_string(), Value::Float(*value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ];
            (name.clone(), Value::Object(entry))
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(outcome.correct)),
        (
            "attempted".to_string(),
            Value::UInt(outcome.attempted as u64),
        ),
        ("failed".to_string(), Value::UInt(outcome.failed as u64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a Value serializes")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("references") {
        let file = args.get(1).map(PathBuf::from).unwrap_or_default();
        if let Err(e) = bench::print_references(&file) {
            eprintln!("nvpim-perfbench references: {e}");
            std::process::exit(1);
        }
        return;
    }
    let cfg = match parse_config(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("nvpim-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut outcome = match bench::run(cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("nvpim-perfbench: {e}");
            std::process::exit(1);
        }
    };
    for (name, value, _) in &mut outcome.metrics {
        if !value.is_finite() {
            outcome
                .notes
                .push(format!("{name} was not finite ({value})"));
            outcome.correct = false;
            *value = 0.0;
        }
        *value += 0.0; // -0.0 from an empty sum prints as 0
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name} = {value} {unit}");
    }
    println!("{}", result_line(&outcome));
    if !outcome.correct {
        std::process::exit(1);
    }
}
