//! Prometheus-style text exposition for telemetry snapshots.
//!
//! The output is the classic text format (`# HELP` / `# TYPE` headers,
//! one `name{labels} value` sample per line) rendered with a stable,
//! deterministic ordering: fixed phase/counter enumeration order first,
//! then labeled counters and histograms in lexicographic key order.
//! Histograms export as Prometheus *summaries* (deterministic
//! p50/p95/p99 quantiles plus `_sum`/`_count`), which keeps scrape
//! payloads small while preserving the numbers operators actually read.

use crate::phase::{Counter, Phase};
use crate::TelemetrySnapshot;
use std::fmt::Write as _;

/// Metric-name prefix for every exported series.
const PREFIX: &str = "nvpim";

/// Renders a snapshot as Prometheus-style text exposition.
#[must_use]
pub fn render_prometheus(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();

    let _ = writeln!(
        out,
        "# HELP {PREFIX}_phase_spans_total Completed span count per pipeline phase."
    );
    let _ = writeln!(out, "# TYPE {PREFIX}_phase_spans_total counter");
    for phase in Phase::ALL {
        let _ = writeln!(
            out,
            "{PREFIX}_phase_spans_total{{phase=\"{}\"}} {}",
            phase.name(),
            snapshot.phase_count(phase)
        );
    }

    let _ = writeln!(
        out,
        "# HELP {PREFIX}_phase_nanos_total Accumulated wall-clock nanoseconds per pipeline phase."
    );
    let _ = writeln!(out, "# TYPE {PREFIX}_phase_nanos_total counter");
    for phase in Phase::ALL {
        let _ = writeln!(
            out,
            "{PREFIX}_phase_nanos_total{{phase=\"{}\"}} {}",
            phase.name(),
            snapshot.phase_nanos(phase)
        );
    }

    let mut family = "";
    for counter in Counter::ALL {
        if counter.family() != family {
            family = counter.family();
            let _ = writeln!(out, "# HELP {PREFIX}_{family}_total {}", counter.help());
            let _ = writeln!(out, "# TYPE {PREFIX}_{family}_total counter");
        }
        let value = snapshot.counter(counter);
        match counter.label() {
            Some((label, v)) => {
                let _ = writeln!(out, "{PREFIX}_{family}_total{{{label}=\"{v}\"}} {value}");
            }
            None => {
                let _ = writeln!(out, "{PREFIX}_{family}_total {value}");
            }
        }
    }

    // Labeled keys render as `family{label="value"}`; keys of one family
    // share the `family{` prefix, so they are adjacent in key order.
    let mut family = "";
    for (key, value) in &snapshot.labeled {
        let (name, labels) = key.split_once('{').unwrap_or((key, ""));
        if name != family {
            family = name;
            let label = labels.split_once('=').map_or("", |(label, _)| label);
            let _ = writeln!(out, "# HELP {PREFIX}_{name} Event counter by {label}.");
            let _ = writeln!(out, "# TYPE {PREFIX}_{name} counter");
        }
        let _ = writeln!(out, "{PREFIX}_{key} {value}");
    }

    for (name, hist) in &snapshot.histograms {
        let _ = writeln!(
            out,
            "# HELP {PREFIX}_{name} Latency summary (log2-bucketed; quantiles are bucket upper bounds)."
        );
        let _ = writeln!(out, "# TYPE {PREFIX}_{name} summary");
        for (label, q) in [("0.5", 0.50f64), ("0.95", 0.95), ("0.99", 0.99)] {
            let _ = writeln!(
                out,
                "{PREFIX}_{name}{{quantile=\"{label}\"}} {}",
                hist.quantile(q).unwrap_or(0)
            );
        }
        let _ = writeln!(out, "{PREFIX}_{name}_sum {}", hist.sum());
        let _ = writeln!(out, "{PREFIX}_{name}_count {}", hist.count());
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn exposition_contains_core_series_and_is_deterministic() {
        let tel = Telemetry::new();
        tel.record_span(Phase::GateExecution, 4, 4000);
        tel.add(Counter::CleanSettledTrials, 9);
        tel.add_labeled("trials_by_scheme", "scheme", "trim", 12);
        tel.record_histogram("queue_wait_ns", 900);
        let text = tel.render_prometheus();

        assert!(text.contains("# TYPE nvpim_phase_spans_total counter"));
        assert!(text.contains("nvpim_phase_spans_total{phase=\"gate_execution\"} 4"));
        assert!(text.contains("nvpim_phase_nanos_total{phase=\"gate_execution\"} 4000"));
        assert!(text.contains("nvpim_clean_settled_trials_total 9"));
        assert!(text.contains("nvpim_trials_by_scheme{scheme=\"trim\"} 12"));
        assert!(text.contains("nvpim_queue_wait_ns{quantile=\"0.5\"} 1023"));
        assert!(text.contains("nvpim_queue_wait_ns_count 1"));
        // Deterministic: rendering twice yields identical bytes.
        assert_eq!(text, tel.render_prometheus());
    }

    #[test]
    fn empty_snapshot_still_exports_all_fixed_series() {
        let text = Telemetry::new().render_prometheus();
        for phase in Phase::ALL {
            assert!(text.contains(&format!("phase=\"{}\"", phase.name())));
        }
        for counter in Counter::ALL {
            let series = match counter.label() {
                Some((label, value)) => {
                    format!("nvpim_{}_total{{{label}=\"{value}\"}} 0", counter.family())
                }
                None => format!("nvpim_{}_total 0", counter.family()),
            };
            assert!(text.contains(&series), "{series} missing");
        }
    }

    /// Every sample belongs to exactly one `# TYPE` family, and every
    /// `# TYPE` family has at least one sample (summary `_sum`/`_count`
    /// samples belong to their summary's family).
    #[test]
    fn every_family_has_one_type_line_and_a_sample() {
        let tel = Telemetry::new();
        tel.add_labeled("trials_by_scheme", "scheme", "trim", 12);
        tel.add_labeled("trials_by_scheme", "scheme", "ecim", 3);
        tel.add_labeled("fleet_worker_trials", "worker", "a:1", 5);
        tel.record_histogram("queue_wait_ns", 900);
        let text = tel.render_prometheus();
        let mut types: BTreeMap<&str, usize> = BTreeMap::new();
        let mut sampled: BTreeSet<&str> = BTreeSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                *types.entry(rest.split(' ').next().unwrap()).or_default() += 1;
            } else if !line.starts_with('#') {
                let name = line.split(['{', ' ']).next().unwrap();
                sampled.insert(name);
            }
        }
        assert!(types.values().all(|&n| n == 1), "duplicate TYPE: {types:?}");
        for name in &sampled {
            let family = [
                *name,
                name.trim_end_matches("_sum"),
                name.trim_end_matches("_count"),
            ];
            assert!(
                family.iter().any(|f| types.contains_key(f)),
                "{name} has no TYPE line"
            );
        }
        for family in types.keys() {
            assert!(
                sampled.iter().any(|s| s == family
                    || s.strip_prefix(family)
                        .is_some_and(|r| r == "_sum" || r == "_count")),
                "TYPE {family} has no sample"
            );
        }
    }
}
