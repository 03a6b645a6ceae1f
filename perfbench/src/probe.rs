//! The two-size `serde_json` probe: parse and encode cost per kilobyte on a
//! small and a large report, whose ratio exposes super-linear parsing.

use std::time::Instant;

/// Per-kilobyte JSON costs, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct JsonProbe {
    /// `from_str` on the small document.
    pub parse_us_per_kb_small: f64,
    /// `from_str` on the large document.
    pub parse_us_per_kb_large: f64,
    /// `to_string_pretty` of the parsed large document.
    pub encode_us_per_kb_large: f64,
}

/// Median per-kilobyte time of `op` over repetitions totalling at least
/// 30 ms (and at least 3).
fn us_per_kb(bytes: usize, mut op: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let started = Instant::now();
    while times.len() < 3 || started.elapsed().as_millis() < 30 {
        let t = Instant::now();
        op();
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    crate::stats::median_or_zero(&times) / (bytes as f64 / 1024.0)
}

/// Times `serde_json::from_str` on both documents and
/// `serde_json::to_string_pretty` on the large one.
///
/// # Errors
///
/// Either document is not valid JSON.
pub fn probe(small: &str, large: &str) -> Result<JsonProbe, String> {
    let parsed = serde_json::from_str(large).map_err(|e| format!("large document: {e}"))?;
    serde_json::from_str(small).map_err(|e| format!("small document: {e}"))?;
    let parse = |doc: &str| {
        us_per_kb(doc.len(), || {
            std::hint::black_box(serde_json::from_str(std::hint::black_box(doc)).ok());
        })
    };
    Ok(JsonProbe {
        parse_us_per_kb_small: parse(small),
        parse_us_per_kb_large: parse(large),
        encode_us_per_kb_large: us_per_kb(large.len(), || {
            std::hint::black_box(serde_json::to_string_pretty(std::hint::black_box(&parsed)).ok());
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_sweep::{run_campaign, SweepPlan};

    #[test]
    fn two_size_probe_runs_on_real_reports() {
        let mut plan = SweepPlan::quick();
        plan.seeds_per_point = 2;
        let small = run_campaign(&plan).expect("quick campaign").to_json();
        let large = format!("[{}]", [small.as_str(); 12].join(","));
        let measured = probe(&small, &large).expect("both documents parse");
        for value in [
            measured.parse_us_per_kb_small,
            measured.parse_us_per_kb_large,
            measured.encode_us_per_kb_large,
        ] {
            assert!(value.is_finite() && value > 0.0, "{measured:?}");
        }
        assert!(probe("{", &large).is_err());
    }
}
