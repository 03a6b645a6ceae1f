//! Parser behaviour the network-facing service depends on: time linear in
//! the input, string runs split correctly around multi-byte UTF-8 and
//! escapes, and errors at the same byte offsets as before.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use serde_json::{from_str, to_string, to_string_pretty, Value};

/// A pretty-printed document shaped like a sweep report: an array of
/// `points` objects full of short keys and short strings.
fn report_shaped(points: usize) -> String {
    let point = |i: usize| {
        Value::Object(vec![
            ("workload".into(), Value::Str(format!("mac{}x4", i % 9))),
            ("technology".into(), Value::Str("STT-MRAM".into())),
            ("protection".into(), Value::Str("ecim/m-o".into())),
            ("gate_error_rate".into(), Value::Float(1e-4 * i as f64)),
            ("trials".into(), Value::UInt(25)),
            ("output_errors".into(), Value::UInt(i as u64 % 7)),
            ("label".into(), Value::Str(format!("p{i}-é"))),
        ])
    };
    let doc = Value::Object(vec![
        ("schema_version".into(), Value::UInt(1)),
        (
            "points".into(),
            Value::Array((0..points).map(point).collect()),
        ),
    ]);
    to_string_pretty(&doc).unwrap()
}

fn best_of_5(doc: &str) -> Duration {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            from_str(doc).expect("document parses");
            t.elapsed()
        })
        .min()
        .unwrap()
}

#[test]
fn parse_time_grows_linearly_with_document_size() {
    let small = report_shaped(150);
    let large = report_shaped(1200);
    assert!(small.len() > 30_000, "small document is {} B", small.len());
    let ratio = best_of_5(&large).as_secs_f64() / best_of_5(&small).as_secs_f64();
    // Linear parsing gives ~8 for 8x the bytes; quadratic gives ~64.
    assert!(
        ratio < 16.0,
        "8x the bytes took {ratio:.1}x the time: parsing is super-linear"
    );
}

#[test]
fn a_four_mebibyte_string_parses_within_a_second() {
    let body = "abc\u{e9}\u{20ac}".repeat((4 << 20) / 8);
    let doc = format!("\"{body}\"");
    let t = Instant::now();
    let parsed = from_str(&doc).expect("parses");
    let elapsed = t.elapsed();
    assert_eq!(parsed, Value::Str(body));
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
}

#[test]
fn multibyte_scalars_at_run_boundaries_and_next_to_escapes() {
    // 2-, 3- and 4-byte scalars at the start and end of runs, alone, and
    // directly before and after every kind of escape.
    for (json, expected) in [
        ("\"\u{e9}\"", "\u{e9}"),
        ("\"\u{20ac}\"", "\u{20ac}"),
        ("\"\u{1d11e}\"", "\u{1d11e}"),
        ("\"\u{e9}abc\u{1d11e}\"", "\u{e9}abc\u{1d11e}"),
        ("\"\u{20ac}\\n\u{e9}\"", "\u{20ac}\n\u{e9}"),
        ("\"\\\"\u{1d11e}\\\\\"", "\"\u{1d11e}\\"),
        ("\"\u{e9}\\u0041\u{20ac}\"", "\u{e9}A\u{20ac}"),
        ("\"\\ud834\\udd1e\u{1d11e}\"", "\u{1d11e}\u{1d11e}"),
        (
            "\"\u{1d11e}\\t\\/\\b\\f\\r\u{e9}\"",
            "\u{1d11e}\t/\u{8}\u{c}\r\u{e9}",
        ),
        ("\"\"", ""),
    ] {
        assert_eq!(
            from_str(json).unwrap(),
            Value::Str(expected.into()),
            "parsing {json:?}"
        );
    }
    // Keys go through the same path.
    let v = from_str("{\"\u{e9}\\u00e9\u{20ac}\": 1}").unwrap();
    assert_eq!(
        v.as_object().unwrap()[0].0,
        "\u{e9}\u{e9}\u{20ac}".to_string()
    );
}

#[test]
fn control_characters_are_rejected_at_their_own_offset() {
    for (json, offset) in [
        ("\"ab\u{1}c\"", 3),
        ("\"\u{e9}\u{1f}\"", 3),
        ("\"\u{1d11e}x\u{0}\"", 6),
        ("{\"k\":\"v\u{0}\"}", 7),
        ("[\"ok\", \"\\n\u{a}\"]", 10),
    ] {
        let err = from_str(json).unwrap_err().to_string();
        assert!(
            err.contains(&format!("at byte {offset}: control character in string")),
            "{json:?}: {err}"
        );
    }
}

#[test]
fn unterminated_strings_still_error() {
    let err = from_str("\"unterminated").unwrap_err().to_string();
    assert!(err.contains("at byte 13: unterminated string"), "{err}");
    let err = from_str("\"abc\\").unwrap_err().to_string();
    assert!(err.contains("unterminated escape"), "{err}");
    assert!(from_str("{\"key").is_err());
    assert!(from_str("[\"\u{e9}").is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_string_roundtrips(len in 0usize..48, chars in collection::vec(any::<char>(), 48)) {
        let s: String = chars[..len].iter().collect();
        let text = to_string(&Value::Str(s.clone())).unwrap();
        prop_assert_eq!(from_str(&text).unwrap(), Value::Str(s));
    }
}
