//! Pins what `repro perf diff` reads out of bench and baseline files.
//!
//! The fixtures cover every JSON shape the committed `BENCH_*.json`
//! and `perf-baseline.json` files use: nested objects and booleans,
//! integers beyond 2^53 and beyond `u64`, negative and exponent floats,
//! non-finite values spelled as strings, arrays, `\u` escapes and CRLF
//! line endings. The expected values are exact bit patterns, so any
//! change of JSON reader must reproduce them digit for digit.

use flow_exp::runners::perf::{load_bench_metrics, parse_baseline, Direction};

const BENCH: &str = "{\r\n\
  \"bench\": \"fx\",\r\n\
  \"schema\": \"flow-bench/fx-v1\",\r\n\
  \"gate\": true,\r\n\
  \"off\": false,\r\n\
  \"nested\": {\"deep\": {\"leaf\": 2.5, \"flag\": true}, \"count\": 4000},\r\n\
  \"big\": 9007199254740993,\r\n\
  \"huge\": 18446744073709551615,\r\n\
  \"beyond\": 18446744073709551616,\r\n\
  \"neg\": -17,\r\n\
  \"neg_float\": -0.125,\r\n\
  \"p50\": 8572.38641479122,\r\n\
  \"exp\": 6.02e23,\r\n\
  \"exp_neg\": -1.5E-7,\r\n\
  \"exp_plus\": 2e+2,\r\n\
  \"not_a_number\": \"NaN\",\r\n\
  \"infinite\": \"inf\",\r\n\
  \"windows\": [4, 0, {\"inner\": 1}],\r\n\
  \"empty\": {},\r\n\
  \"caf\\u00e9\": 3,\r\n\
  \"quote\\\"key\": 0.1,\r\n\
  \"nothing\": null\r\n\
}\r\n";

const BASELINE: &str = "{\r\n\
  \"schema\": \"flow-perf/baseline-v1\",\r\n\
  \"comment\": \"caf\\u00e9 \\\"quoted\\\" [not, an, array]\",\r\n\
  \"metrics\": {\r\n\
    \"fx.gate\": {\"value\": 1, \"direction\": \"higher\", \"noise_pct\": 0.0},\r\n\
    \"fx.big\": {\"value\": 9007199254740993, \"direction\": \"lower\", \"noise_pct\": 1e1},\r\n\
    \"fx.exp_neg\": {\"value\": -1.5E-7, \"direction\": \"lower\"},\r\n\
    \"fx.caf\\u00e9\": {\"value\": 3.0, \"direction\": \"higher\", \"noise_pct\": 2.5e-1, \"tags\": [\"a\", \"b\"]}\r\n\
  }\r\n\
}\r\n";

fn bits(pairs: &[(&str, f64)]) -> Vec<(String, u64)> {
    pairs
        .iter()
        .map(|(k, v)| ((*k).to_owned(), v.to_bits()))
        .collect()
}

#[test]
fn bench_file_shapes_flatten_to_a_pinned_metric_map() {
    let dir = std::env::temp_dir().join(format!("flowexp-perf-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_fx.json");
    std::fs::write(&path, BENCH).unwrap();
    let metrics = load_bench_metrics(path.to_str().unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let got: Vec<(String, u64)> = metrics
        .iter()
        .map(|(k, v)| (k.clone(), v.to_bits()))
        .collect();
    let want = bits(&[
        ("fx.beyond", 18446744073709551616.0),
        ("fx.big", 9007199254740992.0),
        ("fx.caf\u{e9}", 3.0),
        ("fx.exp", 6.02e23),
        ("fx.exp_neg", -1.5e-7),
        ("fx.exp_plus", 200.0),
        ("fx.gate", 1.0),
        ("fx.huge", u64::MAX as f64),
        ("fx.neg", -17.0),
        ("fx.neg_float", -0.125),
        ("fx.nested.count", 4000.0),
        ("fx.nested.deep.flag", 1.0),
        ("fx.nested.deep.leaf", 2.5),
        ("fx.off", 0.0),
        ("fx.p50", 8572.38641479122),
        ("fx.quote\"key", 0.1),
    ]);
    assert_eq!(got, want);
}

#[test]
fn baseline_shapes_parse_to_pinned_metrics() {
    let baseline = parse_baseline(BASELINE).unwrap();
    let got: Vec<(String, u64, Direction, u64)> = baseline
        .iter()
        .map(|(k, m)| {
            (
                k.clone(),
                m.value.to_bits(),
                m.direction,
                m.noise_pct.to_bits(),
            )
        })
        .collect();
    let want = vec![
        (
            "fx.big".to_owned(),
            9007199254740992.0f64.to_bits(),
            Direction::Lower,
            10.0f64.to_bits(),
        ),
        (
            "fx.caf\u{e9}".to_owned(),
            3.0f64.to_bits(),
            Direction::Higher,
            0.25f64.to_bits(),
        ),
        (
            "fx.exp_neg".to_owned(),
            (-1.5e-7f64).to_bits(),
            Direction::Lower,
            20.0f64.to_bits(),
        ),
        (
            "fx.gate".to_owned(),
            1.0f64.to_bits(),
            Direction::Higher,
            0.0f64.to_bits(),
        ),
    ];
    assert_eq!(got, want);
}
