//! `BENCH_history.jsonl` is the committed perf trajectory: one JSON
//! object per line, one line per alternating-pair comparison of a
//! parent and a change under perfbench. Every line carries the same
//! keys; a figure a comparison did not report is `null`.

use serde_json::Value;

const KEYS: [&str; 10] = [
    "change_median",
    "metric",
    "pairs",
    "parent_iqr",
    "parent_median",
    "pr",
    "seeds",
    "unit",
    "wins",
    "workload",
];

/// A non-negative whole number, as JSON numbers parse to `f64`.
fn count(v: &Value) -> Option<u64> {
    v.as_f64()
        .filter(|x| *x >= 0.0 && x.fract() == 0.0)
        .map(|x| x as u64)
}

#[test]
fn every_history_line_has_the_keys_and_no_more_wins_than_pairs() {
    let text = include_str!("../BENCH_history.jsonl");
    let mut lines = 0;
    for (n, line) in text.lines().enumerate() {
        let n = n + 1;
        let row: Value = serde_json::from_str(line).unwrap_or_else(|e| panic!("line {n}: {e}"));
        let Value::Obj(fields) = &row else {
            panic!("line {n} is not an object");
        };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(keys, KEYS, "line {n}");
        let field = |key: &str| row.get(key).expect("checked above");

        assert!(count(field("pr")).is_some_and(|pr| pr > 0), "line {n}: pr");
        for key in ["workload", "metric", "unit"] {
            assert!(
                field(key).as_str().is_some_and(|s| !s.is_empty()),
                "line {n}: {key}"
            );
        }
        let pairs = count(field("pairs")).filter(|&p| p > 0);
        let pairs = pairs.unwrap_or_else(|| panic!("line {n}: pairs"));
        match field("wins") {
            Value::Null => {}
            wins => assert!(
                count(wins).is_some_and(|w| w <= pairs),
                "line {n}: wins must be a count no larger than pairs ({pairs})"
            ),
        }
        match field("seeds") {
            Value::Null => {}
            Value::Arr(seeds) => {
                assert_eq!(seeds.len() as u64, pairs, "line {n}: one seed per pair");
                assert!(seeds.iter().all(|s| count(s).is_some()), "line {n}: seeds");
            }
            other => panic!("line {n}: seeds is {}", other.kind()),
        }
        for key in ["parent_median", "change_median", "parent_iqr"] {
            match field(key) {
                Value::Null => {}
                v => assert!(
                    v.as_f64().is_some_and(|x| x.is_finite() && x >= 0.0),
                    "line {n}: {key}"
                ),
            }
        }
        lines += 1;
    }
    assert!(lines > 0, "the history is empty");
}
