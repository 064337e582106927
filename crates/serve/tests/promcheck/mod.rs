//! Validator for the Prometheus text exposition format (version 0.0.4)
//! as produced by `GET /metrics` with `Accept: text/plain`.
//!
//! The mixed-traffic test in `timeseries.rs` scrapes the edge after its
//! traffic and runs the body through [`check`], failing on any
//! malformed line or missing expected family. The checks cover the
//! grammar subset the toolkit emits (no timestamps, no `# HELP`-only
//! families):
//!
//! * every line is blank, a comment, a `# TYPE` declaration, or a
//!   sample `name{labels} value`;
//! * metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`;
//! * each family is declared by exactly one `# TYPE` line *before* its
//!   first sample, with a known type;
//! * every sample belongs to a declared family (for a histogram `f`,
//!   the members are `f_bucket`, `f_sum` and `f_count`);
//! * values parse as floats, with `+Inf`/`-Inf`/`NaN` spelled exactly;
//! * histogram buckets are cumulative (non-decreasing in order), end
//!   with `le="+Inf"`, and `_count` equals the `+Inf` bucket.

use std::collections::BTreeMap;

/// Result of validating one exposition body.
#[derive(Debug, Default)]
pub struct ExpositionReport {
    /// Families declared by `# TYPE` lines, with their declared type.
    pub families: BTreeMap<String, String>,
    /// Total sample lines parsed.
    pub samples: usize,
    /// Everything wrong, one message per violation (empty = valid).
    pub errors: Vec<String>,
}

impl ExpositionReport {
    /// True when the body satisfied every check.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// True when `family` was declared via `# TYPE`.
    pub fn has_family(&self, family: &str) -> bool {
        self.families.contains_key(family)
    }

    /// Declared families whose name starts with `prefix`.
    pub fn families_with_prefix(&self, prefix: &str) -> Vec<&str> {
        self.families
            .keys()
            .filter(|f| f.starts_with(prefix))
            .map(String::as_str)
            .collect()
    }
}

/// Is `name` a valid metric/family name?
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses an exposition value: a float, or the exact spellings `+Inf`,
/// `-Inf`, `NaN`.
fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        // Reject the float-parser spellings the format does not allow.
        "inf" | "Inf" | "-inf" | "-Inf " | "nan" => None,
        other => other.parse().ok(),
    }
}

/// Splits a sample line into (name, label block, value), respecting
/// quoted label values (which may contain spaces and escaped quotes).
fn split_sample(line: &str) -> Option<(&str, Option<&str>, &str)> {
    if let Some(brace) = line.find('{') {
        let name = &line[..brace];
        let rest = &line[brace + 1..];
        // Scan for the closing brace outside quotes.
        let mut in_quotes = false;
        let mut escaped = false;
        let mut close = None;
        for (i, c) in rest.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_quotes => escaped = true,
                '"' => in_quotes = !in_quotes,
                '}' if !in_quotes => {
                    close = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let close = close?;
        let labels = &rest[..close];
        let value = rest[close + 1..].trim();
        Some((name, Some(labels), value))
    } else {
        let mut parts = line.splitn(2, [' ', '\t']);
        let name = parts.next()?;
        let value = parts.next()?.trim();
        Some((name, None, value))
    }
}

/// Extracts the `le` label value from a bucket's label block.
fn le_of(labels: &str) -> Option<String> {
    for pair in labels.split(',') {
        let (key, value) = pair.split_once('=')?;
        if key.trim() == "le" {
            return Some(value.trim().trim_matches('"').to_owned());
        }
    }
    None
}

/// The family a sample name belongs to, given the declared families.
/// Histogram members map back through their `_bucket`/`_sum`/`_count`
/// suffix; everything else must match a family exactly.
fn family_of<'a>(name: &'a str, families: &BTreeMap<String, String>) -> Option<(&'a str, bool)> {
    if families.contains_key(name) {
        return Some((name, false));
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if families.get(stem).map(String::as_str) == Some("histogram") {
                return Some((stem, true));
            }
        }
    }
    None
}

/// Validates one exposition body. Never panics on malformed input —
/// every violation lands in [`ExpositionReport::errors`].
pub fn check(text: &str) -> ExpositionReport {
    let mut report = ExpositionReport::default();
    // Per histogram family: buckets in file order, and the _count value.
    let mut buckets: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(decl) = comment.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let (name, kind) = match (parts.next(), parts.next(), parts.next()) {
                    (Some(name), Some(kind), None) => (name, kind),
                    _ => {
                        report.errors.push(format!(
                            "line {lineno}: malformed TYPE declaration: {line:?}"
                        ));
                        continue;
                    }
                };
                if !valid_name(name) {
                    report
                        .errors
                        .push(format!("line {lineno}: invalid family name {name:?}"));
                    continue;
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    report
                        .errors
                        .push(format!("line {lineno}: unknown metric type {kind:?}"));
                    continue;
                }
                if report
                    .families
                    .insert(name.to_owned(), kind.to_owned())
                    .is_some()
                {
                    report
                        .errors
                        .push(format!("line {lineno}: duplicate TYPE for family {name:?}"));
                }
            }
            // `# HELP` and free-form comments are legal and ignored.
            continue;
        }

        // A sample line.
        let Some((name, labels, value)) = split_sample(line) else {
            report
                .errors
                .push(format!("line {lineno}: unparseable sample line: {line:?}"));
            continue;
        };
        if !valid_name(name) {
            report
                .errors
                .push(format!("line {lineno}: invalid metric name {name:?}"));
            continue;
        }
        let Some(value) = parse_value(value) else {
            report
                .errors
                .push(format!("line {lineno}: unparseable value in: {line:?}"));
            continue;
        };
        report.samples += 1;
        let Some((family, is_histogram_member)) = family_of(name, &report.families) else {
            report.errors.push(format!(
                "line {lineno}: sample {name:?} has no preceding TYPE declaration"
            ));
            continue;
        };
        if is_histogram_member {
            if name.ends_with("_bucket") {
                match labels.and_then(le_of) {
                    Some(le) => buckets
                        .entry(family.to_owned())
                        .or_default()
                        .push((le, value)),
                    None => report.errors.push(format!(
                        "line {lineno}: histogram bucket without an le label: {line:?}"
                    )),
                }
            } else if name.ends_with("_count") {
                counts.insert(family.to_owned(), value);
            }
        }
    }

    // Histogram shape: cumulative, +Inf-terminated, _count consistent.
    for (family, series) in &buckets {
        let mut last = f64::NEG_INFINITY;
        for (le, value) in series {
            if *value < last {
                report.errors.push(format!(
                    "histogram {family}: bucket le={le} count {value} below previous {last} \
                     (buckets must be cumulative)"
                ));
            }
            last = *value;
        }
        match series.last() {
            Some((le, inf_count)) if le == "+Inf" => match counts.get(family) {
                Some(count) if count == inf_count => {}
                Some(count) => report.errors.push(format!(
                    "histogram {family}: _count {count} != +Inf bucket {inf_count}"
                )),
                None => report
                    .errors
                    .push(format!("histogram {family}: missing _count sample")),
            },
            _ => report.errors.push(format!(
                "histogram {family}: bucket series does not end with le=\"+Inf\""
            )),
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_well_formed_exposition() {
        let text = "\
# TYPE serve_requests counter
serve_requests 17
# TYPE serve_queue_depth gauge
serve_queue_depth 0.5
# TYPE span_ns_batch histogram
span_ns_batch_bucket{le=\"1024\"} 2
span_ns_batch_bucket{le=\"2048\"} 5
span_ns_batch_bucket{le=\"+Inf\"} 5
span_ns_batch_sum 7000
span_ns_batch_count 5
";
        let report = check(text);
        assert!(report.is_ok(), "{:?}", report.errors);
        assert_eq!(report.samples, 7);
        assert!(report.has_family("serve_requests"));
        assert_eq!(
            report.families_with_prefix("serve_"),
            vec!["serve_queue_depth", "serve_requests"]
        );
        assert_eq!(report.families["span_ns_batch"], "histogram");
    }

    #[test]
    fn rejects_undeclared_and_malformed_samples() {
        let report = check("undeclared_metric 1\n# TYPE ok counter\nok not_a_number\n");
        assert_eq!(report.errors.len(), 2);
        assert!(report.errors[0].contains("no preceding TYPE"));
        assert!(report.errors[1].contains("unparseable value"));
    }

    #[test]
    fn rejects_bad_type_lines_and_names() {
        let report = check("# TYPE 9lives counter\n# TYPE ok nonsense\n# TYPE trailing\n");
        assert_eq!(report.errors.len(), 3);
        let report = check("# TYPE ok counter\n# TYPE ok counter\nok 1\n");
        assert_eq!(report.errors.len(), 1);
        assert!(report.errors[0].contains("duplicate TYPE"));
    }

    #[test]
    fn rejects_non_cumulative_or_unterminated_histograms() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 9
h_count 4
";
        let report = check(text);
        assert_eq!(report.errors.len(), 2, "{:?}", report.errors);
        assert!(report.errors[0].contains("cumulative"));
        assert!(report.errors[1].contains("_count 4 != +Inf bucket 5"));

        let report = check("# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\n");
        assert_eq!(report.errors.len(), 1);
        assert!(report.errors[0].contains("+Inf"));
    }

    #[test]
    fn special_values_and_quoted_labels_parse() {
        let text = "\
# TYPE g gauge
g{note=\"has } and \\\" inside\"} +Inf
g{other=\"x\"} NaN
g -Inf
";
        let report = check(text);
        assert!(report.is_ok(), "{:?}", report.errors);
        assert_eq!(report.samples, 3);
        // Lowercase spellings are NOT part of the format.
        let report = check("# TYPE g gauge\ng inf\n");
        assert_eq!(report.errors.len(), 1);
    }
}
