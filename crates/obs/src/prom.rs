//! Prometheus text exposition format (version 0.0.4) for the metrics
//! registry.
//!
//! [`render_snapshots`] turns one list of [`MetricSnapshot`]s (a
//! [`crate::metrics::Registry`] gather, or several sources concatenated)
//! into the `text/plain; version=0.0.4` wire format: `# HELP` / `# TYPE`
//! preamble per metric, one sample line per value, and for histograms
//! the cumulative `le`-labeled bucket series plus `_sum` and `_count`.
//! The output is deterministic (list order for metrics, lexicographic
//! label order within a family), which is what makes the golden test
//! possible.
//!
//! Our histograms bucket by powers of two, so the rendered `le` bounds
//! are `1, 2, 4, …` up to the highest non-empty bucket, then `+Inf`.
//! Empty families render only their preamble — a scrape can always see
//! the metric exists.

use crate::histogram::LatencyHistogram;
use crate::metrics::{MetricSnapshot, MetricValue, Registry};

/// The content type Prometheus expects for this exposition.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Escapes a HELP string (`\` and newline, per the format spec).
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value (`\`, `"`, and newline).
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_histogram(out: &mut String, name: &str, labels: &str, h: &LatencyHistogram) {
    // Cumulative buckets up to the last non-empty one. Bucket `i` holds
    // values in `[2^i, 2^(i+1))`, so its `le` bound is `2^(i+1) - 1`
    // (inclusive, integer-valued observations).
    let counts = h.bucket_counts();
    let last = counts.iter().rposition(|&c| c > 0);
    let mut cum = 0u64;
    if let Some(last) = last {
        for (i, &c) in counts.iter().enumerate().take(last + 1) {
            cum += c;
            let bound = if i >= 63 {
                u64::MAX
            } else {
                (1u64 << (i + 1)) - 1
            };
            out.push_str(&format!("{name}_bucket{{{labels},le=\"{bound}\"}} {cum}\n"));
        }
    }
    out.push_str(&format!(
        "{name}_bucket{{{labels},le=\"+Inf\"}} {}\n",
        h.count()
    ));
    out.push_str(&format!("{name}_sum{{{labels}}} {}\n", h.sum_ns()));
    out.push_str(&format!("{name}_count{{{labels}}} {}\n", h.count()));
}

/// Renders one gathered snapshot list in exposition order.
pub fn render_snapshots(snapshots: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    for m in snapshots {
        if !m.help.is_empty() {
            out.push_str(&format!("# HELP {} {}\n", m.name, escape_help(m.help)));
        }
        match &m.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# TYPE {} counter\n", m.name));
                out.push_str(&format!("{} {}\n", m.name, v));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {} gauge\n", m.name));
                out.push_str(&format!("{} {}\n", m.name, v));
            }
            MetricValue::Counters(label, rows) => {
                out.push_str(&format!("# TYPE {} counter\n", m.name));
                for (value, count) in rows {
                    out.push_str(&format!(
                        "{}{{{label}=\"{}\"}} {count}\n",
                        m.name,
                        escape_label(value)
                    ));
                }
            }
            MetricValue::Gauges(label, rows) => {
                out.push_str(&format!("# TYPE {} gauge\n", m.name));
                for (value, v) in rows {
                    out.push_str(&format!(
                        "{}{{{label}=\"{}\"}} {v}\n",
                        m.name,
                        escape_label(value)
                    ));
                }
            }
            MetricValue::Histograms(label, rows) => {
                out.push_str(&format!("# TYPE {} histogram\n", m.name));
                for (value, hist) in rows {
                    let labels = format!("{label}=\"{}\"", escape_label(value));
                    render_histogram(&mut out, m.name, &labels, hist);
                }
            }
        }
    }
    out
}

/// Renders only the instruments whose name starts with `prefix` — the
/// focused expositions behind the query service's `/tenants`
/// (`treequery_tenant_`) and `/slo` (`treequery_slo_`) endpoints.
pub fn render_prefixed(registry: &Registry, prefix: &str) -> String {
    let snapshots: Vec<_> = registry
        .gather()
        .into_iter()
        .filter(|m| m.name.starts_with(prefix))
        .collect();
    render_snapshots(&snapshots)
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Validates the label block of a sample line (the text between `{` and
/// `}`): comma-separated `name="value"` pairs with `\\`/`\"`/`\n`
/// escapes.
fn validate_labels(s: &str) -> Result<(), String> {
    let mut rest = s;
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label pair without '=': {rest:?}"))?;
        let name = &rest[..eq];
        if !valid_label_name(name) {
            return Err(format!("invalid label name: {name:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label value not quoted after {name}"));
        }
        let bytes = rest.as_bytes();
        let mut i = 1;
        loop {
            match bytes.get(i) {
                None => return Err(format!("unterminated label value for {name}")),
                Some(b'\\') => i += 2,
                Some(b'"') => break,
                Some(_) => i += 1,
            }
        }
        rest = &rest[i + 1..];
        match rest.strip_prefix(',') {
            Some(tail) => rest = tail,
            None if rest.is_empty() => return Ok(()),
            None => return Err(format!("junk after label value: {rest:?}")),
        }
    }
}

/// Validates Prometheus text exposition (version 0.0.4): `# HELP` /
/// `# TYPE` preamble lines and `name[{labels}] value` samples, with at
/// most one `# TYPE` line per metric name. Returns the number of sample
/// lines. This is the committed parser the CI observatory gate
/// round-trips `/metrics` scrapes through.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut typed: Vec<&str> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.strip_prefix(' ').unwrap_or(comment);
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {n}: invalid metric name in TYPE: {name:?}"));
                }
                if typed.contains(&name) {
                    return Err(format!("line {n}: metric {name:?} typed twice"));
                }
                typed.push(name);
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {n}: unknown metric type: {kind:?}"));
                }
            } else if !comment.starts_with("HELP ") {
                // Bare comments are legal in the format; accept them.
            }
            continue;
        }
        // Sample line: metric name, optional {labels}, value, optional
        // timestamp.
        let name_end = line
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
            .unwrap_or(line.len());
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(format!("line {n}: invalid metric name: {line:?}"));
        }
        let mut rest = &line[name_end..];
        if let Some(tail) = rest.strip_prefix('{') {
            let close = tail
                .find('}')
                .ok_or_else(|| format!("line {n}: unterminated label block"))?;
            validate_labels(&tail[..close]).map_err(|e| format!("line {n}: {e}"))?;
            rest = &tail[close + 1..];
        }
        let rest = rest.trim_start();
        let mut parts = rest.split_whitespace();
        let value = parts
            .next()
            .ok_or_else(|| format!("line {n}: sample without a value"))?;
        let value_ok = value.parse::<f64>().is_ok()
            || matches!(value, "+Inf" | "-Inf" | "NaN" | "Nan" | "nan");
        if !value_ok {
            return Err(format!("line {n}: unparseable sample value: {value:?}"));
        }
        if let Some(ts) = parts.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {n}: unparseable timestamp: {ts:?}"));
            }
        }
        if parts.next().is_some() {
            return Err(format!("line {n}: trailing junk on sample line"));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    /// The golden test for the exposition format: a registry with all
    /// three instrument kinds renders byte-for-byte as pinned here.
    #[test]
    fn render_golden() {
        let r = Registry::new();
        let c = r.counter(
            "treequery_queries_executed_total",
            "Queries run through Engine::eval paths.",
        );
        let g = r.gauge("treequery_live_bytes", "Live heap bytes right now.");
        let f = r.histogram_family(
            "treequery_stage_ns",
            "Per-stage wall time in nanoseconds.",
            "stage",
        );
        c.add(42);
        g.set(1 << 20);
        let h = f.with_label("exec.semijoin");
        h.observe(1); // bucket 0 ([0,2)), le="1"
        h.observe(3); // bucket 1 ([2,4)), le="3"
        h.observe(3);
        f.with_label("exec.sweep").observe(9); // bucket 3 ([8,16)), le="15"

        let expected = "\
# HELP treequery_queries_executed_total Queries run through Engine::eval paths.
# TYPE treequery_queries_executed_total counter
treequery_queries_executed_total 42
# HELP treequery_live_bytes Live heap bytes right now.
# TYPE treequery_live_bytes gauge
treequery_live_bytes 1048576
# HELP treequery_stage_ns Per-stage wall time in nanoseconds.
# TYPE treequery_stage_ns histogram
treequery_stage_ns_bucket{stage=\"exec.semijoin\",le=\"1\"} 1
treequery_stage_ns_bucket{stage=\"exec.semijoin\",le=\"3\"} 3
treequery_stage_ns_bucket{stage=\"exec.semijoin\",le=\"+Inf\"} 3
treequery_stage_ns_sum{stage=\"exec.semijoin\"} 7
treequery_stage_ns_count{stage=\"exec.semijoin\"} 3
treequery_stage_ns_bucket{stage=\"exec.sweep\",le=\"1\"} 0
treequery_stage_ns_bucket{stage=\"exec.sweep\",le=\"3\"} 0
treequery_stage_ns_bucket{stage=\"exec.sweep\",le=\"7\"} 0
treequery_stage_ns_bucket{stage=\"exec.sweep\",le=\"15\"} 1
treequery_stage_ns_bucket{stage=\"exec.sweep\",le=\"+Inf\"} 1
treequery_stage_ns_sum{stage=\"exec.sweep\"} 9
treequery_stage_ns_count{stage=\"exec.sweep\"} 1
";
        assert_eq!(render_snapshots(&r.gather()), expected);
    }

    #[test]
    fn counter_family_renders_one_line_per_label() {
        let r = Registry::new();
        let f = r.counter_family("treequery_serve_requests", "Requests by verb.", "verb");
        f.with_label("query").add(3);
        f.with_label("edit").inc();
        let text = render_snapshots(&r.gather());
        assert!(text.contains("# TYPE treequery_serve_requests counter"));
        assert!(text.contains("treequery_serve_requests{verb=\"edit\"} 1\n"));
        assert!(text.contains("treequery_serve_requests{verb=\"query\"} 3\n"));
        assert_eq!(validate_exposition(&text).unwrap(), 2);
    }

    #[test]
    fn empty_family_renders_preamble_only() {
        let r = Registry::new();
        r.histogram_family("treequery_idle_ns", "never observed", "stage");
        let text = render_snapshots(&r.gather());
        assert!(text.contains("# TYPE treequery_idle_ns histogram"));
        assert!(!text.contains("_bucket"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        let f = r.histogram_family("treequery_esc_ns", "", "q");
        f.with_label("a\"b\\c").observe(1);
        let text = render_snapshots(&r.gather());
        assert!(text.contains("q=\"a\\\"b\\\\c\""), "got: {text}");
    }

    #[test]
    fn validate_accepts_rendered_registries() {
        let r = Registry::new();
        r.counter("treequery_ok_total", "fine").add(3);
        r.gauge("treequery_depth", "fine").set(-2);
        let f = r.histogram_family("treequery_lat_ns", "fine", "stage");
        f.with_label("exec.sweep\"x").observe(7);
        let text = render_snapshots(&r.gather());
        let samples = validate_exposition(&text).unwrap();
        let sample_lines = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(samples, sample_lines);
        assert!(samples >= 6, "counter + gauge + buckets/sum/count: {text}");
    }

    /// Tenant names are user-controlled strings flowing into label
    /// values, so the escape path is load-bearing: every escapable
    /// character must survive counter, gauge and histogram families →
    /// render → `validate_exposition` intact.
    #[test]
    fn hostile_label_values_round_trip_every_family_kind() {
        let hostile = "quote\" back\\slash new\nline";
        let r = Registry::new();
        r.counter_family("treequery_esc_requests", "by tenant", "tenant")
            .with_label(hostile)
            .add(2);
        r.histogram_family("treequery_esc_lat_ns", "by tenant", "tenant")
            .with_label(hostile)
            .observe(3);
        let mut snapshots = r.gather();
        snapshots.push(MetricSnapshot {
            name: "treequery_esc_burn",
            help: "by tenant",
            value: MetricValue::Gauges("tenant", vec![(hostile.to_owned(), -5)]),
        });
        let text = render_snapshots(&snapshots);
        // Rendered escapes, per the exposition spec.
        let escaped = "tenant=\"quote\\\" back\\\\slash new\\nline\"";
        assert!(
            text.contains(&format!("treequery_esc_requests{{{escaped}}} 2\n")),
            "counter family: {text}"
        );
        assert!(
            text.contains(&format!("treequery_esc_burn{{{escaped}}} -5\n")),
            "gauge family: {text}"
        );
        assert!(
            text.contains(&format!("treequery_esc_lat_ns_count{{{escaped}}} 1\n")),
            "histogram family: {text}"
        );
        // No raw (unescaped) quote/newline inside a label block: every
        // sample line must still be one line that validates.
        let samples = validate_exposition(&text).expect("hostile labels still validate");
        let sample_lines = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(samples, sample_lines);
    }

    #[test]
    fn each_escapable_character_escapes_alone() {
        for (raw, escaped) in [("\"", "\\\""), ("\\", "\\\\"), ("\n", "\\n")] {
            let r = Registry::new();
            r.counter_family("treequery_esc_one", "", "tenant")
                .with_label(raw)
                .inc();
            let text = render_snapshots(&r.gather());
            assert!(
                text.contains(&format!("treequery_esc_one{{tenant=\"{escaped}\"}} 1\n")),
                "raw {raw:?} rendered: {text}"
            );
            validate_exposition(&text).expect("single hostile char validates");
        }
    }

    #[test]
    fn render_prefixed_filters_by_name() {
        let r = Registry::new();
        r.counter("treequery_tenant_queries", "").add(1);
        r.counter("treequery_serve_requests_total", "").add(2);
        let text = render_prefixed(&r, "treequery_tenant_");
        assert!(text.contains("treequery_tenant_queries 1\n"));
        assert!(!text.contains("treequery_serve_requests_total"));
        assert_eq!(validate_exposition(&text).unwrap(), 1);
    }

    #[test]
    fn validate_rejects_malformed_lines() {
        assert!(validate_exposition("9metric 1\n").is_err());
        assert!(validate_exposition("m{unclosed=\"v\" 1\n").is_err());
        assert!(validate_exposition("m{l=\"v\"} notanumber\n").is_err());
        assert!(validate_exposition("# TYPE m rocket\n").is_err());
        assert!(validate_exposition("m 1 2 3\n").is_err());
        assert!(validate_exposition("# TYPE m counter\nm 1\n# TYPE m counter\nm 2\n").is_err());
        assert_eq!(validate_exposition("m{l=\"a\\\"b\"} +Inf\n").unwrap(), 1);
        assert_eq!(validate_exposition("").unwrap(), 0);
    }

    #[test]
    fn help_newlines_are_escaped() {
        let r = Registry::new();
        r.counter("treequery_nl_total", "line one\nline two");
        let text = render_snapshots(&r.gather());
        assert!(text.contains("# HELP treequery_nl_total line one\\nline two\n"));
    }
}
