//! Per-span-name summaries of captured spans, and the JSON form of one
//! span.

use std::collections::BTreeMap;

use crate::histogram::{HistogramSummary, LatencyHistogram};
use crate::json::Json;
use crate::span::{FieldValue, SpanRecord};

/// Per-span-name aggregate of a list of closed spans.
#[derive(Clone, Debug)]
pub struct SpanSummary {
    /// The span name.
    pub name: &'static str,
    /// Number of closed spans with this name.
    pub calls: u64,
    /// Total wall time across those spans, in nanoseconds.
    pub total_ns: u64,
    /// Smallest nesting depth the name was seen at (for tree rendering).
    pub depth: u32,
    /// Latency distribution of the individual spans.
    pub latency: HistogramSummary,
    /// Sums of every `u64` field recorded on those spans, by key.
    pub field_sums: Vec<(&'static str, u64)>,
}

impl SpanSummary {
    /// The summary as a JSON object (the harness report row).
    pub fn to_json(&self) -> Json {
        let mut fields = Json::obj();
        for (k, v) in &self.field_sums {
            fields = fields.set(*k, *v);
        }
        Json::obj()
            .set("name", self.name)
            .set("calls", self.calls)
            .set("total_ns", self.total_ns)
            .set("p50_ns", self.latency.p50_ns)
            .set("p95_ns", self.latency.p95_ns)
            .set("p99_ns", self.latency.p99_ns)
            .set("max_ns", self.latency.max_ns)
            .set("fields", fields)
    }
}

/// Folds closed spans into per-name summaries: call counts, total wall
/// time, latency histograms and `u64`-field sums. Rows are ordered by
/// each name's earliest span *start*, ties by first appearance (close
/// order won't do: children close before the parents that enclose them,
/// and start order keeps `AnalyzedPlan::render`'s indented tree
/// well-formed).
pub fn summarize_spans(spans: &[SpanRecord]) -> Vec<SpanSummary> {
    struct Agg {
        first_start_ns: u64,
        first_seen: usize,
        hist: LatencyHistogram,
        field_sums: BTreeMap<&'static str, u64>,
        summary: SpanSummary,
    }
    let mut aggs: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (seen, span) in spans.iter().enumerate() {
        let agg = aggs.entry(span.name).or_insert_with(|| Agg {
            first_start_ns: span.start_ns,
            first_seen: seen,
            hist: LatencyHistogram::new(),
            field_sums: BTreeMap::new(),
            summary: SpanSummary {
                name: span.name,
                calls: 0,
                total_ns: 0,
                depth: span.depth,
                latency: HistogramSummary::default(),
                field_sums: Vec::new(),
            },
        });
        agg.first_start_ns = agg.first_start_ns.min(span.start_ns);
        agg.hist.record(span.duration_ns);
        let s = &mut agg.summary;
        s.calls += 1;
        s.total_ns = s.total_ns.saturating_add(span.duration_ns);
        s.depth = s.depth.min(span.depth);
        for field in &span.fields {
            if let FieldValue::U64(v) = field.value {
                let slot = agg.field_sums.entry(field.key).or_insert(0);
                *slot = slot.saturating_add(v);
            }
        }
    }
    let mut rows: Vec<Agg> = aggs.into_values().collect();
    rows.sort_by_key(|a| (a.first_start_ns, a.first_seen));
    rows.into_iter()
        .map(|a| SpanSummary {
            latency: a.hist.summary(),
            field_sums: a.field_sums.into_iter().collect(),
            ..a.summary
        })
        .collect()
}

/// The JSON object for one span (the flight record's span list).
pub(crate) fn span_to_json(span: &SpanRecord) -> Json {
    let mut fields = Json::obj();
    for f in &span.fields {
        fields = match &f.value {
            FieldValue::U64(v) => fields.set(f.key, *v),
            FieldValue::F64(v) => fields.set(f.key, *v),
            FieldValue::Bool(v) => fields.set(f.key, *v),
            FieldValue::Str(v) => fields.set(f.key, v.as_str()),
        };
    }
    Json::obj()
        .set("span", span.name)
        .set("start_ns", span.start_ns)
        .set("duration_ns", span.duration_ns)
        .set("depth", span.depth)
        .set("thread", span.thread)
        .set("fields", fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Field;

    fn record(name: &'static str, start_ns: u64, duration_ns: u64, n: Option<u64>) -> SpanRecord {
        SpanRecord {
            name,
            start_ns,
            duration_ns,
            depth: 0,
            thread: 0,
            fields: n
                .map(|v| Field {
                    key: "n",
                    value: FieldValue::U64(v),
                })
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn summaries_aggregate_per_name_in_start_order() {
        let spans = [
            record("b", 20, 50, None),
            record("a", 30, 100, Some(5)),
            record("a", 10, 300, Some(7)),
        ];
        let summary = summarize_spans(&spans);
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].name, "a", "a started first");
        assert_eq!(summary[0].calls, 2);
        assert_eq!(summary[0].total_ns, 400);
        assert_eq!(summary[0].field_sums, vec![("n", 12)]);
        assert_eq!(summary[0].latency.count, 2);
        assert_eq!(summary[1].name, "b");
        assert!(summarize_spans(&[]).is_empty());
    }

    #[test]
    fn span_json_round_trips() {
        let line = span_to_json(&record("exec.sweep", 0, 1234, Some(9))).render();
        let v = crate::parse_json(&line).unwrap();
        assert_eq!(v.get("span").unwrap().as_str(), Some("exec.sweep"));
        assert_eq!(v.get("duration_ns").unwrap().as_u64(), Some(1234));
        assert_eq!(v.get("fields").unwrap().get("n").unwrap().as_u64(), Some(9));
    }
}
