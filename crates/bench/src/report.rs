//! Machine-readable run reports: `harness --report out.json` writes one
//! JSON entry per experiment — wall time, per-span-name latency
//! summaries (count, total, p50/p95/p99), and any engine metric
//! snapshots the experiment submitted — so `BENCH_*.json` trajectories
//! can be produced and diffed across PRs.

use std::sync::Mutex;
use std::time::Instant;

use treequery_core::obs::{self, Json};

/// Engine metric snapshots submitted by the currently running
/// experiment (see [`submit_metrics`]); drained by the builder after
/// each experiment.
static SUBMITTED: Mutex<Vec<Json>> = Mutex::new(Vec::new());

/// Called by experiments that hold an `Engine`: attaches that engine's
/// counter snapshot (as JSON, via `MetricsSnapshot::to_json`) to the
/// current report entry. A no-op burden-wise when no report is being
/// built — the JSON is small and simply discarded at the next drain.
pub fn submit_metrics(label: &str, metrics: Json) {
    let entry = Json::obj().set("label", label).set("metrics", metrics);
    SUBMITTED.lock().expect("report sink poisoned").push(entry);
}

fn drain_submitted() -> Vec<Json> {
    std::mem::take(&mut *SUBMITTED.lock().expect("report sink poisoned"))
}

/// Accumulates per-experiment entries and writes the final report file.
#[derive(Default)]
pub struct ReportBuilder {
    entries: Vec<Json>,
}

impl ReportBuilder {
    /// A builder with no entries.
    pub fn new() -> Self {
        ReportBuilder::default()
    }

    /// Runs one experiment inside an observation capture and appends
    /// its entry: id, wall time, span summaries with latency
    /// percentiles, and the metric snapshots the experiment submitted.
    /// The capture covers the experiment's own thread and the pool
    /// workers acting for it.
    pub fn run(&mut self, id: &str, f: impl FnOnce()) {
        drain_submitted(); // stray submissions from unreported runs
        let started = Instant::now();
        let ((), captured) = obs::capture(f);
        let wall_ns = started.elapsed().as_nanos() as u64;
        let spans: Vec<Json> = captured.summary().iter().map(|s| s.to_json()).collect();
        self.entries.push(
            Json::obj()
                .set("id", id)
                .set("wall_ns", wall_ns)
                .set("spans", Json::Arr(spans))
                .set("metrics", Json::Arr(drain_submitted())),
        );
    }

    /// The whole report as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("schema", "treequery-bench-report/v1")
            .set("experiments", Json::Arr(self.entries.clone()))
    }

    /// Renders and writes the report.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().render() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treequery_core::{parse_term, Engine};

    /// The acceptance-criteria test: a report produced through the same
    /// path as `harness --report` is valid JSON (parsed back here) and
    /// carries timings, span percentiles, and metric snapshots.
    #[test]
    fn report_round_trips_through_the_parser() {
        let mut builder = ReportBuilder::new();
        builder.run("e00", || {
            let t = parse_term("r(a(b) a(c) b)").unwrap();
            let e = Engine::new(&t);
            e.xpath("//a[b]").unwrap();
            e.cq("q(x) :- label(x, a), child(x, y), label(y, b).")
                .unwrap();
            submit_metrics("e00", e.metrics().to_json());
        });
        let tmp = std::env::temp_dir().join("treequery_report_test.json");
        let path = tmp.to_str().unwrap();
        builder.write(path).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).ok();

        let report = obs::parse_json(&text).unwrap();
        assert_eq!(
            report.get("schema").unwrap().as_str(),
            Some("treequery-bench-report/v1")
        );
        let experiments = report.get("experiments").unwrap().as_arr().unwrap();
        assert_eq!(experiments.len(), 1);
        let entry = &experiments[0];
        assert_eq!(entry.get("id").unwrap().as_str(), Some("e00"));
        assert!(entry.get("wall_ns").unwrap().as_u64().is_some());
        // Per-span rows carry calls + latency percentiles.
        let spans = entry.get("spans").unwrap().as_arr().unwrap();
        let lower = spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some("pipeline.lower"))
            .expect("pipeline.lower span present");
        assert_eq!(lower.get("calls").unwrap().as_u64(), Some(2));
        for key in ["total_ns", "p50_ns", "p95_ns", "p99_ns", "max_ns"] {
            assert!(lower.get(key).unwrap().as_u64().is_some(), "{key}");
        }
        // The submitted engine snapshot rode along.
        let metrics = entry.get("metrics").unwrap().as_arr().unwrap();
        assert_eq!(metrics.len(), 1);
        let m = metrics[0].get("metrics").unwrap();
        assert_eq!(m.get("queries_executed").unwrap().as_u64(), Some(2));
        assert_eq!(m.get("semijoin_passes").unwrap().as_u64(), Some(6));
    }
}
