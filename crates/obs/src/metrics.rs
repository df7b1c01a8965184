//! A typed metrics registry: monotonic counters, gauges, and labeled
//! histogram families over the span layer's 64-bucket
//! [`LatencyHistogram`].
//!
//! A [`Registry`] owns named instruments, hands out cheap cloneable
//! handles ([`Counter`], [`Gauge`], [`HistogramFamily`]), and
//! [`gather`](Registry::gather)s a point-in-time list of
//! [`MetricSnapshot`]s. Components that keep their own state (the
//! engine's counter block, the SLO tracker) build the same snapshot
//! type at scrape time instead of mirroring it into a registry; the
//! query service concatenates every source into one list and renders it
//! with `obs::prom::render_snapshots` (its `/metrics` endpoint and
//! `metrics` verb).
//!
//! Names must match the Prometheus charset
//! (`[a-zA-Z_:][a-zA-Z0-9_:]*`); registration panics otherwise, so a bad
//! name fails the first test that touches it rather than a scrape.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::LatencyHistogram;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One labeled histogram inside a family.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<Mutex<LatencyHistogram>>);

impl Histogram {
    /// Records one observation (nanoseconds, bytes — any non-negative
    /// quantity; buckets are powers of two).
    pub fn observe(&self, value: u64) {
        self.0.lock().expect("histogram poisoned").record(value);
    }

    /// A copy of the underlying histogram.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.0.lock().expect("histogram poisoned").clone()
    }
}

/// A family of counters distinguished by one label's values — the shape
/// the query service uses for per-verb request counts and per-code error
/// counts (`treequery_serve_requests{verb="query"}`, …). Cells are
/// created on first use and render as one sample line per label value.
#[derive(Clone, Debug)]
pub struct CounterFamily {
    label: &'static str,
    cells: Arc<Mutex<BTreeMap<String, Counter>>>,
}

impl CounterFamily {
    /// The counter for one label value, created on first use.
    pub fn with_label(&self, value: &str) -> Counter {
        let mut cells = self.cells.lock().expect("counter family poisoned");
        cells.entry(value.to_owned()).or_default().clone()
    }

    /// The label name.
    pub fn label_name(&self) -> &'static str {
        self.label
    }
}

/// A family of histograms distinguished by label values (one label name,
/// the common case: `stage`, `strategy`, …).
#[derive(Clone, Debug)]
pub struct HistogramFamily {
    label: &'static str,
    cells: Arc<Mutex<BTreeMap<String, Histogram>>>,
}

impl HistogramFamily {
    /// The histogram for one label value, created on first use.
    pub fn with_label(&self, value: &str) -> Histogram {
        let mut cells = self.cells.lock().expect("histogram family poisoned");
        cells
            .entry(value.to_owned())
            .or_insert_with(|| Histogram(Arc::new(Mutex::new(LatencyHistogram::new()))))
            .clone()
    }

    /// The label name.
    pub fn label_name(&self) -> &'static str {
        self.label
    }
}

/// What one instrument looks like at gather time.
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(i64),
    /// `(label value, count)` rows of a counter family, label-sorted.
    Counters(&'static str, Vec<(String, u64)>),
    /// `(label value, value)` rows of gauges keyed by one label, built at
    /// scrape time (the SLO gauges), label-sorted.
    Gauges(&'static str, Vec<(String, i64)>),
    /// `(label value, histogram)` rows of a family, label-sorted.
    Histograms(&'static str, Vec<(String, LatencyHistogram)>),
}

/// A gathered instrument: name, help text, value.
#[derive(Clone, Debug)]
pub struct MetricSnapshot {
    /// The metric name (Prometheus charset).
    pub name: &'static str,
    /// The help text (rendered as `# HELP`).
    pub help: &'static str,
    /// The value(s).
    pub value: MetricValue,
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    CounterFamily(CounterFamily),
    Family(HistogramFamily),
}

struct Registered {
    name: &'static str,
    help: &'static str,
    instrument: Instrument,
}

/// A collection of named instruments. Each owner constructs its own: the
/// query service one per server, the flight recorder one per install.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<Vec<Registered>>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(&self, name: &'static str, help: &'static str, instrument: Instrument) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        assert!(
            metrics.iter().all(|m| m.name != name),
            "metric {name:?} registered twice"
        );
        metrics.push(Registered {
            name,
            help,
            instrument,
        });
    }

    /// Registers and returns a counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        let c = Counter::default();
        self.register(name, help, Instrument::Counter(c.clone()));
        c
    }

    /// Registers and returns a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        let g = Gauge::default();
        self.register(name, help, Instrument::Gauge(g.clone()));
        g
    }

    /// Registers and returns a counter family keyed by one label.
    pub fn counter_family(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
    ) -> CounterFamily {
        assert!(valid_name(label), "invalid label name {label:?}");
        let f = CounterFamily {
            label,
            cells: Arc::new(Mutex::new(BTreeMap::new())),
        };
        self.register(name, help, Instrument::CounterFamily(f.clone()));
        f
    }

    /// Registers and returns a histogram family keyed by one label.
    pub fn histogram_family(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
    ) -> HistogramFamily {
        assert!(valid_name(label), "invalid label name {label:?}");
        let f = HistogramFamily {
            label,
            cells: Arc::new(Mutex::new(BTreeMap::new())),
        };
        self.register(name, help, Instrument::Family(f.clone()));
        f
    }

    /// A point-in-time snapshot of every instrument, in registration
    /// order (the order the exposition renders in).
    pub fn gather(&self) -> Vec<MetricSnapshot> {
        let metrics = self.metrics.lock().expect("registry poisoned");
        metrics
            .iter()
            .map(|m| MetricSnapshot {
                name: m.name,
                help: m.help,
                value: match &m.instrument {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::CounterFamily(f) => {
                        let cells = f.cells.lock().expect("counter family poisoned");
                        MetricValue::Counters(
                            f.label,
                            cells.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
                        )
                    }
                    Instrument::Family(f) => {
                        let cells = f.cells.lock().expect("histogram family poisoned");
                        MetricValue::Histograms(
                            f.label,
                            cells
                                .iter()
                                .map(|(k, v)| (k.clone(), v.snapshot()))
                                .collect(),
                        )
                    }
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_and_move() {
        let r = Registry::new();
        let c = r.counter("test_total", "a counter");
        let g = r.gauge("test_live", "a gauge");
        c.inc();
        c.add(4);
        g.set(10);
        g.add(-3);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 7);
        let snap = r.gather();
        assert_eq!(snap.len(), 2);
        assert!(matches!(snap[0].value, MetricValue::Counter(5)));
        assert!(matches!(snap[1].value, MetricValue::Gauge(7)));
    }

    #[test]
    fn histogram_families_key_by_label_value() {
        let r = Registry::new();
        let f = r.histogram_family("test_latency_ns", "stage latency", "stage");
        f.with_label("exec.run").observe(100);
        f.with_label("exec.run").observe(200);
        f.with_label("exec.sweep").observe(50);
        let snap = r.gather();
        let MetricValue::Histograms(label, rows) = &snap[0].value else {
            panic!("expected histograms");
        };
        assert_eq!(*label, "stage");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "exec.run");
        assert_eq!(rows[0].1.count(), 2);
        assert_eq!(rows[1].1.count(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_rejected() {
        Registry::new().counter("bad-name", "dashes are not prometheus");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_are_rejected() {
        let r = Registry::new();
        r.counter("dup_total", "");
        r.counter("dup_total", "");
    }
}
