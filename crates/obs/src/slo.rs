//! Per-cost-class latency SLOs with multi-window burn-rate tracking.
//!
//! The paper's fragment taxonomy (Gottlob–Koch–Schulz) gives every plan
//! a complexity band — `O(|D|·|Q|)` core, output-sensitive enumeration,
//! polynomial fixpoints, exponential backtracking — and the query
//! service admits by that band. The natural latency promise is therefore
//! *per cost class*: "linear plans answer in 50 ms" is a contract the
//! theory says the engine can keep, while a single global objective
//! would let exponential stragglers mask a broken fast lane.
//!
//! [`SloTracker`] keeps, per class, two sliding windows of good/bad
//! counts (an observation is *good* when its latency is at or under the
//! class threshold): a **fast** window (default 1 min) that reacts
//! quickly, and a **slow** window (default 1 hour) that filters blips.
//! Each window reports attainment and a **burn rate** — how fast the
//! error budget is being consumed, `(1 - attainment) / (1 - target)` —
//! and a class is *breached* only when **both** windows burn faster than
//! budget (the standard multi-window alert: the fast window alone pages
//! on noise, the slow window alone pages an hour late).
//!
//! All integer math, scaled to parts-per-million (`ppm`): a burn of
//! 1 000 000 ppm means "consuming budget exactly as fast as allowed".
//! Time comes from an injectable [`SloClock`], so goldens pin exact
//! window contents with a [`ManualClock`] instead of sleeping.
//!
//! Windows are rings of [`BUCKETS`] epoch-tagged buckets. A bucket's
//! slot is `epoch % BUCKETS`; a slot holding a stale epoch is reset on
//! write and skipped on read, so expiry costs nothing until the slot is
//! reused — the same ticket-style invariant as the flight recorder's
//! rings.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::{MetricSnapshot, MetricValue};
use crate::Json;

/// The time source for window bucketing. Injectable so tests drive the
/// windows deterministically.
pub trait SloClock: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
}

/// The production clock: monotonic nanoseconds since construction.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock starting at zero now.
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> MonotonicClock {
        MonotonicClock::new()
    }
}

impl SloClock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A hand-cranked clock for deterministic tests.
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// A clock reading `start_ns`.
    pub fn new(start_ns: u64) -> ManualClock {
        ManualClock(AtomicU64::new(start_ns))
    }

    /// Moves the clock forward by `ns`.
    pub fn advance(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::Relaxed);
    }
}

impl SloClock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One latency objective: queries of `class` should finish within
/// `threshold_ns`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Objective {
    /// The cost-class key (`linear`, `output_sensitive`, `polynomial`,
    /// `exponential`).
    pub class: String,
    /// The latency threshold separating good from bad observations.
    pub threshold_ns: u64,
}

/// Tracker configuration: the objectives, the attainment target, and the
/// two window spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloConfig {
    /// One objective per cost class.
    pub objectives: Vec<Objective>,
    /// Target attainment in parts-per-million (990 000 = 99 %).
    pub target_ppm: u32,
    /// The reactive window (default 1 minute).
    pub fast_window: Duration,
    /// The smoothing window (default 1 hour).
    pub slow_window: Duration,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            objectives: Vec::new(),
            target_ppm: 990_000,
            fast_window: Duration::from_secs(60),
            slow_window: Duration::from_secs(3600),
        }
    }
}

/// Buckets per sliding window.
pub const BUCKETS: u64 = 60;

/// Burn rate scale: this many ppm = burning budget exactly at the
/// allowed rate.
pub const BURN_UNIT_PPM: u64 = 1_000_000;

#[derive(Clone, Copy, Debug, Default)]
struct Bucket {
    epoch: u64,
    good: u64,
    bad: u64,
}

#[derive(Debug)]
struct Window {
    /// Width of one bucket in nanoseconds (window span / BUCKETS).
    width_ns: u64,
    buckets: [Bucket; BUCKETS as usize],
}

impl Window {
    fn new(span: Duration) -> Window {
        Window {
            width_ns: ((span.as_nanos() as u64) / BUCKETS).max(1),
            buckets: [Bucket::default(); BUCKETS as usize],
        }
    }

    fn observe(&mut self, now_ns: u64, good: bool) {
        let epoch = now_ns / self.width_ns;
        let b = &mut self.buckets[(epoch % BUCKETS) as usize];
        if b.epoch != epoch {
            *b = Bucket {
                epoch,
                good: 0,
                bad: 0,
            };
        }
        if good {
            b.good += 1;
        } else {
            b.bad += 1;
        }
    }

    /// `(good, bad)` totals over buckets still inside the window.
    /// Distinct epochs sharing a slot differ by multiples of `BUCKETS`,
    /// so `epoch + BUCKETS > current` is exactly "not stale".
    fn totals(&self, now_ns: u64) -> (u64, u64) {
        let current = now_ns / self.width_ns;
        let mut good = 0;
        let mut bad = 0;
        for b in &self.buckets {
            if b.epoch + BUCKETS > current && b.epoch <= current && (b.good | b.bad) != 0 {
                good += b.good;
                bad += b.bad;
            }
        }
        (good, bad)
    }
}

#[derive(Debug)]
struct ClassState {
    threshold_ns: u64,
    fast: Window,
    slow: Window,
}

/// One window's report: raw counts, attainment, and burn rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowReport {
    /// Observations at or under the threshold.
    pub good: u64,
    /// Observations over the threshold.
    pub bad: u64,
    /// `good / (good + bad)` in ppm; 1 000 000 for an empty window (no
    /// traffic is not a violation).
    pub attainment_ppm: u64,
    /// Budget-consumption rate in ppm of the allowed rate (see
    /// [`BURN_UNIT_PPM`]).
    pub burn_ppm: u64,
}

/// One class's report across both windows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloReport {
    /// The cost-class key.
    pub class: String,
    /// The objective threshold.
    pub threshold_ns: u64,
    /// The reactive window.
    pub fast: WindowReport,
    /// The smoothing window.
    pub slow: WindowReport,
    /// Both windows burning over budget.
    pub breached: bool,
}

/// The tracker: owns per-class window state behind one mutex (observe is
/// a few adds; queries hold it for microseconds).
pub struct SloTracker {
    target_ppm: u32,
    clock: Arc<dyn SloClock>,
    classes: Mutex<BTreeMap<String, ClassState>>,
}

impl SloTracker {
    /// A tracker over `config`'s objectives, reading `clock`.
    pub fn new(config: SloConfig, clock: Arc<dyn SloClock>) -> SloTracker {
        let classes = config
            .objectives
            .iter()
            .map(|o| {
                (
                    o.class.clone(),
                    ClassState {
                        threshold_ns: o.threshold_ns,
                        fast: Window::new(config.fast_window),
                        slow: Window::new(config.slow_window),
                    },
                )
            })
            .collect();
        SloTracker {
            target_ppm: config.target_ppm.min(1_000_000),
            clock,
            classes: Mutex::new(classes),
        }
    }

    /// The attainment target in ppm.
    pub fn target_ppm(&self) -> u32 {
        self.target_ppm
    }

    /// Records one observation for `class`. Classes without an objective
    /// are ignored — an SLO is a promise you chose to make, not a
    /// property of every query.
    pub fn observe(&self, class: &str, latency_ns: u64) {
        let now = self.clock.now_ns();
        let mut classes = self.classes.lock().expect("slo tracker poisoned");
        if let Some(state) = classes.get_mut(class) {
            let good = latency_ns <= state.threshold_ns;
            state.fast.observe(now, good);
            state.slow.observe(now, good);
        }
    }

    fn window_report(&self, w: &Window, now: u64) -> WindowReport {
        let (good, bad) = w.totals(now);
        // An empty window attains vacuously.
        let attainment_ppm = (good * 1_000_000)
            .checked_div(good + bad)
            .unwrap_or(1_000_000);
        let bad_ppm = 1_000_000 - attainment_ppm;
        let budget_ppm = (1_000_000 - self.target_ppm as u64).max(1);
        WindowReport {
            good,
            bad,
            attainment_ppm,
            burn_ppm: bad_ppm * BURN_UNIT_PPM / budget_ppm,
        }
    }

    /// A report per class, class-key-sorted.
    pub fn report(&self) -> Vec<SloReport> {
        let now = self.clock.now_ns();
        let classes = self.classes.lock().expect("slo tracker poisoned");
        classes
            .iter()
            .map(|(class, state)| {
                let fast = self.window_report(&state.fast, now);
                let slow = self.window_report(&state.slow, now);
                SloReport {
                    class: class.clone(),
                    threshold_ns: state.threshold_ns,
                    breached: fast.burn_ppm >= BURN_UNIT_PPM && slow.burn_ppm >= BURN_UNIT_PPM,
                    fast,
                    slow,
                }
            })
            .collect()
    }

    /// The report as JSON (the `slo` wire verb's `classes` field).
    pub fn to_json(&self) -> Json {
        fn window_json(w: &WindowReport) -> Json {
            Json::obj()
                .set("good", w.good)
                .set("bad", w.bad)
                .set("attainment_ppm", w.attainment_ppm)
                .set("burn_ppm", w.burn_ppm)
        }
        Json::Arr(
            self.report()
                .iter()
                .map(|r| {
                    Json::obj()
                        .set("class", r.class.as_str())
                        .set("threshold_ms", r.threshold_ns / 1_000_000)
                        .set("fast", window_json(&r.fast))
                        .set("slow", window_json(&r.slow))
                        .set("breached", r.breached)
                })
                .collect(),
        )
    }

    /// The current report as five class-labeled gauge families
    /// (`treequery_slo_*`), built at scrape time.
    pub fn samples(&self) -> Vec<MetricSnapshot> {
        let report = self.report();
        let family = |name, help, value: fn(&SloReport) -> u64| MetricSnapshot {
            name,
            help,
            value: MetricValue::Gauges(
                "class",
                report
                    .iter()
                    .map(|r| (r.class.clone(), value(r) as i64))
                    .collect(),
            ),
        };
        vec![
            family(
                "treequery_slo_fast_attainment_ppm",
                "Fast-window SLO attainment per cost class, parts-per-million.",
                |r| r.fast.attainment_ppm,
            ),
            family(
                "treequery_slo_slow_attainment_ppm",
                "Slow-window SLO attainment per cost class, parts-per-million.",
                |r| r.slow.attainment_ppm,
            ),
            family(
                "treequery_slo_fast_burn_ppm",
                "Fast-window error-budget burn rate per cost class (1000000 = at budget).",
                |r| r.fast.burn_ppm,
            ),
            family(
                "treequery_slo_slow_burn_ppm",
                "Slow-window error-budget burn rate per cost class (1000000 = at budget).",
                |r| r.slow.burn_ppm,
            ),
            family(
                "treequery_slo_breached",
                "Whether both burn-rate windows are over budget (1 = breached).",
                |r| r.breached as u64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;
    const SEC: u64 = 1_000_000_000;

    fn tracker(clock: Arc<ManualClock>) -> SloTracker {
        SloTracker::new(
            SloConfig {
                objectives: vec![
                    Objective {
                        class: "linear".into(),
                        threshold_ns: 50 * MS,
                    },
                    Objective {
                        class: "exponential".into(),
                        threshold_ns: 2000 * MS,
                    },
                ],
                ..SloConfig::default()
            },
            clock,
        )
    }

    #[test]
    fn empty_windows_attain_fully_and_burn_nothing() {
        let t = tracker(Arc::new(ManualClock::new(0)));
        let report = t.report();
        assert_eq!(report.len(), 2);
        for r in &report {
            assert_eq!(r.fast.attainment_ppm, 1_000_000);
            assert_eq!(r.fast.burn_ppm, 0);
            assert!(!r.breached);
        }
    }

    /// The deterministic golden for the burn-rate math: 9 good + 1 bad
    /// at a 99 % target (1 % budget) is 90 % attainment — a 10 %
    /// bad-fraction burning the budget at 10× (10 000 000 ppm).
    #[test]
    fn burn_rate_golden_under_the_manual_clock() {
        let clock = Arc::new(ManualClock::new(5 * SEC));
        let t = tracker(Arc::clone(&clock));
        for _ in 0..9 {
            t.observe("linear", 10 * MS); // good: under 50 ms
        }
        t.observe("linear", 80 * MS); // bad: over 50 ms
        let report = t.report();
        let linear = report.iter().find(|r| r.class == "linear").unwrap();
        assert_eq!((linear.fast.good, linear.fast.bad), (9, 1));
        assert_eq!(linear.fast.attainment_ppm, 900_000);
        assert_eq!(linear.fast.burn_ppm, 10_000_000);
        assert_eq!((linear.slow.good, linear.slow.bad), (9, 1));
        assert!(linear.breached, "10x burn in both windows breaches");
        // The untouched class is clean.
        let exp = report.iter().find(|r| r.class == "exponential").unwrap();
        assert_eq!(exp.fast.attainment_ppm, 1_000_000);
        assert!(!exp.breached);

        // And the full JSON golden, byte-pinned (BTreeMap order:
        // exponential before linear).
        let json = t.to_json().render();
        assert_eq!(
            json,
            "[{\"class\":\"exponential\",\"threshold_ms\":2000,\
\"fast\":{\"good\":0,\"bad\":0,\"attainment_ppm\":1000000,\"burn_ppm\":0},\
\"slow\":{\"good\":0,\"bad\":0,\"attainment_ppm\":1000000,\"burn_ppm\":0},\
\"breached\":false},\
{\"class\":\"linear\",\"threshold_ms\":50,\
\"fast\":{\"good\":9,\"bad\":1,\"attainment_ppm\":900000,\"burn_ppm\":10000000},\
\"slow\":{\"good\":9,\"bad\":1,\"attainment_ppm\":900000,\"burn_ppm\":10000000},\
\"breached\":true}]"
        );
    }

    #[test]
    fn fast_window_forgets_while_slow_window_remembers() {
        let clock = Arc::new(ManualClock::new(0));
        let t = tracker(Arc::clone(&clock));
        t.observe("linear", 500 * MS); // bad
                                       // 2 minutes later the bad observation has left the 1-minute
                                       // window but still sits in the 1-hour one.
        clock.advance(120 * SEC);
        t.observe("linear", MS); // good
        let report = t.report();
        let linear = report.iter().find(|r| r.class == "linear").unwrap();
        assert_eq!((linear.fast.good, linear.fast.bad), (1, 0));
        assert_eq!((linear.slow.good, linear.slow.bad), (1, 1));
        assert_eq!(linear.fast.burn_ppm, 0);
        assert_eq!(linear.slow.attainment_ppm, 500_000);
        assert!(!linear.breached, "fast window recovered: no breach");
        // Another hour and the slow window forgets too.
        clock.advance(3600 * SEC);
        let report = t.report();
        let linear = report.iter().find(|r| r.class == "linear").unwrap();
        assert_eq!((linear.slow.good, linear.slow.bad), (0, 0));
    }

    #[test]
    fn bucket_slots_are_reused_without_resurrecting_old_epochs() {
        let clock = Arc::new(ManualClock::new(0));
        let t = tracker(Arc::clone(&clock));
        // Fast window bucket width is 1s (60s / 60). Observing 61s apart
        // lands in the same slot with different epochs.
        t.observe("linear", MS);
        clock.advance(61 * SEC);
        t.observe("linear", MS);
        let report = t.report();
        let linear = report.iter().find(|r| r.class == "linear").unwrap();
        assert_eq!(
            (linear.fast.good, linear.fast.bad),
            (1, 0),
            "the first observation's epoch was overwritten, not added"
        );
    }

    #[test]
    fn unknown_classes_are_ignored() {
        let t = tracker(Arc::new(ManualClock::new(0)));
        t.observe("quantum", 1);
        assert_eq!(t.report().len(), 2);
    }

    #[test]
    fn samples_expose_class_labeled_gauges() {
        let clock = Arc::new(ManualClock::new(0));
        let t = tracker(Arc::clone(&clock));
        for _ in 0..9 {
            t.observe("linear", MS);
        }
        t.observe("linear", 500 * MS);
        let text = crate::prom::render_snapshots(&t.samples());
        assert!(
            text.contains("treequery_slo_fast_attainment_ppm{class=\"linear\"} 900000\n"),
            "{text}"
        );
        assert!(
            text.contains("treequery_slo_fast_burn_ppm{class=\"linear\"} 10000000\n"),
            "{text}"
        );
        assert!(
            text.contains("treequery_slo_breached{class=\"linear\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("treequery_slo_breached{class=\"exponential\"} 0\n"),
            "{text}"
        );
        crate::prom::validate_exposition(&text).expect("slo exposition validates");
    }
}
