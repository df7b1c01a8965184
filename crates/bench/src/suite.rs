//! The pinned benchmark suite behind `harness bench`: the continuous
//! performance trajectory.
//!
//! One representative query per executor strategy × {small, large}
//! XMark-like documents × {1, 4} workers, each measured for wall time
//! (p50 over the reps), allocations, bytes, and peak-live bytes under
//! the counting allocator. The result is a deterministic-schema JSON
//! report (`BENCH_<git-sha>.json`); [`compare_reports`] is the CI gate
//! that diffs a fresh run against the committed baseline and flags
//! regressions above 15% wall or 5% bytes. Set-at-a-time sweep cases
//! additionally carry a `kernel_allocs` count (steady-state allocations
//! attributed to the kernel's `AllocScope`) that is hard-capped at zero.
//!
//! The suite is *pinned*: documents come from fixed seeds, queries are
//! fixed strings, and strategies are forced (an `ExplainedPlan::forced`
//! plan handed to `Engine::run`) so planner changes do not silently move
//! a case to a different executor. [`build_suite`] self-checks that every
//! strategy stays covered.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use treequery_core::obs::alloc::AccountingGuard;
use treequery_core::obs::{capture, summarize_spans, Json};
use treequery_core::plan::{applicable_strategies, lower, Strategy};
use treequery_core::tree::{xmark_document, XmarkConfig};
use treequery_core::{Engine, ExplainedPlan, Query, Tree};

/// Schema tag of the emitted report.
pub const SCHEMA: &str = "treequery-bench-trajectory/v1";

/// Wall-time regression threshold for [`compare_reports`] (+15%).
pub const WALL_RATIO_LIMIT: f64 = 1.15;
/// Allocated-bytes regression threshold for [`compare_reports`] (+5%).
/// Tightened from +10% once the executor kernels went zero-alloc in
/// steady state: byte counts are now deterministic enough to ratchet.
pub const BYTES_RATIO_LIMIT: f64 = 1.05;
/// Incremental re-query budget: on each document size, one edit plus a
/// watched re-read must cost less than this fraction of rebuilding the
/// model from scratch. Checked within the *current* run (both sides
/// share any machine noise), so it is a hard cap, not a ratio against
/// the baseline.
pub const INCREMENTAL_WALL_RATIO: f64 = 0.30;
/// The incremental cap only applies when the rebuild side takes at
/// least this long: below it (toy documents, debug builds) the ratio is
/// dominated by fixed per-edit overhead, not asymptotics. Matches
/// [`WALL_FLOOR_NS`]; at the production sizes the large-document
/// rebuild sits well above it.
pub const INCREMENTAL_REBUILD_FLOOR_NS: u64 = WALL_FLOOR_NS;
/// Documents below this size skip the requery pair entirely: on toy
/// trees (debug test runs) both sides are dominated by fixed per-edit
/// overhead and the ratio is noise-bound under parallel test load.
pub const REQUERY_MIN_NODES: usize = 300;
/// Baseline cases faster than this are excluded from the *wall* check —
/// below a couple hundred microseconds, scheduler noise swamps any real
/// signal. The byte counts of such cases are still compared (they are
/// deterministic).
pub const WALL_FLOOR_NS: u64 = 150_000;

/// One pinned case: a strategy forced over a fixed query/document/worker
/// combination.
#[derive(Clone, Debug)]
pub struct BenchCase {
    /// Stable identifier (`<strategy>/<doc>/w<workers>`), the join key
    /// for baseline comparison.
    pub id: String,
    /// The forced executor strategy.
    pub strategy: Strategy,
    /// The query text (parsed per run).
    pub query: Query,
    /// Which pinned document: `"small"` or `"large"`.
    pub doc: &'static str,
    /// Worker count forced on the executor.
    pub workers: usize,
}

/// The candidate queries the suite draws from; each strategy binds to
/// the first candidate it applies to.
fn candidates() -> Vec<Query> {
    vec![
        Query::xpath("//person/name"),
        Query::cq("q(x) :- label(x, person), child(x, y), label(y, name)."),
        Query::cq("child+(x, y), child+(y, z), child+(x, z)"),
        Query::datalog(
            "P(x) :- label(x, name). \
             P(x0) :- firstchild(x0, x), P(x). \
             P(x0) :- nextsibling(x0, x), P(x). \
             ?- P.",
        ),
    ]
}

fn strategy_slug(s: Strategy) -> String {
    s.to_string()
}

/// The executor stage (`AllocScope` name) that wraps a strategy's kernel
/// call, for attributed steady-state allocation measurement. The
/// reference evaluator has no kernel scope.
fn kernel_stage(s: Strategy) -> Option<&'static str> {
    match s {
        Strategy::XPathSetAtATime => Some("exec.sweep"),
        Strategy::XPathViaDatalog | Strategy::DatalogGround => Some("exec.ground_minoux"),
        Strategy::XPathViaAcyclicCq | Strategy::CqAcyclic => Some("exec.semijoin"),
        Strategy::CqRewriteUnion(_) => Some("exec.union"),
        Strategy::CqXProperty(_) => Some("exec.arc_consistency"),
        Strategy::CqBacktrack => Some("exec.backtrack"),
        Strategy::XPathReference => None,
    }
}

/// Builds the pinned case list. Panics if any executor strategy lost
/// coverage — the suite must keep tracking every strategy as the
/// planner evolves.
pub fn build_suite() -> Vec<BenchCase> {
    let queries = candidates();
    // Pair every strategy with the first candidate query it applies to.
    let mut chosen: Vec<(Strategy, Query)> = Vec::new();
    for q in &queries {
        let ir = lower(q).expect("pinned suite queries lower");
        for s in applicable_strategies(&ir) {
            if !chosen
                .iter()
                .any(|(have, _)| std::mem::discriminant(have) == std::mem::discriminant(&s))
            {
                chosen.push((s, q.clone()));
            }
        }
    }
    const EXPECTED: usize = 9;
    assert_eq!(
        chosen.len(),
        EXPECTED,
        "pinned suite lost strategy coverage; have: {:?}",
        chosen
            .iter()
            .map(|(s, _)| s.to_string())
            .collect::<Vec<_>>()
    );
    let mut cases = Vec::new();
    for (strategy, query) in chosen {
        // The reference evaluator is the quadratic oracle; it exists for
        // differential checks, not speed, so it is tracked only on the
        // small document at one worker.
        let docs: &[&str] = if strategy == Strategy::XPathReference {
            &["small"]
        } else {
            &["small", "large"]
        };
        let workers: &[usize] = if strategy == Strategy::XPathReference {
            &[1]
        } else {
            &[1, 4]
        };
        for doc in docs {
            for &w in workers {
                cases.push(BenchCase {
                    id: format!("{}/{doc}/w{w}", strategy_slug(strategy)),
                    strategy,
                    query: query.clone(),
                    doc,
                    workers: w,
                });
            }
        }
    }
    cases
}

fn pinned_doc(nodes: usize) -> Tree {
    let mut rng = StdRng::seed_from_u64(0xBE9C);
    xmark_document(&mut rng, &XmarkConfig::scaled_to(nodes))
}

/// A fixed CPU-and-memory-bound workload (Horn-SAT solving, min of 5
/// runs) measured in the same process as the suite. Baseline comparison
/// scales wall times by the ratio of calibrations, so a machine that is
/// globally 40% slower today (noisy neighbors, frequency scaling) does
/// not read as 33 wall regressions.
pub fn calibration_ns() -> u64 {
    let formula = crate::experiments::e15_hornsat::random_formula(60_000, 7);
    min_solve_ns(&formula, 5)
}

/// The fastest of `runs` solves of `formula`. Timed inside a capture so
/// that, while the suite holds accounting on, every allocation pays the
/// same charging the measured cases pay.
fn min_solve_ns(formula: &treequery_core::hornsat::HornFormula, runs: usize) -> u64 {
    let (best, _) = capture(|| {
        let mut best = u64::MAX;
        for _ in 0..runs {
            let started = Instant::now();
            std::hint::black_box(formula.solve().num_true());
            best = best.min(started.elapsed().as_nanos() as u64);
        }
        best
    });
    best
}

/// A short calibration probe run immediately before each case, so every
/// case carries a measurement of how fast the machine was *right then*.
/// Noisy-neighbor phases last seconds — long enough to span a whole case
/// but not the probe-to-case gap — so the per-case ratio corrects what a
/// single whole-run calibration cannot.
struct Probe(treequery_core::hornsat::HornFormula);

impl Probe {
    fn new() -> Probe {
        Probe(crate::experiments::e15_hornsat::random_formula(20_000, 7))
    }

    fn measure(&self) -> u64 {
        min_solve_ns(&self.0, 3)
    }
}

/// Runs the pinned suite at the production document sizes (500 / 5000
/// nodes).
pub fn run_suite(reps: usize) -> Json {
    run_suite_with(500, 5_000, reps)
}

/// Runs the pinned suite with explicit document sizes (tests use small
/// ones to stay fast; the emitted schema is identical).
pub fn run_suite_with(small_nodes: usize, large_nodes: usize, reps: usize) -> Json {
    let reps = reps.max(1);
    let small = pinned_doc(small_nodes);
    let large = pinned_doc(large_nodes);
    let engine_small = Engine::new(&small);
    let engine_large = Engine::new(&large);
    let _accounting = AccountingGuard::begin();

    let probe = Probe::new();
    let mut cases = Vec::new();
    for case in build_suite() {
        let engine = match case.doc {
            "small" => &engine_small,
            _ => &engine_large,
        };
        let probe_ns = probe.measure();
        let ir = lower(&case.query).expect("pinned suite queries lower");
        // Each run builds its forced plan, so a rep does the same work
        // (and allocations) the committed baseline measured. Hoisting the
        // plan out of the reps moved `cq/backtrack/large` by ~10%.
        let forced = || ExplainedPlan::forced(&ir, case.strategy, case.workers);
        // Warm up once outside the measured reps (first-touch effects:
        // lazy pool spawn, allocator warmup).
        let warm = engine
            .run(&ir, &forced())
            .expect("pinned suite cases execute");
        let output_rows = match &warm {
            treequery_core::QueryOutput::Nodes(v) => v.len() as u64,
            treequery_core::QueryOutput::Answer(a) => a.tuples.len() as u64,
        };

        // Exact samples, not the power-of-two histogram: bucket-quantized
        // percentiles jump ~2x whenever a case straddles a bucket edge,
        // which would wreck baseline comparison.
        let mut wall: Vec<u64> = Vec::with_capacity(reps);
        let (mut allocs, mut bytes, mut peak) = (u64::MAX, u64::MAX, u64::MAX);
        // Microsecond-scale cases are repped until a wall-clock floor
        // (they are nearly free, and their percentiles need the extra
        // samples to ride out scheduler noise); expensive cases run the
        // configured rep count. Test runs (tiny rep counts) stay exact.
        let time_floor = if reps >= 5 {
            std::time::Duration::from_millis(20)
        } else {
            std::time::Duration::ZERO
        };
        let mut spans = Vec::new();
        let case_started = Instant::now();
        while wall.len() < reps || (case_started.elapsed() < time_floor && wall.len() < 400) {
            let ((out, elapsed), captured) = capture(|| {
                let started = Instant::now();
                let out = engine
                    .run(&ir, &forced())
                    .expect("pinned suite cases execute");
                (out, started.elapsed())
            });
            wall.push(elapsed.as_nanos() as u64);
            // Min over reps: the steady-state cost, immune to one-off
            // noise (a stray lazy init, an OS hiccup mid-rep).
            allocs = allocs.min(captured.alloc.allocs);
            bytes = bytes.min(captured.alloc.bytes);
            peak = peak.min(captured.alloc.peak_live);
            spans.extend(captured.spans);
            drop(out);
        }
        wall.sort_unstable();
        let wall_p50 = wall[wall.len() / 2];
        let wall_p95 = wall[(wall.len() * 95 / 100).min(wall.len() - 1)];
        let spans: Vec<Json> = summarize_spans(&spans)
            .iter()
            .map(|s| s.to_json())
            .collect();
        // Steady-state kernel allocations, attributed to the executor
        // stage's `AllocScope`. A few warm reps first so every pool
        // worker has touched its scratch before the measured rep.
        let kernel_allocs = kernel_stage(case.strategy).map(|stage| {
            for _ in 0..5 {
                drop(
                    engine
                        .run(&ir, &forced())
                        .expect("pinned suite cases execute"),
                );
            }
            let (out, captured) = capture(|| engine.run(&ir, &forced()));
            drop(out.expect("pinned suite cases execute"));
            captured.scope(stage).map_or(0, |s| s.allocs)
        });
        let mut case_json = Json::obj()
            .set("id", case.id.as_str())
            .set("strategy", strategy_slug(case.strategy))
            .set("query", case.query.text())
            .set("doc", case.doc)
            .set("workers", case.workers as u64)
            .set("reps", wall.len() as u64)
            .set("output_rows", output_rows)
            .set("wall_p50_ns", wall_p50)
            .set("wall_p95_ns", wall_p95)
            .set("wall_min_ns", wall[0])
            .set("probe_ns", probe_ns)
            .set("allocs", allocs)
            .set("bytes", bytes)
            .set("peak_live_bytes", peak)
            .set("spans", Json::Arr(spans));
        if let Some(k) = kernel_allocs {
            case_json = case_json.set("kernel_allocs", k);
        }
        cases.push(case_json);
    }
    for (doc, nodes) in [("small", small_nodes), ("large", large_nodes)] {
        if nodes >= REQUERY_MIN_NODES {
            for case in edit_requery_cases(doc, nodes, reps, &probe) {
                cases.push(case);
            }
        }
    }
    Json::obj()
        .set("schema", SCHEMA)
        .set("git_sha", git_sha())
        .set("small_nodes", small_nodes as u64)
        .set("large_nodes", large_nodes as u64)
        .set("calibration_ns", calibration_ns())
        .set("cases", Json::Arr(cases))
}

/// The incremental-vs-rebuild pair for one pinned document size: one
/// relabel edit plus a watched re-query on a live [`Document`] against
/// rebuilding the incremental model from scratch on the edited tree.
/// [`compare_reports`] caps the pair's wall ratio at
/// [`INCREMENTAL_WALL_RATIO`].
fn edit_requery_cases(doc: &str, nodes: usize, reps: usize, probe: &Probe) -> Vec<Json> {
    use crate::experiments::e24_incremental::{doc_of, relabel_script, WATCHED};
    use treequery_core::tree::{EditOp, EditableTree};
    use treequery_core::{datalog, Document};

    let reps = reps.max(2);
    let tree = doc_of(nodes);
    let site = match &relabel_script(&tree, 1)[0] {
        EditOp::Relabel { pre, .. } => *pre,
        _ => unreachable!(),
    };
    // Flip one leaf between `a` and the filler so every rep maintains a
    // real change (an identical relabel would be a no-op).
    let flip = |rep: usize| EditOp::Relabel {
        pre: site,
        label: if rep.is_multiple_of(2) { "a" } else { "x" }.to_owned(),
    };

    let emit = |kind: &str, wall: &mut Vec<u64>, stats: (u64, u64, u64), rows: u64| {
        wall.sort_unstable();
        Json::obj()
            .set("id", format!("{kind}/requery/{doc}/w1"))
            .set("strategy", kind)
            .set("query", WATCHED)
            .set("doc", doc)
            .set("workers", 1u64)
            .set("reps", wall.len() as u64)
            .set("output_rows", rows)
            .set("wall_p50_ns", wall[wall.len() / 2])
            .set(
                "wall_p95_ns",
                wall[(wall.len() * 95 / 100).min(wall.len() - 1)],
            )
            .set("wall_min_ns", wall[0])
            .set("probe_ns", probe.measure())
            .set("allocs", stats.0)
            .set("bytes", stats.1)
            .set("peak_live_bytes", stats.2)
            .set("spans", Json::Arr(Vec::new()))
    };

    let mut document = Document::new(tree.clone());
    let id = document
        .watch_datalog(WATCHED)
        .expect("pinned watch program parses");
    let mut wall = Vec::with_capacity(reps);
    let (mut allocs, mut bytes, mut peak) = (u64::MAX, u64::MAX, u64::MAX);
    let mut rows = 0;
    for rep in 0..reps {
        let op = flip(rep);
        let (elapsed, captured) = capture(|| {
            let started = Instant::now();
            document.edit(&op);
            rows = std::hint::black_box(document.watched(id)).len() as u64;
            started.elapsed()
        });
        wall.push(elapsed.as_nanos() as u64);
        allocs = allocs.min(captured.alloc.allocs);
        bytes = bytes.min(captured.alloc.bytes);
        peak = peak.min(captured.alloc.peak_live);
    }
    let incremental = emit("incremental", &mut wall, (allocs, bytes, peak), rows);

    let prog = datalog::parse_program(WATCHED).expect("pinned watch program parses");
    let mut et = EditableTree::new(tree);
    let mut wall = Vec::with_capacity(reps);
    let (mut allocs, mut bytes, mut peak) = (u64::MAX, u64::MAX, u64::MAX);
    let mut rows = 0;
    for rep in 0..reps {
        let op = flip(rep);
        let (elapsed, captured) = capture(|| {
            let started = Instant::now();
            et.apply(&op);
            let model = datalog::IncrementalEval::new(prog.clone(), et.tree());
            rows = std::hint::black_box(model.query()).len() as u64;
            started.elapsed()
        });
        wall.push(elapsed.as_nanos() as u64);
        allocs = allocs.min(captured.alloc.allocs);
        bytes = bytes.min(captured.alloc.bytes);
        peak = peak.min(captured.alloc.peak_live);
    }
    let rebuild = emit("rebuild", &mut wall, (allocs, bytes, peak), rows);

    vec![incremental, rebuild]
}

/// The current commit's short hash (`unknown` outside a git checkout).
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn case_map(report: &Json) -> Vec<(&str, &Json)> {
    report
        .get("cases")
        .and_then(Json::as_arr)
        .map(|cases| {
            cases
                .iter()
                .filter_map(|c| c.get("id").and_then(Json::as_str).map(|id| (id, c)))
                .collect()
        })
        .unwrap_or_default()
}

/// Diffs a fresh suite run against a baseline report. Returns one
/// human-readable line per regression (empty = gate passes): a case
/// missing from the current run, wall time above [`WALL_RATIO_LIMIT`] ×
/// baseline (for baselines ≥ [`WALL_FLOOR_NS`]), or allocated bytes
/// above [`BYTES_RATIO_LIMIT`] × baseline.
///
/// Two defenses keep the wall check meaningful on shared hardware. Wall
/// times are first rescaled by a calibration ratio — per-case `probe_ns`
/// when both reports carry it, the whole-run `calibration_ns` otherwise —
/// so a machine (or a noisy-neighbor phase) that is slower today doesn't
/// read as a regression; reports without either field compare raw. Then
/// a regression must show in *both* the p50 and the min-of-reps: a
/// genuine slowdown shifts the whole distribution, while residual
/// scheduler noise inflates the median long before it touches the
/// fastest rep. (Baselines without a `wall_min_ns` field gate on p50
/// alone.)
pub fn compare_reports(current: &Json, baseline: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    let current_cases = case_map(current);
    let calib = |r: &Json| r.get("calibration_ns").and_then(Json::as_u64).unwrap_or(0);
    let (base_calib, cur_calib) = (calib(baseline), calib(current));
    // Whole-run fallback scale; clamped so a broken calibration can't
    // mask (or invent) arbitrary regressions.
    let run_scale = if base_calib > 0 && cur_calib > 0 {
        (base_calib as f64 / cur_calib as f64).clamp(0.25, 4.0)
    } else {
        1.0
    };
    for (id, base) in case_map(baseline) {
        let Some((_, cur)) = current_cases.iter().find(|(cid, _)| *cid == id) else {
            failures.push(format!("{id}: case missing from current run"));
            continue;
        };
        let field = |c: &Json, key: &str| c.get(key).and_then(Json::as_u64).unwrap_or(0);
        let (base_probe, cur_probe) = (field(base, "probe_ns"), field(cur, "probe_ns"));
        let speed_scale = if base_probe > 0 && cur_probe > 0 {
            (base_probe as f64 / cur_probe as f64).clamp(0.25, 4.0)
        } else {
            run_scale
        };
        let over = |cur: u64, base: u64| cur as f64 * speed_scale > base as f64 * WALL_RATIO_LIMIT;
        let base_wall = field(base, "wall_p50_ns");
        let cur_wall = field(cur, "wall_p50_ns");
        let base_min = field(base, "wall_min_ns");
        let min_regressed = base_min == 0 || over(field(cur, "wall_min_ns"), base_min);
        if base_wall >= WALL_FLOOR_NS && over(cur_wall, base_wall) && min_regressed {
            failures.push(format!(
                "{id}: wall p50 regressed {base_wall}ns -> {cur_wall}ns \
                 (calibration-scaled +{:.1}% > +{:.0}% budget, min-of-reps \
                 regressed too)",
                (cur_wall as f64 * speed_scale / base_wall as f64 - 1.0) * 100.0,
                (WALL_RATIO_LIMIT - 1.0) * 100.0,
            ));
        }
        // Zero-alloc ratchet: set-at-a-time sweep cases must report a
        // steady-state kernel allocation count of exactly zero — a hard
        // cap, not a ratio, so the columnar/scratch machinery cannot
        // silently regress into per-query allocation.
        if id.starts_with("xpath/set-at-a-time/") {
            match cur.get("kernel_allocs").and_then(Json::as_u64) {
                Some(0) => {}
                Some(n) => failures.push(format!(
                    "{id}: steady-state kernel allocations must be 0, got {n}"
                )),
                None => failures.push(format!(
                    "{id}: kernel_allocs missing from current run (zero-alloc ratchet)"
                )),
            }
        }
        // Incremental re-query cap: the live document's edit + re-read
        // must stay under a fixed fraction of the from-scratch rebuild
        // measured in the same run (same machine, same noise phase).
        if let Some(doc) = id
            .strip_prefix("incremental/requery/")
            .and_then(|rest| rest.strip_suffix("/w1"))
        {
            let rebuild_id = format!("rebuild/requery/{doc}/w1");
            let rebuild_wall = current_cases
                .iter()
                .find(|(cid, _)| *cid == rebuild_id)
                .map_or(0, |(_, c)| field(c, "wall_min_ns"));
            let inc_wall = field(cur, "wall_min_ns");
            if rebuild_wall == 0 {
                failures.push(format!(
                    "{id}: {rebuild_id} missing from current run (incremental cap)"
                ));
            } else if rebuild_wall >= INCREMENTAL_REBUILD_FLOOR_NS
                && inc_wall as f64 >= rebuild_wall as f64 * INCREMENTAL_WALL_RATIO
            {
                failures.push(format!(
                    "{id}: incremental re-query {inc_wall}ns is {:.0}% of the                      {rebuild_wall}ns rebuild (cap {:.0}%)",
                    inc_wall as f64 / rebuild_wall as f64 * 100.0,
                    INCREMENTAL_WALL_RATIO * 100.0,
                ));
            }
        }
        let base_bytes = field(base, "bytes");
        let cur_bytes = field(cur, "bytes");
        if base_bytes > 0 && cur_bytes as f64 > base_bytes as f64 * BYTES_RATIO_LIMIT {
            failures.push(format!(
                "{id}: allocated bytes regressed {base_bytes} -> {cur_bytes} \
                 (+{:.1}% > +{:.0}% budget)",
                (cur_bytes as f64 / base_bytes as f64 - 1.0) * 100.0,
                (BYTES_RATIO_LIMIT - 1.0) * 100.0,
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_every_strategy_and_pins_ids() {
        let cases = build_suite();
        let slugs: Vec<&str> = [
            "xpath/set-at-a-time",
            "xpath/reference",
            "xpath/via-datalog",
            "xpath/via-acyclic-cq",
            "cq/acyclic",
            "cq/backtrack",
            "datalog/ground+minoux",
        ]
        .to_vec();
        for slug in slugs {
            assert!(
                cases.iter().any(|c| c.id.starts_with(slug)),
                "strategy {slug} missing from suite"
            );
        }
        // The parameterized strategies are covered too (exact parameter
        // pinned by the candidate queries).
        assert!(cases.iter().any(|c| c.id.starts_with("cq/x-property(")));
        assert!(cases.iter().any(|c| c.id.starts_with("cq/rewrite-union(")));
        // Ids are unique (they are the baseline join key).
        let mut ids: Vec<&str> = cases.iter().map(|c| c.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cases.len());
    }

    #[test]
    fn suite_report_round_trips_and_compares_clean_against_itself() {
        let report = run_suite_with(80, 160, 2);
        let parsed =
            treequery_core::obs::parse_json(&report.render()).expect("report is valid JSON");
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(SCHEMA));
        let cases = parsed.get("cases").unwrap().as_arr().unwrap();
        assert!(!cases.is_empty());
        for c in cases {
            for key in [
                "wall_p50_ns",
                "wall_p95_ns",
                "wall_min_ns",
                "allocs",
                "bytes",
                "peak_live_bytes",
                "output_rows",
            ] {
                assert!(c.get(key).unwrap().as_u64().is_some(), "{key}");
            }
            assert!(c.get("bytes").unwrap().as_u64().unwrap() > 0);
        }
        let failures = compare_reports(&parsed, &parsed);
        assert!(failures.is_empty(), "{failures:?}");
    }

    /// The requery pair rides along at production document sizes (and
    /// reports the same answer rows on both sides) but is absent from
    /// toy-size runs, whose walls are all fixed overhead.
    #[test]
    fn requery_cases_emitted_at_production_sizes_only() {
        let report = run_suite_with(80, 160, 1);
        assert!(case_map(&report)
            .iter()
            .all(|(id, _)| !id.contains("/requery/")));
        let report = run_suite_with(80, 400, 1);
        let cases = case_map(&report);
        let wall = |id: &str| {
            cases
                .iter()
                .find(|(cid, _)| *cid == id)
                .and_then(|(_, c)| c.get("output_rows"))
                .and_then(Json::as_u64)
                .expect("requery case present")
        };
        assert!(!cases.iter().any(|(id, _)| id.contains("/requery/small/")));
        assert_eq!(
            wall("incremental/requery/large/w1"),
            wall("rebuild/requery/large/w1"),
            "both sides must answer identically"
        );
    }

    /// The incremental cap: an edit + re-query that costs a third of a
    /// full rebuild (or whose rebuild pair vanished) fails the gate.
    #[test]
    fn incremental_cap_fires_on_slow_requery() {
        fn fake(inc_wall: u64, with_rebuild: bool) -> Json {
            let mut cases = vec![Json::obj()
                .set("id", "incremental/requery/large/w1")
                .set("wall_min_ns", inc_wall)
                .set("wall_p50_ns", inc_wall)];
            if with_rebuild {
                cases.push(
                    Json::obj()
                        .set("id", "rebuild/requery/large/w1")
                        .set("wall_min_ns", 1_000_000u64)
                        .set("wall_p50_ns", 1_000_000u64),
                );
            }
            Json::obj()
                .set("schema", SCHEMA)
                .set("cases", Json::Arr(cases))
        }
        let ok = fake(100_000, true);
        assert!(compare_reports(&ok, &ok).is_empty());
        let slow = fake(500_000, true);
        let failures = compare_reports(&slow, &slow);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("cap 30%"), "{failures:?}");
        let orphaned = fake(100_000, false);
        let failures = compare_reports(&orphaned, &orphaned);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("missing"), "{failures:?}");
    }

    /// The acceptance-criteria test: the gate fires on an injected 2×
    /// allocation regression.
    #[test]
    fn gate_fires_on_doubled_allocations() {
        fn fake(bytes: u64, wall: u64) -> Json {
            Json::obj().set("schema", SCHEMA).set(
                "cases",
                Json::Arr(vec![Json::obj()
                    .set("id", "cq/acyclic/small/w1")
                    .set("wall_p50_ns", wall)
                    .set("bytes", bytes)]),
            )
        }
        let baseline = fake(100_000, 1_000_000);
        let doubled = fake(200_000, 1_000_000);
        let failures = compare_reports(&doubled, &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("allocated bytes regressed"),
            "{failures:?}"
        );
        // And on a 2× wall regression.
        let slow = fake(100_000, 2_000_000);
        let failures = compare_reports(&slow, &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("wall p50 regressed"), "{failures:?}");
        // Within budget passes.
        assert!(compare_reports(&fake(105_000, 1_100_000), &baseline).is_empty());
    }

    /// The zero-alloc ratchet: sweep cases fail the gate when their
    /// steady-state kernel allocation count is nonzero or missing.
    #[test]
    fn zero_alloc_ratchet_gates_sweep_cases() {
        fn fake(kernel: Option<u64>) -> Json {
            let mut c = Json::obj()
                .set("id", "xpath/set-at-a-time/small/w1")
                .set("wall_p50_ns", 1_000u64)
                .set("bytes", 1_000u64);
            if let Some(k) = kernel {
                c = c.set("kernel_allocs", k);
            }
            Json::obj()
                .set("schema", SCHEMA)
                .set("cases", Json::Arr(vec![c]))
        }
        let baseline = fake(Some(0));
        assert!(compare_reports(&fake(Some(0)), &baseline).is_empty());
        let failures = compare_reports(&fake(Some(3)), &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("must be 0"), "{failures:?}");
        let failures = compare_reports(&fake(None), &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("missing"), "{failures:?}");
    }

    #[test]
    fn calibration_scaling_cancels_machine_speed_shifts() {
        fn report(wall: u64, calib: u64) -> Json {
            Json::obj()
                .set("schema", SCHEMA)
                .set("calibration_ns", calib)
                .set(
                    "cases",
                    Json::Arr(vec![Json::obj()
                        .set("id", "cq/acyclic/large/w1")
                        .set("wall_p50_ns", wall)
                        .set("wall_min_ns", wall)
                        .set("bytes", 1_000u64)]),
                )
        }
        let baseline = report(1_000_000, 500_000);
        // The whole machine is 2x slower: cases and calibration double
        // together, so nothing regressed.
        assert!(compare_reports(&report(2_000_000, 1_000_000), &baseline).is_empty());
        // A genuine 2x regression: calibration unchanged, gate fires.
        let failures = compare_reports(&report(2_000_000, 500_000), &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("wall p50 regressed"), "{failures:?}");
    }

    #[test]
    fn missing_cases_fail_the_gate() {
        let baseline = Json::obj().set("schema", SCHEMA).set(
            "cases",
            Json::Arr(vec![Json::obj()
                .set("id", "gone/small/w1")
                .set("wall_p50_ns", 50_000u64)
                .set("bytes", 1_000u64)]),
        );
        let current = Json::obj()
            .set("schema", SCHEMA)
            .set("cases", Json::Arr(vec![]));
        let failures = compare_reports(&current, &baseline);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"));
    }

    #[test]
    fn wall_noise_floor_skips_microsecond_cases() {
        let mk = |wall: u64| {
            Json::obj().set("schema", SCHEMA).set(
                "cases",
                Json::Arr(vec![Json::obj()
                    .set("id", "tiny/small/w1")
                    .set("wall_p50_ns", wall)
                    .set("bytes", 1_000u64)]),
            )
        };
        // 100µs baseline: even a 5× wall blowup is below the floor…
        assert!(compare_reports(&mk(500_000), &mk(100_000)).is_empty());
        // …but at the floor the ratio check applies.
        assert!(!compare_reports(&mk(500_000), &mk(150_000)).is_empty());
    }
}
