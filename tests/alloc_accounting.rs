//! Integration tests for the counting allocator: exact attribution of a
//! known allocation pattern, scope propagation across the worker pool,
//! and the `mem` columns `EXPLAIN ANALYZE` joins onto the stage tree.
//!
//! Attribution is per thread (and per capture), but the accounting
//! switch is process-global, so these tests serialize on one mutex
//! (mirroring the unit tests inside `treequery-obs`).

use std::sync::Mutex;

use treequery::obs::alloc::{AccountingGuard, AllocScope, ScopeStats};
use treequery::obs::{capture, CaptureHandle};
use treequery::plan::WorkerPool;
use treequery::{parse_term, Engine, Query};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Vec growth by explicit doubling reports *exact* byte counts: each
/// `reserve_exact` is one allocation of exactly the new capacity (realloc
/// counts as alloc(new) + free(old)), and nothing else on this thread
/// allocates between the scope's entry and the reads.
#[test]
fn vec_doubling_reports_exact_byte_counts() {
    let _l = lock();
    let _on = AccountingGuard::begin();
    let scope = AllocScope::enter("test.vec_doubling");
    let mut v: Vec<u8> = Vec::new();
    v.reserve_exact(1024); // alloc 1024
    v.resize(1024, 0);
    v.reserve_exact(1024); // realloc: alloc 2048, free 1024
    v.resize(2048, 0);
    v.reserve_exact(2048); // realloc: alloc 4096, free 2048
    let stats = scope.stats();
    assert_eq!(
        stats,
        ScopeStats {
            allocs: 3,
            frees: 2,
            bytes: 1024 + 2048 + 4096,
            freed_bytes: 1024 + 2048,
            peak_live: 4096 + 2048, // during realloc both blocks are charged
        },
        "doubling pattern must be counted exactly"
    );
    drop(v); // free 4096
    let stats = scope.stats();
    assert_eq!(stats.frees, 3);
    assert_eq!(stats.freed_bytes, 1024 + 2048 + 4096);
    assert_eq!(stats.bytes, stats.freed_bytes, "everything returned");
}

/// Scope attribution survives a `plan::pool` round-trip: tasks running on
/// pool workers charge the submitting thread's scope through the
/// propagated handle.
#[test]
fn scope_attribution_survives_a_pool_round_trip() {
    let _l = lock();
    let _on = AccountingGuard::begin();
    let scope = AllocScope::enter("test.pool_round_trip");
    let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8)
        .map(|i| {
            Box::new(move || {
                let v: Vec<u8> = Vec::with_capacity(16 * 1024);
                v.capacity() + i
            }) as Box<dyn FnOnce() -> usize + Send>
        })
        .collect();
    let results = WorkerPool::global().run_scoped(4, tasks);
    assert_eq!(results.len(), 8);
    let stats = scope.stats();
    assert!(
        stats.bytes >= 8 * 16 * 1024,
        "worker allocations must be charged to the submitting scope: {stats:?}"
    );
}

/// The handle API the pool uses, exercised directly across a plain
/// spawned thread: the current scope and capture both travel with it.
#[test]
fn current_scope_handle_carries_attribution() {
    let _l = lock();
    let _on = AccountingGuard::begin();
    let (bytes, captured) = capture(|| {
        let scope = AllocScope::enter("test.handle");
        let handle = CaptureHandle::current();
        std::thread::scope(|s| {
            s.spawn(move || {
                handle.run(|| {
                    let _v: Vec<u8> = Vec::with_capacity(32 * 1024);
                });
            });
        });
        scope.stats().bytes
    });
    assert!(bytes >= 32 * 1024, "{bytes}");
    assert!(captured.alloc.bytes >= 32 * 1024, "{:?}", captured.alloc);
    let stage = captured
        .scope("test.handle")
        .expect("scope closed in capture");
    assert!(stage.bytes >= 32 * 1024, "{stage:?}");
}

/// `EXPLAIN ANALYZE` turns accounting on for the run and joins the scope
/// totals onto the stage tree: the executor stages carry `mem` columns
/// with non-zero byte counts, in both the struct and the rendering.
#[test]
fn explain_analyze_reports_per_stage_memory() {
    let _l = lock();
    let t = parse_term("site(people(person(name) person(name)) regions(item item))").unwrap();
    let e = Engine::new(&t);
    let analyzed = e.explain_analyze(&Query::xpath("//person")).unwrap();
    let run = analyzed
        .stages
        .iter()
        .find(|s| s.name == "exec.run")
        .expect("exec.run stage present");
    let mem = run.mem.expect("accounted run attaches mem to exec.run");
    assert!(mem.allocs > 0, "{mem:?}");
    assert!(mem.bytes > 0, "{mem:?}");
    let rendered = analyzed.render();
    assert!(
        rendered.contains("[mem: bytes="),
        "render must show mem columns:\n{rendered}"
    );
    // The machine-readable form carries the same columns.
    let json = treequery::obs::parse_json(&analyzed.to_json().render()).unwrap();
    let stages = json.get("stages").unwrap().as_arr().unwrap().to_vec();
    assert!(stages.iter().any(|s| s
        .get("mem")
        .and_then(|m| m.get("bytes"))
        .and_then(|b| b.as_u64())
        > Some(0)));
}

/// Accounting is off outside guards: a captured `Engine::eval` run
/// still records its spans but reports no allocations and no scopes.
#[test]
fn unaccounted_runs_attach_no_mem() {
    let _l = lock();
    let t = parse_term("r(a(b) a)").unwrap();
    let e = Engine::new(&t);
    let (_, captured) = capture(|| e.xpath("//a").unwrap());
    assert!(!captured.spans.is_empty(), "spans are captured");
    assert!(captured.scopes.is_empty(), "no guard, no attribution");
    assert_eq!(captured.alloc, ScopeStats::default());
}
