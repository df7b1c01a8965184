//! Worker chunk spans reach a query's capture and its Chrome trace.
//!
//! A parallel for with two chunks, each of which waits (bounded) until
//! both have started: the submitting thread cannot run the second chunk
//! while it is blocked in the first, so a pool worker must run one. The
//! trace exported from the capture must then attribute chunk events to
//! at least two threads. This is the multi-thread property the
//! `harness --check-trace` gate cannot pin, because there the submitter
//! may drain every chunk before a worker wakes.
//!
//! Kept alone in its own test binary: `run_for` runs inline when another
//! thread's parallel for holds the pool's job slot.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use treequery_core::obs::flight::QueryRecord;
use treequery_core::obs::{capture, span, traceexport};
use treequery_core::plan::WorkerPool;

#[test]
fn worker_chunk_spans_land_on_their_own_trace_thread() {
    let started = AtomicUsize::new(0);
    let ((), captured) = capture(|| {
        let _run = span("exec.run");
        WorkerPool::global().run_for(2, 2, &|_| {
            let _chunk = span("exec.sweep.chunk");
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    });
    assert_eq!(
        started.load(Ordering::SeqCst),
        2,
        "both chunks ran within the deadline"
    );
    let chunk_threads: Vec<u64> = captured
        .spans
        .iter()
        .filter(|s| s.name == "exec.sweep.chunk")
        .map(|s| s.thread)
        .collect();
    assert_eq!(chunk_threads.len(), 2, "{:?}", captured.spans);

    let record = Arc::new(QueryRecord {
        id: 1,
        spans: captured.spans,
        ..QueryRecord::default()
    });
    let trace = traceexport::chrome_trace(&[record]);
    let stats = traceexport::validate_chrome_trace(&trace).expect("trace validates");
    assert_eq!(stats.queries, 1);
    assert_eq!(stats.chunk_events, 2);
    assert!(
        stats.threads >= 2,
        "chunk spans on {} thread(s): {chunk_threads:?}",
        stats.threads
    );
}
