//! The TCP server: accept loop, shared state, the cross-connection
//! in-flight query registry, and the per-server metrics registry.
//!
//! Each connection gets its own session thread ([`crate::session`]); the
//! threads share one [`Shared`] block: the catalog, admission control,
//! and the registry of running queries that makes `cancel` work from a
//! *different* connection than the one blocked on its answer.
//!
//! Shutdown is cooperative: the `shutdown` verb flips a flag and pokes
//! the listener with a loopback connect so the blocked `accept` observes
//! it — no platform-specific listener teardown needed.

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use treequery_core::EngineConfig;
use treequery_obs::metrics::{
    Counter, CounterFamily, Gauge, MetricSnapshot, MetricValue, Registry,
};
use treequery_obs::slo::{MonotonicClock, Objective, SloConfig, SloTracker};
use treequery_obs::{flight, prom};
use treequery_tree::CancelToken;

use crate::admission::Admission;
use crate::catalog::Catalog;
use crate::session;
use crate::usage::UsageTable;

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Heavy-lane admission slots (superlinear plans in flight at once).
    pub heavy_cap: usize,
    /// How long a heavy query waits for a slot before
    /// `admission_rejected`.
    pub admit_timeout: Duration,
    /// How long a graceful `shutdown` waits for in-flight queries to
    /// finish before cancelling what remains.
    pub drain: Duration,
    /// Per-cost-class latency objectives (see [`default_objectives`])
    /// and burn-rate windows.
    pub slo: SloConfig,
    /// Engine configuration handed to every document.
    pub engine: EngineConfig,
}

/// The stock latency objectives, keyed by the planner's cost classes:
/// the paper's `O(|D|·|Q|)` core gets a tight bound, enumeration and
/// fixpoints a looser one, backtracking the loosest. `harness serve
/// --slo CLASS=MS` overrides individual thresholds.
pub fn default_objectives() -> Vec<Objective> {
    const MS: u64 = 1_000_000;
    vec![
        Objective {
            class: "linear".to_owned(),
            threshold_ns: 50 * MS,
        },
        Objective {
            class: "output_sensitive".to_owned(),
            threshold_ns: 250 * MS,
        },
        Objective {
            class: "polynomial".to_owned(),
            threshold_ns: 250 * MS,
        },
        Objective {
            class: "exponential".to_owned(),
            threshold_ns: 2_000 * MS,
        },
    ]
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            heavy_cap: 4,
            admit_timeout: Duration::from_secs(2),
            drain: Duration::from_secs(1),
            slo: SloConfig {
                objectives: default_objectives(),
                ..SloConfig::default()
            },
            engine: EngineConfig::default(),
        }
    }
}

/// One running query, visible to `cancel` from any connection.
pub(crate) struct Inflight {
    pub(crate) token: CancelToken,
    pub(crate) tag: Option<String>,
}

/// State shared by every session thread of one server.
pub struct Shared {
    pub(crate) catalog: Catalog,
    pub(crate) admission: Admission,
    pub(crate) admit_timeout: Duration,
    registry: Registry,
    pub(crate) requests: CounterFamily,
    pub(crate) errors: CounterFamily,
    pub(crate) sessions_opened: Counter,
    pub(crate) sessions_active: Gauge,
    pub(crate) queries_inflight: Gauge,
    pub(crate) usage: UsageTable,
    pub(crate) slo: SloTracker,
    pub(crate) drain: Duration,
    inflight: Mutex<HashMap<u64, Inflight>>,
    next_query_id: AtomicU64,
    next_trace_id: AtomicU64,
    shutdown: AtomicBool,
    port: u16,
    /// The observatory's HTTP port (0 = none); the shutdown poke must
    /// reach that listener too.
    observatory_port: AtomicU32,
}

impl Shared {
    pub(crate) fn new(config: &ServerConfig, port: u16) -> Shared {
        let registry = Registry::new();
        let requests = registry.counter_family(
            "treequery_serve_requests",
            "Requests handled, by verb.",
            "verb",
        );
        let errors = registry.counter_family(
            "treequery_serve_errors",
            "Error responses sent, by structured code.",
            "code",
        );
        let sessions_opened = registry.counter(
            "treequery_serve_sessions_opened",
            "Connections accepted since the server started.",
        );
        let sessions_active = registry.gauge(
            "treequery_serve_sessions_active",
            "Connections currently open.",
        );
        let queries_inflight = registry.gauge(
            "treequery_serve_queries_inflight",
            "Queries currently registered as cancellable.",
        );
        let admission = Admission::new(config.heavy_cap, &registry);
        let usage = UsageTable::new(&registry);
        let slo = SloTracker::new(config.slo.clone(), Arc::new(MonotonicClock::new()));
        Shared {
            catalog: Catalog::new(config.engine.clone()),
            admission,
            admit_timeout: config.admit_timeout,
            registry,
            requests,
            errors,
            sessions_opened,
            sessions_active,
            queries_inflight,
            usage,
            slo,
            drain: config.drain,
            inflight: Mutex::new(HashMap::new()),
            next_query_id: AtomicU64::new(1),
            next_trace_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            port,
            observatory_port: AtomicU32::new(0),
        }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Registers a running query; returns its server-assigned id.
    pub(crate) fn register_query(&self, token: CancelToken, tag: Option<String>) -> u64 {
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        self.inflight
            .lock()
            .expect("inflight registry poisoned")
            .insert(id, Inflight { token, tag });
        self.queries_inflight.add(1);
        id
    }

    /// Unregisters a finished (or rejected) query.
    pub(crate) fn unregister_query(&self, id: u64) {
        if self
            .inflight
            .lock()
            .expect("inflight registry poisoned")
            .remove(&id)
            .is_some()
        {
            self.queries_inflight.add(-1);
        }
    }

    /// Trips the token of the query with this server id. Returns how
    /// many queries were cancelled (0 or 1).
    pub(crate) fn cancel_by_id(&self, id: u64) -> usize {
        let inflight = self.inflight.lock().expect("inflight registry poisoned");
        match inflight.get(&id) {
            Some(entry) => {
                entry.token.cancel();
                1
            }
            None => 0,
        }
    }

    /// Trips every running query carrying this client tag.
    pub(crate) fn cancel_by_tag(&self, tag: &str) -> usize {
        let inflight = self.inflight.lock().expect("inflight registry poisoned");
        let mut n = 0;
        for entry in inflight.values() {
            if entry.tag.as_deref() == Some(tag) {
                entry.token.cancel();
                n += 1;
            }
        }
        n
    }

    /// Whether shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown and wakes the accept loop.
    pub fn request_shutdown(&self) {
        self.begin_shutdown();
        // Poke the listeners so their blocked accept()s return and
        // observe the flag. A failure just means a listener is already
        // gone.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        let obs_port = self.observatory_port.load(Ordering::SeqCst);
        if obs_port != 0 {
            let _ = TcpStream::connect(("127.0.0.1", obs_port as u16));
        }
    }

    /// Sets the shutdown flag without waking the accept loops: new
    /// connections are refused from here on, but the process keeps
    /// running. The `shutdown` verb uses this so the accept loop (and
    /// with it the whole server process) cannot exit before the drain
    /// finishes and the ack is flushed; the session then issues the
    /// listener pokes via [`Self::request_shutdown`] after the write.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Records the observatory's HTTP port so [`Self::request_shutdown`]
    /// can poke that listener too.
    pub(crate) fn set_observatory_port(&self, port: u16) {
        self.observatory_port.store(port as u32, Ordering::SeqCst);
    }

    /// A fresh server-generated trace id, for requests that did not
    /// supply one.
    pub(crate) fn make_trace_id(&self) -> String {
        format!(
            "srv-{:x}",
            self.next_trace_id.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// Queries currently registered as cancellable.
    pub fn inflight_count(&self) -> usize {
        self.inflight
            .lock()
            .expect("inflight registry poisoned")
            .len()
    }

    /// Graceful drain: waits up to the configured drain budget for
    /// in-flight queries to unregister on their own, then trips the
    /// cancel tokens of whatever remains and waits (bounded) for those
    /// to clear too. Returns `(drained, cancelled)` — how many queries
    /// finished within budget vs. were cut off.
    pub(crate) fn drain_inflight(&self) -> (u64, u64) {
        let initial = self.inflight_count() as u64;
        if initial == 0 {
            return (0, 0);
        }
        let deadline = Instant::now() + self.drain;
        while Instant::now() < deadline && self.inflight_count() > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let cancelled = {
            let inflight = self.inflight.lock().expect("inflight registry poisoned");
            for entry in inflight.values() {
                entry.token.cancel();
            }
            inflight.len() as u64
        };
        // Cancellation is cooperative; give the tripped queries a
        // bounded window to notice and unregister so the ack reflects a
        // settled server.
        let grace = Instant::now() + Duration::from_secs(2);
        while Instant::now() < grace && self.inflight_count() > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        (initial.saturating_sub(cancelled), cancelled)
    }

    /// Renders the tenant-usage exposition: exactly the
    /// `treequery_tenant_*` counter families.
    pub fn render_tenant_exposition(&self) -> String {
        prom::render_prefixed(&self.registry, "treequery_tenant_")
    }

    /// Renders exactly the `treequery_slo_*` gauges, built from the
    /// tracker's current windows.
    pub fn render_slo_exposition(&self) -> String {
        prom::render_snapshots(&self.slo.samples())
    }

    /// Renders the Prometheus exposition for this server, one scrape of
    /// four sources: the serve, admission and tenant instruments; the
    /// shared engine counters (every document pools one metrics block)
    /// plus the pooled plan-cache size; the SLO gauges; and the flight
    /// recorder's instruments when it is installed.
    pub fn render_metrics(&self) -> String {
        let mut samples = self.registry.gather();
        samples.extend(self.catalog.metrics().snapshot().samples());
        samples.push(MetricSnapshot {
            name: "treequery_engine_plans_cached",
            help: "Entries in the pooled plan cache right now.",
            value: MetricValue::Gauge(self.catalog.plan_cache().len() as i64),
        });
        samples.extend(self.slo.samples());
        samples.extend(flight::metrics());
        prom::render_snapshots(&samples)
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let port = listener.local_addr()?.port();
        Ok(Server {
            listener,
            shared: Arc::new(Shared::new(&config, port)),
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.shared.port
    }

    /// The shared state (for embedding and tests).
    pub fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Runs the accept loop until shutdown is requested. Session threads
    /// are detached; in-flight sessions drain on their own clock.
    pub fn run(self) -> io::Result<()> {
        loop {
            if self.shared.shutting_down() {
                return Ok(());
            }
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.shared.shutting_down() {
                return Ok(());
            }
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || session::serve_connection(stream, shared));
        }
    }

    /// Binds an ephemeral localhost port and runs the server on a
    /// background thread: the one-call setup tests and the harness use.
    pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
        let server = Server::bind("127.0.0.1:0", config)?;
        let port = server.port();
        let shared = server.shared();
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerHandle {
            port,
            shared,
            thread,
        })
    }
}

/// Handle to a [`Server::spawn`]ed background server.
pub struct ServerHandle {
    port: u16,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The shared state.
    pub fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Requests shutdown and joins the accept loop.
    pub fn shutdown(self) -> io::Result<()> {
        self.shared.request_shutdown();
        self.thread
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("server thread panicked")))
    }
}
