//! The resident service: TCP/stdio intake, admission control, worker
//! pool, graceful shutdown.
//!
//! # Threading model
//!
//! * The **acceptor** (the thread that called [`Server::run`]) polls a
//!   non-blocking listener, spawning one scoped **connection thread** per
//!   client. Connection threads parse request lines, answer `status` and
//!   `shutdown` immediately, and submit optimize/explain work through the
//!   admission controller.
//! * A fixed **worker pool** (built on
//!   [`aqo_core::parallel::run_workers`]) drains the bounded queue and
//!   runs [`Engine::handle`]; replies are written back under the owning
//!   connection's writer lock, so concurrent replies to one client never
//!   interleave bytes.
//! * **Admission control**: `queued + executing` is capped at
//!   `max_inflight`, decided under the queue mutex. Past the cap the
//!   request is answered immediately with a structured `"overloaded"`
//!   error — the queue never grows without bound and a burst cannot wedge
//!   the service.
//! * **Graceful shutdown** (a `shutdown` request, or the idle timeout):
//!   admission closes, queued and executing work drains, workers exit,
//!   connection threads notice via their read timeout and hang up, and
//!   [`Server::run`] returns a [`ServiceReport`] summary. The CLI then
//!   flushes the trace journal exactly as `aqo optimize` does.
//! * **Observability scope**: a server reports into the
//!   [`aqo_obs::Scope`] it was built in. Every thread it runs on —
//!   acceptor, connections, pool, sampler — installs that scope, so its
//!   metrics, journal, series and armed fail points are that scope's.

use crate::engine::{Degrade, Engine};
use crate::proto::{ErrReply, ErrorKind, Op, Reply, Request, StatusReply};
use aqo_core::parallel;
use aqo_obs::faults;
use std::collections::VecDeque;
use std::fmt;
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Socket read-timeout tick: how often a blocked connection thread wakes
/// to poll the shutdown flag (and the slow-loris deadline). Overridable
/// with `--conn-timeout-ms`.
pub const DEFAULT_CONN_TIMEOUT: Duration = Duration::from_millis(100);

/// How long a connection may hold a *partial* request line before it is
/// evicted as a slow-loris client. Complete lines reset the clock.
pub const DEFAULT_READ_DEADLINE: Duration = Duration::from_secs(10);

/// Longest accepted request line. Instances are inline text, so real
/// requests are a few KiB; a client streaming an unbounded line is
/// evicted at this limit instead of growing the buffer forever.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Socket write timeout: a client that stops draining its receive buffer
/// blocks the writer at most this long before the reply is abandoned.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Retry hint attached to `overloaded` rejections: long enough for a
/// queue of polynomial-tier requests to drain, short enough that clients
/// retry within human patience.
pub const RETRY_AFTER_MS: u64 = 50;

/// Tuning knobs for [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker-pool size (0 = one worker per hardware thread).
    pub threads: usize,
    /// Admission cap on `queued + executing` requests.
    pub max_inflight: usize,
    /// Plan-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Shut down after this long with no intake and nothing in flight.
    pub idle_timeout: Option<Duration>,
    /// Deadline applied to requests that carry no `timeout_ms`.
    pub default_timeout: Option<Duration>,
    /// Socket read-timeout tick (`--conn-timeout-ms`); see
    /// [`DEFAULT_CONN_TIMEOUT`].
    pub conn_timeout: Duration,
    /// Slow-loris deadline on partial lines (`None` disables eviction).
    pub read_deadline: Option<Duration>,
    /// Request-line size limit in bytes.
    pub max_line_bytes: usize,
    /// Plan-cache snapshot file (`--cache-snapshot`): loaded on startup
    /// for a warm cache, rewritten atomically at shutdown.
    pub snapshot_path: Option<std::path::PathBuf>,
    /// Observability sampling interval (`--obs-interval-ms`): how often
    /// the sampler thread captures counter deltas, gauge levels, and
    /// histogram quantiles into the [`aqo_obs::series`] rings. `None`
    /// disables the sampler (TCP transport only; stdio never samples).
    pub obs_interval: Option<Duration>,
    /// Workload recording sink (`--record`): every successful,
    /// non-degraded optimize reply is captured into it (see
    /// [`crate::record`]); the caller drains it after the server stops
    /// and writes the `aqo-workload/v1` file.
    pub record: Option<crate::record::RecordSink>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 4,
            max_inflight: 64,
            cache_capacity: 1024,
            idle_timeout: None,
            default_timeout: None,
            conn_timeout: DEFAULT_CONN_TIMEOUT,
            read_deadline: Some(DEFAULT_READ_DEADLINE),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            snapshot_path: None,
            obs_interval: Some(Duration::from_secs(1)),
            record: None,
        }
    }
}

/// The final service summary, in the same spirit as the driver's
/// `DriverReport`: what ran, what was rejected, what the cache did.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Why the server stopped (`"shutdown"` or `"idle"`).
    pub reason: &'static str,
    /// Requests parsed (all ops).
    pub requests: u64,
    /// Optimize/explain replies that succeeded.
    pub ok: u64,
    /// Optimize/explain replies that failed.
    pub errors: u64,
    /// Requests rejected by admission control.
    pub overloaded: u64,
    /// Requests answered from a degraded (overload-weakened) chain.
    pub degraded: u64,
    /// Connections evicted for protocol abuse (slow-loris, oversized line).
    pub evicted: u64,
    /// Plan-cache counters at shutdown.
    pub cache: crate::cache::CacheStats,
    /// Wall-clock service lifetime.
    pub elapsed: Duration,
}

impl fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reason={} requests={} ok={} errors={} overloaded={} degraded={} evicted={} \
             cache_hits={} cache_misses={} cache_evictions={} elapsed={:.3}s",
            self.reason,
            self.requests,
            self.ok,
            self.errors,
            self.overloaded,
            self.degraded,
            self.evicted,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.elapsed.as_secs_f64(),
        )
    }
}

impl ServiceReport {
    /// JSON rendering for `--report-json` (hand-rolled, like
    /// `DriverReport::to_json`).
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// [`ServiceReport::to_json`] without the wall-clock `elapsed_ms`:
    /// only counts remain, so a deterministic run renders the same bytes
    /// every time (the form `CHAOS.json` embeds).
    pub fn to_json_untimed(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, timed: bool) -> String {
        let elapsed = if timed {
            format!(
                ",\n  \"elapsed_ms\": {:.3}",
                self.elapsed.as_secs_f64() * 1e3
            )
        } else {
            String::new()
        };
        format!(
            "{{\n  \"reason\": \"{}\",\n  \"requests\": {},\n  \"ok\": {},\n  \
             \"errors\": {},\n  \"overloaded\": {},\n  \"degraded\": {},\n  \
             \"evicted\": {},\n  \"cache\": {{\"hits\": {}, \
             \"misses\": {}, \"inserts\": {}, \"evictions\": {}, \"len\": {}, \
             \"capacity\": {}}}{elapsed}\n}}\n",
            self.reason,
            self.requests,
            self.ok,
            self.errors,
            self.overloaded,
            self.degraded,
            self.evicted,
            self.cache.hits,
            self.cache.misses,
            self.cache.inserts,
            self.cache.evictions,
            self.cache.len,
            self.cache.capacity,
        )
    }
}

/// A queued unit of work: the parsed request, where to write the reply,
/// and the ladder level admission control chose for it.
struct Job {
    req: Request,
    out: SharedWriter,
    degrade: Degrade,
    /// Trace id minted at intake (0 when collection is disabled); the
    /// worker re-installs it so the handling spans/events join the
    /// request's trace across the queue hop.
    trace_id: u64,
}

/// A connection's reply channel: the writer (locked so concurrent replies
/// to one client never interleave bytes) plus the owning socket, kept so
/// the network fault sites and fatal write errors can drop the connection
/// rather than leave a client blocked on a reply that will never finish.
pub(crate) struct ConnWriter {
    writer: Mutex<Box<dyn Write + Send>>,
    stream: Option<TcpStream>,
}

impl ConnWriter {
    fn tcp(writer: TcpStream, stream: TcpStream) -> Arc<Self> {
        Arc::new(ConnWriter { writer: Mutex::new(Box::new(writer)), stream: Some(stream) })
    }

    fn plain(writer: Box<dyn Write + Send>) -> Arc<Self> {
        Arc::new(ConnWriter { writer: Mutex::new(writer), stream: None })
    }

    /// Hard-drops the underlying socket (no-op on stdio).
    fn drop_connection(&self) {
        if let Some(s) = &self.stream {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

type SharedWriter = Arc<ConnWriter>;

struct QueueState {
    queue: VecDeque<Job>,
    executing: usize,
}

/// The service. Construct with [`Server::new`], then call [`Server::run`]
/// (TCP) or [`Server::run_stdio`] once; both block until shutdown and
/// return the [`ServiceReport`].
pub struct Server {
    engine: Engine,
    /// The scope the server was built in; installed on all its threads.
    scope: aqo_obs::Scope,
    workers: usize,
    max_inflight: usize,
    idle_timeout: Option<Duration>,
    conn_timeout: Duration,
    read_deadline: Option<Duration>,
    max_line_bytes: usize,
    snapshot_path: Option<std::path::PathBuf>,
    obs_interval: Option<Duration>,
    record: Option<crate::record::RecordSink>,
    state: Mutex<QueueState>,
    work_cv: Condvar,
    accepting: AtomicBool,
    shutdown: AtomicBool,
    /// `"shutdown"` until the idle path claims it. Guarded by `state`.
    reason: Mutex<&'static str>,
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
    degraded: AtomicU64,
    evicted: AtomicU64,
    last_intake: Mutex<Instant>,
    started: Instant,
}

impl Server {
    /// Builds a server in the current [`aqo_obs::Scope`]; `cfg.threads ==
    /// 0` resolves to the hardware thread count. When `cfg.snapshot_path`
    /// names an existing snapshot the plan cache is warm-loaded from it
    /// (salvaging what survives of a truncated or corrupt file).
    pub fn new(cfg: &ServeConfig) -> Self {
        let engine = Engine::new(cfg.cache_capacity, cfg.default_timeout);
        if let Some(path) = &cfg.snapshot_path {
            if path.exists() {
                // A snapshot is warm-start data: any failure mode here —
                // including a panic from the storage fault site — means
                // starting cold, never failing to start.
                let result = faults::with_quiet_panics(|| {
                    catch_unwind(AssertUnwindSafe(|| crate::snapshot::load(path, engine.cache())))
                });
                match result {
                    Ok(Ok(loaded)) => {
                        eprintln!("serve: cache snapshot: {loaded} plans from {}", path.display());
                    }
                    Ok(Err(e)) => eprintln!("serve: cache snapshot unusable ({e}); starting cold"),
                    Err(_) => eprintln!("serve: cache snapshot load panicked; starting cold"),
                }
            }
        }
        Server {
            engine,
            scope: aqo_obs::Scope::current(),
            workers: parallel::resolve_threads(cfg.threads),
            max_inflight: cfg.max_inflight.max(1),
            idle_timeout: cfg.idle_timeout,
            conn_timeout: cfg.conn_timeout.max(Duration::from_millis(1)),
            read_deadline: cfg.read_deadline,
            max_line_bytes: cfg.max_line_bytes.max(1),
            snapshot_path: cfg.snapshot_path.clone(),
            obs_interval: cfg.obs_interval,
            record: cfg.record.clone(),
            state: Mutex::new(QueueState { queue: VecDeque::new(), executing: 0 }),
            work_cv: Condvar::new(),
            accepting: AtomicBool::new(true),
            shutdown: AtomicBool::new(false),
            reason: Mutex::new("shutdown"),
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            last_intake: Mutex::new(Instant::now()),
            started: Instant::now(),
        }
    }

    /// The engine (for tests that want the cache).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Serves `listener` until shutdown; returns the final summary.
    pub fn run(&self, listener: &TcpListener) -> std::io::Result<ServiceReport> {
        let _obs = self.scope.install();
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            // The worker pool runs inside one scoped thread; run_workers
            // fans it out to `self.workers` OS threads (carrying the obs
            // scope along) and joins them.
            let pool = scope.spawn(|| {
                let _obs = self.scope.install();
                parallel::run_workers(self.workers, |_t| self.worker_loop());
            });
            // The sampler is scoped too: it exits on the shutdown flag and
            // the scope joins it after the drain.
            if let Some(interval) = self.obs_interval {
                scope.spawn(move || {
                    let _obs = self.scope.install();
                    self.sampler_loop(interval)
                });
            }
            let mut accept_err = None;
            loop {
                // ordering: Relaxed — monotone stop flag; the acceptor
                // only stops taking new connections, all queue state is
                // synchronized by the state mutex.
                if self.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        self.touch_intake();
                        // Connection threads are scoped: an uncaught panic
                        // here would propagate at scope exit and take the
                        // whole server down, so contain it (the network
                        // fault sites can panic by design).
                        scope.spawn(move || {
                            let _obs = self.scope.install();
                            let _ = faults::with_quiet_panics(|| {
                                catch_unwind(AssertUnwindSafe(|| self.serve_connection(stream)))
                            });
                        });
                    }
                    Err(e) if e.kind() == IoErrorKind::WouldBlock => {
                        self.maybe_idle_shutdown();
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) if e.kind() == IoErrorKind::Interrupted => {}
                    Err(e) => {
                        // A fatal listener error still drains in-flight
                        // work before surfacing, so workers and
                        // connection threads can be joined.
                        accept_err = Some(e);
                        self.begin_shutdown("shutdown");
                        break;
                    }
                }
            }
            // Drain: wait until queued and executing work has finished,
            // then the workers (who saw the shutdown flag) exit and the
            // pool thread joins them.
            let mut st = self.lock_state();
            while !st.queue.is_empty() || st.executing > 0 {
                st = self.work_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            drop(st);
            self.work_cv.notify_all();
            // analyze:allow(panic-path) -- worker panics are contained
            // per-job by catch_unwind inside the pool; a join error here
            // means the pool scaffolding itself broke, which is a bug
            // worth crashing the (already-draining) server on.
            pool.join().expect("worker pool panicked");
            match accept_err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        })?;
        self.save_snapshot();
        Ok(self.report())
    }

    /// The observability sampler: once per `interval` (while collection
    /// is enabled), captures one [`aqo_obs::series`] tick — counter
    /// deltas, gauge levels, histogram quantiles — and counts it. Sleeps
    /// in short slices so shutdown is noticed within ~50ms regardless of
    /// the interval.
    fn sampler_loop(&self, interval: Duration) {
        let mut next = Instant::now() + interval;
        // ordering: Relaxed — monotone stop flag, same as the acceptor.
        while !self.shutdown.load(Ordering::Relaxed) {
            let now = Instant::now();
            if now >= next {
                next = now + interval;
                if aqo_obs::enabled() {
                    aqo_obs::series::sample_tick();
                    aqo_obs::counter_handle!("serve.sampler.ticks").inc();
                }
            }
            std::thread::sleep(interval.min(Duration::from_millis(50)));
        }
    }

    /// Writes the plan-cache snapshot if one was configured. Failures are
    /// reported and swallowed: losing a warm start must not turn a clean
    /// shutdown into an error.
    fn save_snapshot(&self) {
        if let Some(path) = &self.snapshot_path {
            let result = faults::with_quiet_panics(|| {
                catch_unwind(AssertUnwindSafe(|| crate::snapshot::save(path, self.engine.cache())))
            });
            match result {
                Ok(Ok(saved)) => {
                    eprintln!("serve: cache snapshot: {saved} plans to {}", path.display());
                }
                Ok(Err(e)) => eprintln!("serve: cache snapshot write failed: {e}"),
                Err(_) => eprintln!("serve: cache snapshot write panicked; snapshot skipped"),
            }
        }
    }

    /// Serves newline-delimited requests on stdin/stdout, sequentially
    /// (scripting/debug transport — no pool, no admission, same engine).
    pub fn run_stdio(&self) -> ServiceReport {
        let _obs = self.scope.install();
        let stdin = std::io::stdin();
        let out: SharedWriter = ConnWriter::plain(Box::new(std::io::stdout()));
        let mut line = String::new();
        loop {
            line.clear();
            match stdin.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            if line.trim().is_empty() {
                continue;
            }
            if self.intake_line(line.trim_end(), &out, true) {
                break;
            }
        }
        self.begin_shutdown("shutdown");
        self.save_snapshot();
        self.report()
    }

    fn report(&self) -> ServiceReport {
        ServiceReport {
            reason: *self.reason.lock().unwrap_or_else(PoisonError::into_inner),
            // ordering: Relaxed — statistics snapshot after the pool has
            // been joined; no synchronization is carried by the counters.
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed), // ordering: stats snapshot
            errors: self.errors.load(Ordering::Relaxed), // ordering: stats snapshot
            overloaded: self.overloaded.load(Ordering::Relaxed), // ordering: stats snapshot
            degraded: self.degraded.load(Ordering::Relaxed), // ordering: stats snapshot
            evicted: self.evicted.load(Ordering::Relaxed), // ordering: stats snapshot
            cache: self.engine.cache().stats(),
            elapsed: self.started.elapsed(),
        }
    }

    fn touch_intake(&self) {
        *self.last_intake.lock().unwrap_or_else(PoisonError::into_inner) = Instant::now();
    }

    /// Idle shutdown: no intake for `idle_timeout` and nothing in flight.
    fn maybe_idle_shutdown(&self) {
        let Some(idle) = self.idle_timeout else { return };
        let quiet = self
            .last_intake
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .elapsed()
            >= idle;
        if !quiet {
            return;
        }
        let st = self.lock_state();
        if st.queue.is_empty() && st.executing == 0 {
            drop(st);
            self.begin_shutdown("idle");
        }
    }

    /// Closes admission and wakes everyone. Idempotent; the first caller
    /// decides the recorded reason.
    fn begin_shutdown(&self, reason: &'static str) {
        let claimed = {
            let _guard = self.lock_state();
            // ordering: Relaxed — the flags are only ever set under the
            // state lock and every reader either holds that lock or
            // re-checks it before acting on queue contents.
            if self.shutdown.swap(true, Ordering::Relaxed) {
                false
            } else {
                *self.reason.lock().unwrap_or_else(PoisonError::into_inner) = reason;
                // ordering: Relaxed — see above.
                self.accepting.store(false, Ordering::Relaxed);
                true
            }
        };
        // The journal takes the obs events lock; emit only after the
        // state guard is gone so `Server.state` stays a near-leaf lock
        // (its only nesting is the `Server.reason` claim above).
        if claimed && aqo_obs::enabled() {
            aqo_obs::journal::event("serve_shutdown", vec![("reason", reason.into())]);
        }
        self.work_cv.notify_all();
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut st = self.lock_state();
                loop {
                    if let Some(job) = st.queue.pop_front() {
                        st.executing += 1;
                        break Some((job, st.queue.len(), st.executing));
                    }
                    // ordering: Relaxed — read under the state lock that
                    // `begin_shutdown` holds while setting the flag.
                    if self.shutdown.load(Ordering::Relaxed) {
                        break None;
                    }
                    st = self.work_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let Some((job, queued, executing)) = job else { return };
            self.publish_gauges(queued, executing);
            // Rejoin the request's trace across the queue hop: handling
            // spans and events share the trace id minted at intake.
            let _trace = (job.trace_id != 0).then(|| {
                aqo_obs::trace::install(aqo_obs::trace::TraceHandle::root(job.trace_id))
            });
            let reply = self.engine.handle_degraded(&job.req, job.degrade);
            // ordering: Relaxed — statistics counters only.
            match reply.is_ok() {
                true => self.ok.fetch_add(1, Ordering::Relaxed), // ordering: stats only
                false => self.errors.fetch_add(1, Ordering::Relaxed), // ordering: stats only
            };
            if matches!(&reply, Reply::Ok(r) if r.degraded) {
                // ordering: Relaxed — statistics counter only.
                self.degraded.fetch_add(1, Ordering::Relaxed);
            }
            self.record_reply(&job.req, &reply);
            write_reply(&job.out, &reply);
            let mut st = self.lock_state();
            st.executing -= 1;
            let (queued, executing) = (st.queue.len(), st.executing);
            drop(st);
            self.publish_gauges(queued, executing);
            // Wake the drain waiter (and any idle workers).
            self.work_cv.notify_all();
        }
    }

    /// Publishes queue gauges from values captured under the state lock.
    /// Takes values, not the guard: a handle's first lookup acquires the
    /// obs registry lock, and the queue lock must never nest over obs
    /// locks.
    fn publish_gauges(&self, queued: usize, executing: usize) {
        if aqo_obs::enabled() {
            aqo_obs::gauge_handle!("serve.queue_depth").set(queued as u64);
            aqo_obs::gauge_handle!("serve.inflight").set((queued + executing) as u64);
        }
    }

    /// One client connection: read lines, fast-path control ops, submit
    /// the rest. Returns when the client hangs up, abuses the protocol
    /// (slow-loris, oversized line — evicted with a structured error), or
    /// the server stops.
    fn serve_connection(&self, stream: TcpStream) {
        // Nagle + delayed ACK adds ~40ms to every one-line round trip,
        // so turn it off; if that fails the connection still works.
        let _ = stream.set_nodelay(true);
        // The read timeout is what lets this thread notice shutdown while
        // blocked on a quiet client: without it the thread would pin the
        // scope forever, so failure to set it means the connection cannot
        // be served safely.
        if stream.set_read_timeout(Some(self.conn_timeout)).is_err() {
            return;
        }
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let conn = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let out: SharedWriter = ConnWriter::tcp(writer, conn);
        let mut reader =
            LineReader::new(stream, self.max_line_bytes, self.read_deadline);
        loop {
            // ordering: Relaxed — monotone stop flag; worst case this
            // connection reads one more line before hanging up.
            let stop = || self.shutdown.load(Ordering::Relaxed);
            match reader.next_line(&stop) {
                Ok(LineEvent::Line(line)) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    if self.intake_line(line.trim_end(), &out, false) {
                        return;
                    }
                }
                Ok(LineEvent::Evicted(reason)) => {
                    self.evict_connection(&out, reason);
                    return;
                }
                Ok(LineEvent::Closed) | Err(_) => return,
            }
        }
    }

    /// Answers a protocol abuser with a structured `evicted` error, then
    /// drops the socket.
    fn evict_connection(&self, out: &SharedWriter, reason: EvictReason) {
        // ordering: Relaxed — statistics counter only.
        self.evicted.fetch_add(1, Ordering::Relaxed);
        if aqo_obs::enabled() {
            match reason {
                EvictReason::Stalled => {
                    aqo_obs::counter_handle!("serve.evicted_slow").inc();
                }
                EvictReason::Oversized => {
                    aqo_obs::counter_handle!("serve.evicted_oversized").inc();
                }
            }
            aqo_obs::journal::event(
                "serve_evicted",
                vec![("reason", reason.name().into())],
            );
        }
        write_reply(
            out,
            &Reply::Err(ErrReply::new(0, ErrorKind::Evicted, reason.message().into())),
        );
        out.drop_connection();
    }

    /// Parses and routes one request line; returns `true` when the
    /// connection (or stdio loop) should stop reading. `direct` executes
    /// optimize/explain inline instead of queueing (the stdio transport).
    fn intake_line(&self, line: &str, out: &SharedWriter, direct: bool) -> bool {
        self.touch_intake();
        let req = match Request::parse(line) {
            Ok(r) => r,
            Err(message) => {
                write_reply(out, &Reply::Err(ErrReply::new(0, ErrorKind::Parse, message)));
                return false;
            }
        };
        // Mint the request's trace id and bind it to this thread: every
        // event from here to the reply (intake, admission, and — via the
        // Job — worker handling) shares it.
        let trace_id = if aqo_obs::enabled() { aqo_obs::trace::next_trace_id() } else { 0 };
        let _trace = (trace_id != 0)
            .then(|| aqo_obs::trace::install(aqo_obs::trace::TraceHandle::root(trace_id)));
        self.note_request(&req);
        match req.op {
            Op::Status => {
                write_reply(out, &self.status_reply(req.id));
                false
            }
            Op::Metrics => {
                write_reply(out, &self.metrics_reply(req.id));
                false
            }
            Op::Shutdown => {
                write_reply(out, &Reply::ShutdownAck { id: req.id });
                self.begin_shutdown("shutdown");
                true
            }
            Op::Optimize | Op::Explain => {
                if direct {
                    let reply = self.engine.handle(&req);
                    // ordering: Relaxed — statistics counters only.
                    match reply.is_ok() {
                        true => self.ok.fetch_add(1, Ordering::Relaxed), // ordering: stats only
                        false => self.errors.fetch_add(1, Ordering::Relaxed), // ordering: stats only
                    };
                    self.record_reply(&req, &reply);
                    write_reply(out, &reply);
                } else if let Some(rejection) = self.submit(req, out, trace_id) {
                    write_reply(out, &rejection);
                }
                false
            }
        }
    }

    /// Admission control: enqueue (at an overload-chosen ladder level),
    /// or return the structured rejection. The pressure reading and the
    /// enqueue happen under one lock acquisition, so the cap is exact.
    fn submit(&self, req: Request, out: &SharedWriter, trace_id: u64) -> Option<Reply> {
        let mut st = self.lock_state();
        // ordering: Relaxed — read under the same lock `begin_shutdown`
        // sets it under.
        if !self.accepting.load(Ordering::Relaxed) {
            return Some(Reply::Err(ErrReply::new(
                req.id,
                ErrorKind::Shutdown,
                "server is shutting down".into(),
            )));
        }
        let inflight = st.queue.len() + st.executing;
        if inflight >= self.max_inflight {
            // The rejection enqueues nothing, so the exact-cap guarantee
            // does not need the lock past this point; drop it before the
            // obs emission (journal = obs events lock) so the queue lock
            // never nests over obs locks.
            drop(st);
            // ordering: Relaxed — statistics counter only.
            self.overloaded.fetch_add(1, Ordering::Relaxed);
            if aqo_obs::enabled() {
                aqo_obs::counter_handle!("serve.overloaded").inc();
                aqo_obs::journal::event(
                    "serve_overloaded",
                    vec![("id", req.id.into()), ("inflight", inflight.into())],
                );
            }
            return Some(Reply::Err(ErrReply {
                id: req.id,
                kind: ErrorKind::Overloaded,
                message: format!(
                    "admission control: {inflight} requests in flight (cap {})",
                    self.max_inflight
                ),
                retry_after_ms: Some(RETRY_AFTER_MS),
            }));
        }
        let degrade = self.ladder_level(inflight);
        st.queue.push_back(Job { req, out: Arc::clone(out), degrade, trace_id });
        let (queued, executing) = (st.queue.len(), st.executing);
        drop(st);
        self.publish_gauges(queued, executing);
        self.work_cv.notify_one();
        None
    }

    /// The graceful-degradation ladder: queue pressure (inflight as a
    /// fraction of the admission cap) picks how much of the request's
    /// chain survives. Below half pressure nothing changes; from half,
    /// exponential exact tiers are dropped; from three quarters only the
    /// polynomial heuristics run; at the cap `submit` sheds instead.
    fn ladder_level(&self, inflight: usize) -> Degrade {
        if inflight * 4 >= self.max_inflight * 3 {
            Degrade::Heavy
        } else if inflight * 2 >= self.max_inflight {
            Degrade::Light
        } else {
            Degrade::Full
        }
    }

    /// Captures a replayable observation when recording is on. The sink
    /// mutex is a leaf lock: nothing (the obs registry included) is ever
    /// acquired while it is held, so it cannot join a lock cycle.
    fn record_reply(&self, req: &Request, reply: &Reply) {
        if let Some(sink) = &self.record {
            if let Some(entry) = crate::record::capture(req, reply) {
                sink.lock().unwrap_or_else(PoisonError::into_inner).push(entry);
            }
        }
    }

    fn note_request(&self, req: &Request) {
        // ordering: Relaxed — statistics counter only.
        self.requests.fetch_add(1, Ordering::Relaxed);
        if aqo_obs::enabled() {
            match req.op {
                Op::Optimize => aqo_obs::counter_handle!("serve.requests.optimize"),
                Op::Explain => aqo_obs::counter_handle!("serve.requests.explain"),
                Op::Status => aqo_obs::counter_handle!("serve.requests.status"),
                Op::Metrics => aqo_obs::counter_handle!("serve.requests.metrics"),
                Op::Shutdown => aqo_obs::counter_handle!("serve.requests.shutdown"),
            }
            .inc();
            // The journal drops events while capture is off (`aqo serve`
            // without `--trace-json`): build no fields for it then.
            if !aqo_obs::journal::capturing() {
                return;
            }
            let mut fields = vec![
                ("id", req.id.into()),
                ("op", req.op.name().into()),
                ("problem", req.problem.name().into()),
            ];
            // Optimize requests journal the instance and any non-default
            // knobs so `aqo replay extract` can rebuild the request side
            // of a workload from the journal alone (the reply side rides
            // on the matching `serve_response` event via the trace id).
            if req.op == Op::Optimize {
                if let Some(inst) = &req.instance {
                    fields.push(("instance", inst.clone().into()));
                }
                fields.extend(req.knobs().map(|(key, value)| (key, value.into())));
            }
            aqo_obs::journal::event("serve_request", fields);
        }
    }

    fn status_reply(&self, id: u64) -> Reply {
        let (queue_depth, executing) = {
            let st = self.lock_state();
            (st.queue.len(), st.executing)
        };
        let cache = self.engine.cache().stats();
        Reply::Status(Box::new(StatusReply {
            id,
            workers: self.workers,
            queue_depth,
            executing,
            max_inflight: self.max_inflight,
            // ordering: Relaxed — statistics snapshot only.
            accepting: self.accepting.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed), // ordering: stats snapshot
            responses_ok: self.ok.load(Ordering::Relaxed), // ordering: stats snapshot
            responses_error: self.errors.load(Ordering::Relaxed), // ordering: stats snapshot
            overloaded: self.overloaded.load(Ordering::Relaxed), // ordering: stats snapshot
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_inserts: cache.inserts,
            cache_evictions: cache.evictions,
            cache_len: cache.len,
            cache_capacity: cache.capacity,
            uptime_us: self.started.elapsed().as_micros() as u64,
        }))
    }

    /// The `metrics` reply: a full observability snapshot rendered as one
    /// JSON line — nonzero counters, all gauges, live histograms with
    /// quantiles, and the recent time-series rings. Served inline on the
    /// connection thread (registry + series locks only — never the worker
    /// pool), so it stays responsive under full queue pressure.
    fn metrics_reply(&self, id: u64) -> Reply {
        use std::fmt::Write as _;
        let (queue_depth, executing) = {
            let st = self.lock_state();
            (st.queue.len(), st.executing)
        };
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"id\": {id}, \"ok\": true, \"op\": \"metrics\", \
             \"schema\": \"aqo-metrics/v1\", \"enabled\": {}, \"uptime_us\": {}, \
             \"workers\": {}, \"queue_depth\": {queue_depth}, \"executing\": {executing}, \
             \"max_inflight\": {}, \"accepting\": {}",
            aqo_obs::enabled(),
            self.started.elapsed().as_micros() as u64,
            self.workers,
            self.max_inflight,
            // ordering: Relaxed — statistics snapshot only.
            self.accepting.load(Ordering::Relaxed),
        );
        let snap = aqo_obs::snapshot();
        let mut first = true;
        out.push_str(", \"counters\": {");
        for m in &snap {
            if let aqo_obs::SnapshotValue::Counter(v) = m.value {
                if v == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                aqo_obs::json::escape_into(&mut out, &m.name);
                let _ = write!(out, ": {v}");
            }
        }
        out.push_str("}, \"gauges\": {");
        first = true;
        for m in &snap {
            if let aqo_obs::SnapshotValue::Gauge(v) = m.value {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                aqo_obs::json::escape_into(&mut out, &m.name);
                let _ = write!(out, ": {v}");
            }
        }
        out.push_str("}, \"histograms\": {");
        first = true;
        for m in &snap {
            if let aqo_obs::SnapshotValue::Histogram { count, sum, max, p50, p90, p99, p999 } =
                m.value
            {
                if count == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                aqo_obs::json::escape_into(&mut out, &m.name);
                let _ = write!(
                    out,
                    ": {{\"count\": {count}, \"mean_us\": {:.1}, \"max\": {max}, \
                     \"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}, \"p999\": {p999}}}",
                    sum as f64 / count as f64
                );
            }
        }
        out.push_str("}, \"series\": {");
        first = true;
        for (name, points) in aqo_obs::series::series_snapshot() {
            if !first {
                out.push_str(", ");
            }
            first = false;
            aqo_obs::json::escape_into(&mut out, &name);
            out.push_str(": [");
            for (i, p) in points.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                // Points are u64 values or quantiles cast to f64 — always
                // finite, and `{p:?}` is valid JSON for finite floats.
                let _ = write!(out, "{p:?}");
            }
            out.push(']');
        }
        out.push_str("}}");
        Reply::Metrics(out)
    }
}

/// Serializes the reply and writes it as one line under the connection's
/// writer lock. Write errors mean the client hung up or stopped draining
/// (the write timeout fired); the connection is dropped so the client
/// never waits on a reply that will not finish — the *request* was still
/// counted and executed.
///
/// Three network fault sites live here, modelling reply-path failures:
/// `serve::net::conn_drop` kills the connection before any bytes,
/// `serve::net::torn_write` after half the frame, and
/// `serve::net::partial_frame` writes the frame without its newline
/// terminator and leaves the connection open (the client's read deadline
/// is what recovers). Panic-mode faults are contained right here so a
/// writing worker or connection thread never unwinds into its pool.
fn write_reply(out: &SharedWriter, reply: &Reply) {
    let result = faults::with_quiet_panics(|| {
        catch_unwind(AssertUnwindSafe(|| write_reply_inner(out, reply)))
    });
    if result.is_err() {
        out.drop_connection();
    }
}

fn write_reply_inner(out: &SharedWriter, reply: &Reply) {
    let mut line = reply.to_json_line();
    line.push('\n');
    let mut cut = None;
    if faults::fail_point("serve::net::conn_drop").is_err() {
        out.drop_connection();
        return;
    }
    if faults::fail_point("serve::net::torn_write").is_err() {
        cut = Some(line.len() / 2);
    }
    let partial = faults::fail_point("serve::net::partial_frame").is_err();
    if partial {
        cut = Some(line.len() - 1);
    }
    let bytes = &line.as_bytes()[..cut.unwrap_or(line.len())];
    let failed = {
        let mut w = out.writer.lock().unwrap_or_else(PoisonError::into_inner);
        // analyze:allow(blocking-under-lock) -- the writer mutex exists
        // precisely to serialize whole frames onto the socket; the hold
        // is bounded by WRITE_TIMEOUT on the stream and no other lock is
        // ever taken while it is held (leaf lock by canonical order).
        w.write_all(bytes).and_then(|()| w.flush()).is_err()
    };
    // A torn write is a dead connection; a partial frame deliberately
    // stays open (that is the failure mode it models).
    if failed || (cut.is_some() && !partial) {
        out.drop_connection();
    }
}

/// Why a connection was evicted by the read path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EvictReason {
    /// A partial line sat incomplete past the read deadline (slow loris).
    Stalled,
    /// The line grew past the configured size limit.
    Oversized,
}

impl EvictReason {
    fn name(self) -> &'static str {
        match self {
            EvictReason::Stalled => "slow",
            EvictReason::Oversized => "oversized",
        }
    }

    fn message(self) -> &'static str {
        match self {
            EvictReason::Stalled => "request line stalled past the read deadline",
            EvictReason::Oversized => "request line exceeds the size limit",
        }
    }
}

/// What the read loop produced.
enum LineEvent {
    /// A complete request line (without the newline).
    Line(String),
    /// EOF, or the server is stopping.
    Closed,
    /// The client must be evicted.
    Evicted(EvictReason),
}

/// Incremental newline-delimited reader over a socket with a read
/// timeout: timeouts poll the `stop` flag instead of aborting the
/// connection, so a quiet client does not pin the thread past shutdown.
/// Enforces the line-size limit and the slow-loris deadline (a *partial*
/// line older than the deadline evicts; complete lines reset the clock).
struct LineReader {
    stream: TcpStream,
    pending: Vec<u8>,
    max_line: usize,
    deadline: Option<Duration>,
    /// When the currently-pending partial line started accumulating.
    partial_since: Option<Instant>,
}

impl LineReader {
    fn new(stream: TcpStream, max_line: usize, deadline: Option<Duration>) -> Self {
        LineReader { stream, pending: Vec::new(), max_line, deadline, partial_since: None }
    }

    fn next_line(&mut self, stop: &dyn Fn() -> bool) -> std::io::Result<LineEvent> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                // The size limit also applies to a complete line that
                // arrived in one read chunk, not just to partial lines
                // accumulated across reads.
                if pos > self.max_line {
                    return Ok(LineEvent::Evicted(EvictReason::Oversized));
                }
                let rest = self.pending.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.pending, rest);
                line.pop();
                self.partial_since =
                    if self.pending.is_empty() { None } else { Some(Instant::now()) };
                return Ok(LineEvent::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            if self.pending.len() > self.max_line {
                return Ok(LineEvent::Evicted(EvictReason::Oversized));
            }
            if let (Some(deadline), Some(since)) = (self.deadline, self.partial_since) {
                if since.elapsed() >= deadline {
                    return Ok(LineEvent::Evicted(EvictReason::Stalled));
                }
            }
            if stop() {
                return Ok(LineEvent::Closed);
            }
            let mut buf = [0u8; 4096];
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(LineEvent::Closed),
                Ok(n) => {
                    // The read path's fault sites are polled when bytes
                    // arrive, never on a read timeout, so an idle or
                    // closing connection cannot take a fire meant for an
                    // active one. `serve::net::stalled_read`: delay stalls
                    // the loop one fault budget at a time; err aborts the
                    // read as a peer reset would. `serve::net::oversized_line`
                    // forces the eviction path as if the limit had been hit.
                    if faults::fail_point("serve::net::stalled_read").is_err() {
                        return Ok(LineEvent::Closed);
                    }
                    if faults::fail_point("serve::net::oversized_line").is_err() {
                        return Ok(LineEvent::Evicted(EvictReason::Oversized));
                    }
                    // analyze:allow(panic-path) -- n <= buf.len() by the
                    // io::Read contract, so the slice is in range.
                    self.pending.extend_from_slice(&buf[..n]);
                    if self.partial_since.is_none() && !self.pending.is_empty() {
                        self.partial_since = Some(Instant::now());
                    }
                }
                Err(e)
                    if e.kind() == IoErrorKind::WouldBlock
                        || e.kind() == IoErrorKind::TimedOut
                        || e.kind() == IoErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}
