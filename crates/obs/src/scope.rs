//! Observability scopes: the owner of every piece of state the free
//! functions of this crate act on.
//!
//! A [`Scope`] holds one enabled flag, one metric registry, one journal,
//! one set of series rings and one armed-fault table. The process has a
//! *root* scope; [`Scope::install`] binds another scope to the current
//! thread until its guard drops. Every free function — [`crate::counter`],
//! [`crate::set_enabled`], [`crate::journal::event`],
//! [`crate::faults::fail_point`], … — acts on the thread's current scope,
//! which is the root scope when none is installed.
//!
//! Work that hops threads carries its scope along: [`Context::capture`]
//! takes the current scope and trace position, and [`Context::install`]
//! binds both on the worker. `aqo_core::parallel` does this for every
//! scoped worker it spawns, and the serve crate for its connection, pool
//! and sampler threads, so a run reports into the scope it started in.
//!
//! Two scopes share nothing but the process-wide id and time sources: the
//! trace and span id counters ([`crate::trace`]), the journal epoch and
//! the panic hook of [`crate::faults::with_quiet_panics`].

use crate::trace::{self, TraceGuard, TraceHandle};
use crate::{faults, journal, series, Metric};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// The state a scope owns.
#[derive(Debug, Default)]
pub(crate) struct ScopeInner {
    /// Whether instrumentation collects (off by default); every metric
    /// registered here shares it.
    pub(crate) enabled: Arc<AtomicBool>,
    /// Every registered metric, by name.
    pub(crate) registry: Mutex<BTreeMap<String, Metric>>,
    /// The event journal.
    pub(crate) journal: journal::Journal,
    /// The time-series rings.
    pub(crate) series: Mutex<series::Store>,
    /// The armed fail points.
    pub(crate) faults: faults::Table,
}

/// One isolated set of metrics, journal, series and armed faults. Cheap to
/// clone: clones share the same state.
#[derive(Clone, Debug, Default)]
pub struct Scope(Arc<ScopeInner>);

static ROOT: OnceLock<Scope> = OnceLock::new();

thread_local! {
    /// The installed scope; `None` means the root scope.
    static CURRENT: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

/// Runs `f` on the current thread's scope.
#[inline]
pub(crate) fn with<R>(f: impl FnOnce(&ScopeInner) -> R) -> R {
    with_arc(|s| f(s))
}

fn with_arc<R>(f: impl FnOnce(&Arc<ScopeInner>) -> R) -> R {
    CURRENT.with(|c| match &*c.borrow() {
        Some(s) => f(&s.0),
        None => f(&ROOT.get_or_init(Scope::default).0),
    })
}

impl Scope {
    /// A fresh scope: collection off, journal capture on, nothing
    /// registered, nothing armed.
    pub fn new() -> Scope {
        Scope::default()
    }

    /// The current thread's scope.
    pub fn current() -> Scope {
        with_arc(|s| Scope(Arc::clone(s)))
    }

    /// Makes this scope the current thread's scope until the guard drops;
    /// the trace context is left as it is. Guards nest.
    pub fn install(&self) -> ScopeGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(self.clone()));
        ScopeGuard { prev, _trace: None }
    }
}

/// Restores the thread's previous scope (and trace context, when it
/// installed one) on drop. Returned by [`Scope::install`] and
/// [`Context::install`].
#[derive(Debug)]
#[must_use = "the scope is uninstalled when the guard drops"]
pub struct ScopeGuard {
    prev: Option<Scope>,
    _trace: Option<TraceGuard>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// What a thread hands to the workers it spawns: its scope and its trace
/// position.
#[derive(Clone, Debug)]
pub struct Context {
    scope: Scope,
    trace: Option<TraceHandle>,
}

impl Context {
    /// The current thread's scope and trace position.
    pub fn capture() -> Context {
        Context { scope: Scope::current(), trace: trace::current() }
    }

    /// Binds the captured scope and trace position to the current thread
    /// until the guard drops.
    pub fn install(&self) -> ScopeGuard {
        let mut guard = self.scope.install();
        guard._trace = self.trace.map(trace::install);
        guard
    }
}

/// The per-thread cache behind [`counter_handle!`](crate::counter_handle),
/// [`gauge_handle!`](crate::gauge_handle) and
/// [`histogram_handle!`](crate::histogram_handle): one handle, valid for
/// the scope it was looked up in. The `Weak` keeps that scope's allocation
/// alive, so a later scope cannot reuse its address and be mistaken for it.
#[doc(hidden)]
#[derive(Debug)]
pub struct HandleCache<T>(RefCell<Option<(Weak<ScopeInner>, T)>>);

impl<T: Clone> Default for HandleCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> HandleCache<T> {
    /// An empty cache.
    pub const fn new() -> Self {
        HandleCache(RefCell::new(None))
    }

    /// The handle named `name` in the current scope: the cached one when
    /// the scope has not changed since, else `make(name)`.
    pub fn get(&self, make: fn(&str) -> T, name: &str) -> T {
        with_arc(|scope| {
            if let Some((cached, handle)) = &*self.0.borrow() {
                if std::ptr::eq(cached.as_ptr(), Arc::as_ptr(scope)) {
                    return handle.clone();
                }
            }
            let handle = make(name);
            *self.0.borrow_mut() = Some((Arc::downgrade(scope), handle.clone()));
            handle
        })
    }
}

/// Caches a metric handle per thread and scope; the expansion behind the
/// three `*_handle!` macros.
#[doc(hidden)]
#[macro_export]
macro_rules! cached_handle {
    ($ty:ty, $make:path, $name:expr) => {{
        ::std::thread_local! {
            static HANDLE: $crate::HandleCache<$ty> = const { $crate::HandleCache::new() };
        }
        HANDLE.with(|h| h.get($make, $name))
    }};
}

/// The [`Counter`](crate::Counter) named `$name` in the current scope,
/// cached per call site so repeated passes skip the registry lock.
#[macro_export]
macro_rules! counter_handle {
    ($name:expr) => {
        $crate::cached_handle!($crate::Counter, $crate::counter, $name)
    };
}

/// The [`Gauge`](crate::Gauge) named `$name` in the current scope, cached
/// as [`counter_handle!`] caches counters.
#[macro_export]
macro_rules! gauge_handle {
    ($name:expr) => {
        $crate::cached_handle!($crate::Gauge, $crate::gauge, $name)
    };
}

/// The [`Histogram`](crate::Histogram) named `$name` in the current scope,
/// cached as [`counter_handle!`] caches counters.
#[macro_export]
macro_rules! histogram_handle {
    ($name:expr) => {
        $crate::cached_handle!($crate::Histogram, $crate::histogram, $name)
    };
}
