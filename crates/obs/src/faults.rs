//! Deterministic fault injection at named sites, workspace-wide.
//!
//! Callers place [`fail_point`] immediately before the operation the site
//! names: the driver before each optimizer tier (`qon::dp`, …), the serve
//! engine before request handling (`serve::request`), the serve transport
//! inside its read/write paths (`serve::net::*`), and the snapshot layer
//! around persistence I/O (`serve::storage::*`). A site does nothing
//! until *armed* with a [`FaultKind`] and a fire count; the first `count`
//! hits then trigger the fault and later hits pass — which makes an armed
//! `Error` fault *transient* and exercises retry paths, while a large
//! count makes an operation permanently unavailable.
//!
//! Armed sites belong to a [`Scope`](crate::Scope): [`arm`] and
//! [`fail_point`] act on the current thread's scope, so a test or a chaos
//! campaign arms only the scope its own server runs in. Arming is either
//! programmatic ([`arm`], for tests and the chaos campaign runner) or via
//! the `AQO_FAULTS` environment variable ([`load_env`], wired into the CLI,
//! which arms the root scope):
//!
//! ```text
//! AQO_FAULTS="qon::dp=panic,qon::greedy=err*2,qon::ikkbz=delay:50"
//! ```
//!
//! Entries are comma-separated `site=kind[*count]` with `kind` one of
//! `panic`, `err`, or `delay:<millis>`; `count` defaults to 1. Everything is
//! countdown-based and keyed on the site name — no randomness — so a given
//! configuration always fails the same attempts in the same way.
//!
//! The full set of sites the workspace defines is enumerable through
//! [`CATALOG`]: `aqo chaos` sweeps every cataloged site against every
//! fault kind (docs/ROBUSTNESS.md). A new `fail_point` call therefore
//! comes with a new catalog row, so the chaos campaign covers it.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// What an armed fail point does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic (every caller isolates it with `catch_unwind` and degrades).
    Panic,
    /// Return a spurious [`InjectedFault`] error (transient: retryable).
    Error,
    /// Sleep for the given duration, then proceed normally.
    Delay(Duration),
}

impl FaultKind {
    /// Stable name used in `AQO_FAULTS` specs, journal events, and
    /// `CHAOS.json` cells.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Error => "err",
            FaultKind::Delay(_) => "delay",
        }
    }
}

/// The error produced by an armed [`FaultKind::Error`] site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: String,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at `{}`", self.site)
    }
}

impl std::error::Error for InjectedFault {}

/// One row of the workspace fail-point catalog: where the site sits and
/// what armed faults simulate there.
#[derive(Clone, Copy, Debug)]
pub struct SiteInfo {
    /// The site name passed to [`fail_point`].
    pub site: &'static str,
    /// The subsystem that owns the site (`driver`, `serve`, `storage`).
    pub layer: &'static str,
    /// What an injected fault means at this site.
    pub description: &'static str,
}

/// Every fail point the workspace defines, in sweep order. The chaos
/// campaign (`aqo chaos`) enumerates this table; keep it in sync with the
/// `fail_point` call sites (each row names its host module).
pub const CATALOG: &[SiteInfo] = &[
    SiteInfo {
        site: "qon::dp",
        layer: "driver",
        description: "before the QO_N subset-DP tier (aqo_driver::drive)",
    },
    SiteInfo {
        site: "qon::ikkbz",
        layer: "driver",
        description: "before the QO_N IKKBZ tier (aqo_driver::drive)",
    },
    SiteInfo {
        site: "qon::greedy",
        layer: "driver",
        description: "before the QO_N greedy tier (aqo_driver::drive)",
    },
    SiteInfo {
        site: "qoh::exhaustive",
        layer: "driver",
        description: "before the QO_H exhaustive tier (aqo_driver::drive)",
    },
    SiteInfo {
        site: "qoh::greedy",
        layer: "driver",
        description: "before the QO_H greedy tier (aqo_driver::drive)",
    },
    SiteInfo {
        site: "serve::request",
        layer: "serve",
        description: "inside request handling, under catch_unwind (serve::engine)",
    },
    SiteInfo {
        site: "serve::net::torn_write",
        layer: "serve",
        description: "err tears a reply mid-frame and drops the connection (serve::server)",
    },
    SiteInfo {
        site: "serve::net::partial_frame",
        layer: "serve",
        description: "err writes a newline-less reply prefix, leaving the frame open (serve::server)",
    },
    SiteInfo {
        site: "serve::net::conn_drop",
        layer: "serve",
        description: "err drops the connection before the reply bytes (serve::server)",
    },
    SiteInfo {
        site: "serve::net::stalled_read",
        layer: "serve",
        description: "delay stalls the connection read loop; err aborts the read (serve::server)",
    },
    SiteInfo {
        site: "serve::net::oversized_line",
        layer: "serve",
        description: "err forces the oversized-line eviction path on the next frame (serve::server)",
    },
    SiteInfo {
        site: "serve::storage::snapshot_write",
        layer: "storage",
        description: "err tears the snapshot file mid-write, simulating a crash (serve::snapshot)",
    },
    SiteInfo {
        site: "serve::storage::snapshot_load",
        layer: "storage",
        description: "err discredits the snapshot checksum, forcing per-line salvage (serve::snapshot)",
    },
];

#[derive(Clone, Debug)]
struct Spec {
    kind: FaultKind,
    /// The fire count it was armed with.
    count: u64,
    /// Fires while positive, then the site passes.
    remaining: u64,
    /// Total hits observed at this site since it was armed.
    hits: u64,
}

/// One scope's armed sites.
#[derive(Debug, Default)]
pub(crate) struct Table {
    /// Set by [`arm`] and reset by [`clear`], so an unarmed scope's
    /// [`fail_point`] returns without touching `sites`.
    armed: AtomicBool,
    sites: Mutex<BTreeMap<String, Spec>>,
}

impl Table {
    fn sites(&self) -> MutexGuard<'_, BTreeMap<String, Spec>> {
        // A panic while holding the lock is a legitimate outcome here
        // (that is what FaultKind::Panic does between hits), so ignore
        // poisoning.
        self.sites.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts a hit at `site`: `None` when it is not armed, else the fault
    /// to fire (`None` once its fires are spent).
    fn hit(&self, site: &str) -> Option<Option<FaultKind>> {
        // ordering: `armed` only lets an unarmed scope skip the lock; the
        // specs themselves are read under it. Any hit ordered after `arm`
        // (same thread, a spawn, a queue hand-off) sees the store.
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        let mut sites = self.sites();
        let spec = sites.get_mut(site)?;
        spec.hits += 1;
        if spec.remaining == 0 {
            return Some(None);
        }
        spec.remaining -= 1;
        Some(Some(spec.kind))
    }
}

/// Arms `site` in the current scope to fire `kind` on its next `count`
/// hits.
pub fn arm(site: &str, kind: FaultKind, count: u64) {
    crate::scope::with(|s| {
        s.faults.sites().insert(site.to_string(), Spec { kind, count, remaining: count, hits: 0 });
        // ordering: see `Table::hit`.
        s.faults.armed.store(true, Ordering::Relaxed);
    });
}

/// Disarms every site of the current scope and forgets all hit counts.
pub fn clear() {
    crate::scope::with(|s| {
        s.faults.sites().clear();
        // ordering: see `Table::hit`.
        s.faults.armed.store(false, Ordering::Relaxed);
    });
}

/// Number of [`fail_point`] hits at `site` since it was armed (armed sites
/// keep counting after their fault budget is spent; unarmed sites are not
/// tracked).
pub fn hits(site: &str) -> u64 {
    crate::scope::with(|s| s.faults.sites().get(site).map_or(0, |spec| spec.hits))
}

/// Number of hits at `site` that fired since it was armed: the armed count
/// minus the fires left. Unlike [`hits`], it does not count the passing
/// hits after the fires, so it does not depend on how often a site is
/// polled once its faults are spent.
pub fn fired(site: &str) -> u64 {
    crate::scope::with(|s| {
        s.faults.sites().get(site).map_or(0, |spec| spec.count - spec.remaining)
    })
}

/// The fail point itself: a no-op unless `site` is armed with fires left
/// in the current scope. In a scope with nothing armed it takes no lock.
///
/// Every hit at an *armed* site increments the `faults.hit.<site>` counter;
/// hits that actually fire additionally increment `faults.injected.<site>`
/// and journal a `fault_injected` event. Both happen after the table
/// lock is released and before the fault takes effect, so the metrics are
/// visible even when the fault panics.
pub fn fail_point(site: &str) -> Result<(), InjectedFault> {
    let Some(action) = crate::scope::with(|s| s.faults.hit(site)) else { return Ok(()) };
    if crate::enabled() {
        crate::counter(&format!("faults.hit.{site}")).inc();
    }
    let Some(action) = action else { return Ok(()) };
    if crate::enabled() {
        crate::counter(&format!("faults.injected.{site}")).inc();
        crate::journal::event(
            "fault_injected",
            vec![("site", site.into()), ("kind", action.name().into())],
        );
    }
    match action {
        #[expect(
            clippy::panic,
            reason = "the documented effect of an armed Panic fault; every fail_point caller \
                      wraps in catch_unwind"
        )]
        FaultKind::Panic => panic!("injected panic at fail point `{site}`"),
        FaultKind::Error => Err(InjectedFault { site: site.to_string() }),
        FaultKind::Delay(d) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

/// Parses a `site=kind[*count],...` spec and arms it in the current
/// scope; returns the number of sites armed.
pub fn load_spec(spec: &str) -> Result<usize, String> {
    let mut armed = 0usize;
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let (site, rest) =
            entry.split_once('=').ok_or_else(|| format!("fault entry `{entry}`: missing `=`"))?;
        let (kind_str, count) = match rest.split_once('*') {
            Some((k, c)) => {
                let c: u64 = c
                    .parse()
                    .map_err(|_| format!("fault entry `{entry}`: bad count `{c}`"))?;
                (k, c)
            }
            None => (rest, 1),
        };
        let kind = match kind_str.split_once(':') {
            None if kind_str == "panic" => FaultKind::Panic,
            None if kind_str == "err" => FaultKind::Error,
            Some(("delay", ms)) => {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("fault entry `{entry}`: bad delay `{ms}`"))?;
                FaultKind::Delay(Duration::from_millis(ms))
            }
            _ => return Err(format!("fault entry `{entry}`: unknown kind `{kind_str}`")),
        };
        arm(site, kind, count);
        armed += 1;
    }
    Ok(armed)
}

/// Arms sites in the current scope from the `AQO_FAULTS` environment
/// variable (absent: no-op).
pub fn load_env() -> Result<usize, String> {
    match std::env::var("AQO_FAULTS") {
        Ok(spec) => load_spec(&spec),
        Err(_) => Ok(0),
    }
}

/// Runs `f` with this thread's panic messages suppressed: fault-tolerant
/// layers *expect* panics (that is what `FaultKind::Panic` and tier
/// degradation are for), and a backtrace per swallowed panic would drown
/// real output. The hook is installed once and delegates to the previous
/// hook for every other thread, so genuine panics elsewhere still print.
pub fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    use std::cell::Cell;
    thread_local! {
        static SUPPRESS: Cell<bool> = const { Cell::new(false) };
    }
    static INSTALL: OnceLock<()> = OnceLock::new();
    INSTALL.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS.with(Cell::get) {
                prev(info);
            }
        }));
    });
    SUPPRESS.with(|s| s.set(true));
    let r = f();
    SUPPRESS.with(|s| s.set(false));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scope;

    #[test]
    fn unarmed_site_is_noop() {
        let _scope = Scope::new().install();
        assert_eq!(fail_point("faults-test::unarmed"), Ok(()));
        assert_eq!(hits("faults-test::unarmed"), 0);
    }

    #[test]
    fn error_fault_is_transient() {
        let _scope = Scope::new().install();
        let site = "faults-test::transient";
        arm(site, FaultKind::Error, 2);
        assert!(fail_point(site).is_err());
        assert!(fail_point(site).is_err());
        assert!(fail_point(site).is_ok());
        assert_eq!(hits(site), 3);
        assert!(fail_point(site).is_ok());
        assert_eq!((hits(site), fired(site)), (4, 2), "passing hits are not fires");
        assert_eq!(fired("faults-test::unarmed"), 0);
    }

    #[test]
    fn panic_fault_panics() {
        let _scope = Scope::new().install();
        let site = "faults-test::panic";
        arm(site, FaultKind::Panic, 1);
        let caught = with_quiet_panics(|| std::panic::catch_unwind(|| fail_point(site)));
        assert!(caught.is_err());
        assert!(fail_point(site).is_ok(), "single-shot: second hit passes");
    }

    #[test]
    fn spec_parsing_round_trips() {
        let _scope = Scope::new().install();
        assert_eq!(
            load_spec("faults-test::a=panic, faults-test::b=err*3,faults-test::c=delay:5"),
            Ok(3)
        );
        assert!(fail_point("faults-test::b").is_err());
        assert!(fail_point("faults-test::c").is_ok()); // delays then passes

        clear();
        assert_eq!(fail_point("faults-test::b"), Ok(()), "cleared");
        assert!(load_spec("nosign").is_err());
        assert!(load_spec("s=warble").is_err());
        assert!(load_spec("s=err*many").is_err());
        assert!(load_spec("s=delay:soon").is_err());
        assert_eq!(load_spec(""), Ok(0));
    }

    /// Two threads, two scopes, one site name: each scope's arming fires
    /// only there.
    #[test]
    fn arming_stays_in_its_scope() {
        let site = "faults-test::scoped";
        std::thread::scope(|t| {
            for fires in [1u64, 3] {
                t.spawn(move || {
                    let _scope = Scope::new().install();
                    arm(site, FaultKind::Error, fires);
                    let failed = (0..5).filter(|_| fail_point(site).is_err()).count();
                    assert_eq!(failed as u64, fires);
                    assert_eq!((hits(site), fired(site)), (5, fires));
                });
            }
        });
        assert_eq!(fail_point(site), Ok(()), "the root scope was never armed");
    }

    #[test]
    fn catalog_names_are_unique_and_armable() {
        let mut names: Vec<&str> = CATALOG.iter().map(|s| s.site).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate catalog site");
        // Exact: a site that drops out and a site added without a chaos
        // cell both show here.
        assert_eq!(CATALOG.len(), 13);
    }
}
