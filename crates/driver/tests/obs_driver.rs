//! Observability integration for the driver: armed fault sites surface as
//! per-site hit/injected counters and `fault_injected` journal events, the
//! retry path journals one `retry` per spurious failure, and the
//! machine-readable [`DriverReport::to_json`] names each injected attempt.
//!
//! Each test arms its faults and reads its counters and journal in a
//! scope of its own.

use aqo_core::workloads;
use aqo_driver::{optimize_qon, QonDriverConfig, RetryPolicy};
use aqo_obs::faults;
use aqo_obs::journal;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn counter_value(counters: &[(String, u64)], name: &str) -> u64 {
    counters.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
}

#[test]
fn injected_faults_are_counted_per_site_and_journaled() {
    let _scope = aqo_obs::Scope::new().install();
    // The CLI arms sites through the same spec parser (`AQO_FAULTS`).
    assert_eq!(faults::load_spec("qon::dp=err*2"), Ok(1));
    aqo_obs::set_enabled(true);

    let mut rng = StdRng::seed_from_u64(5);
    let inst = workloads::clique(7, &workloads::WorkloadParams::default(), &mut rng);
    let cfg = QonDriverConfig {
        retry: RetryPolicy { max_retries: 2, initial_backoff: Duration::from_millis(1) },
        ..QonDriverConfig::default()
    };
    let outcome = optimize_qon(&inst, &cfg).expect("third attempt passes the fail point");

    let counters = aqo_obs::counters_snapshot();
    let events = journal::drain();

    // Two fires, then the third (successful) attempt still *hits* the
    // armed site.
    assert_eq!(counter_value(&counters, "faults.injected.qon::dp"), 2);
    assert_eq!(counter_value(&counters, "faults.hit.qon::dp"), 3);
    assert_eq!(counter_value(&counters, "driver.retries"), 2);
    assert_eq!(counter_value(&counters, "driver.tier_failure"), 2);
    assert_eq!(counter_value(&counters, "driver.tier_success"), 1);

    let injected: Vec<_> = events.iter().filter(|e| e.etype == "fault_injected").collect();
    assert_eq!(injected.len(), 2, "one event per fired fault: {events:?}");
    for e in &injected {
        assert!(
            e.fields.contains(&("site", journal::Value::from("qon::dp"))),
            "site field names the fail point: {e:?}"
        );
        assert!(e.fields.contains(&("kind", journal::Value::from("err"))));
    }
    assert_eq!(events.iter().filter(|e| e.etype == "retry").count(), 2);
    // tier_start precedes each of the three attempts.
    assert_eq!(events.iter().filter(|e| e.etype == "tier_start").count(), 3);

    // The machine-readable report records both injected attempts.
    assert_eq!(outcome.report.tier, "dp");
    let json = outcome.report.to_json();
    assert_eq!(json.matches("\"kind\": \"injected\"").count(), 2, "json: {json}");
    assert!(json.contains("\"retries\": 2"), "json: {json}");
}

#[test]
fn disabled_collection_leaves_no_trace() {
    let _scope = aqo_obs::Scope::new().install();
    assert!(!aqo_obs::enabled());
    faults::arm("qon::dp", faults::FaultKind::Error, 1);

    let mut rng = StdRng::seed_from_u64(9);
    let inst = workloads::clique(6, &workloads::WorkloadParams::default(), &mut rng);
    let cfg = QonDriverConfig {
        retry: RetryPolicy { max_retries: 1, initial_backoff: Duration::from_millis(1) },
        ..QonDriverConfig::default()
    };
    optimize_qon(&inst, &cfg).expect("retry succeeds");

    assert!(aqo_obs::counters_snapshot().is_empty(), "no counters while disabled");
    assert!(journal::drain().is_empty(), "no events while disabled");
}
