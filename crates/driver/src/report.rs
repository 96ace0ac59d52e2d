//! What the driver did and what it swallowed along the way.

use aqo_core::budget::BudgetExceeded;
use std::fmt;
use std::time::Duration;

/// Why a tier attempt failed to produce a plan.
#[derive(Clone, Debug)]
pub enum TierFailure {
    /// The cooperative budget tripped inside the tier.
    Budget(BudgetExceeded),
    /// The tier panicked (payload stringified); isolated by `catch_unwind`.
    Panic(String),
    /// The faults layer injected a spurious error (transient: retried).
    Injected(String),
    /// The tier completed but found no feasible plan.
    NoPlan,
    /// The tier cannot handle this instance/config combination at all
    /// (instance too large for its mask width, cartesian products
    /// requested from a connected-only tier). Permanent: never retried,
    /// degrades straight to the next tier.
    Unsupported(String),
}

impl TierFailure {
    /// Stable machine-readable discriminant, used in trace events, fault
    /// counters and the JSON report.
    pub fn kind_str(&self) -> &'static str {
        match self {
            TierFailure::Budget(_) => "budget",
            TierFailure::Panic(_) => "panic",
            TierFailure::Injected(_) => "injected",
            TierFailure::NoPlan => "no_plan",
            TierFailure::Unsupported(_) => "unsupported",
        }
    }
}

impl fmt::Display for TierFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TierFailure::Budget(e) => write!(f, "budget: {e}"),
            TierFailure::Panic(msg) => write!(f, "panic: {msg}"),
            TierFailure::Injected(msg) => write!(f, "injected: {msg}"),
            TierFailure::NoPlan => write!(f, "no feasible plan"),
            TierFailure::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

/// One failed attempt at one tier.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// Name of the tier (`dp`, `ccp`, `ikkbz`, `greedy`, `exhaustive`).
    pub tier: &'static str,
    /// 1-based attempt number at that tier (> 1 only after retries).
    pub attempt: u32,
    /// What went wrong.
    pub failure: TierFailure,
}

impl fmt::Display for Attempt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} attempt {}: {}", self.tier, self.attempt, self.failure)
    }
}

/// How an answer was obtained: which tier produced it, what it cost, and
/// every failure degraded past on the way down the chain.
#[derive(Clone, Debug)]
pub struct DriverReport {
    /// The tier that produced the returned plan.
    pub tier: &'static str,
    /// Whether that tier is exact (optimal) or a heuristic.
    pub exact: bool,
    /// Budget expansions consumed across all tiers (the budget is shared).
    pub expansions: u64,
    /// Bytes charged against the memory cap across all tiers.
    pub memory_bytes: u64,
    /// Wall-clock time from budget start to the winning tier's answer.
    pub elapsed: Duration,
    /// Number of retry backoff sleeps performed for transient faults.
    pub retries: u32,
    /// Every failed attempt, in order, that the driver degraded past.
    pub failures: Vec<Attempt>,
}

impl fmt::Display for DriverReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tier={} kind={} expansions={} memory={}B elapsed={:.3}ms retries={}",
            self.tier,
            if self.exact { "exact" } else { "heuristic" },
            self.expansions,
            self.memory_bytes,
            self.elapsed.as_secs_f64() * 1e3,
            self.retries,
        )?;
        if self.failures.is_empty() {
            return Ok(());
        }
        write!(f, " degraded-past=[")?;
        for (i, a) in self.failures.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "]")
    }
}

impl DriverReport {
    /// Machine-readable JSON rendering of the report (hand-rolled, no
    /// serialization dependency). [`Display`](fmt::Display) stays the
    /// human-facing form; this is what `--report-json` writes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n");
        out.push_str(&format!("  \"tier\": \"{}\",\n", self.tier));
        out.push_str(&format!("  \"exact\": {},\n", self.exact));
        out.push_str(&format!("  \"expansions\": {},\n", self.expansions));
        out.push_str(&format!("  \"memory_bytes\": {},\n", self.memory_bytes));
        out.push_str(&format!(
            "  \"elapsed_ms\": {:.3},\n",
            self.elapsed.as_secs_f64() * 1e3
        ));
        out.push_str(&format!("  \"retries\": {},\n", self.retries));
        out.push_str("  \"failures\": [");
        for (i, a) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"tier\": \"{}\", ", a.tier));
            out.push_str(&format!("\"attempt\": {}, ", a.attempt));
            out.push_str(&format!("\"kind\": \"{}\", ", a.failure.kind_str()));
            out.push_str("\"detail\": ");
            aqo_obs::json::escape_into(&mut out, &a.failure.to_string());
            out.push('}');
        }
        if !self.failures.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Every tier in the chain failed; the failures say how.
#[derive(Clone, Debug)]
pub struct DriverError {
    /// Each attempt's failure, in chain order.
    pub failures: Vec<Attempt>,
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "every tier failed: ")?;
        for (i, a) in self.failures.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

impl std::error::Error for DriverError {}

#[cfg(test)]
mod tests {
    use super::*;
    use aqo_obs::json::{self, JsonValue};

    #[test]
    fn to_json_with_failures_parses() {
        let report = DriverReport {
            tier: "ikkbz",
            exact: false,
            expansions: 42,
            memory_bytes: 1024,
            elapsed: Duration::from_millis(7),
            retries: 1,
            failures: vec![
                Attempt {
                    tier: "dp",
                    attempt: 1,
                    failure: TierFailure::Injected("spurious \"io\" error".into()),
                },
                Attempt { tier: "dp", attempt: 2, failure: TierFailure::NoPlan },
            ],
        };
        let doc = json::parse(&report.to_json()).expect("report JSON parses");
        assert_eq!(doc.get("tier").and_then(JsonValue::as_str), Some("ikkbz"));
        assert_eq!(doc.get("retries").and_then(JsonValue::as_num), Some(1.0));
        let failures = doc.get("failures").and_then(JsonValue::as_arr).expect("failures array");
        assert_eq!(failures.len(), 2);
        assert_eq!(failures[0].get("kind").and_then(JsonValue::as_str), Some("injected"));
        assert_eq!(
            failures[0].get("detail").and_then(JsonValue::as_str),
            Some("injected: spurious \"io\" error"),
        );
        assert_eq!(failures[1].get("detail").and_then(JsonValue::as_str), Some("no feasible plan"));
    }

    #[test]
    fn to_json_without_failures_parses() {
        let report = DriverReport {
            tier: "dp",
            exact: true,
            expansions: 0,
            memory_bytes: 0,
            elapsed: Duration::ZERO,
            retries: 0,
            failures: Vec::new(),
        };
        let doc = json::parse(&report.to_json()).expect("report JSON parses");
        assert_eq!(doc.get("failures").and_then(JsonValue::as_arr).map(<[_]>::len), Some(0));
    }
}
