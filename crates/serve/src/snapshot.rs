//! Crash-safe plan-cache snapshots (`--cache-snapshot`), schema
//! `aqo-cache-snapshot/v1`.
//!
//! # File format
//!
//! One JSON object per line. The first line is the header:
//!
//! ```text
//! {"schema": "aqo-cache-snapshot/v1", "entries": N, "checksum": "0x…"}
//! ```
//!
//! where `checksum` is the FNV-1a hash of every byte after the header
//! line. Each following line is one cache entry, *individually*
//! self-validating:
//!
//! ```text
//! {"check": "0x…", "data": "<entry JSON, embedded as a string>"}
//! ```
//!
//! with `check` the FNV-1a hash of the `data` string. The entry JSON
//! carries `key`, `tier`, `exact`, `order`, `cost`, `cost_log2`, and
//! optionally `decomposition`.
//!
//! # Crash safety
//!
//! [`save`] writes the whole snapshot to `<path>.tmp` and atomically
//! renames it over `path`: a crash mid-write leaves either the previous
//! snapshot intact or a torn `.tmp` that is never read. [`load`] verifies
//! the header checksum; on a match every line is trusted wholesale, on a
//! mismatch (truncated file, bit rot, a concatenated tail) it *salvages* —
//! every line whose own `check` validates is loaded, the rest are counted
//! and skipped. A snapshot is warm-start data, never ground truth: the
//! worst a lost snapshot costs is recomputation.
//!
//! Fault sites: `serve::storage::snapshot_write` tears the `.tmp` file
//! mid-write and fails the save (the previous snapshot survives — that is
//! the crash the atomic rename defends against); `serve::storage::
//! snapshot_load` discredits the header checksum, forcing the salvage
//! path over a good file.

use crate::cache::{write_fragments, write_order, CachedPlan, PlanCache};
use aqo_core::fingerprint::fnv1a;
use aqo_obs::faults;
use aqo_obs::json;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Schema identifier in the header line.
pub const SCHEMA: &str = "aqo-cache-snapshot/v1";

/// Serializes one cache entry as the inner `data` JSON.
fn entry_json(key: &str, plan: &CachedPlan) -> String {
    let mut s = String::with_capacity(96);
    s.push_str("{\"key\": ");
    json::escape_into(&mut s, key);
    s.push_str(", \"tier\": ");
    json::escape_into(&mut s, &plan.tier);
    let _ = write!(s, ", \"exact\": {}", plan.exact);
    s.push_str(", \"order\": ");
    write_order(&mut s, &plan.order);
    s.push_str(", \"cost\": ");
    json::escape_into(&mut s, &plan.cost);
    let _ = write!(s, ", \"cost_log2\": {}", plan.cost_log2);
    if let Some(frags) = &plan.decomposition {
        s.push_str(", \"decomposition\": ");
        write_fragments(&mut s, frags);
    }
    s.push('}');
    s
}

/// Parses the inner `data` JSON back into a `(key, plan)` pair.
fn entry_parse(data: &str) -> Option<(String, CachedPlan)> {
    let doc = json::parse(data).ok()?;
    let key = doc.get("key")?.as_str()?.to_string();
    Some((key, CachedPlan::from_fields(&doc).ok()?))
}

/// Renders one self-validating snapshot line for `data`.
fn wrap_line(data: &str) -> String {
    let mut line = String::with_capacity(data.len() + 32);
    let _ = write!(line, "{{\"check\": \"{:#018x}\", \"data\": ", fnv1a(data.as_bytes()));
    json::escape_into(&mut line, data);
    line.push('}');
    line
}

/// Validates and unwraps one snapshot line; `None` if the line is torn,
/// unparseable, or fails its own checksum.
fn unwrap_line(line: &str) -> Option<(String, CachedPlan)> {
    let doc = json::parse(line).ok()?;
    let check = doc.get("check")?.as_str()?;
    let data = doc.get("data")?.as_str()?;
    let expect = format!("{:#018x}", fnv1a(data.as_bytes()));
    if check != expect {
        return None;
    }
    entry_parse(data)
}

/// Writes `cache`'s contents to `path` atomically (tmp + rename); returns
/// the number of plans written. Only exact plans go in (the cache holds
/// nothing else, but the filter makes the invariant local).
pub fn save(path: &Path, cache: &PlanCache) -> Result<usize, String> {
    let entries: Vec<_> =
        cache.export().into_iter().filter(|(_, plan)| plan.exact).collect();
    let mut payload = String::new();
    for (key, plan) in &entries {
        payload.push_str(&wrap_line(&entry_json(key, plan)));
        payload.push('\n');
    }
    let header = format!(
        "{{\"schema\": \"{SCHEMA}\", \"entries\": {}, \"checksum\": \"{:#018x}\"}}\n",
        entries.len(),
        fnv1a(payload.as_bytes()),
    );
    let tmp = path.with_extension("tmp");
    let torn = faults::fail_point("serve::storage::snapshot_write").is_err();
    let write_result = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(header.as_bytes())?;
        if torn {
            // Simulated crash: half the payload lands, no rename — the
            // previous snapshot at `path` is untouched.
            f.write_all(&payload.as_bytes()[..payload.len() / 2])?;
            f.sync_all()?;
            return Ok(());
        }
        f.write_all(payload.as_bytes())?;
        f.sync_all()?;
        Ok(())
    })();
    write_result.map_err(|e| format!("snapshot write {}: {e}", tmp.display()))?;
    if torn {
        return Err(format!("injected fault at `serve::storage::snapshot_write` (torn {})", tmp.display()));
    }
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("snapshot rename to {}: {e}", path.display()))?;
    if aqo_obs::enabled() {
        aqo_obs::counter_handle!("serve.snapshot.saved").inc();
        aqo_obs::journal::event("snapshot_saved", vec![("entries", entries.len().into())]);
    }
    Ok(entries.len())
}

/// Loads a snapshot into `cache`; returns the number of plans loaded.
///
/// A valid header checksum loads the file wholesale; anything else falls
/// back to per-line salvage. `Err` only when the file cannot be read at
/// all or contains no usable entries despite being non-empty — a present
/// but empty (0-entry) snapshot is a successful load of 0.
pub fn load(path: &Path, cache: &PlanCache) -> Result<usize, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("snapshot read {}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let payload_start = header.len() + 1;
    let payload = text.get(payload_start..).unwrap_or_default();
    let header_ok = (|| {
        let doc = json::parse(header).ok()?;
        if doc.get("schema")?.as_str()? != SCHEMA {
            return None;
        }
        let checksum = doc.get("checksum")?.as_str()?.to_string();
        Some(checksum == format!("{:#018x}", fnv1a(payload.as_bytes())))
    })()
    .unwrap_or(false)
        // The load fault site discredits a good checksum, driving the
        // salvage path (which must produce identical results on an
        // uncorrupted file).
        && faults::fail_point("serve::storage::snapshot_load").is_ok();
    let mut loaded = 0usize;
    let mut skipped = 0usize;
    for line in lines.filter(|l| !l.trim().is_empty()) {
        match unwrap_line(line) {
            Some((key, plan)) => {
                let hash = fnv1a(key.as_bytes());
                cache.insert(hash, key, plan);
                loaded += 1;
            }
            None => skipped += 1,
        }
    }
    if aqo_obs::enabled() {
        aqo_obs::counter_handle!("serve.snapshot.loaded").add(loaded as u64);
        aqo_obs::counter_handle!("serve.snapshot.skipped").add(skipped as u64);
        aqo_obs::journal::event(
            "snapshot_loaded",
            vec![
                ("entries", loaded.into()),
                ("skipped", skipped.into()),
                ("salvaged", (!header_ok).into()),
            ],
        );
    }
    if loaded == 0 && (skipped > 0 || !header_ok) && !text.trim().is_empty() {
        return Err(format!(
            "no usable entries in {} ({skipped} lines failed validation)",
            path.display()
        ));
    }
    Ok(loaded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(tag: &str, frags: Option<Vec<(usize, usize)>>) -> CachedPlan {
        CachedPlan {
            tier: "dp".into(),
            exact: true,
            order: vec![2, 0, 1],
            cost: tag.into(),
            cost_log2: 4.125,
            decomposition: frags,
        }
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("aqo-snapshot-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    fn populated(n: usize) -> PlanCache {
        let cache = PlanCache::new(64);
        for i in 0..n {
            let key = format!("qon cart=1 test-key-{i}");
            let frags = (i % 2 == 0).then(|| vec![(1, 1), (2, i + 2)]);
            cache.insert(fnv1a(key.as_bytes()), key, plan(&format!("{i}/3"), frags));
        }
        cache
    }

    #[test]
    fn snapshot_round_trips() {
        let path = tmpfile("roundtrip.snap");
        let cache = populated(5);
        assert_eq!(save(&path, &cache).expect("save"), 5);
        let restored = PlanCache::new(64);
        assert_eq!(load(&path, &restored).expect("load"), 5);
        for i in 0..5 {
            let key = format!("qon cart=1 test-key-{i}");
            let hit = restored.lookup(fnv1a(key.as_bytes()), &key).expect("restored plan");
            assert_eq!(hit.cost, format!("{i}/3"));
            assert_eq!(hit.order, vec![2, 0, 1]);
            assert_eq!(hit.decomposition.is_some(), i % 2 == 0);
        }
    }

    #[test]
    fn truncated_snapshot_salvages_intact_lines() {
        let path = tmpfile("truncated.snap");
        let cache = populated(6);
        save(&path, &cache).expect("save");
        // Chop the file mid-way through the last line: the header checksum
        // no longer matches and the torn line fails its own check.
        let text = std::fs::read_to_string(&path).expect("read back");
        let truncated = &text[..text.len() - 20];
        std::fs::write(&path, truncated).expect("truncate");
        let restored = PlanCache::new(64);
        let loaded = load(&path, &restored).expect("salvage");
        assert_eq!(loaded, 5, "all but the torn final line salvage");
    }

    #[test]
    fn garbage_snapshot_is_an_error_not_a_panic() {
        let path = tmpfile("garbage.snap");
        std::fs::write(&path, "!!! not a snapshot\nstill not\n").expect("write garbage");
        let restored = PlanCache::new(64);
        assert!(load(&path, &restored).is_err());
        assert!(restored.is_empty());
    }

    #[test]
    fn interior_corruption_skips_only_the_bad_line() {
        let path = tmpfile("interior.snap");
        save(&path, &populated(4)).expect("save");
        let text = std::fs::read_to_string(&path).expect("read");
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // Flip bytes inside the second entry's embedded data.
        lines[2] = lines[2].replace("test-key", "tampered!"); // breaks the check hash
        std::fs::write(&path, lines.join("\n")).expect("rewrite");
        let restored = PlanCache::new(64);
        assert_eq!(load(&path, &restored).expect("salvage"), 3);
    }

    #[test]
    fn injected_torn_write_leaves_previous_snapshot_intact() {
        let _scope = aqo_obs::Scope::new().install();
        let path = tmpfile("torn.snap");
        save(&path, &populated(3)).expect("first save");
        faults::arm("serve::storage::snapshot_write", faults::FaultKind::Error, 1);
        let bigger = populated(8);
        assert!(save(&path, &bigger).is_err(), "torn write reports failure");
        // The rename never happened: the original 3-entry snapshot loads.
        let restored = PlanCache::new(64);
        assert_eq!(load(&path, &restored).expect("old snapshot"), 3);
    }

    #[test]
    fn injected_load_fault_forces_salvage_with_identical_result() {
        let _scope = aqo_obs::Scope::new().install();
        let path = tmpfile("salvage-forced.snap");
        save(&path, &populated(4)).expect("save");
        faults::arm("serve::storage::snapshot_load", faults::FaultKind::Error, 1);
        let restored = PlanCache::new(64);
        assert_eq!(load(&path, &restored).expect("salvage path"), 4);
    }

    #[test]
    fn empty_cache_snapshot_loads_as_zero() {
        let path = tmpfile("empty.snap");
        save(&path, &PlanCache::new(8)).expect("save empty");
        assert_eq!(load(&path, &PlanCache::new(8)).expect("load empty"), 0);
    }
}
