//! Monotonic counter snapshots.
//!
//! A [`CounterSnapshot`] is a named set of monotonic counter values captured
//! at one instant — e.g. the summed `FtlStats` fields after a profiled
//! replay, which `ipu-sim profile` reports as the counter fingerprint of the
//! simulated work.

use serde::{Deserialize, Serialize};

/// Named monotonic counters captured at one instant. Names are kept sorted
/// and unique so snapshots serialize deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    counters: Vec<(String, u64)>,
}

impl CounterSnapshot {
    pub fn new() -> Self {
        CounterSnapshot::default()
    }

    /// Sets counter `name` to `value`, replacing any existing entry.
    pub fn set(&mut self, name: &str, value: u64) -> &mut Self {
        match self
            .counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            // ipu-lint: allow(panic-reachability) — index is the Ok value of binary_search on this same vec, in bounds by contract
            Ok(i) => self.counters[i].1 = value,
            Err(i) => self.counters.insert(i, (name.to_string(), value)),
        }
        self
    }

    /// The value of counter `name`, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// All `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    pub fn len(&self) -> usize {
        self.counters.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(pairs: &[(&str, u64)]) -> CounterSnapshot {
        let mut s = CounterSnapshot::new();
        for (n, v) in pairs {
            s.set(n, *v);
        }
        s
    }

    #[test]
    fn set_get_keeps_sorted_unique_names() {
        let mut s = snap(&[("zeta", 1), ("alpha", 2), ("mid", 3)]);
        assert_eq!(s.get("alpha"), Some(2));
        assert_eq!(s.get("nosuch"), None);
        s.set("alpha", 9);
        assert_eq!(s.len(), 3, "set replaces, never duplicates");
        assert_eq!(s.get("alpha"), Some(9));
        let names: Vec<&str> = s.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn snapshot_serializes_round_trip() {
        let s = snap(&[("a", 1), ("b", u64::MAX)]);
        let json = serde_json::to_string(&s).unwrap();
        let back: CounterSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
