//! Queue arbitration: which submission queue does the controller service
//! next?

use crate::config::{ArbitrationPolicy, TenantSpec};

/// Stateful arbiter over a fixed tenant set. `pick` is called with the set of
/// tenants that currently have submitted-but-undispatched work and returns
/// the tenant to service; all policies are deterministic.
#[derive(Debug)]
pub struct Arbiter {
    policy: ArbitrationPolicy,
    weights: Vec<u64>,
    priorities: Vec<u32>,
    /// Last tenant served (round-robin scan starts after it).
    cursor: usize,
    /// Commands served per tenant (weighted round-robin virtual time).
    served: Vec<u64>,
}

impl Arbiter {
    pub fn new(policy: ArbitrationPolicy, tenants: &[TenantSpec]) -> Self {
        Arbiter {
            policy,
            weights: tenants.iter().map(|t| t.weight as u64).collect(),
            priorities: tenants.iter().map(|t| t.priority).collect(),
            cursor: tenants.len().saturating_sub(1),
            served: vec![0; tenants.len()],
        }
    }

    /// Picks among tenants with `ready[i] == true`; `None` if none are.
    pub fn pick(&mut self, ready: &[bool]) -> Option<usize> {
        debug_assert_eq!(ready.len(), self.weights.len());
        if !ready.iter().any(|&r| r) {
            return None;
        }
        let choice = match self.policy {
            ArbitrationPolicy::RoundRobin => self.rr_scan(ready, |_| true),
            ArbitrationPolicy::StrictPriority => {
                let top = ready
                    .iter()
                    .enumerate()
                    .filter(|&(_, &r)| r)
                    .map(|(i, _)| self.priorities[i])
                    .min()
                    .expect("checked non-empty");
                self.rr_scan(ready, |i| self.priorities[i] == top)
            }
            ArbitrationPolicy::WeightedRoundRobin => {
                // Lowest virtual time served/weight wins; compare by cross
                // multiplication to stay exact. Ties fall to the earlier index,
                // which the growing `served` counter then rotates naturally.
                let mut best: Option<usize> = None;
                for (i, &r) in ready.iter().enumerate() {
                    if !r {
                        continue;
                    }
                    best = Some(match best {
                        None => i,
                        Some(b) => {
                            let lhs = self.served[i] as u128 * self.weights[b] as u128;
                            let rhs = self.served[b] as u128 * self.weights[i] as u128;
                            if lhs < rhs {
                                i
                            } else {
                                b
                            }
                        }
                    });
                }
                best.expect("checked non-empty")
            }
        };
        self.cursor = choice;
        self.served[choice] += 1;
        Some(choice)
    }

    /// First eligible tenant scanning circularly from after the cursor.
    fn rr_scan(&self, ready: &[bool], eligible: impl Fn(usize) -> bool) -> usize {
        let n = ready.len();
        for step in 1..=n {
            let i = (self.cursor + step) % n;
            if ready[i] && eligible(i) {
                return i;
            }
        }
        unreachable!("pick() checked a ready tenant exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TenantSpec;

    fn tenants(n: usize) -> Vec<TenantSpec> {
        (0..n).map(|i| TenantSpec::new(format!("t{i}"))).collect()
    }

    #[test]
    fn round_robin_cycles_ready_queues() {
        let mut a = Arbiter::new(ArbitrationPolicy::RoundRobin, &tenants(3));
        let all = [true, true, true];
        let picks: Vec<usize> = (0..6).map(|_| a.pick(&all).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        // Skips queues with nothing submitted.
        assert_eq!(a.pick(&[false, true, false]), Some(1));
        assert_eq!(a.pick(&[true, false, false]), Some(0));
        assert_eq!(a.pick(&[false, false, false]), None);
    }

    #[test]
    fn weighted_round_robin_matches_shares() {
        let specs = vec![
            TenantSpec::new("a").with_weight(3),
            TenantSpec::new("b").with_weight(1),
        ];
        let mut a = Arbiter::new(ArbitrationPolicy::WeightedRoundRobin, &specs);
        let mut counts = [0u32; 2];
        for _ in 0..400 {
            counts[a.pick(&[true, true]).unwrap()] += 1;
        }
        assert_eq!(counts, [300, 100]);
    }

    #[test]
    fn weighted_round_robin_interleaves() {
        // 2:1 should not serve the heavy tenant in one solid block.
        let specs = vec![
            TenantSpec::new("a").with_weight(2),
            TenantSpec::new("b").with_weight(1),
        ];
        let mut a = Arbiter::new(ArbitrationPolicy::WeightedRoundRobin, &specs);
        let picks: Vec<usize> = (0..6).map(|_| a.pick(&[true, true]).unwrap()).collect();
        assert_eq!(picks.iter().filter(|&&p| p == 0).count(), 4);
        // The light tenant is served within every 3-slot window.
        assert!(
            picks[..3].contains(&1) && picks[3..].contains(&1),
            "{picks:?}"
        );
    }

    #[test]
    fn strict_priority_prefers_urgent_class() {
        let specs = vec![
            TenantSpec::new("bulk").with_priority(1),
            TenantSpec::new("urgent").with_priority(0),
            TenantSpec::new("urgent2").with_priority(0),
        ];
        let mut a = Arbiter::new(ArbitrationPolicy::StrictPriority, &specs);
        // Urgent queues win whenever they have work, round-robin among equals.
        assert_eq!(a.pick(&[true, true, true]), Some(1));
        assert_eq!(a.pick(&[true, true, true]), Some(2));
        assert_eq!(a.pick(&[true, true, true]), Some(1));
        // Bulk runs only when the urgent class is empty.
        assert_eq!(a.pick(&[true, false, false]), Some(0));
    }
}
