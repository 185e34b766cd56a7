//! The `max_rate_ops_s` search: the highest offered rate at which the
//! system keeps up (achieved ≥ 95 % of offered) and the put and get
//! p99 both stay within the latency limit.

/// Achieved rate must be at least this share of the offered rate.
pub const MIN_ACHIEVED_SHARE: f64 = 0.95;
/// p99 latency limit for puts and gets.
pub const P99_LIMIT_MS: f64 = 100.0;

/// What one probe at a fixed offered rate measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Probe {
    /// Offered rate, ops/s.
    pub offered: f64,
    /// Completed ops per second of probe wall time (first due time to
    /// last completion).
    pub achieved: f64,
    /// Put p99 in ms (`None` when the probe issued no puts).
    pub put_p99_ms: Option<f64>,
    /// Get p99 in ms (`None` when the probe issued no gets).
    pub get_p99_ms: Option<f64>,
    /// Put and get samples behind the two p99s.
    pub samples: (usize, usize),
    /// Ops that failed during the probe.
    pub failed: u64,
}

impl Probe {
    /// Whether the system met the rate and latency limits.
    pub fn passes(&self) -> bool {
        let within = |p: Option<f64>| p.is_none_or(|ms| ms <= P99_LIMIT_MS);
        self.failed == 0
            && self.achieved >= MIN_ACHIEVED_SHARE * self.offered
            && within(self.put_p99_ms)
            && within(self.get_p99_ms)
    }
}

/// How the search walks the rate axis.
#[derive(Clone, Debug)]
pub struct Plan {
    /// First rate probed (the workload's fixed rate, expected to pass).
    pub start: f64,
    /// Factor between successive rates while bracketing the knee.
    pub growth: f64,
    /// Stop bisecting once the bracket's ratio `hi / lo` is this close
    /// to 1.
    pub resolution: f64,
    /// Rates probed at most.
    pub max_rates: usize,
    /// A failing rate is probed again up to this many times and passes
    /// if any probe passes: one transient stall on a shared host must not
    /// end the search.
    pub retries: usize,
}

/// Outcome of a search.
#[derive(Clone, Debug)]
pub struct Found {
    /// Highest passing rate probed (0 if none passed).
    pub max_rate: f64,
    /// Every probe, in order.
    pub probes: Vec<Probe>,
}

/// Brackets the knee geometrically from `plan.start`, then bisects the
/// bracket (on a log scale) until it is within `plan.resolution`.
pub fn max_rate(plan: &Plan, mut probe: impl FnMut(f64) -> Probe) -> Found {
    assert!(plan.start > 0.0 && plan.growth > 1.0 && plan.resolution > 0.0);
    let mut probes = Vec::new();
    let mut run = |r: f64, probes: &mut Vec<Probe>| {
        for _ in 0..=plan.retries {
            let p = probe(r);
            let ok = p.passes();
            probes.push(p);
            if ok {
                return true;
            }
        }
        false
    };
    // Bracket: lo passes, hi fails.
    let (mut lo, mut hi) = (None, None);
    let mut r = plan.start;
    let mut rates = 0;
    while rates < plan.max_rates && (lo.is_none() || hi.is_none()) {
        rates += 1;
        if run(r, &mut probes) {
            lo = Some(r);
            if hi.is_none() {
                r *= plan.growth;
            }
        } else {
            hi = Some(r);
            if lo.is_none() {
                r /= plan.growth;
            }
        }
    }
    let (Some(mut lo), Some(mut hi)) = (lo, hi) else {
        return Found { max_rate: lo.unwrap_or(0.0), probes };
    };
    while rates < plan.max_rates && hi / lo > 1.0 + plan.resolution {
        rates += 1;
        let mid = (lo * hi).sqrt();
        if run(mid, &mut probes) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Found { max_rate: lo, probes }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A system that keeps up to `knee` ops/s and then falls behind,
    /// with latency growing as it approaches the knee.
    fn fake(knee: f64) -> impl FnMut(f64) -> Probe {
        move |r| {
            let util = r / knee;
            let p99 = if util < 1.0 { 5.0 / (1.0 - util) } else { 900.0 };
            Probe {
                offered: r,
                achieved: r.min(knee),
                put_p99_ms: Some(p99),
                get_p99_ms: None,
                samples: (1000, 0),
                failed: 0,
            }
        }
    }

    fn plan(start: f64) -> Plan {
        Plan { start, growth: 1.5, resolution: 0.04, max_rates: 20, retries: 0 }
    }

    #[test]
    fn finds_a_known_knee_from_below() {
        // p99 crosses 100 ms at util 0.95: the knee is 0.95 * 800.
        let found = max_rate(&plan(100.0), fake(800.0));
        let knee = 0.95 * 800.0;
        assert!(found.max_rate <= knee, "{} above the knee", found.max_rate);
        assert!(found.max_rate >= knee / 1.04, "{} too coarse", found.max_rate);
        assert!(found.probes.iter().all(|p| p.passes() == (p.offered <= knee)));
    }

    #[test]
    fn finds_a_knee_below_the_start() {
        let found = max_rate(&plan(1000.0), fake(300.0));
        let knee = 0.95 * 300.0;
        assert!(found.max_rate <= knee && found.max_rate >= knee / 1.04);
    }

    #[test]
    fn repeats_within_a_tenth_across_starts() {
        let a = max_rate(&plan(90.0), fake(500.0)).max_rate;
        let b = max_rate(&plan(140.0), fake(500.0)).max_rate;
        assert!((a / b - 1.0).abs() < 0.1, "{a} vs {b}");
    }

    #[test]
    fn respects_the_probe_budget() {
        let p = Plan { start: 10.0, growth: 1.1, resolution: 0.001, max_rates: 5, retries: 1 };
        let found = max_rate(&p, fake(1e6));
        assert_eq!(found.probes.len(), 5);
        assert!(found.max_rate > 10.0);
    }

    #[test]
    fn a_transient_failure_is_retried() {
        // Every third probe stalls; a retry at the same rate recovers.
        let mut n = 0;
        let mut inner = fake(800.0);
        let flaky = |r| {
            n += 1;
            let p = inner(r);
            if n % 3 == 0 {
                Probe { put_p99_ms: Some(500.0), ..p }
            } else {
                p
            }
        };
        let found = max_rate(&Plan { retries: 1, ..plan(100.0) }, flaky);
        assert!(found.max_rate >= 0.95 * 800.0 / 1.04, "{}", found.max_rate);
        assert!(found.probes.iter().any(|p| !p.passes() && p.offered < 700.0));
    }

    #[test]
    fn failures_or_slow_gets_fail_a_probe() {
        let ok = Probe {
            offered: 100.0,
            achieved: 99.0,
            put_p99_ms: Some(10.0),
            get_p99_ms: Some(10.0),
            samples: (1000, 1000),
            failed: 0,
        };
        assert!(ok.passes());
        assert!(!Probe { failed: 1, ..ok.clone() }.passes());
        assert!(!Probe { get_p99_ms: Some(101.0), ..ok.clone() }.passes());
        assert!(!Probe { achieved: 94.0, ..ok }.passes());
    }
}
