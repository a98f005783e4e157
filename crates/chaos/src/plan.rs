//! Seeded, declarative fault plans.
//!
//! A [`FaultPlan`] names the injection sites and, per site, the probability
//! of each fault kind. Probabilities are evaluated deterministically by the
//! injector (see [`crate::FaultInjector`]): the decision for a site's `n`-th
//! hit is a pure function of `(seed, site name, n)`, so the same plan
//! replays the same fault schedule on every run.

use crate::FaultError;
use std::time::Duration;

/// Fault configuration for one named injection site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteFaults {
    site: String,
    panic_rate: f64,
    error_rate: f64,
    delay_rate: f64,
    delay: Duration,
    max_faults: Option<u64>,
}

impl SiteFaults {
    /// A quiet site configuration for `site` (all rates zero).
    pub fn at(site: impl Into<String>) -> SiteFaults {
        SiteFaults {
            site: site.into(),
            panic_rate: 0.0,
            error_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::ZERO,
            max_faults: None,
        }
    }

    /// Sets the probability that a hit panics.
    #[must_use]
    pub fn panics(mut self, rate: f64) -> SiteFaults {
        self.panic_rate = rate;
        self
    }

    /// Sets the probability that a hit fails with an injected error.
    #[must_use]
    pub fn errors(mut self, rate: f64) -> SiteFaults {
        self.error_rate = rate;
        self
    }

    /// Sets the probability that a hit is delayed by `delay`.
    #[must_use]
    pub fn delays(mut self, rate: f64, delay: Duration) -> SiteFaults {
        self.delay_rate = rate;
        self.delay = delay;
        self
    }

    /// Caps the total number of faults this site may inject; after the cap
    /// the site goes quiet. Useful for deterministic "fail exactly once,
    /// then recover" scenarios.
    #[must_use]
    pub fn limit(mut self, max_faults: u64) -> SiteFaults {
        self.max_faults = Some(max_faults);
        self
    }

    /// The site name.
    pub fn site(&self) -> &str {
        &self.site
    }

    pub(crate) fn panic_rate(&self) -> f64 {
        self.panic_rate
    }

    pub(crate) fn error_rate(&self) -> f64 {
        self.error_rate
    }

    pub(crate) fn delay_rate(&self) -> f64 {
        self.delay_rate
    }

    pub(crate) fn delay(&self) -> Duration {
        self.delay
    }

    pub(crate) fn max_faults(&self) -> Option<u64> {
        self.max_faults
    }

    fn validate(&self) -> Result<(), FaultError> {
        let rates = [
            ("panic", self.panic_rate),
            ("error", self.error_rate),
            ("delay", self.delay_rate),
        ];
        for (kind, rate) in rates {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(FaultError::InvalidPlan {
                    site: self.site.clone(),
                    message: format!("{kind} rate {rate} outside [0, 1]"),
                });
            }
        }
        let total = self.panic_rate + self.error_rate + self.delay_rate;
        if total > 1.0 {
            return Err(FaultError::InvalidPlan {
                site: self.site.clone(),
                message: format!("rates sum to {total} > 1"),
            });
        }
        Ok(())
    }
}

/// A seeded set of [`SiteFaults`]; the input to [`crate::FaultInjector`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    sites: Vec<SiteFaults>,
}

impl FaultPlan {
    /// An empty plan under `seed`; add sites with [`with`](Self::with).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            sites: Vec::new(),
        }
    }

    /// Adds (or replaces, by name) one site's fault configuration.
    #[must_use]
    pub fn with(mut self, site: SiteFaults) -> FaultPlan {
        self.sites.retain(|s| s.site != site.site);
        self.sites.push(site);
        self
    }

    /// A randomized low-rate plan over `sites`, fully derived from `seed`:
    /// every site gets panic/error/delay rates in `[0, 0.04)` and a delay up
    /// to ~200µs. This is the soak test's workhorse — a different seed is a
    /// different chaos schedule, the same seed replays bit-for-bit.
    pub fn randomized(seed: u64, sites: &[&str]) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        for (i, site) in sites.iter().enumerate() {
            let mix = |k: u64| crate::inject::unit(seed, site_hash(site), i as u64 * 8 + k);
            let delay_us = 20 + (mix(3) * 180.0) as u64;
            plan = plan.with(
                SiteFaults::at(*site)
                    .panics(0.04 * mix(0))
                    .errors(0.04 * mix(1))
                    .delays(0.04 * mix(2), Duration::from_micros(delay_us)),
            );
        }
        plan
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured sites.
    pub fn sites(&self) -> &[SiteFaults] {
        &self.sites
    }

    /// Checks every site's probabilities.
    ///
    /// # Errors
    ///
    /// [`FaultError::InvalidPlan`] for a rate outside `[0, 1]` or a site
    /// whose rates sum past `1`.
    pub fn validate(&self) -> Result<(), FaultError> {
        for site in &self.sites {
            site.validate()?;
        }
        Ok(())
    }
}

/// FNV-1a hash of a site name; mixed into the per-hit decision stream so
/// sites draw independent sequences from the same seed.
pub(crate) fn site_hash(site: &str) -> u64 {
    adv_store::codec::fnv64(site.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_rates() {
        let s = SiteFaults::at("x")
            .panics(0.1)
            .errors(0.2)
            .delays(0.3, Duration::from_millis(1))
            .limit(5);
        assert_eq!(s.site(), "x");
        assert_eq!(s.panic_rate(), 0.1);
        assert_eq!(s.error_rate(), 0.2);
        assert_eq!(s.delay_rate(), 0.3);
        assert_eq!(s.delay(), Duration::from_millis(1));
        assert_eq!(s.max_faults(), Some(5));
    }

    #[test]
    fn out_of_range_rates_fail_validation() {
        for bad in [
            SiteFaults::at("x").panics(-0.1),
            SiteFaults::at("x").errors(1.5),
            SiteFaults::at("x").delays(f64::NAN, Duration::ZERO),
            SiteFaults::at("x").panics(0.6).errors(0.6),
        ] {
            let plan = FaultPlan::new(1).with(bad);
            assert!(matches!(
                plan.validate(),
                Err(FaultError::InvalidPlan { .. })
            ));
        }
    }

    #[test]
    fn with_replaces_same_site() {
        let plan = FaultPlan::new(1)
            .with(SiteFaults::at("a").panics(0.5))
            .with(SiteFaults::at("a").panics(0.1));
        assert_eq!(plan.sites().len(), 1);
        assert_eq!(plan.sites()[0].panic_rate(), 0.1);
    }

    #[test]
    fn randomized_plans_are_seed_deterministic_and_valid() {
        let sites = ["magnet/detect", "magnet/reform", "serve/batch"];
        let a = FaultPlan::randomized(42, &sites);
        let b = FaultPlan::randomized(42, &sites);
        let c = FaultPlan::randomized(43, &sites);
        assert_eq!(a, b);
        assert_ne!(a, c);
        a.validate().unwrap();
        c.validate().unwrap();
    }

    #[test]
    fn site_hash_distinguishes_names() {
        assert_ne!(site_hash("magnet/detect"), site_hash("magnet/reform"));
        assert_eq!(site_hash("x"), site_hash("x"));
    }
}
