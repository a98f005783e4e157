//! The runtime fault injector.
//!
//! [`FaultInjector::decide`] draws the next deterministic decision for a
//! site; [`FaultInjector::apply`] additionally *executes* it (sleeps the
//! delay, returns the injected error, or panics). Decisions are a pure
//! function of `(seed, site, hit index)`: the per-site hit counter is the
//! only mutable state, so concurrent callers may interleave *which thread*
//! receives a given decision, but the decision sequence per site — and
//! therefore the multiset of injected faults — is fixed by the plan.

use crate::plan::{site_hash, FaultPlan, SiteFaults};
use crate::FaultError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What the injector decided for one hit of a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Proceed normally.
    None,
    /// Stall for the site's configured delay before proceeding.
    Delay(Duration),
    /// Fail with [`FaultError::Injected`].
    Error,
    /// Panic with a [`crate::PANIC_MARKER`]-prefixed payload.
    Panic,
}

/// Counts of what a [`FaultInjector`] has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Total decisions drawn across all sites.
    pub decisions: u64,
    /// Injected delays.
    pub delays: u64,
    /// Injected errors.
    pub errors: u64,
    /// Injected panics.
    pub panics: u64,
}

#[derive(Debug)]
struct SiteState {
    spec: SiteFaults,
    hits: AtomicU64,
    injected: AtomicU64,
}

/// Evaluates a [`FaultPlan`] at runtime. Shared across threads behind an
/// `Arc`; see the module docs for the determinism contract.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    sites: HashMap<String, SiteState>,
    delays: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    decisions: AtomicU64,
}

impl FaultInjector {
    /// Builds an injector from a validated plan.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultError::InvalidPlan`] from [`FaultPlan::validate`].
    pub fn new(plan: FaultPlan) -> Result<FaultInjector, FaultError> {
        plan.validate()?;
        let seed = plan.seed();
        let sites = plan
            .sites()
            .iter()
            .map(|spec| {
                (
                    spec.site().to_string(),
                    SiteState {
                        spec: spec.clone(),
                        hits: AtomicU64::new(0),
                        injected: AtomicU64::new(0),
                    },
                )
            })
            .collect();
        Ok(FaultInjector {
            seed,
            sites,
            delays: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
        })
    }

    /// The no-fault injector: knows no sites, injects nothing. This is the
    /// serving engine's default — the hot path pays one `Option` branch and
    /// never reaches the injector at all.
    pub fn disabled() -> FaultInjector {
        FaultInjector {
            seed: 0,
            sites: HashMap::new(),
            delays: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
        }
    }

    /// Draws the next decision for `site` and returns it *without* acting
    /// on it. Unknown sites always return [`FaultAction::None`] and draw
    /// nothing.
    pub fn decide(&self, site: &str) -> (FaultAction, u64) {
        let Some(state) = self.sites.get(site) else {
            return (FaultAction::None, 0);
        };
        let hit = state.hits.fetch_add(1, Ordering::Relaxed);
        self.decisions.fetch_add(1, Ordering::Relaxed);
        if let Some(max) = state.spec.max_faults() {
            // The cap check races the increment below under concurrent
            // callers, so a site can briefly overshoot its cap by at most
            // one fault per concurrent thread; single-threaded replays (and
            // the deterministic tests) are exact.
            if state.injected.load(Ordering::Relaxed) >= max {
                return (FaultAction::None, hit);
            }
        }
        let draw = unit(self.seed, site_hash(site), hit);
        let spec = &state.spec;
        let action = if draw < spec.panic_rate() {
            FaultAction::Panic
        } else if draw < spec.panic_rate() + spec.error_rate() {
            FaultAction::Error
        } else if draw < spec.panic_rate() + spec.error_rate() + spec.delay_rate() {
            FaultAction::Delay(spec.delay())
        } else {
            FaultAction::None
        };
        if action != FaultAction::None {
            state.injected.fetch_add(1, Ordering::Relaxed);
            let counter = match action {
                FaultAction::Delay(_) => &self.delays,
                FaultAction::Error => &self.errors,
                _ => &self.panics,
            };
            // lint-ok(ordering-justified): statistics counter, atomicity
            // only.
            counter.fetch_add(1, Ordering::Relaxed);
        }
        (action, hit)
    }

    /// Draws and *executes* the next decision for `site`: sleeps injected
    /// delays, panics injected panics.
    ///
    /// # Errors
    ///
    /// [`FaultError::Injected`] when the decision is [`FaultAction::Error`].
    ///
    /// # Panics
    ///
    /// When the decision is [`FaultAction::Panic`] — that is the point: the
    /// caller's supervision layer is what is under test.
    pub fn apply(&self, site: &str) -> Result<(), FaultError> {
        match self.decide(site) {
            (FaultAction::None, _) => Ok(()),
            (FaultAction::Delay(d), _) => {
                std::thread::sleep(d);
                Ok(())
            }
            (FaultAction::Error, hit) => Err(FaultError::Injected {
                site: site.to_string(),
                hit,
            }),
            #[expect(
                clippy::panic,
                reason = "deliberate — injecting panics into supervised code is this crate's purpose; the marker lets handlers distinguish planned faults from real bugs."
            )]
            (FaultAction::Panic, hit) => {
                panic!("{} at {site} (hit {hit})", crate::PANIC_MARKER)
            }
        }
    }

    /// What has been injected so far.
    pub fn stats(&self) -> FaultStats {
        // lint-ok(ordering-justified): monotone statistics counters read
        // for reporting; a momentarily stale value is acceptable.
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        FaultStats {
            decisions: load(&self.decisions),
            delays: load(&self.delays),
            errors: load(&self.errors),
            panics: load(&self.panics),
        }
    }
}

/// SplitMix64 finalizer — one multiply-xor avalanche pass.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic unit draw for `(seed, site, n)`, uniform in `[0, 1)`.
pub(crate) fn unit(seed: u64, site: u64, n: u64) -> f64 {
    let mixed = splitmix(seed ^ splitmix(site.wrapping_add(n.wrapping_mul(0x2545_f491_4f6c_dd1d))));
    (mixed >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SiteFaults;

    fn seeded(seed: u64, site: SiteFaults) -> FaultInjector {
        FaultInjector::new(FaultPlan::new(seed).with(site)).unwrap()
    }

    #[test]
    fn disabled_injector_is_noop() {
        let inj = FaultInjector::disabled();
        for _ in 0..100 {
            assert_eq!(inj.decide("anything").0, FaultAction::None);
            inj.apply("anything").unwrap();
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn decisions_replay_identically_for_the_same_seed() {
        let spec = SiteFaults::at("s")
            .panics(0.2)
            .errors(0.3)
            .delays(0.2, Duration::from_micros(5));
        let a = seeded(9, spec.clone());
        let b = seeded(9, spec.clone());
        let c = seeded(10, spec);
        let seq = |inj: &FaultInjector| -> Vec<FaultAction> {
            (0..200).map(|_| inj.decide("s").0).collect()
        };
        let sa = seq(&a);
        assert_eq!(sa, seq(&b), "same seed must replay bit-for-bit");
        assert_ne!(sa, seq(&c), "different seed must differ");
        assert!(sa.contains(&FaultAction::Panic));
        assert!(sa.contains(&FaultAction::Error));
        assert!(sa.iter().any(|&x| matches!(x, FaultAction::Delay(_))));
        assert!(sa.contains(&FaultAction::None));
    }

    #[test]
    fn sites_draw_independent_sequences() {
        let plan = FaultPlan::new(4)
            .with(SiteFaults::at("a").errors(0.5))
            .with(SiteFaults::at("b").errors(0.5));
        let inj = FaultInjector::new(plan).unwrap();
        let sa: Vec<FaultAction> = (0..64).map(|_| inj.decide("a").0).collect();
        let sb: Vec<FaultAction> = (0..64).map(|_| inj.decide("b").0).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn rate_one_always_fires_and_limit_caps_it() {
        let inj = seeded(1, SiteFaults::at("s").errors(1.0).limit(3));
        let mut injected = 0;
        for _ in 0..10 {
            if inj.apply("s").is_err() {
                injected += 1;
            }
        }
        assert_eq!(injected, 3, "site must go quiet after its cap");
        assert_eq!(inj.stats().errors, 3);
    }

    #[test]
    fn apply_executes_each_action_kind() {
        let inj = seeded(2, SiteFaults::at("s").errors(1.0));
        assert!(matches!(
            inj.apply("s"),
            Err(FaultError::Injected { hit: 0, .. })
        ));

        let inj = seeded(2, SiteFaults::at("s").panics(1.0));
        let caught = std::panic::catch_unwind(|| inj.apply("s"));
        let payload = caught.unwrap_err();
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(text.starts_with(crate::PANIC_MARKER), "{text}");
        assert_eq!(inj.stats().panics, 1);

        let inj = seeded(
            2,
            SiteFaults::at("s").delays(1.0, Duration::from_micros(50)),
        );
        inj.apply("s").unwrap();
        assert_eq!(inj.stats().delays, 1);
    }

    #[test]
    fn approximate_rates_converge() {
        let inj = seeded(77, SiteFaults::at("s").errors(0.25));
        let n = 4000;
        let errors = (0..n)
            .filter(|_| inj.decide("s").0 == FaultAction::Error)
            .count();
        let rate = errors as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed error rate {rate}");
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let plan = FaultPlan::new(1).with(SiteFaults::at("s").panics(2.0));
        assert!(matches!(
            FaultInjector::new(plan),
            Err(FaultError::InvalidPlan { .. })
        ));
    }
}
