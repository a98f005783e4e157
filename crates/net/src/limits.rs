//! Tenant authentication and per-tenant token-bucket rate limiting.
//!
//! Every connection authenticates once at `Hello` time against a
//! [`TenantTable`]; every request then draws one token from the tenant's
//! [`TokenBucket`]. Buckets refill continuously at `rate_per_sec` up to
//! `burst` tokens, so a tenant can burst to its bucket size but sustains
//! only its configured rate — the loadgen invariant that bursty tenants see
//! `Busy(RateLimited)` while steady ones never do.
//!
//! Time is passed in by the caller as nanoseconds on the server's
//! monotonic epoch, which keeps the bucket arithmetic pure and testable
//! without sleeping.

use std::collections::HashMap;
use std::sync::Mutex;

/// One tenant's credentials and limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// The tenant id presented in `Hello`.
    pub tenant: u32,
    /// The tenant's API key.
    pub key: u64,
    /// Sustained request rate, tokens per second.
    pub rate_per_sec: f64,
    /// Bucket capacity (maximum burst).
    pub burst: f64,
}

/// How the server knows its tenants.
#[derive(Debug, Clone)]
pub enum TenantPolicy {
    /// An explicit allowlist of tenants with per-tenant limits.
    Static(Vec<TenantSpec>),
    /// Any tenant id is valid if it presents `derived_key(secret, tenant)`;
    /// all tenants share the same rate/burst configuration. This is how the
    /// loadgen simulates thousands of tenants without a thousand-entry
    /// config.
    Derived {
        /// The shared secret keys are derived from.
        secret: u64,
        /// Sustained request rate, tokens per second, per tenant.
        rate_per_sec: f64,
        /// Bucket capacity per tenant.
        burst: f64,
    },
}

/// The API key a [`TenantPolicy::Derived`] table expects from `tenant`.
/// FNV-1a over the tenant id, seeded by the secret — not cryptography, a
/// stand-in for a real credential store with the right shape (per-tenant,
/// unguessable-without-the-secret in tests).
pub fn derived_key(secret: u64, tenant: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ secret;
    for b in tenant.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A continuously-refilling token bucket. All state sits behind one mutex;
/// the hot path is a handful of float operations.
#[derive(Debug)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    state: Mutex<BucketState>,
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last_ns: u64,
}

impl TokenBucket {
    /// A full bucket refilling at `rate_per_sec` up to `burst` tokens.
    /// Non-finite or negative inputs are clamped to a minimal working
    /// bucket rather than rejected — a limits misconfiguration should
    /// throttle, not crash the listener.
    pub fn new(rate_per_sec: f64, burst: f64) -> TokenBucket {
        let sane = |v: f64, floor: f64| if v.is_finite() && v > floor { v } else { floor };
        let burst = sane(burst, 1.0);
        TokenBucket {
            rate_per_sec: sane(rate_per_sec, f64::MIN_POSITIVE),
            burst,
            state: Mutex::new(BucketState {
                tokens: burst,
                last_ns: 0,
            }),
        }
    }

    /// Tries to take one token at time `now_ns` (nanoseconds on any
    /// monotone epoch). On refusal returns the suggested wait in
    /// milliseconds until a token will be available.
    ///
    /// # Errors
    ///
    /// `Err(retry_after_ms)` when the bucket is empty.
    pub fn try_take(&self, now_ns: u64) -> Result<(), u32> {
        let mut s = adv_profile::sync::unpoison(self.state.lock());
        let elapsed_ns = now_ns.saturating_sub(s.last_ns);
        s.last_ns = now_ns;
        let refill = elapsed_ns as f64 * 1e-9 * self.rate_per_sec;
        s.tokens = (s.tokens + refill).min(self.burst);
        if s.tokens >= 1.0 {
            s.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - s.tokens;
            let wait_ms = (deficit / self.rate_per_sec * 1e3).ceil();
            Err(wait_ms.clamp(1.0, u32::MAX as f64) as u32)
        }
    }
}

/// The server's view of its tenants: authentication plus per-tenant
/// buckets. Derived-policy buckets are created lazily on first
/// authentication.
#[derive(Debug)]
pub struct TenantTable {
    policy: TenantPolicy,
    buckets: Mutex<HashMap<u32, std::sync::Arc<TokenBucket>>>,
}

impl TenantTable {
    /// Builds the table for a policy.
    pub fn new(policy: TenantPolicy) -> TenantTable {
        TenantTable {
            policy,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Checks `(tenant, key)` and returns the tenant's bucket on success.
    /// `None` means unknown tenant or wrong key — the caller answers
    /// `Error(Auth)` and closes.
    pub fn authenticate(&self, tenant: u32, key: u64) -> Option<std::sync::Arc<TokenBucket>> {
        let (rate, burst) = match &self.policy {
            TenantPolicy::Static(specs) => {
                let spec = specs.iter().find(|s| s.tenant == tenant)?;
                if spec.key != key {
                    return None;
                }
                (spec.rate_per_sec, spec.burst)
            }
            TenantPolicy::Derived {
                secret,
                rate_per_sec,
                burst,
            } => {
                if derived_key(*secret, tenant) != key {
                    return None;
                }
                (*rate_per_sec, *burst)
            }
        };
        let mut buckets = adv_profile::sync::unpoison(self.buckets.lock());
        Some(
            buckets
                .entry(tenant)
                .or_insert_with(|| std::sync::Arc::new(TokenBucket::new(rate, burst)))
                .clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn bucket_allows_burst_then_refuses() {
        let b = TokenBucket::new(10.0, 3.0);
        assert!(b.try_take(0).is_ok());
        assert!(b.try_take(0).is_ok());
        assert!(b.try_take(0).is_ok());
        let wait = b.try_take(0).unwrap_err();
        // One token at 10/s is 100ms away.
        assert!((90..=110).contains(&wait), "wait {wait}ms");
    }

    #[test]
    fn bucket_refills_at_rate() {
        let b = TokenBucket::new(2.0, 1.0);
        assert!(b.try_take(0).is_ok());
        assert!(b.try_take(0).is_err(), "empty immediately after");
        // 0.5s at 2 tokens/s refills exactly one token.
        assert!(b.try_take(SEC / 2).is_ok());
        assert!(b.try_take(SEC / 2).is_err());
    }

    #[test]
    fn refill_never_exceeds_burst() {
        let b = TokenBucket::new(100.0, 2.0);
        // A long quiet period must not bank more than `burst` tokens.
        assert!(b.try_take(1000 * SEC).is_ok());
        assert!(b.try_take(1000 * SEC).is_ok());
        assert!(b.try_take(1000 * SEC).is_err());
    }

    #[test]
    fn degenerate_configs_are_clamped_not_fatal() {
        for (rate, burst) in [(f64::NAN, 1.0), (-5.0, f64::INFINITY), (0.0, 0.0)] {
            let b = TokenBucket::new(rate, burst);
            // The clamped bucket still functions: one burst token exists.
            assert!(b.try_take(0).is_ok());
            assert!(b.try_take(0).is_err());
        }
    }

    #[test]
    fn static_table_authenticates_by_key() {
        let table = TenantTable::new(TenantPolicy::Static(vec![TenantSpec {
            tenant: 7,
            key: 1234,
            rate_per_sec: 10.0,
            burst: 5.0,
        }]));
        assert!(table.authenticate(7, 1234).is_some());
        assert!(table.authenticate(7, 1235).is_none(), "wrong key");
        assert!(table.authenticate(8, 1234).is_none(), "unknown tenant");
    }

    #[test]
    fn static_table_hands_back_the_same_bucket() {
        let table = TenantTable::new(TenantPolicy::Static(vec![TenantSpec {
            tenant: 1,
            key: 9,
            rate_per_sec: 10.0,
            burst: 1.0,
        }]));
        let a = table.authenticate(1, 9).unwrap();
        assert!(a.try_take(0).is_ok());
        // A second authentication shares the drained bucket — limits are
        // per tenant, not per connection.
        let b = table.authenticate(1, 9).unwrap();
        assert!(b.try_take(0).is_err());
    }

    #[test]
    fn derived_table_accepts_any_tenant_with_the_right_key() {
        let table = TenantTable::new(TenantPolicy::Derived {
            secret: 0xABCD,
            rate_per_sec: 5.0,
            burst: 2.0,
        });
        for tenant in [0u32, 1, 999, u32::MAX] {
            let key = derived_key(0xABCD, tenant);
            assert!(table.authenticate(tenant, key).is_some(), "tenant {tenant}");
            assert!(table.authenticate(tenant, key ^ 1).is_none());
        }
    }

    #[test]
    fn derived_keys_differ_across_tenants_and_secrets() {
        assert_ne!(derived_key(1, 10), derived_key(1, 11));
        assert_ne!(derived_key(1, 10), derived_key(2, 10));
    }
}
