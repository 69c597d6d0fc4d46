//! Per-tenant token-bucket rate limiting for the serving layer.
//!
//! Each tenant (the `X-Rebert-Tenant` header; anonymous traffic shares
//! one bucket) gets a bucket of `burst` tokens refilled at `rate`
//! tokens per second. A request costs one token; an empty bucket means
//! `429` with a `Retry-After` derived from the exact deficit. The state
//! is one short-mutex map — recovery work dwarfs the lock by orders of
//! magnitude.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rebert_sync::Mutex;

/// Most tenants tracked at once; beyond this the stalest bucket is
/// recycled (an idle bucket is full, so its owner loses nothing). The
/// daemon's per-tenant request counters keep the same bound.
pub const MAX_TENANTS: usize = 1024;

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Token buckets keyed by tenant id.
///
/// # Examples
///
/// ```
/// use rebert_registry::TenantQuotas;
///
/// let q = TenantQuotas::new(1.0); // 1 request/second, burst 1
/// assert!(q.try_acquire("acme").is_ok());
/// let wait = q.try_acquire("acme").unwrap_err();
/// assert!(wait.as_secs_f64() > 0.0, "second request must wait");
/// assert!(q.try_acquire("globex").is_ok(), "tenants are independent");
/// ```
#[derive(Debug)]
pub struct TenantQuotas {
    /// Refill rate, tokens per second. Always > 0.
    rate: f64,
    /// Bucket capacity (burst size). Always ≥ 1.
    burst: f64,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl TenantQuotas {
    /// A quota of `rate` requests per second per tenant, with a burst
    /// capacity of `max(rate, 1)` (so a quota below 1/s still admits a
    /// single request immediately). Non-positive/NaN rates are clamped
    /// to a minimal positive rate rather than panicking.
    pub fn new(rate: f64) -> Self {
        let rate = if rate.is_finite() && rate > 0.0 {
            rate
        } else {
            f64::MIN_POSITIVE.max(1e-9)
        };
        Self::with_burst(rate, rate.max(1.0))
    }

    /// A quota with an explicit burst capacity (clamped to ≥ 1).
    pub fn with_burst(rate: f64, burst: f64) -> Self {
        TenantQuotas {
            rate: if rate.is_finite() && rate > 0.0 {
                rate
            } else {
                1e-9
            },
            burst: if burst.is_finite() {
                burst.max(1.0)
            } else {
                1.0
            },
            buckets: Mutex::new(HashMap::new(), "registry.quota.buckets"),
        }
    }

    /// The refill rate (tokens per second).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The bucket capacity.
    pub fn burst(&self) -> f64 {
        self.burst
    }

    /// Takes one token from `tenant`'s bucket.
    ///
    /// # Errors
    ///
    /// The duration until a token will be available, for `Retry-After`.
    pub fn try_acquire(&self, tenant: &str) -> Result<(), Duration> {
        self.try_acquire_at(tenant, Instant::now())
    }

    /// [`TenantQuotas::try_acquire`] with an injected clock, so tests
    /// exercise refill deterministically.
    ///
    /// # Errors
    ///
    /// The duration until a token will be available, for `Retry-After`.
    pub fn try_acquire_at(&self, tenant: &str, now: Instant) -> Result<(), Duration> {
        let mut buckets = self.buckets.lock();
        if buckets.len() >= MAX_TENANTS && !buckets.contains_key(tenant) {
            // Recycle the stalest bucket; by construction it is the
            // closest to full.
            if let Some(stalest) = buckets
                .iter()
                .min_by_key(|(_, b)| b.last)
                .map(|(k, _)| k.clone())
            {
                buckets.remove(&stalest);
            }
        }
        let bucket = buckets.entry(tenant.to_owned()).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        let elapsed = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.rate).min(self.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            Err(Duration::from_secs_f64(deficit / self.rate))
        }
    }

    /// Tenants with live buckets right now.
    pub fn tracked_tenants(&self) -> usize {
        self.buckets.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_throttle_then_refill() {
        let q = TenantQuotas::with_burst(2.0, 2.0);
        let t0 = Instant::now();
        assert!(q.try_acquire_at("a", t0).is_ok());
        assert!(q.try_acquire_at("a", t0).is_ok(), "burst of 2");
        let wait = q.try_acquire_at("a", t0).unwrap_err();
        assert!(
            (wait.as_secs_f64() - 0.5).abs() < 1e-9,
            "one token deficit at 2/s is 0.5s, got {wait:?}"
        );
        // After the advertised wait the token is there.
        assert!(q.try_acquire_at("a", t0 + wait).is_ok());
        // Refill caps at burst: a long idle spell does not bank tokens.
        let later = t0 + Duration::from_secs(3600);
        assert!(q.try_acquire_at("a", later).is_ok());
        assert!(q.try_acquire_at("a", later).is_ok());
        assert!(q.try_acquire_at("a", later).is_err(), "capped at burst 2");
    }

    #[test]
    fn tenants_do_not_share_buckets() {
        let q = TenantQuotas::new(1.0);
        let t0 = Instant::now();
        assert!(q.try_acquire_at("a", t0).is_ok());
        assert!(q.try_acquire_at("a", t0).is_err());
        assert!(q.try_acquire_at("b", t0).is_ok(), "b has its own bucket");
        assert_eq!(q.tracked_tenants(), 2);
    }

    #[test]
    fn sub_unit_rates_still_admit_one_request() {
        let q = TenantQuotas::new(0.5); // one request per 2 seconds
        let t0 = Instant::now();
        assert!(q.try_acquire_at("a", t0).is_ok(), "burst floor of 1");
        let wait = q.try_acquire_at("a", t0).unwrap_err();
        assert!((wait.as_secs_f64() - 2.0).abs() < 1e-9, "got {wait:?}");
    }

    #[test]
    fn degenerate_rates_are_clamped_not_panicking() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let q = TenantQuotas::new(bad);
            let t0 = Instant::now();
            // First request passes on the burst floor; the second is
            // throttled (effectively forever for a zero rate).
            assert!(q.try_acquire_at("a", t0).is_ok(), "rate {bad}");
        }
    }

    #[test]
    fn time_going_backwards_is_harmless() {
        let q = TenantQuotas::with_burst(1.0, 1.0);
        let t0 = Instant::now();
        let later = t0 + Duration::from_secs(5);
        assert!(q.try_acquire_at("a", later).is_ok());
        // An earlier timestamp must not panic or mint tokens.
        assert!(q.try_acquire_at("a", t0).is_err());
    }

    #[test]
    fn tenant_map_is_bounded() {
        let q = TenantQuotas::new(1000.0);
        let t0 = Instant::now();
        for i in 0..(MAX_TENANTS + 10) {
            let _ = q.try_acquire_at(&format!("tenant-{i}"), t0);
        }
        assert!(q.tracked_tenants() <= MAX_TENANTS);
    }
}
