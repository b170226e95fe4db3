//! Per-device memory ledger: weights, activation workspace, and the KV
//! pool that remains — the quantity behind the paper's Fig. 1 and Fig. 11.

use crate::calib::{ACTIVATION_RESERVE_FRACTION, ACTIVATION_RESERVE_MIN};

/// Accounting for one device's memory.
///
/// The lifecycle is: construct with the device capacity → reserve weights
/// (model shards) → the rest minus an activation reserve becomes the KV
/// pool → the serving engine allocates/frees KV bytes against the pool.
#[derive(Debug, Clone)]
pub struct MemoryLedger {
    total: u64,
    weights: u64,
    activation_reserve: u64,
    kv_used: u64,
}

/// Error returned when a reservation or allocation cannot fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes that were available.
    pub available: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory: requested {} B, available {} B",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

impl MemoryLedger {
    /// A ledger over `total` bytes of device memory, with the default
    /// activation reserve set aside.
    pub fn new(total: u64) -> Self {
        let reserve =
            ((total as f64 * ACTIVATION_RESERVE_FRACTION) as u64).max(ACTIVATION_RESERVE_MIN);
        MemoryLedger {
            total,
            weights: 0,
            activation_reserve: reserve.min(total),
            kv_used: 0,
        }
    }

    /// Reserves `bytes` for model weights. Fails if weights + reserve would
    /// exceed capacity.
    pub fn reserve_weights(&mut self, bytes: u64) -> Result<(), OutOfMemory> {
        let new_weights = self.weights + bytes;
        if new_weights + self.activation_reserve > self.total {
            return Err(OutOfMemory {
                requested: bytes,
                available: self
                    .total
                    .saturating_sub(self.weights + self.activation_reserve),
            });
        }
        self.weights = new_weights;
        Ok(())
    }

    /// Total KV pool (capacity available to caches), bytes.
    #[inline]
    pub fn kv_pool(&self) -> u64 {
        self.total
            .saturating_sub(self.weights + self.activation_reserve)
    }

    /// KV bytes currently allocated.
    #[inline]
    pub fn kv_used(&self) -> u64 {
        self.kv_used
    }

    /// KV bytes still free.
    #[inline]
    pub fn kv_free(&self) -> u64 {
        self.kv_pool() - self.kv_used
    }

    /// KV pool utilization in [0, 1].
    pub fn kv_utilization(&self) -> f64 {
        let pool = self.kv_pool();
        if pool == 0 {
            0.0
        } else {
            self.kv_used as f64 / pool as f64
        }
    }

    /// Allocates `bytes` of KV cache.
    pub fn alloc_kv(&mut self, bytes: u64) -> Result<(), OutOfMemory> {
        if bytes > self.kv_free() {
            return Err(OutOfMemory {
                requested: bytes,
                available: self.kv_free(),
            });
        }
        self.kv_used += bytes;
        Ok(())
    }

    /// Frees `bytes` of KV cache. Panics on underflow (a logic error).
    pub fn free_kv(&mut self, bytes: u64) {
        assert!(
            bytes <= self.kv_used,
            "KV free underflow: freeing {bytes} of {}",
            self.kv_used
        );
        self.kv_used -= bytes;
    }

    /// Total device memory.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bytes reserved for activations/workspace.
    pub fn activation_reserve(&self) -> u64 {
        self.activation_reserve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::GB;

    #[test]
    fn pool_is_total_minus_weights_minus_reserve() {
        let mut m = MemoryLedger::new(80 * GB);
        m.reserve_weights(30 * GB).unwrap();
        assert_eq!(m.kv_pool(), 80 * GB - 30 * GB - m.activation_reserve());
        assert_eq!(m.kv_free(), m.kv_pool());
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut m = MemoryLedger::new(24 * GB);
        m.reserve_weights(10 * GB).unwrap();
        let pool = m.kv_pool();
        m.alloc_kv(pool).unwrap();
        assert_eq!(m.kv_free(), 0);
        assert!(m.alloc_kv(1).is_err());
        m.free_kv(pool / 2);
        assert_eq!(m.kv_used(), pool - pool / 2);
        assert!((m.kv_utilization() - m.kv_used() as f64 / pool as f64).abs() < 1e-12);
    }

    #[test]
    fn overweight_rejected() {
        let mut m = MemoryLedger::new(12 * GB);
        let err = m.reserve_weights(12 * GB).unwrap_err();
        assert!(err.available < 12 * GB);
        // The ledger is unchanged after a failed reservation.
        assert_eq!(m.kv_pool(), 12 * GB - m.activation_reserve());
    }

    #[test]
    #[should_panic]
    fn free_underflow_panics() {
        let mut m = MemoryLedger::new(GB);
        m.free_kv(1);
    }

    #[test]
    fn paper_fig1a_example_shape() {
        // Fig. 1a: a 7B FP16 model (~13.5 GB) on a 3090 as decode worker
        // leaves roughly 10 GB of cache space.
        let mut m = MemoryLedger::new(24 * GB);
        m.reserve_weights(13_500_000_000).unwrap();
        let pool_gb = m.kv_pool() as f64 / 1e9;
        assert!((8.0..11.5).contains(&pool_gb), "pool = {pool_gb} GB");
    }
}
