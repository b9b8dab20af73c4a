//! Resource vectors: cores, memory, disk, and GPU slots.
//!
//! The paper's resource model (§3.5.2): a *library* owns "an arbitrary but
//! fixed allocation of resources on a worker node in terms of cores, memory,
//! and disk", plus a logical resource called *invocation slots*. Workers
//! account for what libraries and tasks consume and report back to the
//! manager for scheduling. This module provides the vector arithmetic that
//! accounting is built on.

use std::fmt;
use std::ops::{Add, AddAssign};

/// A resource allocation or capacity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Resources {
    pub cores: u32,
    pub memory_mb: u64,
    pub disk_mb: u64,
    pub gpus: u32,
}

impl Resources {
    pub const ZERO: Resources = Resources {
        cores: 0,
        memory_mb: 0,
        disk_mb: 0,
        gpus: 0,
    };

    pub const fn new(cores: u32, memory_mb: u64, disk_mb: u64) -> Self {
        Resources {
            cores,
            memory_mb,
            disk_mb,
            gpus: 0,
        }
    }

    pub const fn with_gpus(mut self, gpus: u32) -> Self {
        self.gpus = gpus;
        self
    }

    /// The paper's evaluation worker: 32 cores, 64 GB memory, 64 GB disk
    /// (§4.2 "Each worker is allocated 32 cores and 64GBs of memory and
    /// disk").
    pub const fn paper_worker() -> Self {
        Resources::new(32, 64 * 1024, 64 * 1024)
    }

    /// The paper's LNNI invocation allocation: 2 cores, 4 GB memory, 4 GB
    /// disk — 16 concurrent invocations per worker (§4.2).
    pub const fn lnni_invocation() -> Self {
        Resources::new(2, 4 * 1024, 4 * 1024)
    }

    /// The paper's ExaMol invocation allocation: 4 cores, 8 GB memory, 8 GB
    /// disk — 8 concurrent invocations per worker (§4.2).
    pub const fn examol_invocation() -> Self {
        Resources::new(4, 8 * 1024, 8 * 1024)
    }

    /// True if a request of size `other` fits inside this remaining capacity.
    pub fn can_fit(&self, other: &Resources) -> bool {
        self.cores >= other.cores
            && self.memory_mb >= other.memory_mb
            && self.disk_mb >= other.disk_mb
            && self.gpus >= other.gpus
    }

    /// Subtract an allocation, returning `None` if any dimension would go
    /// negative. Used by worker-side accounting, where over-subscription is
    /// a logic error that must surface, not wrap.
    pub fn checked_sub(&self, other: &Resources) -> Option<Resources> {
        Some(Resources {
            cores: self.cores.checked_sub(other.cores)?,
            memory_mb: self.memory_mb.checked_sub(other.memory_mb)?,
            disk_mb: self.disk_mb.checked_sub(other.disk_mb)?,
            gpus: self.gpus.checked_sub(other.gpus)?,
        })
    }

    /// How many non-overlapping copies of `unit` fit in this capacity —
    /// the slot count a whole-worker library gets for a given per-invocation
    /// allocation (e.g. 32-core worker / 2-core LNNI invocation = 16 slots).
    pub fn divide_by(&self, unit: &Resources) -> u32 {
        let mut n = u32::MAX;
        if let Some(q) = self.cores.checked_div(unit.cores) {
            n = n.min(q);
        }
        if let Some(q) = self.memory_mb.checked_div(unit.memory_mb) {
            n = n.min(q as u32);
        }
        if let Some(q) = self.disk_mb.checked_div(unit.disk_mb) {
            n = n.min(q as u32);
        }
        if let Some(q) = self.gpus.checked_div(unit.gpus) {
            n = n.min(q);
        }
        if n == u32::MAX {
            // zero-sized unit: infinitely many fit; callers treat 0-resource
            // requests as "unconstrained" and should not divide by them.
            0
        } else {
            n
        }
    }

    /// Component-wise max, used when sizing a library to the largest of its
    /// functions' requests.
    pub fn max(&self, other: &Resources) -> Resources {
        Resources {
            cores: self.cores.max(other.cores),
            memory_mb: self.memory_mb.max(other.memory_mb),
            disk_mb: self.disk_mb.max(other.disk_mb),
            gpus: self.gpus.max(other.gpus),
        }
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, other: Resources) -> Resources {
        Resources {
            cores: self.cores + other.cores,
            memory_mb: self.memory_mb + other.memory_mb,
            disk_mb: self.disk_mb + other.disk_mb,
            gpus: self.gpus + other.gpus,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, other: Resources) {
        *self = *self + other;
    }
}

impl fmt::Debug for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}c/{}MB mem/{}MB disk",
            self.cores, self.memory_mb, self.disk_mb
        )?;
        if self.gpus > 0 {
            write!(f, "/{} gpu", self.gpus)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worker_fits_sixteen_lnni_invocations() {
        let worker = Resources::paper_worker();
        let invoc = Resources::lnni_invocation();
        assert_eq!(worker.divide_by(&invoc), 16);
    }

    #[test]
    fn paper_worker_fits_eight_examol_invocations() {
        let worker = Resources::paper_worker();
        let invoc = Resources::examol_invocation();
        assert_eq!(worker.divide_by(&invoc), 8);
    }

    #[test]
    fn can_fit_is_componentwise() {
        let cap = Resources::new(4, 100, 100);
        assert!(cap.can_fit(&Resources::new(4, 100, 100)));
        assert!(!cap.can_fit(&Resources::new(5, 1, 1)));
        assert!(!cap.can_fit(&Resources::new(1, 101, 1)));
        assert!(!cap.can_fit(&Resources::new(1, 1, 101)));
        assert!(!cap.can_fit(&Resources::new(1, 1, 1).with_gpus(1)));
    }

    #[test]
    fn checked_sub_detects_oversubscription() {
        let cap = Resources::new(4, 100, 100);
        assert_eq!(
            cap.checked_sub(&Resources::new(4, 100, 100)),
            Some(Resources::ZERO)
        );
        assert_eq!(cap.checked_sub(&Resources::new(5, 0, 0)), None);
    }

    #[test]
    fn add_then_sub_roundtrips() {
        let a = Resources::new(2, 4096, 4096);
        let b = Resources::new(1, 1024, 512).with_gpus(1);
        let sum = a + b;
        assert_eq!(sum.checked_sub(&b), Some(a));
    }

    #[test]
    fn divide_by_memory_bound() {
        // memory is the binding constraint here, not cores
        let cap = Resources::new(32, 8 * 1024, 64 * 1024);
        let unit = Resources::new(1, 4 * 1024, 1024);
        assert_eq!(cap.divide_by(&unit), 2);
    }

    #[test]
    fn divide_by_zero_unit_is_zero() {
        assert_eq!(Resources::paper_worker().divide_by(&Resources::ZERO), 0);
    }

    #[test]
    fn max_is_componentwise() {
        let a = Resources::new(2, 100, 5);
        let b = Resources::new(1, 200, 3).with_gpus(2);
        let m = a.max(&b);
        assert_eq!(m, Resources::new(2, 200, 5).with_gpus(2));
    }
}
