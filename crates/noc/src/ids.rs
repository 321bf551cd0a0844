//! Strongly-typed identifiers for cores, clusters, routers, ports, virtual
//! channels and packets.
//!
//! The d-HetPNoC system is organised hierarchically: `N_C` cores are grouped
//! into clusters of `cores_per_cluster` cores (4 in the paper), and each
//! cluster owns one photonic router. The identifier types in this module make
//! the core ↔ cluster arithmetic explicit and hard to get wrong.

use std::fmt;

/// Identifier of a processing core (0-based, global across the chip).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

/// Identifier of a cluster of cores (0-based). Each cluster owns exactly one
/// photonic router in both the Firefly baseline and d-HetPNoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub usize);

/// Identifier of a router (electrical core switch or photonic router).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub usize);

/// Identifier of a port on a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub usize);

/// Identifier of a virtual channel within a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VcId(pub usize);

/// Globally unique packet identifier, assigned at injection time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

macro_rules! impl_display_and_from {
    ($t:ty, $inner:ty) => {
        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
        impl From<$inner> for $t {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }
        impl From<$t> for $inner {
            fn from(v: $t) -> Self {
                v.0
            }
        }
    };
}

impl_display_and_from!(CoreId, usize);
impl_display_and_from!(ClusterId, usize);
impl_display_and_from!(RouterId, usize);
impl_display_and_from!(PortId, usize);
impl_display_and_from!(VcId, usize);
impl_display_and_from!(PacketId, u64);

impl CoreId {
    /// Returns the cluster this core belongs to, given the cluster size.
    ///
    /// # Panics
    ///
    /// Panics if `cores_per_cluster` is zero.
    #[must_use]
    #[inline]
    pub fn cluster(self, cores_per_cluster: usize) -> ClusterId {
        assert!(cores_per_cluster > 0, "cores_per_cluster must be non-zero");
        ClusterId(self.0 / cores_per_cluster)
    }

    /// Returns the index of this core within its cluster (`0..cores_per_cluster`).
    ///
    /// # Panics
    ///
    /// Panics if `cores_per_cluster` is zero.
    #[must_use]
    #[inline]
    pub fn local_index(self, cores_per_cluster: usize) -> usize {
        assert!(cores_per_cluster > 0, "cores_per_cluster must be non-zero");
        self.0 % cores_per_cluster
    }

    /// Returns the raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl ClusterId {
    /// Returns the global [`CoreId`] of the `local`-th core of this cluster.
    #[must_use]
    #[inline]
    pub fn core(self, local: usize, cores_per_cluster: usize) -> CoreId {
        assert!(
            local < cores_per_cluster,
            "local core index {local} out of range (cluster size {cores_per_cluster})"
        );
        CoreId(self.0 * cores_per_cluster + local)
    }

    /// Returns an iterator over all global core ids in this cluster.
    pub fn cores(self, cores_per_cluster: usize) -> impl Iterator<Item = CoreId> {
        let base = self.0 * cores_per_cluster;
        (0..cores_per_cluster).map(move |i| CoreId(base + i))
    }

    /// Returns the raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl PacketId {
    /// A sentinel id used for uninitialised slots in buffers; never assigned
    /// to a real packet by [`PacketIdAllocator`].
    pub const INVALID: PacketId = PacketId(u64::MAX);
}

/// Monotonically increasing allocator of [`PacketId`]s.
#[derive(Debug, Default, Clone)]
pub struct PacketIdAllocator {
    next: u64,
}

impl PacketIdAllocator {
    /// Creates an allocator starting at id 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh, never-before-returned id.
    #[inline]
    pub fn allocate(&mut self) -> PacketId {
        let id = PacketId(self.next);
        self.next += 1;
        id
    }

    /// Number of ids handed out so far.
    #[must_use]
    pub fn allocated(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_to_cluster_mapping() {
        assert_eq!(CoreId(0).cluster(4), ClusterId(0));
        assert_eq!(CoreId(3).cluster(4), ClusterId(0));
        assert_eq!(CoreId(4).cluster(4), ClusterId(1));
        assert_eq!(CoreId(63).cluster(4), ClusterId(15));
    }

    #[test]
    fn core_local_index() {
        assert_eq!(CoreId(0).local_index(4), 0);
        assert_eq!(CoreId(5).local_index(4), 1);
        assert_eq!(CoreId(63).local_index(4), 3);
    }

    #[test]
    fn cluster_to_core_roundtrip() {
        for c in 0..16 {
            for l in 0..4 {
                let core = ClusterId(c).core(l, 4);
                assert_eq!(core.cluster(4), ClusterId(c));
                assert_eq!(core.local_index(4), l);
            }
        }
    }

    #[test]
    fn cluster_cores_iterator() {
        let cores: Vec<_> = ClusterId(3).cores(4).collect();
        assert_eq!(cores, vec![CoreId(12), CoreId(13), CoreId(14), CoreId(15)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cluster_core_out_of_range_panics() {
        let _ = ClusterId(0).core(4, 4);
    }

    #[test]
    fn packet_id_allocator_is_monotonic_and_unique() {
        let mut alloc = PacketIdAllocator::new();
        let a = alloc.allocate();
        let b = alloc.allocate();
        let c = alloc.allocate();
        assert!(a < b && b < c);
        assert_eq!(alloc.allocated(), 3);
        assert_ne!(a, PacketId::INVALID);
    }

    #[test]
    fn display_and_conversions() {
        assert_eq!(CoreId(7).to_string(), "7");
        assert_eq!(usize::from(ClusterId(9)), 9);
        let p: PortId = 2usize.into();
        assert_eq!(p, PortId(2));
    }
}
