//! The demand, request and current tables of the photonic router
//! (Section 3.2.1, Figure 3-2).
//!
//! Every photonic router holds six tables: one **demand table** per local
//! core (the number of wavelengths the core's current task needs toward every
//! other cluster), a **request table** whose entries are the element-wise
//! maximum of the demand tables, and a **current table** recording the
//! bandwidth actually allocated. The request table is *not* cleared after an
//! allocation round, so a router keeps trying to acquire additional
//! wavelengths on later token visits if its requests could not be satisfied.

use pnoc_noc::ids::ClusterId;

/// Wavelength demand of one core toward every cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemandTable {
    entries: Vec<usize>,
}

impl DemandTable {
    /// Creates an all-zero demand table for `num_clusters` destinations.
    #[must_use]
    pub fn new(num_clusters: usize) -> Self {
        Self {
            entries: vec![0; num_clusters],
        }
    }

    /// Sets the demanded wavelengths toward `dst`.
    pub fn set(&mut self, dst: ClusterId, wavelengths: usize) {
        self.entries[dst.0] = wavelengths;
    }

    /// Demanded wavelengths toward `dst`.
    #[must_use]
    pub fn get(&self, dst: ClusterId) -> usize {
        self.entries[dst.0]
    }

    /// Number of destination clusters covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when every entry is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|&e| e == 0)
    }
}

/// The request table: element-wise maximum over the cluster's demand tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTable {
    entries: Vec<usize>,
}

impl RequestTable {
    /// Creates an all-zero request table.
    #[must_use]
    pub fn new(num_clusters: usize) -> Self {
        Self {
            entries: vec![0; num_clusters],
        }
    }

    /// Rebuilds the table as the element-wise maximum of `demands`
    /// ("Each entry in the request table is the maximum of all the
    /// corresponding entries in the demand tables").
    pub fn rebuild(&mut self, demands: &[DemandTable]) {
        for dst in 0..self.entries.len() {
            self.entries[dst] = demands
                .iter()
                .map(|d| d.get(ClusterId(dst)))
                .max()
                .unwrap_or(0);
        }
    }

    /// Requested wavelengths toward `dst`.
    #[must_use]
    pub fn get(&self, dst: ClusterId) -> usize {
        self.entries[dst.0]
    }

    /// The highest requested wavelength count over all destinations — the
    /// number of wavelengths the cluster aims to acquire (Section 3.2.1).
    #[must_use]
    pub fn max_request(&self) -> usize {
        self.entries.iter().copied().max().unwrap_or(0)
    }

    /// Number of destination clusters covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when every entry is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|&e| e == 0)
    }
}

/// The current table: wavelengths currently allocated toward each cluster,
/// plus the identifiers of the acquired wavelengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CurrentTable {
    entries: Vec<usize>,
    /// Identifiers (flat indices into the dynamic wavelength space) of the
    /// wavelengths this cluster has acquired.
    acquired: Vec<usize>,
    /// Wavelengths reserved for the cluster's minimum allocation.
    reserved: usize,
}

impl CurrentTable {
    /// Creates a table with `reserved` permanently-held wavelengths and no
    /// dynamic acquisitions.
    #[must_use]
    pub fn new(num_clusters: usize, reserved: usize) -> Self {
        Self {
            entries: vec![0; num_clusters],
            acquired: Vec::new(),
            reserved,
        }
    }

    /// Total wavelengths currently held (reserved + acquired).
    #[must_use]
    pub fn total_held(&self) -> usize {
        self.reserved + self.acquired.len()
    }

    /// The reserved (minimum) wavelengths.
    #[must_use]
    pub fn reserved(&self) -> usize {
        self.reserved
    }

    /// Identifiers of dynamically acquired wavelengths.
    #[must_use]
    pub(crate) fn acquired(&self) -> &[usize] {
        &self.acquired
    }

    /// Records newly acquired wavelength identifiers.
    pub fn acquire(&mut self, identifiers: &[usize]) {
        self.acquired.extend_from_slice(identifiers);
    }

    /// Releases up to `count` wavelengths, returning the identifiers released.
    pub fn release(&mut self, count: usize) -> Vec<usize> {
        let n = count.min(self.acquired.len());
        self.acquired.split_off(self.acquired.len() - n)
    }

    /// Updates the per-destination allocation given a request table: every
    /// destination is granted the minimum of its request and the total
    /// wavelengths held.
    pub fn refresh(&mut self, requests: &RequestTable) {
        let held = self.total_held();
        for dst in 0..self.entries.len() {
            self.entries[dst] = requests.get(ClusterId(dst)).min(held);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_table_set_get() {
        let mut d = DemandTable::new(16);
        assert!(d.is_empty());
        d.set(ClusterId(3), 8);
        d.set(ClusterId(7), 2);
        assert_eq!(d.get(ClusterId(3)), 8);
        assert_eq!(d.get(ClusterId(0)), 0);
        assert_eq!(d.len(), 16);
        assert!(!d.is_empty());
    }

    #[test]
    fn request_table_is_elementwise_max_of_demands() {
        let mut d1 = DemandTable::new(4);
        let mut d2 = DemandTable::new(4);
        d1.set(ClusterId(0), 2);
        d1.set(ClusterId(1), 8);
        d2.set(ClusterId(0), 4);
        d2.set(ClusterId(2), 1);
        let mut r = RequestTable::new(4);
        r.rebuild(&[d1, d2]);
        assert_eq!(r.get(ClusterId(0)), 4);
        assert_eq!(r.get(ClusterId(1)), 8);
        assert_eq!(r.get(ClusterId(2)), 1);
        assert_eq!(r.get(ClusterId(3)), 0);
        assert_eq!(r.max_request(), 8);
    }

    #[test]
    fn current_table_acquire_release_lifecycle() {
        let mut c = CurrentTable::new(4, 1);
        assert_eq!(c.total_held(), 1);
        c.acquire(&[10, 11, 12]);
        assert_eq!(c.total_held(), 4);
        assert_eq!(c.acquired(), &[10, 11, 12]);
        let released = c.release(2);
        assert_eq!(released, vec![11, 12]);
        assert_eq!(c.total_held(), 2);
        // Releasing more than held only releases what exists; the reserved
        // wavelength is never released.
        let released = c.release(10);
        assert_eq!(released, vec![10]);
        assert_eq!(c.total_held(), 1);
        assert_eq!(c.reserved(), 1);
    }

    #[test]
    fn current_table_refresh_caps_at_held_wavelengths() {
        let mut r = RequestTable::new(3);
        let mut d = DemandTable::new(3);
        d.set(ClusterId(0), 8);
        d.set(ClusterId(1), 2);
        r.rebuild(&[d]);
        let mut c = CurrentTable::new(3, 1);
        c.acquire(&[0, 1, 2]); // 4 held in total
        c.refresh(&r);
        assert_eq!(
            c.entries,
            [4, 2, 0],
            "request 8 capped at 4 held, 2 granted"
        );
    }
}
