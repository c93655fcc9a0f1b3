//! Object Look-Aside Buffer (OLB).
//!
//! Paper §3.2: *"The OLB contains a mapping of every unique object ID to a
//! remote physical address. Whenever a remote instruction is executed, the
//! upper 64-bits of the address are retrieved from the specified extended
//! register. If the value is equal to 0, representing the local processing
//! element, a local memory operation is performed at the address given in
//! the base register. Otherwise, the OLB is visited in order to translate
//! the object ID into a remote physical address."*
//!
//! In this reproduction an object ID names a whole remote PE: ID `k`
//! (1-based) maps to PE `k - 1` with base offset 0. Richer mappings —
//! arbitrary object windows with nonzero bases — are supported for
//! memory-mapped-I/O-style use (paper §3.1 mentions this domain) and used
//! by tests.

use std::fmt;

use crate::hash::WordMap;

/// Where an object ID points: a processing element and a base offset within
/// its physical memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OlbEntry {
    /// Target processing element.
    pub pe: usize,
    /// Base physical offset added to the 64-bit base address.
    pub base: u64,
}

/// The result of resolving an extended address's upper half.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OlbTarget {
    /// Object ID 0: the access is local to the issuing PE.
    Local,
    /// A remote (or aliased-local) object.
    Remote(OlbEntry),
}

/// Error raised for an object ID with no OLB mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OlbMissError {
    /// The unmapped object ID.
    pub object_id: u64,
}

impl fmt::Display for OlbMissError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "object ID {:#x} has no OLB mapping", self.object_id)
    }
}

impl std::error::Error for OlbMissError {}

/// Lookup statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OlbStats {
    /// Lookups that resolved to the local PE (ID 0).
    pub local: u64,
    /// Lookups that resolved through the mapping table.
    pub translated: u64,
    /// Lookups that faulted (unmapped ID).
    pub faults: u64,
}

/// The Object Look-Aside Buffer: object ID → (PE, base) mapping.
#[derive(Debug)]
pub struct Olb {
    map: WordMap<u64, OlbEntry>,
    /// Cycles charged for a translation (object ID ≠ 0).
    pub lookup_cycles: u64,
    stats: OlbStats,
}

impl Olb {
    /// An empty OLB with the given translation latency.
    pub fn new(lookup_cycles: u64) -> Self {
        Olb {
            map: WordMap::default(),
            lookup_cycles,
            stats: OlbStats::default(),
        }
    }

    /// The canonical runtime mapping: object ID `k` (for `k` in `1..=n_pes`)
    /// names PE `k - 1` with base 0. This is the convention the xbrtime
    /// runtime uses to target peers.
    pub fn identity_for_pes(n_pes: usize, lookup_cycles: u64) -> Self {
        let mut olb = Olb::new(lookup_cycles);
        for pe in 0..n_pes {
            olb.insert(pe as u64 + 1, OlbEntry { pe, base: 0 });
        }
        olb
    }

    /// Install or replace a mapping.
    ///
    /// # Panics
    /// Panics on object ID 0, which is architecturally reserved for "local".
    pub fn insert(&mut self, object_id: u64, entry: OlbEntry) {
        assert!(object_id != 0, "object ID 0 is reserved for the local PE");
        self.map.insert(object_id, entry);
    }

    /// Remove a mapping; returns the old entry if present.
    pub fn remove(&mut self, object_id: u64) -> Option<OlbEntry> {
        self.map.remove(&object_id)
    }

    /// Number of installed mappings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no mappings are installed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> OlbStats {
        self.stats
    }

    /// Resolve an object ID, returning the target and the lookup latency.
    pub fn translate(&mut self, object_id: u64) -> Result<(OlbTarget, u64), OlbMissError> {
        if object_id == 0 {
            self.stats.local += 1;
            return Ok((OlbTarget::Local, 0));
        }
        match self.map.get(&object_id) {
            Some(&entry) => {
                self.stats.translated += 1;
                Ok((OlbTarget::Remote(entry), self.lookup_cycles))
            }
            None => {
                self.stats.faults += 1;
                Err(OlbMissError { object_id })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_zero_is_local() {
        let mut olb = Olb::new(2);
        let (target, cycles) = olb.translate(0).unwrap();
        assert_eq!(target, OlbTarget::Local);
        assert_eq!(cycles, 0);
        assert_eq!(olb.stats().local, 1);
    }

    #[test]
    fn identity_mapping_convention() {
        let mut olb = Olb::identity_for_pes(4, 2);
        assert_eq!(olb.len(), 4);
        for pe in 0..4usize {
            let (target, cycles) = olb.translate(pe as u64 + 1).unwrap();
            assert_eq!(target, OlbTarget::Remote(OlbEntry { pe, base: 0 }));
            assert_eq!(cycles, 2);
        }
    }

    #[test]
    fn unmapped_id_faults() {
        let mut olb = Olb::identity_for_pes(2, 1);
        let err = olb.translate(99).unwrap_err();
        assert_eq!(err.object_id, 99);
        assert_eq!(olb.stats().faults, 1);
    }

    #[test]
    fn windowed_object() {
        // An object window with a nonzero base, e.g. a memory-mapped region.
        let mut olb = Olb::new(3);
        olb.insert(
            0xCAFE,
            OlbEntry {
                pe: 7,
                base: 0x10_0000,
            },
        );
        let (target, _) = olb.translate(0xCAFE).unwrap();
        assert_eq!(
            target,
            OlbTarget::Remote(OlbEntry {
                pe: 7,
                base: 0x10_0000
            })
        );
        assert_eq!(
            olb.remove(0xCAFE),
            Some(OlbEntry {
                pe: 7,
                base: 0x10_0000
            })
        );
        assert!(olb.is_empty());
    }

    #[test]
    #[should_panic(expected = "reserved for the local PE")]
    fn inserting_id_zero_panics() {
        let mut olb = Olb::new(1);
        olb.insert(0, OlbEntry { pe: 0, base: 0 });
    }
}
