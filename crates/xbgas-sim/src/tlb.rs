//! Translation look-aside buffer model.
//!
//! The paper's cores each carry a 256-entry TLB (§5.1). Our simulator uses
//! a flat physical address space per PE, so the TLB exists purely as a
//! timing component: a miss charges a page-walk penalty. It is modelled as
//! fully associative with true-LRU replacement over 4 KiB pages.
//!
//! # Structure
//!
//! The model is walked once per simulated access, and workloads such as
//! GUPS miss it by design, so a hit and a miss both cost O(1) on the host:
//!
//! * `slots` holds the resident translations, each threaded on two
//!   intrusive lists by slot index;
//! * a *recency list* (`newer` / `older`, ends in `newest` / `oldest`)
//!   keeps every resident page in order of last touch — a hit unlinks the
//!   slot and pushes it on the `newest` end (skipped when it is there
//!   already), a miss on a full TLB reuses the slot on the `oldest` end;
//! * `buckets`, a power-of-two array at least twice the capacity indexed
//!   by a multiplicative hash of the page number, heads the `chain` of
//!   slots whose pages hash alike, so lookup never scans the whole TLB.
//!
//! # Why the LRU order is exact
//!
//! Every access moves its page to the `newest` end and nothing else
//! reorders the list, so the `oldest` end is always the resident page
//! whose last touch is furthest in the past: the victim a timestamp per
//! entry and a minimum scan would pick, for any capacity (a power of two
//! or not). The hit / miss sequence is therefore that of the textbook
//! model; `tests/memmodel_differential.rs` holds it to a timestamp oracle.

/// Configuration of the TLB model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (paper: 256).
    pub entries: usize,
    /// Page size in bytes (4 KiB).
    pub page_bytes: u64,
    /// Page-walk penalty charged on a miss, in cycles.
    pub miss_cycles: u64,
}

impl TlbConfig {
    /// The paper's 256-entry TLB with 4 KiB pages and a 120-cycle walk
    /// (a three-level Sv39 walk touching DRAM).
    pub const fn paper() -> Self {
        TlbConfig {
            entries: 256,
            page_bytes: 4096,
            miss_cycles: 120,
        }
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (page walk performed).
    pub misses: u64,
}

/// "No slot": the end of a recency list or of a bucket chain.
const NIL: u32 = u32::MAX;

/// One resident translation, threaded on the recency list and on the
/// chain of its hash bucket.
#[derive(Clone, Copy)]
struct Slot {
    vpn: u64,
    /// Neighbour touched more recently (`NIL` for the newest slot).
    newer: u32,
    /// Neighbour touched less recently (`NIL` for the oldest slot).
    older: u32,
    /// Next slot in the same hash bucket.
    chain: u32,
}

/// Fully-associative LRU TLB.
pub struct Tlb {
    config: TlbConfig,
    page_shift: u32,
    /// `64 − log2(buckets.len())`: the top bits of the hash pick a bucket.
    hash_shift: u32,
    /// Head slot of each bucket's chain.
    buckets: Vec<u32>,
    /// Resident translations; grows to `config.entries`, after which
    /// every miss reuses the `oldest` slot.
    slots: Vec<Slot>,
    newest: u32,
    oldest: u32,
    stats: TlbStats,
}

impl Tlb {
    /// Build an empty TLB.
    ///
    /// # Panics
    /// Panics if `entries` is zero (or does not fit a `u32` slot index) or
    /// `page_bytes` is not a power of two.
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.entries > 0, "TLB must have at least one entry");
        assert!(
            config.entries < NIL as usize / 2,
            "TLB slots are indexed by u32"
        );
        assert!(
            config.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let buckets = (2 * config.entries).next_power_of_two();
        Tlb {
            config,
            page_shift: config.page_bytes.trailing_zeros(),
            hash_shift: 64 - buckets.trailing_zeros(),
            buckets: vec![NIL; buckets],
            slots: Vec::with_capacity(config.entries),
            newest: NIL,
            oldest: NIL,
            stats: TlbStats::default(),
        }
    }

    /// Configuration of this TLB.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Reset statistics (resident translations are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Look up the page containing `addr`; returns the latency in cycles
    /// (0 on a hit, the walk penalty on a miss).
    #[inline]
    pub fn access(&mut self, addr: u64) -> u64 {
        let vpn = addr >> self.page_shift;
        // Already the newest (`NIL` is out of bounds): no list to reorder.
        let newest = self.slots.get(self.newest as usize);
        if newest.is_some_and(|s| s.vpn == vpn) {
            self.stats.hits += 1;
            return 0;
        }
        let bucket = self.bucket_of(vpn);
        if let Some(slot) = self.find(bucket, vpn) {
            self.stats.hits += 1;
            self.unlink(slot);
            self.push_newest(slot);
            return 0;
        }
        self.stats.misses += 1;
        let slot = if self.slots.len() < self.config.entries {
            self.slots.push(Slot {
                vpn,
                newer: NIL,
                older: NIL,
                chain: NIL,
            });
            (self.slots.len() - 1) as u32
        } else {
            let victim = self.oldest;
            self.unlink(victim);
            self.unchain(victim);
            self.slots[victim as usize].vpn = vpn;
            victim
        };
        self.slots[slot as usize].chain = self.buckets[bucket];
        self.buckets[bucket] = slot;
        self.push_newest(slot);
        self.config.miss_cycles
    }

    /// `n ≥ 1` back-to-back accesses to the page containing `addr`, as
    /// `n` calls of [`Tlb::access`] would perform them: the first hits or
    /// misses, the rest hit the entry it left newest. Returns the summed
    /// latency (that of the first).
    #[inline]
    pub fn access_run(&mut self, addr: u64, n: u64) -> u64 {
        assert!(n > 0, "a run has at least one access");
        self.stats.hits += n - 1;
        self.access(addr)
    }

    /// Drop all translations.
    pub fn flush(&mut self) {
        self.slots.clear();
        self.buckets.fill(NIL);
        self.newest = NIL;
        self.oldest = NIL;
    }

    /// Fibonacci hashing: page numbers arrive as strides and as random
    /// draws alike, and the top bits of the product spread both.
    #[inline]
    fn bucket_of(&self, vpn: u64) -> usize {
        (vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.hash_shift) as usize
    }

    /// The slot holding `vpn`, if resident.
    #[inline]
    fn find(&self, bucket: usize, vpn: u64) -> Option<u32> {
        let mut slot = self.buckets[bucket];
        while slot != NIL {
            let s = &self.slots[slot as usize];
            if s.vpn == vpn {
                return Some(slot);
            }
            slot = s.chain;
        }
        None
    }

    /// Take `slot` off the recency list.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Slot { newer, older, .. } = self.slots[slot as usize];
        match newer {
            NIL => self.newest = older,
            n => self.slots[n as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o as usize].newer = newer,
        }
    }

    /// Put an unlinked `slot` on the most-recently-used end.
    #[inline]
    fn push_newest(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.newer = NIL;
        s.older = self.newest;
        match self.newest {
            NIL => self.oldest = slot,
            n => self.slots[n as usize].newer = slot,
        }
        self.newest = slot;
    }

    /// Take `slot` off the chain of the bucket its page hashes to.
    #[inline]
    fn unchain(&mut self, slot: u32) {
        let Slot { vpn, chain, .. } = self.slots[slot as usize];
        let bucket = self.bucket_of(vpn);
        if self.buckets[bucket] == slot {
            self.buckets[bucket] = chain;
            return;
        }
        let mut at = self.buckets[bucket];
        while self.slots[at as usize].chain != slot {
            at = self.slots[at as usize].chain;
        }
        self.slots[at as usize].chain = chain;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 2,
            page_bytes: 4096,
            miss_cycles: 120,
        })
    }

    #[test]
    fn miss_then_hit_same_page() {
        let mut t = tiny();
        assert_eq!(t.access(0x1000), 120);
        assert_eq!(t.access(0x1FFF), 0); // same page
        assert_eq!(t.access(0x2000), 120); // next page
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn lru_replacement() {
        let mut t = tiny();
        t.access(0x0000); // page 0
        t.access(0x1000); // page 1
        t.access(0x0000); // touch page 0 -> page 1 is LRU
        t.access(0x2000); // page 2 evicts page 1
        assert_eq!(t.access(0x0000), 0); // page 0 still resident
        assert_eq!(t.access(0x1000), 120); // page 1 was evicted
    }

    #[test]
    fn lru_order_with_a_non_power_of_two_capacity() {
        let mut t = Tlb::new(TlbConfig {
            entries: 3,
            ..TlbConfig::paper()
        });
        for page in [0, 1, 2, 0, 3] {
            t.access(page * 4096); // page 3 evicts page 1, the oldest
        }
        assert_eq!(t.access(0x2000), 0);
        assert_eq!(t.access(0x0000), 0);
        assert_eq!(t.access(0x1000), 120); // evicts page 3
        assert_eq!(t.access(0x3000), 120);
    }

    #[test]
    fn a_run_is_one_lookup_and_hits_after_it() {
        let mut t = tiny();
        assert_eq!(t.access_run(0x1000, 4), 120);
        assert_eq!(t.stats(), TlbStats { hits: 3, misses: 1 });
        assert_eq!(t.access_run(0x1040, 2), 0);
        assert_eq!(t.stats(), TlbStats { hits: 5, misses: 1 });
    }

    #[test]
    fn flush_drops_everything() {
        let mut t = tiny();
        t.access(0x0);
        t.flush();
        assert_eq!(t.access(0x0), 120);
    }

    #[test]
    fn paper_config() {
        let c = TlbConfig::paper();
        assert_eq!(c.entries, 256);
        assert_eq!(c.page_bytes, 4096);
    }

    #[test]
    fn capacity_behaviour() {
        // Touching 256 distinct pages then re-touching them in order: all hit.
        let mut t = Tlb::new(TlbConfig::paper());
        for p in 0..256u64 {
            t.access(p * 4096);
        }
        t.reset_stats();
        for p in 0..256u64 {
            t.access(p * 4096);
        }
        assert_eq!(t.stats().misses, 0);
        assert_eq!(t.stats().hits, 256);
    }
}
