//! One cache level: its geometry/timing specification ([`LevelSpec`]) and
//! the tag/LRU state machine ([`Level`]) the hierarchy drives.

use crate::hierarchy::CacheConfigError;

/// Geometry and timing of one cache level.
///
/// `bytes_per_cycle` is the bandwidth of the edge this level *serves*:
/// for L1 that is the CPU load/store port (each access charges
/// `latency_cycles + ceil(bytes / bytes_per_cycle)`), for L2 it is the
/// L1↔L2 edge over which L1 lines fill and write back.
///
/// `mshrs` and `store_buffer` configure the transaction model for the
/// *misses of this level*: `mshrs` is how many of this level's outstanding
/// misses may overlap (1 = the legacy fully-serialized model), and
/// `store_buffer` is how many of this level's dirty write-backs may drain
/// off the critical path (0 = write-backs charge synchronously, the
/// legacy model).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelSpec {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u64,
    /// Fixed cycles per transfer served by this level.
    pub latency_cycles: u64,
    /// Bandwidth of this level's service port, in bytes per cycle.
    pub bytes_per_cycle: u64,
    /// Miss status holding registers: outstanding misses of this level
    /// that may overlap. 1 serializes every miss (the pre-transaction
    /// model, bit-identical); N lets a burst of independent misses cost
    /// `latency + N·transfer` instead of `N·(latency + transfer)`.
    pub mshrs: u64,
    /// Write-back buffer entries: dirty write-backs of this level that
    /// drain off the critical path. 0 charges every write-back
    /// synchronously (the pre-transaction model, bit-identical). Must not
    /// exceed `mshrs`.
    pub store_buffer: u64,
}

impl LevelSpec {
    /// Checks the level in isolation: non-zero fields, power-of-two line,
    /// a power-of-two number of whole sets, and a transaction model the
    /// hardware could build (at least one MSHR, and no more store-buffer
    /// entries than MSHRs to track their drains).
    ///
    /// # Errors
    ///
    /// The first [`CacheConfigError`] found.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        if self.size_bytes == 0 {
            return Err(CacheConfigError::ZeroField("size_bytes"));
        }
        if self.line_bytes == 0 {
            return Err(CacheConfigError::ZeroField("line_bytes"));
        }
        if self.ways == 0 {
            return Err(CacheConfigError::ZeroField("ways"));
        }
        if self.bytes_per_cycle == 0 {
            return Err(CacheConfigError::ZeroField("bytes_per_cycle"));
        }
        if self.mshrs == 0 {
            return Err(CacheConfigError::ZeroField("mshrs"));
        }
        if self.store_buffer > self.mshrs {
            return Err(CacheConfigError::StoreBufferExceedsMshrs {
                store_buffer: self.store_buffer,
                mshrs: self.mshrs,
            });
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(CacheConfigError::LineNotPowerOfTwo(self.line_bytes));
        }
        let bad = CacheConfigError::BadGeometry {
            size_bytes: self.size_bytes,
            line_bytes: self.line_bytes,
            ways: self.ways,
        };
        if self.size_bytes % self.line_bytes != 0 {
            return Err(bad);
        }
        let lines = self.size_bytes / self.line_bytes;
        if lines % self.ways != 0 || !(lines / self.ways).is_power_of_two() {
            return Err(bad);
        }
        Ok(())
    }

    /// Number of sets implied by the geometry. Meaningful only after
    /// [`LevelSpec::validate`] has passed.
    pub fn sets(&self) -> u64 {
        (self.size_bytes / self.line_bytes) / self.ways
    }
}

/// The line displaced by a fill.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Victim {
    pub(crate) line_addr: u64,
    /// Per-sector dirty mask; 0 means clean.
    pub(crate) dirty: u64,
}

/// One cache level's tag store: `nsets × ways` line slots kept as three
/// flat arrays indexed `set * ways + way`, so a hit probe scans one short
/// run of tags and touches one stamp and one dirty mask.
///
/// A slot is empty iff its LRU stamp is 0. Every access advances the
/// clock before stamping, so resident lines carry stamps of at least 1,
/// and no tag value is reserved: a tag spans `64 − log2(line) −
/// log2(sets)` bits, all 64 of them for a 1-byte-line, 1-set level.
#[derive(Clone, Debug)]
pub(crate) struct Level {
    tags: Box<[u64]>,
    /// LRU stamps (clock at last touch); 0 marks an empty slot.
    stamps: Box<[u64]>,
    /// Dirty mask, one bit per L1-line-sized sector. For L1 (and for an
    /// L2 whose line equals the L1 line) this is a single bit.
    dirty: Box<[u64]>,
    clock: u64,
    ways: usize,
    /// Shift/mask index math; validation guarantees power-of-two line
    /// size and set count.
    line_shift: u32,
    set_mask: u64,
    set_shift: u32,
    /// Dirty granularity: log2 of the sector size (the hierarchy's L1
    /// line) and the sectors-per-line mask.
    sector_shift: u32,
    sector_mask: u64,
}

pub(crate) enum Lookup {
    Hit,
    /// Miss; the fill may have displaced a victim line.
    Miss(Option<Victim>),
}

impl Level {
    /// Builds the level; `sector_bytes` (the hierarchy's L1 line size)
    /// sets the dirty-tracking granularity.
    pub(crate) fn new(spec: LevelSpec, sector_bytes: u64) -> Level {
        let nsets = spec.sets();
        let slots = (nsets * spec.ways) as usize;
        Level {
            tags: vec![0; slots].into_boxed_slice(),
            stamps: vec![0; slots].into_boxed_slice(),
            dirty: vec![0; slots].into_boxed_slice(),
            clock: 0,
            ways: spec.ways as usize,
            line_shift: spec.line_bytes.trailing_zeros(),
            set_mask: nsets - 1,
            set_shift: nsets.trailing_zeros(),
            sector_shift: sector_bytes.trailing_zeros(),
            sector_mask: spec.line_bytes / sector_bytes - 1,
        }
    }

    /// Splits `line_addr` into (first slot of its set, tag).
    #[inline]
    fn set_and_tag(&self, line_addr: u64) -> (usize, u64) {
        let idx = line_addr >> self.line_shift;
        (
            (idx & self.set_mask) as usize * self.ways,
            idx >> self.set_shift,
        )
    }

    /// The slot holding the line with `tag` in the set starting at `set`.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let ways = set..set + self.ways;
        let hit = self.tags[ways.clone()]
            .iter()
            .zip(&self.stamps[ways])
            .position(|(&t, &stamp)| t == tag && stamp != 0)?;
        Some(set + hit)
    }

    /// The dirty-mask bit for the sector containing `addr`.
    #[inline]
    pub(crate) fn sector_bit(&self, addr: u64) -> u64 {
        1 << ((addr >> self.sector_shift) & self.sector_mask)
    }

    /// Whether the line containing `line_addr` is resident, without
    /// touching LRU state (the prefetcher's probe).
    pub(crate) fn probe(&self, line_addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(line_addr);
        self.find(set, tag).is_some()
    }

    /// The hit half of [`Level::access`]: if the line containing
    /// `line_addr` is resident, refreshes its LRU stamp, dirties the
    /// sector on a write and returns `true`; otherwise changes nothing.
    // Forced so `Hierarchy::access_at`'s callers get the probe inline.
    #[inline(always)]
    pub(crate) fn hit(&mut self, line_addr: u64, write: bool) -> bool {
        let (set, tag) = self.set_and_tag(line_addr);
        let Some(slot) = self.find(set, tag) else {
            return false;
        };
        self.clock += 1;
        self.stamps[slot] = self.clock;
        if write {
            self.dirty[slot] |= self.sector_bit(line_addr);
        }
        true
    }

    /// Looks up the line containing `line_addr`, filling on miss (into a
    /// free way if one exists, else over the least-recently-used line).
    /// A write dirties the sector containing `line_addr`.
    pub(crate) fn access(&mut self, line_addr: u64, write: bool) -> Lookup {
        if self.hit(line_addr, write) {
            return Lookup::Hit;
        }
        Lookup::Miss(self.fill(line_addr, write))
    }

    /// Installs the (absent) line containing `line_addr` over the first
    /// empty way of its set, else the least-recently-used one, returning
    /// the displaced line. Empty ways carry stamp 0, below every resident
    /// stamp, so one minimum scan finds either.
    fn fill(&mut self, line_addr: u64, write: bool) -> Option<Victim> {
        self.clock += 1;
        let set_idx = (line_addr >> self.line_shift) & self.set_mask;
        let (set, tag) = self.set_and_tag(line_addr);
        let stamps = &self.stamps[set..set + self.ways];
        let mut slot = 0;
        for (i, &stamp) in stamps.iter().enumerate() {
            if stamp < stamps[slot] {
                slot = i;
            }
        }
        let slot = set + slot;
        let victim = (self.stamps[slot] != 0).then(|| Victim {
            // tag = idx / sets and set = idx % sets, so the victim's line
            // address reconstructs exactly.
            line_addr: ((self.tags[slot] << self.set_shift) | set_idx) << self.line_shift,
            dirty: self.dirty[slot],
        });
        self.tags[slot] = tag;
        self.stamps[slot] = self.clock;
        self.dirty[slot] = if write { self.sector_bit(line_addr) } else { 0 };
        victim
    }

    /// Marks the sector containing `addr` dirty in its resident line and
    /// refreshes it (a write-back install), without allocating. Returns
    /// whether the line was present.
    pub(crate) fn touch_dirty(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let (set, tag) = self.set_and_tag(addr);
        let Some(slot) = self.find(set, tag) else {
            return false;
        };
        self.dirty[slot] |= self.sector_bit(addr);
        self.stamps[slot] = self.clock;
        true
    }

    /// Removes the line containing `line_addr` if resident, returning its
    /// dirty mask (inclusion back-invalidation).
    pub(crate) fn invalidate(&mut self, line_addr: u64) -> Option<u64> {
        let (set, tag) = self.set_and_tag(line_addr);
        let slot = self.find(set, tag)?;
        self.stamps[slot] = 0;
        Some(std::mem::take(&mut self.dirty[slot]))
    }

    pub(crate) fn flush(&mut self) -> u64 {
        let dirty = self
            .stamps
            .iter()
            .zip(self.dirty.iter())
            .filter(|&(&stamp, &d)| stamp != 0 && d != 0)
            .count() as u64;
        self.stamps.fill(0);
        self.dirty.fill(0);
        dirty
    }
}
