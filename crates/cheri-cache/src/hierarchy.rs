//! The two-level hierarchy: configuration, validation, and the
//! transaction engine that charges cycles and keeps the byte ledger.

use crate::level::{Level, LevelSpec, Lookup, Victim};
use crate::mshr::{MshrFile, PrefetchPolicy, Prefetcher, StoreBuffer};
use crate::shared::SharedHierarchy;
use crate::traffic::CacheStats;
use std::fmt;

/// Timing of the DRAM edge (L2↔DRAM): every L2-line fill or drain charges
/// `latency_cycles + ceil(l2.line_bytes / bytes_per_cycle)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramSpec {
    /// Fixed cycles per DRAM transfer (row activation, controller).
    pub latency_cycles: u64,
    /// DRAM burst bandwidth in bytes per cycle.
    pub bytes_per_cycle: u64,
}

/// A [`LevelSpec`] or [`HierarchyConfig`] that cannot be simulated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheConfigError {
    /// A size, line size, way count, bandwidth or MSHR count is zero.
    ZeroField(&'static str),
    /// `line_bytes` is not a power of two.
    LineNotPowerOfTwo(u64),
    /// The capacity does not split into a power-of-two number of sets of
    /// `ways` lines.
    BadGeometry {
        /// Capacity in bytes.
        size_bytes: u64,
        /// Line size in bytes.
        line_bytes: u64,
        /// Ways per set.
        ways: u64,
    },
    /// The L1 line is wider than the L2 line (an L1 fill could not come
    /// from a single L2 line).
    L1LineWiderThanL2 {
        /// L1 line size in bytes.
        l1: u64,
        /// L2 line size in bytes.
        l2: u64,
    },
    /// More than 64 L1-line-sized sectors fit in an L2 line (the
    /// per-sector dirty mask is 64 bits wide).
    TooManySectors {
        /// L1 line size in bytes.
        l1: u64,
        /// L2 line size in bytes.
        l2: u64,
    },
    /// The store buffer has more entries than the MSHR file that would
    /// track their drains.
    StoreBufferExceedsMshrs {
        /// Store-buffer entries requested.
        store_buffer: u64,
        /// MSHRs available.
        mshrs: u64,
    },
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::ZeroField(which) => write!(f, "{which} must be non-zero"),
            CacheConfigError::LineNotPowerOfTwo(n) => {
                write!(f, "line_bytes must be a power of two, got {n}")
            }
            CacheConfigError::BadGeometry {
                size_bytes,
                line_bytes,
                ways,
            } => write!(
                f,
                "{size_bytes} bytes of {line_bytes}-byte lines do not form a \
                 power-of-two number of {ways}-way sets"
            ),
            CacheConfigError::L1LineWiderThanL2 { l1, l2 } => {
                write!(f, "L1 line ({l1} bytes) wider than L2 line ({l2} bytes)")
            }
            CacheConfigError::TooManySectors { l1, l2 } => write!(
                f,
                "L2 line ({l2} bytes) holds more than 64 L1-line ({l1} bytes) \
                 sectors; the dirty mask is 64 bits"
            ),
            CacheConfigError::StoreBufferExceedsMshrs {
                store_buffer,
                mshrs,
            } => write!(
                f,
                "store buffer ({store_buffer} entries) larger than the MSHR \
                 file ({mshrs}) that tracks its drains"
            ),
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Configuration of the full hierarchy: two cache levels plus the DRAM
/// edge, and the prefetch policy layered over them. The flat per-level
/// cycle constants of the old model survive only as values derived from
/// `latency + ceil(line / bandwidth)` inside the presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: LevelSpec,
    /// L2 cache.
    pub l2: LevelSpec,
    /// The DRAM edge below L2.
    pub dram: DramSpec,
    /// The prefetcher watching L1 demand misses (default off).
    pub prefetch: PrefetchPolicy,
}

impl HierarchyConfig {
    /// The paper's FPGA softcore: 16 KB L1, 64 KB L2, 64-byte lines.
    /// The derived per-line costs reproduce the pre-bandwidth model
    /// exactly: an L1 hit is 1 cycle (port), an L1 fill from L2 adds
    /// `5 + 64/16 = 9`, a DRAM transfer adds `22 + 64/8 = 30` — DRAM
    /// "less costly than on most modern processors". One MSHR and no
    /// store buffer: every miss serializes, as the legacy model charged.
    pub fn fpga_softcore() -> HierarchyConfig {
        HierarchyConfig {
            l1: LevelSpec {
                size_bytes: 16 * 1024,
                line_bytes: 64,
                ways: 4,
                latency_cycles: 0,
                bytes_per_cycle: 64,
                mshrs: 1,
                store_buffer: 0,
            },
            l2: LevelSpec {
                size_bytes: 64 * 1024,
                line_bytes: 64,
                ways: 8,
                latency_cycles: 5,
                bytes_per_cycle: 16,
                mshrs: 1,
                store_buffer: 0,
            },
            dram: DramSpec {
                latency_cycles: 22,
                bytes_per_cycle: 8,
            },
            prefetch: PrefetchPolicy::Off,
        }
    }

    /// A modern-desktop-like hierarchy for the substrate ablation bench
    /// (bigger caches, relatively slower DRAM): L2 serves a line in
    /// `4 + 64/8 = 12` cycles, DRAM in `184 + 64/4 = 200`.
    pub fn desktop() -> HierarchyConfig {
        HierarchyConfig {
            l1: LevelSpec {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 8,
                latency_cycles: 0,
                bytes_per_cycle: 64,
                mshrs: 1,
                store_buffer: 0,
            },
            l2: LevelSpec {
                size_bytes: 512 * 1024,
                line_bytes: 64,
                ways: 8,
                latency_cycles: 4,
                bytes_per_cycle: 8,
                mshrs: 1,
                store_buffer: 0,
            },
            dram: DramSpec {
                latency_cycles: 184,
                bytes_per_cycle: 4,
            },
            prefetch: PrefetchPolicy::Off,
        }
    }

    /// The same hierarchy with a narrower L1 line (16 or 32 bytes): the
    /// geometry that lets half-width capability stores touch half the
    /// bytes instead of rounding up to a 64-byte line.
    pub fn with_l1_line_bytes(mut self, line_bytes: u64) -> HierarchyConfig {
        self.l1.line_bytes = line_bytes;
        self
    }

    /// The same hierarchy with `mshrs` miss handlers at both levels:
    /// bursts of up to `mshrs` independent misses overlap per edge.
    pub fn with_mshrs(mut self, mshrs: u64) -> HierarchyConfig {
        self.l1.mshrs = mshrs;
        self.l2.mshrs = mshrs;
        self
    }

    /// The same hierarchy with `entries` store-buffer slots at both
    /// levels: that many dirty write-backs drain off the critical path.
    /// Must not exceed the MSHR count (see [`LevelSpec::validate`]).
    pub fn with_store_buffer(mut self, entries: u64) -> HierarchyConfig {
        self.l1.store_buffer = entries;
        self.l2.store_buffer = entries;
        self
    }

    /// The same hierarchy under `policy` prefetching.
    pub fn with_prefetch(mut self, policy: PrefetchPolicy) -> HierarchyConfig {
        self.prefetch = policy;
        self
    }

    /// Checks both levels and their relationship (the L1 line must divide
    /// into the L2 line so a fill comes from one L2 line).
    ///
    /// # Errors
    ///
    /// The first [`CacheConfigError`] found.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        self.l1.validate()?;
        self.l2.validate()?;
        if self.dram.bytes_per_cycle == 0 {
            return Err(CacheConfigError::ZeroField("dram.bytes_per_cycle"));
        }
        if self.l1.line_bytes > self.l2.line_bytes {
            return Err(CacheConfigError::L1LineWiderThanL2 {
                l1: self.l1.line_bytes,
                l2: self.l2.line_bytes,
            });
        }
        if self.l2.line_bytes / self.l1.line_bytes > 64 {
            return Err(CacheConfigError::TooManySectors {
                l1: self.l1.line_bytes,
                l2: self.l2.line_bytes,
            });
        }
        Ok(())
    }

    /// Cycles the CPU port charges for `bytes` within one L1 line.
    pub fn port_cycles(&self, bytes: u64) -> u64 {
        self.l1.latency_cycles + bytes.div_ceil(self.l1.bytes_per_cycle)
    }

    /// Cycles one L1-line transfer on the L1↔L2 edge costs (fill or
    /// write-back) when fully serialized.
    pub fn l1_l2_transfer_cycles(&self) -> u64 {
        self.l2.latency_cycles + self.l1.line_bytes.div_ceil(self.l2.bytes_per_cycle)
    }

    /// Cycles one full-L2-line transfer on the L2↔DRAM edge costs (a
    /// demand fill, or a drain whose every sector is dirty) when fully
    /// serialized.
    pub fn l2_dram_transfer_cycles(&self) -> u64 {
        self.dram.latency_cycles + self.l2.line_bytes.div_ceil(self.dram.bytes_per_cycle)
    }

    /// Cycles a sub-blocked drain of `sectors` dirty L1-line-sized
    /// sectors costs on the L2↔DRAM edge (one DRAM latency, then the
    /// burst).
    pub fn l2_drain_cycles(&self, sectors: u64) -> u64 {
        self.dram.latency_cycles
            + (sectors * self.l1.line_bytes).div_ceil(self.dram.bytes_per_cycle)
    }
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig::fpga_softcore()
    }
}

/// A two-level write-back, write-allocate, inclusive cache hierarchy with
/// LRU replacement, charging latency + bandwidth cycles per transfer and
/// keeping a per-edge byte ledger.
///
/// Since the transaction refactor every charge is a *transaction* against
/// the level's MSHR file, store buffer and (optionally) a shared edge:
/// with the default knobs (`mshrs = 1`, `store_buffer = 0`, prefetch off,
/// no shared edges) every transaction degenerates to the serialized
/// legacy charge, bit for bit.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1: Level,
    l2: Level,
    stats: CacheStats,
    /// Port cycles when one transfer covers any in-line access
    /// (`bytes_per_cycle >= line_bytes`, true of every preset), so the
    /// hot hit path does no division.
    port_flat: Option<u64>,
    /// Precomputed `l1_l2_transfer_cycles`.
    l1_fill_cycles: u64,
    /// The bandwidth (non-latency) part of the above — what a transfer
    /// occupies its edge for, and what an overlapped miss charges.
    l1_transfer: u64,
    dram_transfer: u64,
    /// The hierarchy's clock: cumulative cycles charged, advanced to the
    /// caller's clock by `access_at`/`access_fetch`. Transactions use it
    /// to decide overlap; under legacy knobs it influences nothing.
    now: u64,
    /// L1's miss handlers (overlap on the L1↔L2 edge).
    l1_mshr: MshrFile,
    /// L2's miss handlers (overlap on the DRAM edge).
    l2_mshr: MshrFile,
    /// L1's write-back buffer (dirty victims toward L2).
    l1_store_buffer: StoreBuffer,
    /// L2's write-back buffer (dirty drains toward DRAM).
    l2_store_buffer: StoreBuffer,
    prefetcher: Prefetcher,
    /// Contended multi-core edges, when attached.
    shared: Option<SharedHierarchy>,
    /// The local clock at the moment the shared edges were attached.
    /// Reservations use `shared_join + (now - shared_base)`, so a core
    /// enters the contention window at the edges' current horizon no
    /// matter how long its private history (e.g. a tenant's warm-up) was.
    shared_base: u64,
    /// Window time at which this core joined the shared edges: the
    /// larger of the two horizons at attach. Joining at the horizon
    /// instead of 0 means a late-joining core is never charged for bus
    /// history that completed before it arrived.
    shared_join: u64,
}

impl Hierarchy {
    /// Builds the hierarchy for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`HierarchyConfig::validate`]; use
    /// [`Hierarchy::try_new`] to get the error instead.
    pub fn new(cfg: HierarchyConfig) -> Hierarchy {
        Hierarchy::try_new(cfg).unwrap_or_else(|e| panic!("invalid cache config: {e}"))
    }

    /// Builds the hierarchy for `cfg`, reporting invalid geometry as an
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// The [`CacheConfigError`] from [`HierarchyConfig::validate`].
    pub fn try_new(cfg: HierarchyConfig) -> Result<Hierarchy, CacheConfigError> {
        cfg.validate()?;
        Ok(Hierarchy {
            l1: Level::new(cfg.l1, cfg.l1.line_bytes),
            l2: Level::new(cfg.l2, cfg.l1.line_bytes),
            stats: CacheStats::default(),
            port_flat: (cfg.l1.bytes_per_cycle >= cfg.l1.line_bytes)
                .then(|| cfg.l1.latency_cycles + 1),
            l1_fill_cycles: cfg.l1_l2_transfer_cycles(),
            l1_transfer: cfg.l1.line_bytes.div_ceil(cfg.l2.bytes_per_cycle),
            dram_transfer: cfg.l2.line_bytes.div_ceil(cfg.dram.bytes_per_cycle),
            now: 0,
            l1_mshr: MshrFile::new(cfg.l1.mshrs, cfg.l2.latency_cycles),
            l2_mshr: MshrFile::new(cfg.l2.mshrs, cfg.dram.latency_cycles),
            l1_store_buffer: StoreBuffer::new(cfg.l1.store_buffer),
            l2_store_buffer: StoreBuffer::new(cfg.l2.store_buffer),
            prefetcher: Prefetcher::new(cfg.prefetch),
            shared: None,
            shared_base: 0,
            shared_join: 0,
            cfg,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> HierarchyConfig {
        self.cfg
    }

    /// Attaches this hierarchy (one core) to `shared` contended edges.
    /// Every subsequent transfer also reserves bandwidth there, and
    /// demand fills are charged the queueing delay as
    /// [`CacheStats::contention_cycles`].
    pub fn attach_shared(&mut self, shared: SharedHierarchy) {
        self.shared_base = self.now;
        // Join at the edges' current frontier: traffic that drained
        // before this core arrived is history, not contention. Cores
        // attached to a fresh window (or to one before anybody ran) all
        // join at 0 and contend from the first transfer.
        self.shared_join = shared.l1_l2.horizon().max(shared.l2_dram.horizon());
        self.shared = Some(shared);
    }

    /// This core's clock within the shared contention window: its
    /// progress since joining (compute, transfers and charged waits),
    /// offset by where the window was when it joined. Charged waits
    /// feeding back into the clock is what keeps the queue stable: a
    /// core that just waited out the bus arrives later next time, so the
    /// backlog drains instead of growing without bound.
    fn shared_now(&self) -> u64 {
        self.shared_join + self.now.saturating_sub(self.shared_base)
    }

    /// Simulates an access of `len` bytes at `addr` (split across L1 lines
    /// as the hardware would), returning the cycles charged. Zero-length
    /// accesses (e.g. `memcpy(d, s, 0)`) touch no line and cost nothing.
    pub fn access(&mut self, addr: u64, len: u64, write: bool) -> u64 {
        if len == 0 {
            return 0;
        }
        let line = self.cfg.l1.line_bytes;
        let mut cycles = 0;
        let mut a = addr;
        let end = addr.saturating_add(len);
        while a < end {
            let line_addr = a & !(line - 1);
            // The last line of the address space has no successor; stepping
            // past it would wrap and walk the whole space again.
            let next = line_addr.checked_add(line);
            let piece = next.map_or(end, |n| n.min(end)) - a;
            let c = self.access_line(line_addr, piece, write);
            self.now += c;
            cycles += c;
            match next {
                Some(n) => a = n,
                None => break,
            }
        }
        self.stats.cycles += cycles;
        cycles
    }

    /// [`Hierarchy::access`] issued at the caller's clock `now` (e.g. the
    /// VM's cycle counter): the hierarchy clock is advanced to it first,
    /// so compute gaps between accesses close transaction burst windows.
    /// Charges are unaffected under the legacy knobs.
    ///
    /// The common case — a non-empty access inside one L1 line that hits,
    /// on a flat CPU port (true of every preset) — is handled inline with
    /// exactly the general path's effects: the L1 LRU stamp and dirty
    /// mask, `l1_hits`, the hierarchy clock and `cycles`. Misses and
    /// line-crossing accesses take [`Hierarchy::access`].
    // Forced: with a plain hint the compiler folds `access` into this body
    // and then keeps the whole of it out of line, a call per guest access.
    #[inline(always)]
    pub fn access_at(&mut self, now: u64, addr: u64, len: u64, write: bool) -> u64 {
        self.now = self.now.max(now);
        if let Some(port) = self.port_flat {
            let line = self.cfg.l1.line_bytes;
            // `len <= line - offset` cannot overflow, unlike `addr + len`.
            let fits = len != 0 && len <= line - (addr & (line - 1));
            if fits && self.l1.hit(addr & !(line - 1), write) {
                self.stats.l1_hits += 1;
                self.now += port;
                self.stats.cycles += port;
                return port;
            }
        }
        self.access(addr, len, write)
    }

    /// An instruction-fetch transaction of `len` code bytes at `addr`,
    /// issued at the caller's clock — one per superinstruction block
    /// entry. Identical to a read access except that it is also tallied
    /// in the [`crate::FetchStats`] ledger.
    pub fn access_fetch(&mut self, now: u64, addr: u64, len: u64) -> u64 {
        self.now = self.now.max(now);
        let misses_before = self.stats.l1_misses;
        let cycles = self.access(addr, len, false);
        self.stats.fetch.blocks += 1;
        self.stats.fetch.bytes += len;
        self.stats.fetch.l1_misses += self.stats.l1_misses - misses_before;
        self.stats.fetch.cycles += cycles;
        cycles
    }

    fn access_line(&mut self, line_addr: u64, bytes: u64, write: bool) -> u64 {
        // The CPU port is charged for every access, hit or miss.
        let port = match self.port_flat {
            Some(p) => p,
            None => self.cfg.port_cycles(bytes),
        };
        match self.l1.access(line_addr, write) {
            Lookup::Hit => {
                self.stats.l1_hits += 1;
                port
            }
            Lookup::Miss(victim) => {
                self.stats.l1_misses += 1;
                // The miss transaction's clock in the shared window. Each
                // reservation inside the transaction advances it past the
                // frontier it just waited for, so a later stage that hits a
                // second contended edge arrives already past the common
                // skew and pays only the *max* of the edges' backlogs, not
                // their sum — overshooting the frontier is what would make
                // interleaved cores leapfrog each other and diverge.
                let mut at = self.shared_now();
                let mut cycles = port;
                // Drain the dirty L1 victim first: inclusion guarantees its
                // containing L2 line is still resident *before* the demand
                // fill below may evict it.
                if let Some(v) = victim {
                    if v.dirty != 0 {
                        cycles += self.writeback_l1_line(v.line_addr, &mut at);
                    }
                }
                // Demand path: the containing L2 line, from L2 or DRAM.
                match self.l2.access(line_addr, write) {
                    Lookup::Hit => self.stats.l2_hits += 1,
                    Lookup::Miss(l2_victim) => {
                        self.stats.l2_misses += 1;
                        self.stats.traffic.l2_dram.fill_lines += 1;
                        self.stats.traffic.l2_dram.fill_bytes += self.cfg.l2.line_bytes;
                        cycles += self.charge_dram_fill(&mut at);
                        if let Some(v) = l2_victim {
                            cycles += self.evict_l2_line(v, true, &mut at);
                        }
                    }
                }
                // The L1 fill itself: one L1 line over the L1<->L2 edge.
                self.stats.traffic.l1_l2.fill_lines += 1;
                self.stats.traffic.l1_l2.fill_bytes += self.cfg.l1.line_bytes;
                cycles += self.charge_l1_fill(&mut at);
                // Let the prefetcher chase the miss stream.
                if let Some(target) = self.prefetcher.observe(line_addr, self.cfg.l1.line_bytes) {
                    self.prefetch_into_l2(target, &mut at);
                }
                cycles
            }
        }
    }

    /// A demand L1 fill: an L1↔L2 transaction against L1's MSHR file and
    /// (when shared) the contended L2 port.
    fn charge_l1_fill(&mut self, at: &mut u64) -> u64 {
        let mut cycles = self.l1_mshr.charge(self.now, self.l1_transfer);
        if let Some(sh) = &self.shared {
            let wait = sh.l1_l2.reserve(*at, self.l1_transfer);
            *at += wait + self.l1_transfer;
            self.stats.contention_cycles += wait;
            cycles += wait;
        }
        cycles
    }

    /// A demand L2 fill from DRAM: a DRAM-edge transaction against L2's
    /// MSHR file and (when shared) the contended DRAM edge.
    fn charge_dram_fill(&mut self, at: &mut u64) -> u64 {
        let mut cycles = self.l2_mshr.charge(self.now, self.dram_transfer);
        if let Some(sh) = &self.shared {
            let wait = sh.l2_dram.reserve(*at, self.dram_transfer);
            *at += wait + self.dram_transfer;
            self.stats.contention_cycles += wait;
            cycles += wait;
        }
        cycles
    }

    /// Writes a dirty L1 line back into its containing L2 line, through
    /// L1's store buffer. Inclusion means the L2 line is resident (every
    /// L1 line filled through L2 and L2 evictions back-invalidate), so
    /// this never allocates.
    fn writeback_l1_line(&mut self, line_addr: u64, at: &mut u64) -> u64 {
        self.stats.writebacks += 1;
        self.stats.traffic.l1_l2.writeback_lines += 1;
        self.stats.traffic.l1_l2.writeback_bytes += self.cfg.l1.line_bytes;
        let hit = self.l2.touch_dirty(line_addr);
        debug_assert!(hit, "inclusion: a dirty L1 line's L2 container is resident");
        if let Some(sh) = &self.shared {
            // Write-backs occupy the shared edge (other cores queue behind
            // them) but their own queueing is absorbed by the buffer.
            let wait = sh.l1_l2.reserve(*at, self.l1_transfer);
            *at += wait + self.l1_transfer;
        }
        self.l1_store_buffer.charge(self.now, self.l1_fill_cycles)
    }

    /// Handles an L2 eviction: back-invalidates the victim's L1 sub-lines
    /// (merging dirty data across the L1↔L2 edge), then drains the dirty
    /// sectors to DRAM through L2's store buffer. Sub-blocking is what
    /// lets a half-width capability store put half the bytes on the DRAM
    /// write-back stream when the L1 line is narrower than the L2 line.
    /// Evictions triggered by prefetch fills (`charged == false`) move
    /// the same bytes but cost the CPU nothing.
    fn evict_l2_line(&mut self, v: Victim, charged: bool, at: &mut u64) -> u64 {
        let mut cycles = 0;
        let mut dirty = v.dirty;
        let sub = self.cfg.l1.line_bytes;
        let mut a = v.line_addr;
        let end = v.line_addr + self.cfg.l2.line_bytes;
        while a < end {
            if self.l1.invalidate(a).is_some_and(|m| m != 0) {
                self.stats.writebacks += 1;
                self.stats.traffic.l1_l2.writeback_lines += 1;
                self.stats.traffic.l1_l2.writeback_bytes += sub;
                if let Some(sh) = &self.shared {
                    let wait = sh.l1_l2.reserve(*at, self.l1_transfer);
                    *at += wait + self.l1_transfer;
                }
                cycles += self.l1_store_buffer.charge(self.now, self.l1_fill_cycles);
                dirty |= self.l2.sector_bit(a);
            }
            a += sub;
        }
        if dirty != 0 {
            let sectors = u64::from(dirty.count_ones());
            self.stats.writebacks += 1;
            self.stats.traffic.l2_dram.writeback_lines += sectors;
            self.stats.traffic.l2_dram.writeback_bytes += sectors * sub;
            if let Some(sh) = &self.shared {
                let c = (sectors * sub).div_ceil(self.cfg.dram.bytes_per_cycle);
                let wait = sh.l2_dram.reserve(*at, c);
                *at += wait + c;
            }
            cycles += self
                .l2_store_buffer
                .charge(self.now, self.cfg.l2_drain_cycles(sectors));
        }
        if charged {
            cycles
        } else {
            0
        }
    }

    /// Brings the L2 line containing `target` (an L1-line address) in
    /// from DRAM speculatively. Charges the CPU nothing; the fill's
    /// bandwidth occupies the DRAM edge (and the shared edge, when
    /// attached) so demand misses queue behind it, and its bytes are
    /// tagged as prefetch traffic in the ledger.
    fn prefetch_into_l2(&mut self, target: u64, at: &mut u64) {
        if self.l2.probe(target) {
            return;
        }
        let victim = match self.l2.access(target, false) {
            Lookup::Miss(v) => v,
            Lookup::Hit => unreachable!("probe said absent"),
        };
        self.stats.traffic.l2_dram.prefetch_lines += 1;
        self.stats.traffic.l2_dram.prefetch_bytes += self.cfg.l2.line_bytes;
        self.l2_mshr.occupy(self.now, self.dram_transfer);
        if let Some(sh) = &self.shared {
            let wait = sh.l2_dram.reserve(*at, self.dram_transfer);
            *at += wait + self.dram_transfer;
        }
        if let Some(v) = victim {
            self.evict_l2_line(v, false, at);
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Empties both levels (counting dirty lines in
    /// [`CacheStats::writebacks`] but moving no modelled traffic) and
    /// keeps statistics. Used between benchmark phases.
    pub fn flush(&mut self) {
        self.stats.writebacks += self.l1.flush() + self.l2.flush();
    }

    /// Resets statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

impl Default for Hierarchy {
    fn default() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::default())
    }
}
