//! A set-associative, bandwidth-aware cache-hierarchy simulator.
//!
//! The paper's performance evaluation runs on a 100 MHz FPGA softcore with a
//! **16 KB L1 data cache and a 64 KB L2**, noting that "the DDR DRAM is
//! faster relative to the CPU speed, so cache misses are more common but
//! less costly than on most modern processors" (§5.2). The measured CHERI
//! overheads are dominated by the cache footprint of 256-bit capabilities
//! versus 64-bit integer pointers ("the performance difference ... is
//! primarily due to the larger pointers causing more cache misses").
//!
//! This crate reproduces that cost model as a *traffic* model: every level
//! is a [`LevelSpec`] with a latency **and** a bandwidth, every line that
//! moves between levels charges `latency + ceil(bytes / bytes_per_cycle)`
//! for its edge, and a [`TrafficStats`] ledger records the bytes moved per
//! edge (L1↔L2 and L2↔DRAM, fills and write-backs separately). That is the
//! metric behind the paper's 128-bit-capability argument: halving the
//! stored capability width halves the bytes a pointer-dense working set
//! drags across the DRAM edge, which line-granularity cycle models round
//! away.
//!
//! The hierarchy is two-level, write-back, write-allocate, LRU, and
//! **inclusive**: evicting an L2 line back-invalidates its L1 sub-lines
//! (merging their dirty data into the drain), which is what makes the
//! per-edge byte ledger conserve — every line written back was once
//! filled. L1 lines may be narrower than L2 lines (e.g. a 16-byte L1 over
//! a 64-byte L2), in which case an L1 fill moves only the sub-line and
//! the L2 is **sub-blocked**: dirtiness is tracked per L1-line-sized
//! sector, and a dirty L2 eviction drains only its dirty sectors to DRAM
//! (demand fills still move whole L2 lines). With the classic 64-byte
//! geometry sector and line coincide and the model charges exactly the
//! flat per-level constants the presets derive.
//!
//! # The transaction model
//!
//! Since the transaction refactor every charge is a *transaction* with
//! three optional overlap mechanisms layered over the unchanged tag state
//! machine:
//!
//! - **MSHRs** ([`LevelSpec::mshrs`]): a burst of N independent misses on
//!   one edge costs `latency + N·transfer` instead of
//!   `N·(latency + transfer)` once the file is deep enough — the
//!   memory-level-parallelism the serialized model rounds away.
//! - **A store buffer** ([`LevelSpec::store_buffer`]): dirty write-backs
//!   drain off the critical path; the CPU stalls only when the buffer is
//!   full.
//! - **A prefetcher** ([`HierarchyConfig::prefetch`]): next-line or stride
//!   predictions fill L2 behind the demand stream; their bytes are tagged
//!   separately in the ledger so speculation cannot masquerade as demand
//!   efficiency.
//!
//! With the default knobs (`mshrs = 1`, `store_buffer = 0`, prefetch off)
//! every transaction degenerates to the serialized legacy charge, bit for
//! bit. For multi-core contention, several hierarchies can share their
//! lower edges through a [`SharedHierarchy`]; queueing behind another
//! core's traffic is charged as [`CacheStats::contention_cycles`].
//!
//! # Example
//!
//! ```
//! use cheri_cache::{Hierarchy, HierarchyConfig};
//!
//! let mut h = Hierarchy::new(HierarchyConfig::fpga_softcore());
//! let cold = h.access(0x1000, 8, false);
//! let warm = h.access(0x1000, 8, false);
//! assert!(cold > warm); // second access hits in L1
//! assert_eq!(warm, 1);
//! let t = h.stats().traffic;
//! assert_eq!(t.l2_dram.fill_bytes, 64); // one line came from DRAM
//! ```

mod hierarchy;
mod level;
mod mshr;
mod shared;
mod traffic;

pub use hierarchy::{CacheConfigError, DramSpec, Hierarchy, HierarchyConfig};
pub use level::LevelSpec;
pub use mshr::PrefetchPolicy;
pub use shared::{SharedEdge, SharedHierarchy};
pub use traffic::{CacheStats, EdgeTraffic, FetchStats, TrafficStats};

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The fpga preset with a 16-byte L1 line (sub-block fills).
    fn narrow_l1() -> HierarchyConfig {
        HierarchyConfig::fpga_softcore().with_l1_line_bytes(16)
    }

    #[test]
    fn geometry_is_sane() {
        let cfg = HierarchyConfig::fpga_softcore();
        assert_eq!(cfg.l1.sets(), 64);
        assert_eq!(cfg.l2.sets(), 128);
        assert!(cfg.validate().is_ok());
        assert!(HierarchyConfig::desktop().validate().is_ok());
        assert!(narrow_l1().validate().is_ok());
    }

    #[test]
    fn presets_derive_the_legacy_constants() {
        // The flat constants of the pre-bandwidth model survive as derived
        // values: hit 1, L2 fill +9, DRAM +30 on the fpga preset.
        let cfg = HierarchyConfig::fpga_softcore();
        assert_eq!(cfg.port_cycles(8), 1);
        assert_eq!(cfg.port_cycles(64), 1);
        assert_eq!(cfg.l1_l2_transfer_cycles(), 9);
        assert_eq!(cfg.l2_dram_transfer_cycles(), 30);
        let d = HierarchyConfig::desktop();
        assert_eq!(d.l1_l2_transfer_cycles(), 12);
        assert_eq!(d.l2_dram_transfer_cycles(), 200);
    }

    #[test]
    fn presets_default_to_the_serialized_transaction_knobs() {
        for cfg in [HierarchyConfig::fpga_softcore(), HierarchyConfig::desktop()] {
            assert_eq!(cfg.l1.mshrs, 1);
            assert_eq!(cfg.l2.mshrs, 1);
            assert_eq!(cfg.l1.store_buffer, 0);
            assert_eq!(cfg.l2.store_buffer, 0);
            assert_eq!(cfg.prefetch, PrefetchPolicy::Off);
        }
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let good = HierarchyConfig::fpga_softcore();
        let mut zero_bw = good;
        zero_bw.l2.bytes_per_cycle = 0;
        assert_eq!(
            zero_bw.validate(),
            Err(CacheConfigError::ZeroField("bytes_per_cycle"))
        );
        let mut zero_dram = good;
        zero_dram.dram.bytes_per_cycle = 0;
        assert_eq!(
            zero_dram.validate(),
            Err(CacheConfigError::ZeroField("dram.bytes_per_cycle"))
        );
        let mut odd_line = good;
        odd_line.l1.line_bytes = 48;
        assert_eq!(
            odd_line.validate(),
            Err(CacheConfigError::LineNotPowerOfTwo(48))
        );
        let mut wide_l1 = good;
        wide_l1.l1.line_bytes = 128;
        assert!(matches!(
            wide_l1.validate(),
            Err(CacheConfigError::L1LineWiderThanL2 { l1: 128, l2: 64 })
        ));
        let mut ragged = good;
        ragged.l1.ways = 3;
        assert!(matches!(
            ragged.validate(),
            Err(CacheConfigError::BadGeometry { .. })
        ));
        let mut sectored = good;
        sectored.l1.line_bytes = 16;
        sectored.l2.line_bytes = 2048; // 128 sectors > the 64-bit mask
        assert!(matches!(
            sectored.validate(),
            Err(CacheConfigError::TooManySectors { l1: 16, l2: 2048 })
        ));
        assert!(sectored
            .validate()
            .unwrap_err()
            .to_string()
            .contains("sectors"));
        assert!(Hierarchy::try_new(zero_bw).is_err());
        let msg = zero_bw.validate().unwrap_err().to_string();
        assert!(msg.contains("bytes_per_cycle"), "{msg}");
    }

    #[test]
    fn validate_rejects_impossible_transaction_knobs() {
        let good = HierarchyConfig::fpga_softcore();
        let mut no_mshrs = good;
        no_mshrs.l1.mshrs = 0;
        assert_eq!(
            no_mshrs.validate(),
            Err(CacheConfigError::ZeroField("mshrs"))
        );
        // A store buffer deeper than the MSHR file could never drain.
        let mut deep_sb = good;
        deep_sb.l2.store_buffer = 2; // mshrs is 1
        assert_eq!(
            deep_sb.validate(),
            Err(CacheConfigError::StoreBufferExceedsMshrs {
                store_buffer: 2,
                mshrs: 1
            })
        );
        let msg = deep_sb.validate().unwrap_err().to_string();
        assert!(msg.contains("store buffer"), "{msg}");
        assert!(Hierarchy::try_new(deep_sb).is_err());
        // The builders keep the pair consistent.
        assert!(good.with_mshrs(4).with_store_buffer(4).validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid cache config")]
    fn new_panics_with_the_validation_message() {
        let mut cfg = HierarchyConfig::fpga_softcore();
        cfg.l1.size_bytes = 100;
        let _ = Hierarchy::new(cfg);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut h = Hierarchy::default();
        let cfg = h.config();
        let miss = h.access(0x40, 8, false);
        let hit = h.access(0x40, 8, false);
        assert_eq!(
            miss,
            cfg.port_cycles(8) + cfg.l1_l2_transfer_cycles() + cfg.l2_dram_transfer_cycles()
        );
        assert_eq!(hit, cfg.port_cycles(8));
        assert_eq!(h.stats().l1_hits, 1);
        assert_eq!(h.stats().l2_misses, 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut h = Hierarchy::default();
        h.access(0x40, 1, false);
        assert_eq!(h.access(0x7F, 1, false), 1);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut h = Hierarchy::default();
        h.access(0x7C, 8, false);
        assert_eq!(h.stats().l1_misses, 2);
    }

    #[test]
    fn eviction_falls_back_to_l2() {
        let mut h = Hierarchy::default();
        let cfg = h.config();
        // Fill one L1 set beyond its ways with distinct tags.
        let stride = cfg.l1.line_bytes * cfg.l1.sets();
        for i in 0..=cfg.l1.ways {
            h.access(i * stride, 1, false);
        }
        // First address has been evicted from L1 but lives in L2.
        h.reset_stats();
        h.access(0, 1, false);
        assert_eq!(h.stats().l1_misses, 1);
        assert_eq!(h.stats().l2_hits, 1);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut h = Hierarchy::default();
        let cfg = h.config();
        let stride = cfg.l1.line_bytes * cfg.l1.sets();
        h.access(0, 8, true); // dirty line
        for i in 1..=cfg.l1.ways {
            h.access(i * stride, 1, false);
        }
        assert!(h.stats().writebacks >= 1);
        assert_eq!(
            h.stats().traffic.l1_l2.writeback_bytes,
            cfg.l1.line_bytes,
            "the dirty victim moved one L1 line down the L1<->L2 edge"
        );
    }

    #[test]
    fn dirty_l1_victim_is_written_back_to_l2() {
        // Line A is written (dirty) and then displaced from its 4-way L1
        // set while eight younger lines also crowd its 8-way L2 set. The
        // L1 eviction must *install* A into L2 — refreshing its LRU stamp
        // — so the revisit hits L2. Dropping the victim (the old bug)
        // instead lets L2 age A out, sending the revisit to DRAM.
        let mut h = Hierarchy::default();
        let cfg = h.config();
        // Same set in both levels: L2 sets are a multiple of L1 sets.
        let stride = cfg.l2.line_bytes * cfg.l2.sets();
        h.access(0, 8, true);
        for i in 1..=cfg.l2.ways {
            h.access(i * stride, 1, false);
        }
        h.reset_stats();
        h.access(0, 1, false);
        assert_eq!(h.stats().l1_misses, 1);
        assert_eq!(
            h.stats().l2_hits,
            1,
            "dirty L1 victim must be written back into L2, not dropped"
        );
        assert_eq!(h.stats().l2_misses, 0);
    }

    #[test]
    fn dirty_writeback_charges_cycles() {
        // Evicting a dirty line must cost more than evicting the same
        // line clean: the write-back transfer into L2 is charged.
        let cfg = HierarchyConfig::fpga_softcore();
        let stride = cfg.l1.line_bytes * cfg.l1.sets();
        let run = |dirty: bool| {
            let mut h = Hierarchy::new(cfg);
            h.access(0, 8, dirty);
            (1..=cfg.l1.ways)
                .map(|i| h.access(i * stride, 1, false))
                .sum::<u64>()
        };
        assert_eq!(run(true) - run(false), cfg.l1_l2_transfer_cycles());
    }

    #[test]
    fn store_buffer_takes_the_writeback_off_the_critical_path() {
        // The same displacement pattern as dirty_writeback_charges_cycles,
        // but with one store-buffer entry: the lone dirty victim drains in
        // the background, so dirty and clean runs now cost the same. The
        // ledger still records the moved bytes.
        let cfg = HierarchyConfig::fpga_softcore().with_store_buffer(1);
        let stride = cfg.l1.line_bytes * cfg.l1.sets();
        let run = |dirty: bool| {
            let mut h = Hierarchy::new(cfg);
            h.access(0, 8, dirty);
            let cycles = (1..=cfg.l1.ways)
                .map(|i| h.access(i * stride, 1, false))
                .sum::<u64>();
            (cycles, h.stats().traffic.l1_l2.writeback_bytes)
        };
        let (dirty_cycles, dirty_bytes) = run(true);
        let (clean_cycles, clean_bytes) = run(false);
        assert_eq!(dirty_cycles, clean_cycles);
        assert_eq!(dirty_bytes - clean_bytes, cfg.l1.line_bytes);
    }

    #[test]
    fn mshrs_overlap_a_burst_of_independent_misses() {
        // A cold sweep of N distinct lines is the textbook MLP case: with
        // 1 MSHR it costs N·(latency + transfer) per edge, with a deep
        // file latency amortizes to once per burst. The byte ledger must
        // not notice the difference.
        let sweep = |cfg: HierarchyConfig| {
            let mut h = Hierarchy::new(cfg);
            for i in 0..64u64 {
                h.access(i * 64, 8, false);
            }
            h.stats()
        };
        let serialized = sweep(HierarchyConfig::fpga_softcore());
        let overlapped = sweep(HierarchyConfig::fpga_softcore().with_mshrs(4));
        assert!(
            overlapped.cycles < serialized.cycles,
            "4 MSHRs must beat 1 on a miss burst: {} vs {}",
            overlapped.cycles,
            serialized.cycles
        );
        assert_eq!(overlapped.traffic, serialized.traffic);
        assert_eq!(overlapped.l1_misses, serialized.l1_misses);
        // The serialized sweep is exactly the legacy constant per miss;
        // the overlapped one keeps every transfer (bandwidth floor).
        let cfg = HierarchyConfig::fpga_softcore();
        assert_eq!(
            serialized.cycles,
            64 * (cfg.port_cycles(8) + cfg.l1_l2_transfer_cycles() + cfg.l2_dram_transfer_cycles())
        );
        let floor = serialized.traffic.l1_l2.fill_bytes / cfg.l2.bytes_per_cycle
            + serialized.traffic.l2_dram.fill_bytes / cfg.dram.bytes_per_cycle;
        assert!(overlapped.cycles >= floor);
    }

    #[test]
    fn compute_gaps_close_the_burst_window() {
        // Misses separated by long compute stretches are not a burst:
        // with access_at feeding a clock that jumps far between misses,
        // every miss pays the full latency even with a deep MSHR file.
        let cfg = HierarchyConfig::fpga_softcore().with_mshrs(8);
        let full = cfg.port_cycles(8) + cfg.l1_l2_transfer_cycles() + cfg.l2_dram_transfer_cycles();
        let mut h = Hierarchy::new(cfg);
        let mut clock = 0u64;
        for i in 0..16u64 {
            let c = h.access_at(clock, i * 64, 8, false);
            assert_eq!(c, full, "an isolated miss charges the serialized cost");
            clock += c + 10_000; // compute gap
        }
    }

    #[test]
    fn next_line_prefetch_turns_a_sweep_into_l2_hits() {
        let sweep = |cfg: HierarchyConfig| {
            let mut h = Hierarchy::new(cfg);
            for i in 0..64u64 {
                h.access(i * 64, 8, false);
            }
            h.stats()
        };
        let off = sweep(HierarchyConfig::fpga_softcore());
        let pf = sweep(HierarchyConfig::fpga_softcore().with_prefetch(PrefetchPolicy::NextLine));
        // Every line but the first was prefetched into L2 ahead of demand.
        assert_eq!(pf.l2_misses, 1);
        assert_eq!(pf.l2_hits, 63);
        assert!(pf.cycles < off.cycles);
        // The speculation is visible in the ledger, tagged apart from
        // demand fills, and demand accounting is untouched.
        assert_eq!(pf.traffic.l2_dram.fill_lines, pf.l2_misses);
        assert_eq!(pf.traffic.l2_dram.prefetch_lines, 64);
        assert_eq!(pf.traffic.l2_dram.prefetch_bytes, 64 * 64);
        assert_eq!(off.traffic.l2_dram.prefetch_lines, 0);
        // Total DRAM bytes went up (one overshoot line), not down:
        // prefetching trades bandwidth for latency and the ledger says so.
        assert!(pf.traffic.dram_bytes() >= off.traffic.dram_bytes());
    }

    #[test]
    fn shared_edges_charge_contention_to_the_queueing_core() {
        let cold_sweep = |h: &mut Hierarchy| {
            for i in 0..32u64 {
                h.access(i * 64, 8, false);
            }
        };
        // Alone on the shared edges: no queueing.
        let shared = SharedHierarchy::new();
        let mut solo = Hierarchy::new(HierarchyConfig::fpga_softcore());
        let mut rival = Hierarchy::new(HierarchyConfig::fpga_softcore());
        // Both cores join the window before either moves, i.e. they run
        // concurrently; whoever reserves second queues.
        solo.attach_shared(shared.clone());
        rival.attach_shared(shared.clone());
        cold_sweep(&mut solo);
        assert_eq!(solo.stats().contention_cycles, 0);
        cold_sweep(&mut rival);
        let s = rival.stats();
        assert!(s.contention_cycles > 0);
        assert!(s.cycles > solo.stats().cycles);
        assert_eq!(s.traffic, solo.stats().traffic, "contention moves no bytes");
        // A clean read sweep reserves only demand fills, so the edges'
        // own ledgers account for exactly the rival's queueing.
        assert_eq!(
            shared.l1_l2.contended_cycles() + shared.l2_dram.contended_cycles(),
            s.contention_cycles
        );
    }

    /// Joining at the horizon instead of window time 0: a core that
    /// arrives after earlier traffic drained must not be billed for it
    /// (the failure mode was waits compounding exponentially across a
    /// batch of sequential forks).
    #[test]
    fn a_late_joiner_is_not_billed_bus_history() {
        let cold_sweep = |h: &mut Hierarchy| {
            for i in 0..32u64 {
                h.access(i * 64, 8, false);
            }
        };
        let shared = SharedHierarchy::new();
        let mut first = Hierarchy::new(HierarchyConfig::fpga_softcore());
        first.attach_shared(shared.clone());
        cold_sweep(&mut first);
        let busy_until = shared.l1_l2.horizon().max(shared.l2_dram.horizon());
        assert!(busy_until > 0);
        // Attached only now: the first core's transfers are history.
        let mut late = Hierarchy::new(HierarchyConfig::fpga_softcore());
        late.attach_shared(shared.clone());
        cold_sweep(&mut late);
        assert_eq!(late.stats().contention_cycles, 0);
        assert_eq!(late.stats().cycles, first.stats().cycles);
    }

    #[test]
    fn fetch_transactions_land_in_the_fetch_ledger() {
        let mut h = Hierarchy::default();
        let cold = h.access_fetch(0, 0x1000, 32);
        let warm = h.access_fetch(cold, 0x1000, 32);
        let s = h.stats();
        assert_eq!(s.fetch.blocks, 2);
        assert_eq!(s.fetch.bytes, 64);
        assert_eq!(s.fetch.l1_misses, 1);
        assert_eq!(s.fetch.cycles, cold + warm);
        // A fetch is a read access: same counters, same cost.
        assert_eq!(s.l1_misses, 1);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(warm, h.config().port_cycles(32));
        assert_eq!(s.cycles, cold + warm);
    }

    #[test]
    fn narrow_geometry_with_mshrs_still_beats_serialized_on_malloc_stress() {
        // The BENCH-facing claim: on the 16-byte-line geometry a
        // pointer-dense sweep with 4 MSHRs takes measurably fewer cycles
        // than the serialized model, at identical traffic.
        let run = |mshrs: u64| {
            let mut h = Hierarchy::new(
                narrow_l1()
                    .with_mshrs(mshrs)
                    .with_store_buffer(mshrs.min(2)),
            );
            for round in 0..4u64 {
                for i in 0..512u64 {
                    h.access(0x1_0000 + i * 48, 32, round % 2 == 0);
                }
            }
            h.stats()
        };
        let serialized = run(1);
        let overlapped = run(4);
        assert!(overlapped.cycles < serialized.cycles);
        assert_eq!(overlapped.traffic, serialized.traffic);
    }

    #[test]
    fn l2_eviction_back_invalidates_l1_sublines() {
        // Narrow-line geometry: dirty a 16-byte L1 sub-line, then force
        // its containing 64-byte L2 line out. Inclusion must pull the
        // sub-line out of L1 (merging its bytes into the drain), so the
        // revisit goes to DRAM, not to a stale L1 hit.
        let mut h = Hierarchy::new(narrow_l1());
        let cfg = h.config();
        let l2_stride = cfg.l2.line_bytes * cfg.l2.sets();
        h.access(0, 8, true);
        for i in 1..=cfg.l2.ways {
            // Touch only the aliasing L2 set, not address 0's L1 set: use
            // a different 16-byte sub-line of each aliasing L2 line.
            h.access(i * l2_stride + 16, 1, false);
        }
        // Address 0's L2 line was evicted; its dirty L1 sub-line must have
        // been merged (one l1_l2 write-back) and drained sub-blocked: only
        // the one dirty 16-byte sector travels to DRAM, not the 64-byte
        // line.
        let t = h.stats().traffic;
        assert_eq!(t.l1_l2.writeback_bytes, cfg.l1.line_bytes);
        assert_eq!(t.l2_dram.writeback_bytes, cfg.l1.line_bytes);
        assert_eq!(t.l2_dram.writeback_lines, 1, "one dirty sector");
        h.reset_stats();
        h.access(0, 1, false);
        assert_eq!(h.stats().l1_misses, 1, "back-invalidation emptied L1");
        assert_eq!(h.stats().l2_misses, 1, "the line is gone from L2 too");
    }

    #[test]
    fn narrow_l1_line_fills_move_fewer_bytes() {
        // The Cap128 mechanism: a 16-byte store on a cold line moves a
        // 16-byte L1 line on the L1<->L2 edge instead of a 64-byte one
        // (the DRAM edge still moves whole L2 lines).
        let run = |cfg: HierarchyConfig| {
            let mut h = Hierarchy::new(cfg);
            h.access(0x1000, 16, true);
            h.stats().traffic
        };
        let wide = run(HierarchyConfig::fpga_softcore());
        let narrow = run(narrow_l1());
        assert_eq!(wide.l1_l2.fill_bytes, 64);
        assert_eq!(narrow.l1_l2.fill_bytes, 16);
        assert_eq!(wide.l2_dram.fill_bytes, narrow.l2_dram.fill_bytes);
    }

    #[test]
    fn zero_length_access_is_free() {
        let mut h = Hierarchy::default();
        assert_eq!(h.access(0x40, 0, true), 0);
        assert_eq!(h.access(0x40, 0, false), 0);
        let s = h.stats();
        assert_eq!(s.cycles, 0);
        assert_eq!(s.l1_hits + s.l1_misses, 0);
    }

    #[test]
    fn access_at_the_top_of_the_address_space_terminates() {
        // The last line has no successor address; the walk must stop
        // rather than wrap to 0 and tour the whole space.
        let mut h = Hierarchy::default();
        h.access(u64::MAX - 4, 8, false);
        assert_eq!(h.stats().l1_misses, 1);
    }

    #[test]
    fn working_set_larger_than_l1_thrashes() {
        // The mechanism behind the Olden results: a pointer-chasing working
        // set that fits in L1 with 8-byte pointers but not with 32-byte
        // capabilities must show a worse hit rate.
        let run = |ptr_size: u64| {
            let mut h = Hierarchy::default();
            let nodes = 1024u64;
            for _ in 0..20 {
                for i in 0..nodes {
                    h.access(0x1_0000 + i * ptr_size * 3, ptr_size, false);
                }
            }
            h.stats().l1_hit_rate()
        };
        let narrow = run(8);
        let wide = run(32);
        assert!(
            narrow > wide,
            "8-byte pointers should hit more: {narrow} vs {wide}"
        );
    }

    #[test]
    fn flush_forgets_contents() {
        let mut h = Hierarchy::default();
        h.access(0x40, 8, true);
        h.flush();
        h.reset_stats();
        h.access(0x40, 8, false);
        assert_eq!(h.stats().l1_misses, 1);
    }

    #[test]
    fn stats_display_mentions_hits_and_traffic() {
        let mut h = Hierarchy::default();
        h.access(0, 1, false);
        h.access(0, 1, false);
        let s = h.stats().to_string();
        assert!(s.contains("L1"));
        assert!(s.contains("cycles"));
        assert!(s.contains("DRAM"));
    }

    /// Every traffic invariant the ledger promises, checked after an
    /// arbitrary access sequence on `cfg` — under any transaction knobs.
    fn assert_traffic_conserves(h: &Hierarchy) {
        let cfg = h.config();
        let s = h.stats();
        let t = s.traffic;
        // Bytes are exactly lines × the edge's line size, prefetches
        // included.
        assert_eq!(t.l1_l2.fill_bytes, t.l1_l2.fill_lines * cfg.l1.line_bytes);
        assert_eq!(
            t.l1_l2.writeback_bytes,
            t.l1_l2.writeback_lines * cfg.l1.line_bytes
        );
        assert_eq!(t.l1_l2.prefetch_lines, 0, "prefetches target L2 only");
        assert_eq!(
            t.l2_dram.fill_bytes,
            t.l2_dram.fill_lines * cfg.l2.line_bytes
        );
        assert_eq!(
            t.l2_dram.prefetch_bytes,
            t.l2_dram.prefetch_lines * cfg.l2.line_bytes
        );
        // DRAM write-backs are sub-blocked: they move dirty sectors of the
        // L1 line size.
        assert_eq!(
            t.l2_dram.writeback_bytes,
            t.l2_dram.writeback_lines * cfg.l1.line_bytes
        );
        // Demand accounting: every L1 miss is one L1 fill, every L2 miss
        // one DRAM fill — prefetch fills are ledgered apart and never
        // inflate demand.
        assert_eq!(t.l1_l2.fill_lines, s.l1_misses);
        assert_eq!(t.l2_dram.fill_lines, s.l2_misses);
        // A line must be filled before it can be written back (inclusion
        // makes this hold per edge, not just globally; on the DRAM edge a
        // dirty line may have arrived as a prefetch).
        assert!(t.l1_l2.writeback_bytes <= t.l1_l2.fill_bytes);
        assert!(t.l2_dram.writeback_bytes <= t.l2_dram.fill_bytes + t.l2_dram.prefetch_bytes);
        // Cycles are bounded below by the bandwidth term of every *demand*
        // transfer (prefetches charge the CPU nothing, and a store buffer
        // moves write-back bandwidth off the charged path).
        let mut bw_floor = t.l1_l2.fill_bytes / cfg.l2.bytes_per_cycle
            + t.l2_dram.fill_bytes / cfg.dram.bytes_per_cycle;
        if cfg.l1.store_buffer == 0 && cfg.l2.store_buffer == 0 {
            bw_floor += t.l1_l2.writeback_bytes / cfg.l2.bytes_per_cycle
                + t.l2_dram.writeback_bytes / cfg.dram.bytes_per_cycle;
        }
        assert!(
            s.cycles >= bw_floor,
            "cycles {} below bandwidth floor {}",
            s.cycles,
            bw_floor
        );
        // The legacy counter brackets the ledger: one event per L1
        // write-back plus one per drain (a drain moves >= 1 sector).
        assert!(s.writebacks >= t.l1_l2.writeback_lines);
        assert!(s.writebacks <= t.l1_l2.writeback_lines + t.l2_dram.writeback_lines);
    }

    /// The transaction-knob axes the proptests sweep.
    fn knobbed_config(
        narrow: bool,
        mshrs: u64,
        store_buffer: u64,
        prefetch: PrefetchPolicy,
    ) -> HierarchyConfig {
        let base = if narrow {
            narrow_l1()
        } else {
            HierarchyConfig::fpga_softcore()
        };
        base.with_mshrs(mshrs)
            .with_store_buffer(store_buffer.min(mshrs))
            .with_prefetch(prefetch)
    }

    fn prefetch_policies() -> impl Strategy<Value = PrefetchPolicy> {
        (0u64..3).prop_map(|i| match i {
            0 => PrefetchPolicy::Off,
            1 => PrefetchPolicy::NextLine,
            _ => PrefetchPolicy::Stride,
        })
    }

    proptest! {
        /// The hierarchy never charges less than a port access or more
        /// than a full miss per line touched, and cycle accounting matches
        /// stats — on the legacy 64-byte geometry and on the narrow-L1
        /// geometry alike (legacy serialized knobs, where the per-line
        /// worst case is exact).
        #[test]
        fn cycle_bounds(
            accesses in proptest::collection::vec((0u64..1 << 20, 1u64..64, any::<bool>()), 1..200),
            narrow in any::<bool>(),
        ) {
            let cfg = if narrow { narrow_l1() } else { HierarchyConfig::fpga_softcore() };
            let mut h = Hierarchy::new(cfg);
            let mut total = 0;
            for (addr, len, w) in accesses {
                let lines = {
                    let first = addr / cfg.l1.line_bytes;
                    let last = (addr + len - 1) / cfg.l1.line_bytes;
                    last - first + 1
                };
                let c = h.access(addr, len, w);
                total += c;
                prop_assert!(c >= lines * cfg.port_cycles(1));
                // Worst case per line: port + demand DRAM fill + L1 fill,
                // plus a dirty L1 victim write-back, plus an L2 eviction
                // that merges every dirty sub-line and drains.
                let sub = cfg.l2.line_bytes / cfg.l1.line_bytes;
                let worst = cfg.port_cycles(cfg.l1.line_bytes)
                    + (2 + sub) * cfg.l1_l2_transfer_cycles()
                    + 2 * cfg.l2_dram_transfer_cycles();
                prop_assert!(c <= lines * worst, "{c} > {lines} * {worst}");
            }
            prop_assert_eq!(h.stats().cycles, total);
            prop_assert_eq!(h.stats().l1_misses, h.stats().l2_hits + h.stats().l2_misses);
        }

        /// The per-edge ledger conserves: bytes = lines × line size, fills
        /// match demand misses, write-backs never exceed what was brought
        /// in, and the demand bandwidth term lower-bounds the charged
        /// cycles — across every combination of geometry, MSHR depth,
        /// store-buffer depth and prefetch policy.
        #[test]
        fn traffic_conserves(
            accesses in proptest::collection::vec((0u64..1 << 18, 1u64..64, any::<bool>()), 1..300),
            narrow in any::<bool>(),
            mshrs in 1u64..6,
            store_buffer in 0u64..6,
            prefetch in prefetch_policies(),
        ) {
            let cfg = knobbed_config(narrow, mshrs, store_buffer, prefetch);
            prop_assert!(cfg.validate().is_ok());
            let mut h = Hierarchy::new(cfg);
            for (addr, len, w) in accesses {
                h.access(addr, len, w);
            }
            assert_traffic_conserves(&h);
        }

        /// The transaction knobs are cycle *policies*: whatever their
        /// setting, the byte ledger's demand half and the hit/miss
        /// counters match the serialized model exactly, and overlap never
        /// makes a sequence slower. (Prefetching is excluded: it changes
        /// hit/miss placement by design.)
        #[test]
        fn knobs_never_change_demand_traffic(
            accesses in proptest::collection::vec((0u64..1 << 18, 1u64..64, any::<bool>()), 1..200),
            narrow in any::<bool>(),
            mshrs in 1u64..6,
            store_buffer in 0u64..6,
        ) {
            let base = knobbed_config(narrow, 1, 0, PrefetchPolicy::Off);
            let knobbed = knobbed_config(narrow, mshrs, store_buffer, PrefetchPolicy::Off);
            let mut a = Hierarchy::new(base);
            let mut b = Hierarchy::new(knobbed);
            for &(addr, len, w) in &accesses {
                a.access(addr, len, w);
                b.access(addr, len, w);
            }
            let (sa, sb) = (a.stats(), b.stats());
            prop_assert_eq!(sa.traffic, sb.traffic);
            prop_assert_eq!(sa.l1_hits, sb.l1_hits);
            prop_assert_eq!(sa.l1_misses, sb.l1_misses);
            prop_assert_eq!(sa.l2_hits, sb.l2_hits);
            prop_assert_eq!(sa.l2_misses, sb.l2_misses);
            prop_assert_eq!(sa.writebacks, sb.writebacks);
            prop_assert!(sb.cycles <= sa.cycles);
        }

        /// With the serialized knobs the transaction engine *is* the
        /// legacy model: access_at with an arbitrary monotone clock feed
        /// charges exactly the same cycles as the clockless path.
        #[test]
        fn serialized_knobs_ignore_the_clock(
            accesses in proptest::collection::vec((0u64..1 << 18, 1u64..64, any::<bool>()), 1..200),
            gaps in proptest::collection::vec(0u64..10_000, 1..200),
        ) {
            let cfg = HierarchyConfig::fpga_softcore();
            let mut plain = Hierarchy::new(cfg);
            let mut clocked = Hierarchy::new(cfg);
            let mut clock = 0u64;
            for (i, &(addr, len, w)) in accesses.iter().enumerate() {
                let c0 = plain.access(addr, len, w);
                let c1 = clocked.access_at(clock, addr, len, w);
                prop_assert_eq!(c0, c1);
                clock += c1 + gaps[i % gaps.len()];
            }
            prop_assert_eq!(plain.stats(), clocked.stats());
        }

        /// `access_at`'s inline L1-hit path is the general path: one
        /// random stream — lengths 0..=80, line-crossing accesses, reads
        /// and writes, a hot set that hits, a wide one that evicts, and
        /// addresses at the very top of the address space — driven through
        /// `access_at` and through `access` (its clock advanced the same
        /// way by a zero-length `access_at`, which touches nothing else)
        /// returns the same cycles and leaves the same stats after every
        /// access, on every L1 line width and transaction knob.
        #[test]
        fn hit_path_matches_the_general_path(
            accesses in proptest::collection::vec(
                (
                    prop_oneof![0u64..1 << 12, 0u64..1 << 18, (0u64..512).prop_map(|d| u64::MAX - d)],
                    0u64..81,
                    any::<bool>(),
                ),
                1..300,
            ),
            gaps in proptest::collection::vec(0u64..16, 1..50),
            knobs in (0u64..3, 1u64..6, 0u64..6),
            prefetch in prefetch_policies(),
        ) {
            let (line_sel, mshrs, store_buffer) = knobs;
            let cfg = HierarchyConfig::fpga_softcore()
                .with_l1_line_bytes(16 << line_sel)
                .with_mshrs(mshrs)
                .with_store_buffer(store_buffer.min(mshrs))
                .with_prefetch(prefetch);
            let mut inline = Hierarchy::new(cfg);
            let mut general = Hierarchy::new(cfg);
            let mut clock = 0u64;
            for (i, &(addr, len, w)) in accesses.iter().enumerate() {
                let c0 = inline.access_at(clock, addr, len, w);
                prop_assert_eq!(general.access_at(clock, addr, 0, w), 0);
                let c1 = general.access(addr, len, w);
                prop_assert_eq!(c0, c1, "access {} at {:#x} len {}", i, addr, len);
                prop_assert_eq!(inline.stats(), general.stats());
                // A caller clock that sometimes lags the cycles charged, so
                // the hierarchy's own clock carries over between accesses.
                clock += gaps[i % gaps.len()];
            }
        }

        /// Repeating the same small working set converges to all-hits.
        #[test]
        fn small_working_set_converges(base in 0u64..1 << 16) {
            let mut h = Hierarchy::default();
            for _ in 0..3 {
                for i in 0..16u64 {
                    h.access(base + i * 64, 8, false);
                }
            }
            h.reset_stats();
            for i in 0..16u64 {
                h.access(base + i * 64, 8, false);
            }
            prop_assert_eq!(h.stats().l1_misses, 0);
        }
    }
}
