//! The simulated cycle record: Figure 1's scale-2 Olden suite on the FPGA
//! cache model with default knobs, pinned exactly.
//!
//! Simulated cycles are the model's output, not a speed metric: a change
//! that makes the host faster must leave every number here untouched. A
//! change that moves one is a model change and says so, updating this
//! table with the reason.
//!
//! The MIPS and CHERIv3 cycles are the record the bandwidth-aware cache
//! model has kept since its introduction. On 64-byte L1 lines Cap128
//! matches Cap256 exactly (line rounding absorbs the half-width stores),
//! so the narrow-line Cap128 rows pin the geometry where the formats
//! differ.

use cheri::cap::CapFormat;
use cheri::compile::Abi;
use cheri::vm::VmConfig;
use cheri::workloads::run_workload;

/// (program, machine, cycles, instret, L1 misses, DRAM bytes).
#[rustfmt::skip]
const RECORD: &[(&str, &str, u64, u64, u64, u64)] = &[
    ("Bisort",    "MIPS",               663800,  405719,  1899,  27200),
    ("Bisort",    "CHERIv2",            752521,  416917,  6998,  54976),
    ("Bisort",    "CHERIv3",            752521,  416917,  6998,  54976),
    ("Bisort",    "CHERIv3-Cap128",     752521,  416917,  6998,  54976),
    ("Bisort",    "CHERIv3-Cap128-16B", 740158,  416917,  9294,  54976),
    ("MST",       "MIPS",               170189,  114450,  169,   10816),
    ("MST",       "CHERIv2",            200660,  133677,  583,   22016),
    ("MST",       "CHERIv3",            200660,  133677,  583,   22016),
    ("MST",       "CHERIv3-Cap128",     200660,  133677,  583,   22016),
    ("MST",       "CHERIv3-Cap128-16B", 202679,  133677,  1080,  22016),
    ("Treeadd",   "MIPS",               540587,  329115,  3648,  34304),
    ("Treeadd",   "CHERIv2",            988604,  332184,  11105, 815680),
    ("Treeadd",   "CHERIv3",            988604,  332184,  11105, 815680),
    ("Treeadd",   "CHERIv3-Cap128",     988604,  332184,  11105, 815680),
    ("Treeadd",   "CHERIv3-Cap128-16B", 1018079, 332184,  22082, 756784),
    ("Perimeter", "MIPS",               1544897, 518384,  11172, 1067264),
    ("Perimeter", "CHERIv2",            2311588, 545689,  21841, 2274752),
    ("Perimeter", "CHERIv3",            2311588, 545689,  21841, 2274752),
    ("Perimeter", "CHERIv3-Cap128",     2311588, 545689,  21841, 2274752),
    ("Perimeter", "CHERIv3-Cap128-16B", 2335665, 545689,  39191, 1826976),
    ("MallocStr", "MIPS",               132327,  64995,   176,   11264),
    ("MallocStr", "CHERIv2",            160869,  75882,   847,   25792),
    ("MallocStr", "CHERIv3",            160869,  75882,   847,   25792),
    ("MallocStr", "CHERIv3-Cap128",     160869,  75882,   847,   25792),
    ("MallocStr", "CHERIv3-Cap128-16B", 158268,  75882,   1090,  25792),
];

fn machine(name: &str) -> (Abi, VmConfig) {
    let cap128 = VmConfig::fpga().with_cap_format(CapFormat::Cap128);
    match name {
        "MIPS" => (Abi::Mips, VmConfig::fpga()),
        "CHERIv2" => (Abi::CheriV2, VmConfig::fpga()),
        "CHERIv3" => (Abi::CheriV3, VmConfig::fpga()),
        "CHERIv3-Cap128" => (Abi::CheriV3, cap128),
        "CHERIv3-Cap128-16B" => (Abi::CheriV3, cap128.with_l1_line_bytes(16)),
        other => panic!("unknown machine {other}"),
    }
}

#[test]
fn fig1_scale2_cycle_record_is_unchanged() {
    let workloads = cheri_bench::fig1_workloads(2);
    let mut mismatches = Vec::new();
    for &(program, name, cycles, instret, l1_misses, dram_bytes) in RECORD {
        let (_, src) = workloads
            .iter()
            .find(|(n, _)| *n == program)
            .unwrap_or_else(|| panic!("{program} is not in Figure 1's suite"));
        let (abi, cfg) = machine(name);
        let out = run_workload(src, abi, cfg, &[], cheri_bench::FUEL)
            .unwrap_or_else(|e| panic!("{program}/{name}: {e}"));
        assert_eq!(out.exit, 0, "{program}/{name}: {}", out.output);
        let cache = out.cache.expect("the FPGA machine models its caches");
        let got = (
            out.cycles,
            out.instret,
            cache.l1_misses,
            cache.traffic.dram_bytes(),
        );
        if got != (cycles, instret, l1_misses, dram_bytes) {
            mismatches.push(format!(
                "{program}/{name}: (cycles, instret, L1 misses, DRAM bytes) = {got:?}, \
                 record ({cycles}, {instret}, {l1_misses}, {dram_bytes})"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "cycle record moved:\n{}",
        mismatches.join("\n")
    );
    // Every Figure 1 program is pinned on every machine.
    for (program, _) in &workloads {
        assert_eq!(RECORD.iter().filter(|r| r.0 == *program).count(), 5);
    }
}
