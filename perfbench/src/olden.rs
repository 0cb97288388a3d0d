//! `olden-fpga`: the Figure 1 Olden suite on the FPGA cache model, on four
//! machines. Memory and capability operations are a large share of what
//! retires, so the shared capability memory path and the cache model do
//! most of the host's work.

use crate::sim::{self, JobSpec, Machine, RunRecord, SimSuite};
use crate::trace::{ratio, Tracer};
use crate::{jitter, Metrics, Options, Round, Workload};
use cheri_vm::VmConfig;
use cheri_workloads::sources;
use rand::Rng;
use std::rc::Rc;

/// The machines every Olden program runs on.
pub const MACHINES: [Machine; 4] = [Machine::MIPS, Machine::V2, Machine::V3, Machine::V3_128];

/// The set-up workload.
#[derive(Debug)]
pub struct Olden {
    suite: SimSuite,
    records: Vec<RunRecord>,
}

impl Olden {
    /// Generates the suite at a seed-perturbed scale and compiles it.
    ///
    /// # Errors
    ///
    /// A program that does not compile.
    pub fn setup(seed: u64, opts: Options, tr: &mut Tracer) -> Result<Olden, String> {
        let mut rng = crate::rng(seed, 1);
        // Figure 1's scale 2 (scale 1 for tests), each size moved up to
        // 10%: a round then lasts ~0.2 s, so a run times 100 rounds or more.
        let s: u32 = if opts.small { 1 } else { 2 };
        let programs = [
            ("bisort", sources::bisort(jitter(&mut rng, 400 * s, 10))),
            ("mst", sources::mst(jitter(&mut rng, 24 * s, 10))),
            (
                "treeadd",
                sources::treeadd(9 + s.ilog2(), rng.gen_range(5..=7)),
            ),
            ("perimeter", sources::perimeter(5 + s.ilog2())),
            (
                "malloc_stress",
                sources::malloc_stress(jitter(&mut rng, 32 * s, 10), 6),
            ),
        ];
        let mut specs = Vec::new();
        for (name, src) in programs {
            let source: Rc<str> = src.into();
            for machine in MACHINES {
                specs.push(JobSpec {
                    name,
                    program: name,
                    machine,
                    source: Rc::clone(&source),
                    inputs: Vec::new(),
                });
            }
        }
        let base = VmConfig::fpga().with_backend(opts.backend);
        Ok(Olden {
            suite: SimSuite::build(tr, base, &specs)?,
            records: Vec::new(),
        })
    }
}

impl Workload for Olden {
    fn round(&mut self, tr: &mut Tracer) -> Round {
        let (round, records) = self.suite.round_with(tr, |c| c, "");
        self.records = records;
        round
    }

    /// The same programs without the cache model, so the model's host
    /// cost is the difference of the two.
    fn probe(&mut self, tr: &mut Tracer) -> Option<Round> {
        let functional = |c: VmConfig| VmConfig { cache: None, ..c };
        let (mut round, _) = self.suite.round_with(tr, functional, ".functional");
        round.key = 1;
        Some(round)
    }

    fn layer_metrics(&mut self, _setup: &Tracer, rounds: &Tracer, m: &mut Metrics) {
        sim::layer_metrics(&self.suite, &self.records, rounds, "olden", m);
        let summary = rounds.summary();
        let (mut fpga, mut functional) = ((0, 0), (0, 0));
        for ((name, label), t) in &summary {
            if *name == "cheri-vm.run" {
                let side = if label.ends_with(".functional") {
                    &mut functional
                } else {
                    &mut fpga
                };
                side.0 += t.dur_ns;
                side.1 += t.work;
            }
        }
        let per_instr = |(ns, n): (u64, u64)| ratio(ns as f64, n as f64);
        m.set(
            "cheri-cache.model_ns_per_instr",
            per_instr(fpga) - per_instr(functional),
            "ns",
        );
        let sum = |f: fn(&RunRecord) -> u64| self.records.iter().map(f).sum::<u64>() as f64;
        let instret = sum(|r| r.instret);
        m.set(
            "cheri-cache.l1_miss_rate",
            ratio(sum(|r| r.l1_misses), sum(|r| r.l1_accesses)),
            "ratio",
        );
        m.set(
            "cheri-cache.l2_miss_rate",
            ratio(sum(|r| r.l2_misses), sum(|r| r.l1_misses)),
            "ratio",
        );
        m.set(
            "cheri-cache.dram_bytes_per_instr",
            ratio(sum(|r| r.dram_bytes), instret),
            "B/instr",
        );
    }
}
