//! `kernels-functional`: Dhrystone, tcpdump and zlib on machines without a
//! cache model, so block dispatch and integer semantics do the work and a
//! cache-model change must not show here.

use crate::sim::{self, compile_traced, JobSpec, Machine, RunRecord, SimSuite};
use crate::trace::Tracer;
use crate::{jitter, Metrics, Options, Round, Workload};
use cheri_compile::Abi;
use cheri_vm::{BackendKind, VmConfig};
use cheri_workloads::{inputs, sources};
use rand::Rng;
use std::rc::Rc;

/// The set-up workload.
#[derive(Debug)]
pub struct Kernels {
    suite: SimSuite,
    records: Vec<RunRecord>,
    /// Whether CHERIv2 refused the unported tcpdump, as it must.
    v2_rejects_tcpdump: bool,
    /// Backend the next probe times.
    next_backend: usize,
}

impl Kernels {
    /// Generates the inputs from `seed`, compiles every kernel for its
    /// machines, and checks that CHERIv2 rejects the unported tcpdump.
    ///
    /// # Errors
    ///
    /// A program that does not compile or an input that does not fit.
    pub fn setup(seed: u64, opts: Options, tr: &mut Tracer) -> Result<Kernels, String> {
        let mut rng = crate::rng(seed, 2);
        let (runs, packets, file_size) = if opts.small {
            (20, 40, 2048)
        } else {
            (
                jitter(&mut rng, 1500, 10),
                jitter(&mut rng, 2000, 10),
                jitter(&mut rng, 16384, 10),
            )
        };
        let (trace_seed, file_seed) = (rng.gen::<u64>(), rng.gen::<u64>());
        let gen = tr.begin("cheri-workloads.inputs");
        let trace: Rc<[u8]> = inputs::packet_trace(packets, trace_seed).into();
        let file: Rc<[u8]> = inputs::compressible_file(file_size as usize, file_seed).into();
        tr.end(gen, (trace.len() + file.len()) as u64);

        let dhrystone: Rc<str> = sources::dhrystone(runs).into();
        let tcpdump: Rc<str> = sources::tcpdump_baseline().into();
        let tcpdump_v2: Rc<str> = sources::tcpdump_cheriv2().into();
        let zlib: Rc<str> = sources::zlib(file_size, false).into();
        let zlib_copy: Rc<str> = sources::zlib(file_size, true).into();
        let job =
            |name, program, machine, source: &Rc<str>, input: Option<(&'static str, &Rc<[u8]>)>| {
                JobSpec {
                    name,
                    program,
                    machine,
                    source: Rc::clone(source),
                    inputs: input
                        .map(|(sym, b)| (sym, Rc::clone(b)))
                        .into_iter()
                        .collect(),
                }
            };
        let t = Some(("trace", &trace));
        let f = Some(("input", &file));
        let specs = [
            job("dhrystone", "dhrystone", Machine::MIPS, &dhrystone, None),
            job("dhrystone", "dhrystone", Machine::V2, &dhrystone, None),
            job("dhrystone", "dhrystone", Machine::V3, &dhrystone, None),
            job("tcpdump", "tcpdump", Machine::MIPS, &tcpdump, t),
            job("tcpdump-ported", "tcpdump", Machine::V2, &tcpdump_v2, t),
            job("tcpdump", "tcpdump", Machine::V3, &tcpdump, t),
            job("zlib", "zlib", Machine::MIPS, &zlib, f),
            job("zlib", "zlib", Machine::V2, &zlib, f),
            job("zlib", "zlib", Machine::V3, &zlib, f),
            job("zlib-copying", "zlib", Machine::V3, &zlib_copy, f),
        ];
        let base = VmConfig::functional().with_backend(opts.backend);
        let suite = SimSuite::build(tr, base, &specs)?;
        // The paper's porting story: pointer subtraction cannot compile
        // for CHERIv2.
        let v2_rejects_tcpdump = matches!(
            compile_traced(tr, &tcpdump, Abi::CheriV2),
            Err(e) if e.msg.contains("subtraction")
        );
        Ok(Kernels {
            suite,
            records: Vec::new(),
            v2_rejects_tcpdump,
            next_backend: 0,
        })
    }
}

impl Workload for Kernels {
    fn round(&mut self, tr: &mut Tracer) -> Round {
        let (round, records) = self.suite.round_with(tr, |c| c, "");
        self.records = records;
        round
    }

    fn setup_checks(&self) -> (u64, u64) {
        (1, u64::from(!self.v2_rejects_tcpdump))
    }

    /// One round on the next backend of [`BackendKind::ALL`].
    fn probe(&mut self, tr: &mut Tracer) -> Option<Round> {
        let i = self.next_backend;
        self.next_backend = (i + 1) % BackendKind::ALL.len();
        let kind = BackendKind::ALL[i];
        let (mut round, _) =
            self.suite
                .round_with(tr, |c| c.with_backend(kind), &format!(".{}", kind.name()));
        // Every backend must reproduce the default backend's round exactly.
        round.key = 0;
        Some(round)
    }

    fn layer_metrics(&mut self, setup: &Tracer, rounds: &Tracer, m: &mut Metrics) {
        sim::layer_metrics(&self.suite, &self.records, rounds, "kernels", m);
        let summary = rounds.summary();
        for kind in BackendKind::ALL {
            let suffix = format!(".{}", kind.name());
            let (mut ns, mut instr) = (0, 0);
            for ((name, label), t) in &summary {
                if *name == "cheri-vm.run" && label.ends_with(&suffix) {
                    ns += t.dur_ns;
                    instr += t.work;
                }
            }
            m.set(
                format!("cheri-vm.run_ns_per_instr.{}", kind.name()),
                crate::trace::ratio(ns as f64, instr as f64),
                "ns",
            );
        }
        m.set(
            "cheri-mem.poke_ns_per_byte",
            sim::suite_totals(&self.suite, rounds, "cheri-mem.poke").ns_per_work(),
            "ns",
        );
        m.set(
            "cheri-workloads.inputs_ms",
            setup.totals("cheri-workloads.inputs").mean_ns() / 1e6,
            "ms",
        );
    }
}
