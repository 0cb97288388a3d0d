//! The batch-simulation suites (olden-fpga, kernels-functional): a fixed
//! list of programs × machines, compiled once in set-up and run from a
//! fresh `Vm` in every round.

use crate::trace::{ratio, Totals, Tracer};
use crate::{Metrics, Round};
use cheri_compile::{compile_unit, Abi, CompileError, RUNTIME_SOURCE};
use cheri_isa::{Op, OpKind, Program};
use cheri_vm::{CapFormat, Vm, VmConfig, VmStats};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::time::Instant;

/// Retired-instruction budget per program run; the suites stay far below.
pub const FUEL: u64 = 20_000_000_000;

/// A simulated machine: compilation ABI plus in-memory capability format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Machine {
    /// Short name used in metric labels.
    pub name: &'static str,
    /// Compilation ABI.
    pub abi: Abi,
    /// Capability format in memory.
    pub format: CapFormat,
}

impl Machine {
    /// Conventional MIPS.
    pub const MIPS: Machine = Machine::new("mips", Abi::Mips, CapFormat::Cap256);
    /// CHERIv2: capabilities without offsets.
    pub const V2: Machine = Machine::new("v2", Abi::CheriV2, CapFormat::Cap256);
    /// CHERIv3 with 256-bit capabilities.
    pub const V3: Machine = Machine::new("v3-cap256", Abi::CheriV3, CapFormat::Cap256);
    /// CHERIv3 with 128-bit compressed capabilities.
    pub const V3_128: Machine = Machine::new("v3-cap128", Abi::CheriV3, CapFormat::Cap128);

    const fn new(name: &'static str, abi: Abi, format: CapFormat) -> Machine {
        Machine { name, abi, format }
    }

    /// `base` with this machine's capability format.
    pub fn config(self, base: VmConfig) -> VmConfig {
        base.with_cap_format(self.format)
    }
}

/// Parses `src` with the runtime prelude appended and generates code for
/// `abi` — exactly what `cheri_compile::compile` does, split into one span
/// per layer (`cheri-c.parse`, work = bytes parsed; `cheri-compile.codegen`,
/// work = code words emitted).
///
/// # Errors
///
/// The front end's error, as `compile` reports it.
pub fn compile_traced(tr: &mut Tracer, src: &str, abi: Abi) -> Result<Program, CompileError> {
    let full = format!("{src}\n{RUNTIME_SOURCE}");
    let unit = tr
        .span(
            "cheri-c.parse",
            |_| full.len() as u64,
            || cheri_c::parse(&full),
        )
        .map_err(|e| CompileError {
            line: e.line,
            msg: e.msg,
        })?;
    tr.span(
        "cheri-compile.codegen",
        |p: &Result<Program, CompileError>| p.as_ref().map_or(0, |p| p.code.len() as u64),
        || compile_unit(&unit, abi),
    )
}

/// Everything a run produced that must repeat exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct RunRecord {
    /// `main`'s exit code, or `None` if the machine trapped.
    pub exit: Option<i64>,
    /// Console output (or the trap, if it trapped).
    pub output: String,
    /// Instructions retired.
    pub instret: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Loads and stores retired (legacy and capability-relative).
    pub mem_ops: u64,
    /// CHERI-extension instructions retired.
    pub cap_ops: u64,
    /// L1 accesses (0 without a cache model).
    pub l1_accesses: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Bytes moved on the L2↔DRAM edge.
    pub dram_bytes: u64,
}

impl RunRecord {
    fn from_stats(exit: Option<i64>, output: String, s: &VmStats) -> RunRecord {
        let mem_ops = Op::ALL
            .iter()
            .filter(|o| {
                matches!(
                    o.kind(),
                    OpKind::Load | OpKind::Store | OpKind::CLoad | OpKind::CStore | OpKind::CMemCap
                )
            })
            .map(|&o| s.op_count(o))
            .sum();
        let cache = s.cache.unwrap_or_default();
        RunRecord {
            exit,
            output,
            instret: s.instret,
            cycles: s.cycles,
            mem_ops,
            cap_ops: s.capability_instructions(),
            l1_accesses: cache.l1_hits + cache.l1_misses,
            l1_misses: cache.l1_misses,
            l2_misses: cache.l2_misses,
            dram_bytes: cache.traffic.dram_bytes(),
        }
    }
}

/// One program on one machine, as a suite describes it.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Run name, the first part of its `name.machine` label.
    pub name: &'static str,
    /// Program the run computes; every run of one program must print the
    /// same output.
    pub program: &'static str,
    /// The machine it runs on.
    pub machine: Machine,
    /// Mini-C source.
    pub source: Rc<str>,
    /// Inputs poked into named global buffers before the run.
    pub inputs: Vec<(&'static str, Rc<[u8]>)>,
}

/// A compiled job with its inputs resolved to validated addresses.
#[derive(Debug)]
struct Job {
    label: String,
    program: &'static str,
    machine: Machine,
    image: Program,
    pokes: Vec<(u64, Rc<[u8]>)>,
}

/// A compiled suite, ready to run rounds.
#[derive(Debug)]
pub struct SimSuite {
    base: VmConfig,
    jobs: Vec<Job>,
}

impl SimSuite {
    /// Compiles every job and validates its inputs the way
    /// `cheri_workloads::run_workload` does: each symbol must exist as a
    /// global, and each input must fit its buffer.
    ///
    /// # Errors
    ///
    /// A description of the first job that does not compile or whose
    /// input is invalid.
    pub fn build(tr: &mut Tracer, base: VmConfig, specs: &[JobSpec]) -> Result<SimSuite, String> {
        let mut jobs = Vec::with_capacity(specs.len());
        for spec in specs {
            let label = format!("{}.{}", spec.name, spec.machine.name);
            let image = compile_traced(tr, &spec.source, spec.machine.abi)
                .map_err(|e| format!("{label}: compile error: {e}"))?;
            let mut pokes = Vec::new();
            for (name, bytes) in &spec.inputs {
                let sym = image
                    .symbols
                    .iter()
                    .find(|s| !s.is_func && s.name == *name)
                    .ok_or_else(|| format!("{label}: no such symbol {name}"))?;
                if bytes.len() as u64 > sym.size {
                    return Err(format!(
                        "{label}: input for {name} is {} bytes but the buffer holds {}",
                        bytes.len(),
                        sym.size
                    ));
                }
                pokes.push((sym.value, Rc::clone(bytes)));
            }
            jobs.push(Job {
                label,
                program: spec.program,
                machine: spec.machine,
                image,
                pokes,
            });
        }
        Ok(SimSuite { base, jobs })
    }

    /// `name.machine` of every job, in run order.
    pub fn labels(&self) -> Vec<String> {
        self.jobs.iter().map(|j| j.label.clone()).collect()
    }

    /// Runs every job once on a fresh machine configured by
    /// `tweak(machine config)`, checking each run: it must exit 0, and
    /// every run of a program must print the same output. Each run
    /// (`Vm::new`, pokes, `Vm::run`, dropping the machine) is a timed
    /// unit. The `Vm::new`, poke and run spans are labelled `name.machine`
    /// plus `suffix`.
    pub fn round_with(
        &self,
        tr: &mut Tracer,
        tweak: impl Fn(VmConfig) -> VmConfig,
        suffix: &str,
    ) -> (Round, Vec<RunRecord>) {
        let root = tr.begin("perfbench.round");
        let mut unit_ns = Vec::with_capacity(self.jobs.len());
        let mut records: Vec<RunRecord> = Vec::with_capacity(self.jobs.len());
        let mut failed = 0;
        let mut ops = 0;
        for (i, job) in self.jobs.iter().enumerate() {
            let start = Instant::now();
            let cfg = tweak(job.machine.config(self.base));
            let label = || format!("{}{suffix}", job.label);
            let new = tr.begin_labelled("cheri-vm.new", label);
            let mut vm = Vm::new(job.image.clone(), cfg);
            tr.end(new, 1);
            for (addr, bytes) in &job.pokes {
                let poke = tr.begin_labelled("cheri-mem.poke", label);
                vm.mem_mut()
                    .write_bytes(*addr, bytes)
                    .expect("validated input lies inside its buffer");
                tr.end(poke, bytes.len() as u64);
            }
            let run = tr.begin_labelled("cheri-vm.run", label);
            let result = vm.run(FUEL);
            let record = match result {
                Ok(status) => {
                    RunRecord::from_stats(Some(status.code), vm.output_string(), &status.stats)
                }
                Err(trap) => RunRecord::from_stats(None, format!("trap: {trap}"), &vm.stats()),
            };
            tr.end(run, record.instret);
            drop(vm);
            unit_ns.push(start.elapsed().as_nanos() as u64);
            let first_of_program = self.jobs[..i]
                .iter()
                .position(|j| j.program == job.program)
                .map(|k| &records[k]);
            let agrees = first_of_program.is_none_or(|r| r.output == record.output);
            if record.exit != Some(0) || !agrees {
                failed += 1;
            } else {
                ops += record.instret;
            }
            records.push(record);
        }
        tr.end(root, ops);
        let round = Round {
            key: 0,
            unit_ns,
            ops,
            attempted: self.jobs.len() as u64,
            failed,
            fingerprint: fingerprint(&records),
        };
        (round, records)
    }
}

/// A hash of everything that must repeat exactly between rounds and runs.
pub fn fingerprint<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Spans named `name` over the suite's own jobs — the machines its
/// rounds run, not the probes' variants of them.
pub fn suite_totals(suite: &SimSuite, rounds: &Tracer, name: &'static str) -> Totals {
    let summary = rounds.summary();
    let mut total = Totals::default();
    for label in suite.labels() {
        if let Some(t) = summary.get(&(name, label)) {
            total.add(t);
        }
    }
    total
}

/// Per-layer metrics shared by the simulation suites, named with the
/// workload's short `tag`: run time per retired instruction per
/// program.machine and overall, `Vm::new` latency, and the instruction
/// mix of one round (`records`). Timings cover only the suite's own
/// machines.
pub fn layer_metrics(
    suite: &SimSuite,
    records: &[RunRecord],
    rounds: &Tracer,
    tag: &str,
    m: &mut Metrics,
) {
    let summary = rounds.summary();
    for label in suite.labels() {
        if let Some(t) = summary.get(&("cheri-vm.run", label.clone())) {
            m.set(
                format!("cheri-vm.run_ns_per_instr.{tag}.{label}"),
                t.ns_per_work(),
                "ns",
            );
        }
    }
    m.set(
        format!("cheri-vm.run_ns_per_instr.{tag}"),
        suite_totals(suite, rounds, "cheri-vm.run").ns_per_work(),
        "ns",
    );
    m.set(
        format!("cheri-vm.new_us.{tag}"),
        suite_totals(suite, rounds, "cheri-vm.new").mean_ns() / 1e3,
        "us",
    );
    let sum = |f: fn(&RunRecord) -> u64| records.iter().map(f).sum::<u64>() as f64;
    let instret = sum(|r| r.instret);
    m.set(format!("cheri-vm.instret.{tag}"), instret, "count");
    m.set(format!("cheri-vm.cycles.{tag}"), sum(|r| r.cycles), "count");
    m.set(
        format!("cheri-vm.mem_op_share.{tag}"),
        ratio(sum(|r| r.mem_ops), instret),
        "ratio",
    );
    m.set(
        format!("cheri-vm.cap_op_share.{tag}"),
        ratio(sum(|r| r.cap_ops), instret),
        "ratio",
    );
}
