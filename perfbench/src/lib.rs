//! Host-time benchmark of the CHERI simulator.
//!
//! Four single-threaded workloads, each dominated by one layer:
//!
//! * [`olden`] (`olden-fpga`) — the Figure 1 Olden suite on the FPGA cache
//!   model: the capability memory path and the cache model.
//! * [`kernels`] (`kernels-functional`) — Dhrystone, tcpdump and zlib
//!   without a cache model: dispatch and integer semantics.
//! * [`sandbox`] (`sandbox-serve`) — request batches served from
//!   copy-on-write forks: guest runs, fork, payload poke, rewind and
//!   slicing.
//! * [`frontend`] (`frontend-compile`) — the C front end and code
//!   generator over every workload and guest source.
//!
//! [`bench`] runs one workload for a fixed time and reports end-to-end
//! metrics with tracing off, or runs every workload traced and reports
//! per-layer metrics from the spans of [`trace`].

pub mod bench;
pub mod frontend;
pub mod kernels;
pub mod olden;
pub mod sandbox;
pub mod sim;
pub mod stats;
pub mod trace;

use cheri_vm::{BackendKind, VmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use trace::Tracer;

/// The workloads, in the order the traced run visits them.
pub const WORKLOADS: [&str; 4] = [
    "olden-fpga",
    "kernels-functional",
    "sandbox-serve",
    "frontend-compile",
];

/// The benchmark's only source of variation: `seed`'s values for one
/// workload, decorrelated per `stream` so the workloads draw independent
/// values from one seed. The programs under test see only what it
/// generates.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// `base` moved by at most `pct` percent either way.
pub fn jitter(rng: &mut StdRng, base: u32, pct: u32) -> u32 {
    let span = base * pct / 100;
    rng.gen_range(base - span..=base + span)
}

/// One round of a workload: a fixed unit of work that repeats exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Round {
    /// Which variant of the work ran (the sandbox cycles through a fixed
    /// list of batches; the other workloads always run variant 0). Rounds
    /// with one key must produce one fingerprint.
    pub key: usize,
    /// Wall-clock nanoseconds of each timed unit of the round, checks
    /// excluded: one per program run (olden, kernels), or one for the
    /// whole round (a `serve` call, a pass over the corpus). Rounds of one
    /// key have the same units in the same order.
    pub unit_ns: Vec<u64>,
    /// Operations completed correctly: guest instructions retired
    /// (olden, kernels), requests answered (sandbox), or bytes of user C
    /// source compiled (frontend).
    pub ops: u64,
    /// Checked operations attempted: program runs, requests, compiles.
    pub attempted: u64,
    /// Operations that trapped, failed a check or disagreed.
    pub failed: u64,
    /// Hash of every output and count of the round.
    pub fingerprint: u64,
}

impl Round {
    /// Wall-clock nanoseconds of the whole round.
    pub fn ns(&self) -> u64 {
        self.unit_ns.iter().sum()
    }
}

/// Knobs the tests turn: input size and execution backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Options {
    /// Use tiny inputs (for tests).
    pub small: bool,
    /// Execution backend of every machine.
    pub backend: BackendKind,
}

impl Options {
    /// Full-size inputs on the machines' default backend.
    pub fn full() -> Options {
        Options {
            small: false,
            backend: VmConfig::fpga().backend,
        }
    }

    /// Tiny inputs on `backend`.
    pub fn small(backend: BackendKind) -> Options {
        Options {
            small: true,
            backend,
        }
    }
}

/// Named metrics with units, in name order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }
}

/// A set-up workload.
pub trait Workload {
    /// Runs one round.
    fn round(&mut self, tr: &mut Tracer) -> Round;

    /// Distinct rounds the workload cycles through (the `key`s of its
    /// rounds); the traced run runs at least this many, so per-layer counts
    /// cover every variant and every variant is checked.
    fn variants(&self) -> usize {
        1
    }

    /// Checks made once, in set-up: `(attempted, failed)`.
    fn setup_checks(&self) -> (u64, u64) {
        (0, 0)
    }

    /// One traced measurement beyond the rounds, for per-layer metrics
    /// (cache model on/off, each backend, fork latency). Returns the
    /// checked operations it ran as a round without a timing.
    fn probe(&mut self, _tr: &mut Tracer) -> Option<Round> {
        None
    }

    /// Per-layer metrics from the set-up spans, the round and probe spans,
    /// and the workload's own exact counts.
    fn layer_metrics(&mut self, setup: &Tracer, rounds: &Tracer, m: &mut Metrics);
}

/// Sets up workload `name` from `seed`.
///
/// # Errors
///
/// An unknown name, or a set-up that failed (a program that does not
/// compile, an input that does not fit).
pub fn setup(
    name: &str,
    seed: u64,
    opts: Options,
    tr: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "olden-fpga" => Box::new(olden::Olden::setup(seed, opts, tr)?),
        "kernels-functional" => Box::new(kernels::Kernels::setup(seed, opts, tr)?),
        "sandbox-serve" => Box::new(sandbox::Sandbox::setup(seed, opts, tr)?),
        "frontend-compile" => Box::new(frontend::Frontend::setup(seed, opts, tr)?),
        _ => {
            return Err(format!(
                "unknown workload {name:?}; valid: {}",
                WORKLOADS.join(", ")
            ))
        }
    })
}
