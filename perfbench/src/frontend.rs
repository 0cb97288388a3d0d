//! `frontend-compile`: every workload and guest source, seeded, compiled
//! for each ABI — the C front end and code generator do all the work.
//! Each compile is checked against `cheri_compile::compile`'s output.

use crate::sim::compile_traced;
use crate::trace::Tracer;
use crate::{jitter, Metrics, Options, Round, Workload};
use cheri_compile::{compile, Abi};
use cheri_isa::Program;
use cheri_sandbox::guests;
use cheri_workloads::sources;
use rand::Rng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// One source compiled for one ABI.
#[derive(Debug)]
struct Entry {
    source: String,
    abi: Abi,
    /// The program `compile` produced, or `None` where the ABI must
    /// reject the source.
    expected: Option<Program>,
}

/// The set-up workload.
#[derive(Debug)]
pub struct Frontend {
    corpus: Vec<Entry>,
}

impl Frontend {
    /// Generates the corpus from `seed` and compiles it once with
    /// `cheri_compile::compile` for reference.
    ///
    /// # Errors
    ///
    /// A source that does not compile where it should, or compiles where
    /// the ABI must reject it.
    pub fn setup(seed: u64, opts: Options, _tr: &mut Tracer) -> Result<Frontend, String> {
        let mut rng = crate::rng(seed, 4);
        let s: u32 = if opts.small { 1 } else { 4 };
        let file_size = jitter(&mut rng, 16384, 10);
        let sources = [
            (
                "treeadd",
                sources::treeadd(jitter(&mut rng, 11, 10), rng.gen_range(4..=8)),
            ),
            ("bisort", sources::bisort(jitter(&mut rng, 400 * s, 10))),
            ("perimeter", sources::perimeter(rng.gen_range(5..=7))),
            ("mst", sources::mst(jitter(&mut rng, 24 * s, 10))),
            (
                "malloc_stress",
                sources::malloc_stress(jitter(&mut rng, 32 * s, 10), 6),
            ),
            (
                "malloc_stress_oob",
                sources::malloc_stress_oob(jitter(&mut rng, 32 * s, 10), 6),
            ),
            ("dhrystone", sources::dhrystone(jitter(&mut rng, 1500, 10))),
            ("tcpdump", sources::tcpdump_baseline()),
            ("tcpdump-v2", sources::tcpdump_cheriv2()),
            ("tcpdump-v3", sources::tcpdump_cheriv3()),
            ("zlib", sources::zlib(file_size, false)),
            ("zlib-copying", sources::zlib(file_size, true)),
            ("tree_service", guests::tree_service(rng.gen_range(6..=12))),
            ("table_service", guests::table_service()),
            ("oob_service", guests::oob_service()),
        ];
        let mut corpus = Vec::new();
        for (name, source) in sources {
            for abi in Abi::ALL {
                // The CHERIv3 port keeps pointer subtraction: not legal
                // on CHERIv2.
                if name == "tcpdump-v3" && abi == Abi::CheriV2 {
                    continue;
                }
                // The paper's porting story: unported tcpdump subtracts
                // pointers, which CHERIv2 cannot express.
                let must_reject = name == "tcpdump" && abi == Abi::CheriV2;
                let expected = match (compile(&source, abi), must_reject) {
                    (Ok(p), false) => Some(p),
                    (Err(e), true) if is_subtraction(&e.msg) => None,
                    (Ok(_), true) => return Err(format!("{name}/{abi}: must not compile")),
                    (Err(e), _) => return Err(format!("{name}/{abi}: {e}")),
                };
                corpus.push(Entry {
                    source: source.clone(),
                    abi,
                    expected,
                });
            }
        }
        Ok(Frontend { corpus })
    }

    /// Code words the corpus compiles to.
    fn code_words(&self) -> u64 {
        self.corpus
            .iter()
            .filter_map(|e| e.expected.as_ref())
            .map(|p| p.code.len() as u64)
            .sum()
    }
}

fn is_subtraction(msg: &str) -> bool {
    msg.contains("subtraction")
}

impl Workload for Frontend {
    fn round(&mut self, tr: &mut Tracer) -> Round {
        let root = tr.begin("perfbench.round");
        let (mut ns, mut ops, mut failed) = (0, 0, 0);
        let mut programs = DefaultHasher::new();
        for e in &self.corpus {
            let start = Instant::now();
            let got = compile_traced(tr, &e.source, e.abi);
            ns += start.elapsed().as_nanos() as u64;
            let ok = match (&got, &e.expected) {
                (Ok(p), Some(want)) => p == want,
                (Err(err), None) => is_subtraction(&err.msg),
                _ => false,
            };
            if ok {
                ops += e.source.len() as u64;
            } else {
                failed += 1;
            }
            match &got {
                Ok(p) => (&p.code, &p.data).hash(&mut programs),
                Err(e) => e.line.hash(&mut programs),
            }
        }
        tr.end(root, ops);
        Round {
            key: 0,
            unit_ns: vec![ns],
            ops,
            attempted: self.corpus.len() as u64,
            failed,
            fingerprint: programs.finish(),
        }
    }

    fn layer_metrics(&mut self, _setup: &Tracer, rounds: &Tracer, m: &mut Metrics) {
        m.set(
            "cheri-c.parse_ns_per_byte",
            rounds.totals("cheri-c.parse").ns_per_work(),
            "ns",
        );
        m.set(
            "cheri-compile.codegen_ns_per_word",
            rounds.totals("cheri-compile.codegen").ns_per_work(),
            "ns",
        );
        m.set(
            "cheri-compile.code_words",
            self.code_words() as f64,
            "count",
        );
    }
}
