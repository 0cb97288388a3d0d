//! `sandbox-serve`: a seeded tenant fleet answering 64-request batches,
//! one `serve` call at a time, on one worker inline on the caller's
//! thread. Guest runs on copy-on-write forks do most of the work, with
//! the forks, payload pokes, rewinds and fuel slicing around them; the
//! machines have no cache model.
//!
//! Every response is checked against an answer computed on the host from
//! the request alone.

use crate::sim::{fingerprint, Machine};
use crate::trace::{ratio, Tracer};
use crate::{Metrics, Options, Round, Workload};
use cheri_cap::CapError;
use cheri_sandbox::{guests, Outcome, Request, Response, SandboxService, TenantConfig};
use cheri_vm::{TrapCause, VmConfig};
use rand::seq::SliceRandom;
use rand::Rng;
use std::time::Instant;

/// Memory quota of every tenant.
const TENANT_MEM: u64 = 4 << 20;
/// Distinct batches a run cycles through: few enough that each is served
/// ~100 times in a 25 s run, since `ns_per_op` takes each batch's fastest
/// time.
const BATCHES: usize = 16;
/// Forks timed per tenant in each probe.
const FORKS_PER_PROBE: usize = 8;

/// Which demo guest a tenant runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Guest {
    /// `guests::tree_service` of this depth.
    Tree(u32),
    /// `guests::table_service`.
    Table,
    /// `guests::oob_service`.
    Oob,
}

/// A tenant of the fleet.
#[derive(Clone, Copy, Debug)]
struct Class {
    name: &'static str,
    guest: Guest,
    machine: Machine,
    /// Preemption quantum in instructions.
    fuel_slice: u64,
}

const fn class(name: &'static str, guest: Guest, machine: Machine, fuel_slice: u64) -> Class {
    Class {
        name,
        guest,
        machine,
        fuel_slice,
    }
}

/// The fleet: `sandboxd`'s default eight tenants (its four templates —
/// tree depth 8 on CHERIv3, table on Cap128, OOB on CHERIv3, tree depth 5
/// on MIPS — twice, each with a 50,000-instruction slice), with the
/// second copy of each tree template changed so the fleet also has a
/// tenant whose small fuel slice makes the scheduler yield (a depth-8
/// request on CHERIv3 retires ~12,000 instructions, 13 slices) and a deep
/// warm image (depth 11).
const FLEET: [Class; 8] = [
    class("tree-v3", Guest::Tree(8), Machine::V3, 50_000),
    class("table-cap128", Guest::Table, Machine::V3_128, 50_000),
    class("oob-v3", Guest::Oob, Machine::V3, 50_000),
    class("tree-mips", Guest::Tree(5), Machine::MIPS, 50_000),
    class("tree-v3-yield", Guest::Tree(8), Machine::V3, 1_000),
    class("table-cap128-2", Guest::Table, Machine::V3_128, 50_000),
    class("oob-v3-2", Guest::Oob, Machine::V3, 50_000),
    class("tree-mips-deep", Guest::Tree(11), Machine::MIPS, 50_000),
];

/// Requests in a batch.
const BATCH_LEN: usize = 64;
/// Longest payload, as in `sandboxd`'s request stream (1 to 24 bytes).
const MAX_PAYLOAD: usize = 24;

/// Requests per batch to each of `tenants` tenants: Zipf's law with
/// exponent 1 over the fleet order (tenant `k` gets a share proportional
/// to `1 / (k + 1)`), rounded by largest remainder so the counts sum to
/// `total`. Every batch has the same counts, so its work varies with its
/// order and payloads, not with how many costly requests it happened to
/// draw.
fn zipf_quota(tenants: usize, total: usize) -> Vec<usize> {
    let h: f64 = (1..=tenants).map(|k| 1.0 / k as f64).sum();
    let exact: Vec<f64> = (1..=tenants)
        .map(|k| total as f64 / (k as f64 * h))
        .collect();
    let mut quota: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..tenants).collect();
    by_remainder.sort_by(|&a, &b| exact[b].fract().total_cmp(&exact[a].fract()));
    let short = total - quota.iter().sum::<usize>();
    for &k in &by_remainder[..short] {
        quota[k] += 1;
    }
    quota
}

/// What a correct service answers.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Expect {
    /// The request completes, exits 0 and prints this.
    Prints(String),
    /// The request traps on capability bounds and is rewound.
    BoundsTrap,
}

/// One batch with its expected answers.
#[derive(Clone, Debug)]
struct Batch {
    requests: Vec<Request>,
    expect: Vec<Expect>,
}

/// Per-batch counts, recorded the first time each batch is served.
#[derive(Clone, Copy, Debug, Default)]
struct Served {
    slices: u64,
    rewinds: u64,
}

/// The set-up workload.
#[derive(Debug)]
pub struct Sandbox {
    service: SandboxService,
    batches: Vec<Batch>,
    served: Vec<Option<Served>>,
    next: usize,
}

/// `guests::tree_service(depth)`'s answer: the warm sum plus the request's
/// sum of the tree numbered 1..2^depth in heap order, plus the payload's
/// rolling hash, all in wrapping 64-bit arithmetic.
fn tree_answer(depth: u32, payload: &[u8]) -> i64 {
    let n = (1i64 << depth) - 1;
    let sum = n * (n + 1) / 2;
    let salt = payload
        .iter()
        .fold(0i64, |s, &b| s.wrapping_mul(31).wrapping_add(i64::from(b)));
    sum.wrapping_add(sum).wrapping_add(salt)
}

/// `guests::table_service`'s answer: the payload hashed through the
/// substitution table `t[i] = (167 i + 13) mod 256`.
fn table_answer(payload: &[u8]) -> i64 {
    payload.iter().fold(5381i64, |h, &b| {
        let t = (i64::from(b) * 167 + 13) % 256;
        (h * 33 + t) % 1_000_000_007
    })
}

/// `guests::oob_service`'s answer: `buf[idx] = 3 idx` for an even first
/// byte, a bounds trap ~250 KB past the 64-byte buffer for an odd one.
fn oob_answer(payload: &[u8]) -> Expect {
    let first = payload.first().copied().unwrap_or(0);
    if first % 2 == 1 {
        Expect::BoundsTrap
    } else {
        let idx = u64::from(first) % 64;
        Expect::Prints(format!("{}\n", (idx * 3) as u8))
    }
}

impl Sandbox {
    /// Admits the fleet (compile, boot, warm, snapshot) and generates the
    /// request batches from `seed`.
    ///
    /// # Errors
    ///
    /// A tenant that cannot be admitted.
    pub fn setup(seed: u64, opts: Options, tr: &mut Tracer) -> Result<Sandbox, String> {
        let mut rng = crate::rng(seed, 3);
        let mut service = SandboxService::new();
        let mut guests = Vec::with_capacity(FLEET.len());
        for c in FLEET {
            let guest = match c.guest {
                Guest::Tree(depth) if opts.small => Guest::Tree(depth.min(5)),
                g => g,
            };
            let source = match guest {
                Guest::Tree(depth) => guests::tree_service(depth),
                Guest::Table => guests::table_service(),
                Guest::Oob => guests::oob_service(),
            };
            let vm = VmConfig::functional()
                .with_mem_size(TENANT_MEM)
                .with_cap_format(c.machine.format)
                .with_backend(opts.backend);
            let cfg = TenantConfig::new(c.name, source, c.machine.abi)
                .with_vm(vm)
                .with_fuel_slice(c.fuel_slice);
            tr.span("cheri-sandbox.admit", |_| 1, || service.add_tenant(cfg))
                .map_err(|e| format!("{}: {e}", c.name))?;
            guests.push(guest);
        }

        let mix: Vec<usize> = zipf_quota(FLEET.len(), BATCH_LEN)
            .into_iter()
            .enumerate()
            .flat_map(|(id, n)| std::iter::repeat_n(id, n))
            .collect();
        let count = if opts.small { 1 } else { BATCHES };
        let batches = (0..count)
            .map(|_| {
                let mut order = mix.clone();
                order.shuffle(&mut rng);
                let mut batch = Batch {
                    requests: Vec::with_capacity(order.len()),
                    expect: Vec::with_capacity(order.len()),
                };
                for tenant in order {
                    // Uniform bytes, so half of the OOB requests stray.
                    let len = rng.gen_range(1..=MAX_PAYLOAD);
                    let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                    let expect = match guests[tenant] {
                        Guest::Tree(depth) => {
                            Expect::Prints(format!("{}\n", tree_answer(depth, &payload)))
                        }
                        Guest::Table => Expect::Prints(format!("{}\n", table_answer(&payload))),
                        Guest::Oob => oob_answer(&payload),
                    };
                    batch.requests.push(Request { tenant, payload });
                    batch.expect.push(expect);
                }
                batch
            })
            .collect::<Vec<_>>();
        Ok(Sandbox {
            service,
            served: vec![None; batches.len()],
            batches,
            next: 0,
        })
    }

    /// Serves batch `i` and checks every response.
    fn serve(&mut self, i: usize, tr: &mut Tracer) -> Round {
        let batch = &self.batches[i];
        let root = tr.begin("perfbench.round");
        let start = Instant::now();
        let id = tr.begin("cheri-sandbox.serve");
        let responses = self.service.serve(&batch.requests, 1);
        tr.end(id, batch.requests.len() as u64);
        let ns = start.elapsed().as_nanos() as u64;

        let mut served = Served::default();
        let mut failed = 0;
        for (resp, expect) in responses.iter().zip(&batch.expect) {
            let ok = match (&resp.outcome, expect) {
                (
                    Outcome::Completed {
                        exit: 0,
                        output,
                        slices,
                        ..
                    },
                    Expect::Prints(want),
                ) => {
                    served.slices += u64::from(*slices);
                    output == want
                }
                (Outcome::Trapped { trap, slices, .. }, Expect::BoundsTrap) => {
                    served.slices += u64::from(*slices);
                    served.rewinds += 1;
                    matches!(
                        trap.cause,
                        TrapCause::Capability(CapError::BoundsViolation { .. })
                    )
                }
                _ => false,
            };
            failed += u64::from(!ok);
        }
        self.served[i].get_or_insert(served);
        let answered = responses.len() as u64 - failed;
        tr.end(root, answered);
        Round {
            key: i,
            unit_ns: vec![ns],
            ops: answered,
            attempted: batch.requests.len() as u64,
            failed,
            fingerprint: fingerprint(&responses.iter().map(describe).collect::<Vec<_>>()),
        }
    }
}

/// Everything a response reports, for the exact-repeat check.
fn describe(r: &Response) -> String {
    format!("{} {} {:?}", r.request, r.tenant, r.outcome)
}

impl Workload for Sandbox {
    fn variants(&self) -> usize {
        self.batches.len()
    }

    fn round(&mut self, tr: &mut Tracer) -> Round {
        let i = self.next;
        self.next = (i + 1) % self.batches.len();
        self.serve(i, tr)
    }

    /// Times `fork_tenant` for every tenant.
    fn probe(&mut self, tr: &mut Tracer) -> Option<Round> {
        for (id, c) in FLEET.iter().enumerate() {
            for _ in 0..FORKS_PER_PROBE {
                let span = tr.begin_labelled("cheri-vm.fork", || c.name.to_string());
                let vm = self.service.fork_tenant(id);
                tr.end(span, 1);
                drop(vm);
            }
        }
        None
    }

    fn layer_metrics(&mut self, setup: &Tracer, rounds: &Tracer, m: &mut Metrics) {
        m.set(
            "cheri-sandbox.admit_ms",
            setup.totals("cheri-sandbox.admit").mean_ns() / 1e6,
            "ms",
        );
        let summary = rounds.summary();
        for (id, c) in FLEET.iter().enumerate() {
            let fork = summary
                .get(&("cheri-vm.fork", c.name.to_string()))
                .copied()
                .unwrap_or_default();
            m.set(
                format!("cheri-vm.fork_us.{}", c.name),
                fork.mean_ns() / 1e3,
                "us",
            );
            m.set(
                format!("cheri-mem.warm_kib.{}", c.name),
                self.service.warm_bytes(id) as f64 / 1024.0,
                "KiB",
            );
        }
        m.set(
            "cheri-sandbox.serve_us_per_req",
            rounds.totals("cheri-sandbox.serve").ns_per_work() / 1e3,
            "us",
        );
        // Slices and rewinds over every batch (the traced run serves each
        // at least once), so the counts repeat exactly.
        let requests = (self.batches.len() * BATCH_LEN) as f64;
        let (slices, rewinds) = self
            .served
            .iter()
            .flatten()
            .fold((0, 0), |(s, r), x| (s + x.slices, r + x.rewinds));
        m.set(
            "cheri-sandbox.slices_per_req",
            ratio(slices as f64, requests),
            "count",
        );
        m.set(
            "cheri-sandbox.rewind_share",
            ratio(rewinds as f64, requests),
            "ratio",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_answers_match_the_guest_sources() {
        assert_eq!(tree_answer(1, &[]), 2);
        // depth 2: nodes 1, 2, 3 summed twice, then salt 'a' * 31 + 'b'.
        assert_eq!(tree_answer(2, b"ab"), 12 + 97 * 31 + 98);
        assert_eq!(table_answer(&[]), 5381);
        assert_eq!(table_answer(&[0]), 5381 * 33 + 13);
        assert_eq!(oob_answer(&[4]), Expect::Prints("12\n".into()));
        assert_eq!(oob_answer(&[70]), Expect::Prints("18\n".into()));
        assert_eq!(oob_answer(&[5]), Expect::BoundsTrap);
    }

    #[test]
    fn zipf_quota_fills_the_batch() {
        assert_eq!(zipf_quota(8, 64), [23, 12, 8, 6, 5, 4, 3, 3]);
        assert_eq!(zipf_quota(1, 64), [64]);
    }
}
