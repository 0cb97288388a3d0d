//! The two kinds of run: an end-to-end run of one workload with tracing
//! off, and a traced run of every workload that yields per-layer metrics.

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{setup, Metrics, Options, Round, WORKLOADS};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Identical set-ups per end-to-end run, spread over the timed window;
/// `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 15;
/// Rounds run before timing starts, so lazy set-up (block compilation,
/// JIT code buffers, the memory pool) has finished.
pub const WARMUP_ROUNDS: usize = 3;

/// What a run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every check passed and no operation failed.
    pub correct: bool,
    /// Checked operations attempted.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// The metrics.
    pub metrics: Metrics,
    /// Measurements printed for people but not reported as metrics: on a
    /// shared host they spread too far between runs to gate a change.
    pub info: Metrics,
}

/// Counts checked operations and enforces that rounds of one key repeat
/// exactly.
#[derive(Debug, Default)]
struct Checker {
    attempted: u64,
    failed: u64,
    seen: HashMap<usize, u64>,
}

impl Checker {
    /// Records `r`; true if it may contribute a timing (nothing failed and
    /// it repeated every earlier round of its key exactly).
    fn record(&mut self, r: &Round) -> bool {
        self.attempted += r.attempted;
        let repeats = *self.seen.entry(r.key).or_insert(r.fingerprint) == r.fingerprint;
        let failed = if repeats { r.failed } else { r.attempted };
        self.failed += failed;
        failed == 0 && r.ops > 0
    }
}

/// Wall ns per operation of a round.
fn ns_per_op(r: &Round) -> f64 {
    r.ns() as f64 / r.ops as f64
}

/// Runs workload `name` for `seconds` with tracing off.
///
/// `ns_per_op` is the fastest time seen for each timed unit of a round
/// (a program run, a `serve` call, a pass over the corpus), summed over
/// the units of every distinct round (every `key`) and divided by their
/// operations. On a shared host, other tenants only ever add time, in
/// stretches of milliseconds to minutes, so the median of a run moves
/// with how much of it they covered; almost every run still has moments
/// they left alone, and the fastest time of each unit comes from one.
///
/// `setup_s` is the median of [`SETUP_SAMPLES`] identical set-ups: the
/// first, which the run keeps, and the rest spread evenly over the timed
/// window, so one slow moment of the host cannot decide it. Set-ups are
/// not part of any round's time.
///
/// # Errors
///
/// A set-up that failed.
pub fn end_to_end(name: &str, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut tr = Tracer::off();
    let timed_setup = |tr: &mut Tracer| {
        let start = Instant::now();
        setup(name, seed, Options::full(), tr).map(|w| (w, start.elapsed().as_secs_f64()))
    };
    let (mut w, first) = timed_setup(&mut tr)?;
    let mut setup_s = vec![first];
    let mut check = Checker::default();
    let (a, f) = w.setup_checks();
    check.attempted += a;
    check.failed += f;

    for _ in 0..WARMUP_ROUNDS {
        let r = w.round(&mut tr);
        check.record(&r);
    }
    let budget = Duration::from_secs(seconds);
    let every = budget / SETUP_SAMPLES as u32;
    let start = Instant::now();
    let mut per_op = Vec::new();
    // Per key: its operations and the fastest time of each unit.
    let mut fastest: HashMap<usize, (u64, Vec<u64>)> = HashMap::new();
    while start.elapsed() < budget {
        if setup_s.len() < SETUP_SAMPLES && start.elapsed() >= every * setup_s.len() as u32 {
            setup_s.push(timed_setup(&mut tr)?.1);
        }
        let r = w.round(&mut tr);
        if check.record(&r) {
            per_op.push(ns_per_op(&r));
            let (_, best) = fastest
                .entry(r.key)
                .or_insert_with(|| (r.ops, r.unit_ns.clone()));
            for (b, &ns) in best.iter_mut().zip(&r.unit_ns) {
                *b = (*b).min(ns);
            }
        }
    }

    let mut m = Metrics::default();
    let mut info = Metrics::default();
    if !per_op.is_empty() {
        let (ns, ops) = fastest.values().fold((0, 0), |(ns, ops), (o, best)| {
            (ns + best.iter().sum::<u64>(), ops + o)
        });
        m.set("ns_per_op", ns as f64 / ops as f64, "ns");
        info.set("timed_rounds", per_op.len() as f64, "count");
        info.set("median_ns_per_op", median(&per_op), "ns");
        info.set("p90_ns_per_op", quantile(&per_op, 0.9), "ns");
    }
    m.set("setup_s", median(&setup_s), "s");
    info.set("setup_samples", setup_s.len() as f64, "count");
    info.set("peak_rss_mib", peak_rss_mib(), "MiB");
    Ok(Report {
        correct: check.failed == 0 && !per_op.is_empty(),
        attempted: check.attempted,
        failed: check.failed,
        metrics: m,
        info,
    })
}

/// Runs every workload traced for a quarter of `seconds` each and derives
/// the per-layer metrics from the spans. Untraced and traced rounds
/// alternate, so each workload's tracing overhead is measured under the
/// same host conditions. Returns the report and the spans as JSON lines.
///
/// # Errors
///
/// A set-up that failed.
pub fn traced(seed: u64, seconds: u64) -> Result<(Report, String), String> {
    let budget = Duration::from_secs_f64(seconds as f64 / WORKLOADS.len() as f64);
    let mut m = Metrics::default();
    let mut check = Checker::default();
    let mut jsonl = String::new();
    for name in WORKLOADS {
        reset_peak_rss();
        let mut setup_tr = Tracer::on();
        setup_tr.next_trace();
        let root = setup_tr.begin("perfbench.setup");
        let mut w = setup(name, seed, Options::full(), &mut setup_tr)?;
        setup_tr.end(root, 1);
        let (a, f) = w.setup_checks();
        check.attempted += a;
        check.failed += f;
        // Each workload's rounds are checked against their own first run.
        check.seen.clear();

        let mut tr = Tracer::off();
        for _ in 0..WARMUP_ROUNDS {
            let r = w.round(&mut tr);
            check.record(&r);
        }
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut rounds = WARMUP_ROUNDS;
        let start = Instant::now();
        while start.elapsed() < budget || traced.is_empty() || rounds < w.variants() {
            rounds += 2;
            tr.set_on(false);
            let r = w.round(&mut tr);
            if check.record(&r) {
                plain.push(ns_per_op(&r));
            }
            tr.set_on(true);
            tr.next_trace();
            let r = w.round(&mut tr);
            if check.record(&r) {
                traced.push(ns_per_op(&r));
            }
            tr.next_trace();
            if let Some(r) = w.probe(&mut tr) {
                check.record(&r);
            }
        }
        tr.set_on(false);
        let overhead = if plain.is_empty() || traced.is_empty() {
            0.0
        } else {
            median(&traced) / median(&plain)
        };
        m.set(
            format!("perfbench.trace_overhead.{name}"),
            overhead,
            "ratio",
        );
        if !plain.is_empty() {
            m.set(
                format!("perfbench.p90_ns_per_op.{name}"),
                quantile(&plain, 0.9),
                "ns",
            );
        }
        m.set(
            format!("perfbench.peak_rss_mib.{name}"),
            peak_rss_mib(),
            "MiB",
        );
        // Round time outside every layer span: checks, and machines being
        // dropped back to the memory pool.
        let rounds = tr.totals("perfbench.round");
        m.set(
            format!("perfbench.unattributed_share.{name}"),
            crate::trace::ratio(rounds.self_ns as f64, rounds.dur_ns as f64),
            "ratio",
        );
        w.layer_metrics(&setup_tr, &tr, &mut m);
        jsonl.push_str(&setup_tr.to_jsonl(name));
        jsonl.push_str(&tr.to_jsonl(name));
    }
    let report = Report {
        correct: check.failed == 0,
        attempted: check.attempted,
        failed: check.failed,
        metrics: m,
        info: Metrics::default(),
    };
    Ok((report, jsonl))
}

/// Resets the peak resident set size to the current one, so the next
/// [`peak_rss_mib`] covers only what runs from now on (Linux; elsewhere a
/// no-op).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
