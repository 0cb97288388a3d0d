//! No benchmark number may come from a backend that computes something
//! else: at a small size, every workload that runs the VM must produce,
//! under every `BackendKind`, exactly the outputs, instruction counts and
//! simulated cycles of the `Reference` backend.

use cheri_vm::BackendKind;
use perfbench::trace::Tracer;
use perfbench::{setup, Options, Round, WORKLOADS};

fn first_round(workload: &str, seed: u64, opts: Options) -> Round {
    let mut tr = Tracer::off();
    let mut w = setup(workload, seed, opts, &mut tr).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert_eq!(w.setup_checks().1, 0, "{workload}: a set-up check failed");
    w.round(&mut tr)
}

#[test]
fn every_backend_reproduces_the_reference_backend() {
    for workload in ["olden-fpga", "kernels-functional", "sandbox-serve"] {
        let reference = first_round(workload, 7, Options::small(BackendKind::Reference));
        assert_eq!(
            reference.failed, 0,
            "{workload}: the reference round failed a check"
        );
        assert!(reference.ops > 0);
        for kind in BackendKind::ALL {
            let r = first_round(workload, 7, Options::small(kind));
            assert_eq!(r.failed, 0, "{workload}/{}: a check failed", kind.name());
            assert_eq!(r.ops, reference.ops, "{workload}/{}", kind.name());
            // The fingerprint covers every output, instruction count,
            // cycle count, cache statistic and sandbox response.
            assert_eq!(
                r.fingerprint,
                reference.fingerprint,
                "{workload}/{}",
                kind.name()
            );
        }
    }
}

#[test]
fn rounds_repeat_exactly_and_follow_the_seed() {
    for workload in WORKLOADS {
        let opts = Options::small(BackendKind::Template);
        let a = first_round(workload, 3, opts);
        let b = first_round(workload, 3, opts);
        assert_eq!(a.failed, 0, "{workload}");
        assert_eq!(
            (a.ops, a.fingerprint),
            (b.ops, b.fingerprint),
            "{workload}: same seed, same round"
        );
        let c = first_round(workload, 4, opts);
        assert_ne!(
            a.fingerprint, c.fingerprint,
            "{workload}: the seed must change the inputs"
        );
    }
}
