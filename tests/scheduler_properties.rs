//! Property-based checks on the schedulers themselves:
//!
//! * **Determinism** — same program + seed ⇒ identical final dataspace
//!   and event count, on both schedulers.
//! * **Serial/rounds agreement** — for confluent workloads (pairwise
//!   aggregation with a commutative-associative operation), the rounds
//!   scheduler reaches the same final state as the serial one.
//! * **Conservation** — the job-mover workload never duplicates or loses
//!   tuples under any seed.

use proptest::prelude::*;

use sdl_core::{CompiledProgram, Runtime};
use sdl_dataspace::TupleSource;
use sdl_tuple::{pattern, tuple, Value};

/// A wake-storm workload: `n` consumers each parked on a distinct key of
/// one hot relation, plus `n` producers serialised by a token chain so
/// every `<item, k>` assert lands while the other consumers are still
/// parked. Returns the (spurious, progress) wake counters.
fn wake_storm_counters(n: i64) -> (u64, u64) {
    let program = CompiledProgram::from_source(
        "process C(k) {
            exists x : <item, k, x>! => <got, k>, <tok, k + 1, 0>;
        }
        process P(k) {
            exists x : <tok, k, x>! => <item, k, 0>;
        }",
    )
    .expect("compiles");
    let (metrics, registry) = sdl::metrics::Metrics::registry();
    let mut b = Runtime::builder(program)
        .metrics(metrics)
        .tuple(tuple![Value::atom("tok"), 0, 0]);
    for k in 0..n {
        b = b.spawn("C", vec![Value::Int(k)]);
    }
    for k in 0..n {
        b = b.spawn("P", vec![Value::Int(k)]);
    }
    let mut rt = b.build().expect("builds");
    let report = rt.run().expect("runs");
    assert!(report.outcome.is_completed(), "chain drains: {report}");
    assert_eq!(
        rt.dataspace()
            .count_matches(&pattern![Value::atom("got"), any]),
        n as usize
    );
    (
        registry.counter(sdl::metrics::Counter::WakeSpurious),
        registry.counter(sdl::metrics::Counter::WakeProgress),
    )
}

/// Regression: value-level watch keys must eliminate the spurious-wake
/// storm on keyed-park workloads. A functor/arity key would wake every
/// parked consumer of the hot relation on every commit; value keys wake
/// only the matching one.
#[test]
fn exact_wakes_eliminate_the_wake_storm() {
    let n = 48i64;
    let (spurious, progress) = wake_storm_counters(n);
    assert!(
        progress >= n as u64,
        "every parked process still wakes and commits (progress {progress})"
    );
    assert_eq!(
        spurious, 0,
        "distinct keys never cross-wake under value-level keys"
    );
}

fn sum_runtime(values: &[i64], workers: usize, seed: u64) -> Runtime {
    let program = CompiledProgram::from_source(
        "process W() {
            loop { exists a, b : <v, a>!, <v, b>! -> <v, a + b> }
        }",
    )
    .expect("compiles");
    let mut b = Runtime::builder(program).seed(seed);
    for v in values {
        b = b.tuple(tuple![Value::atom("v"), *v]);
    }
    for _ in 0..workers {
        b = b.spawn("W", vec![]);
    }
    b.build().expect("builds")
}

fn mover_runtime(jobs: &[i64], workers: usize, seed: u64) -> Runtime {
    let program = CompiledProgram::from_source(
        "process W() {
            loop { exists j : <job, j>! -> <done, j> }
            exists j : <job, j> -> <premature, j>;
        }",
    )
    .expect("compiles");
    let mut b = Runtime::builder(program).seed(seed);
    for j in jobs {
        b = b.tuple(tuple![Value::atom("job"), *j]);
    }
    for _ in 0..workers {
        b = b.spawn("W", vec![]);
    }
    b.build().expect("builds")
}

fn dataspace_fingerprint(rt: &Runtime) -> Vec<String> {
    let mut v: Vec<String> = rt.dataspace().iter().map(|(_, t)| t.to_string()).collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pairwise summation is confluent: any seed, any worker count, any
    /// scheduler — one tuple remains and it carries the total.
    #[test]
    fn summation_confluent_across_seeds_and_schedulers(
        values in proptest::collection::vec(-100i64..100, 1..24),
        workers in 1usize..4,
        seed in 0u64..1000,
        rounds in any::<bool>(),
    ) {
        let expected: i64 = values.iter().sum();
        let mut rt = sum_runtime(&values, workers, seed);
        let report = if rounds { rt.run_rounds() } else { rt.run() }.expect("runs");
        prop_assert!(report.outcome.is_completed());
        prop_assert_eq!(rt.dataspace().len(), 1);
        let (_, t) = rt.dataspace().iter().next().expect("one tuple");
        prop_assert_eq!(t[1].clone(), Value::Int(expected));
        prop_assert_eq!(report.commits as usize, values.len() - 1);
    }

    /// Same seed ⇒ byte-identical final dataspace and identical report.
    #[test]
    fn serial_scheduler_is_deterministic(
        values in proptest::collection::vec(0i64..50, 2..16),
        seed in 0u64..1000,
    ) {
        let mut a = sum_runtime(&values, 2, seed);
        let ra = a.run().expect("runs");
        let mut b = sum_runtime(&values, 2, seed);
        let rb = b.run().expect("runs");
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(dataspace_fingerprint(&a), dataspace_fingerprint(&b));
    }

    /// Rounds scheduler is deterministic too.
    #[test]
    fn rounds_scheduler_is_deterministic(
        values in proptest::collection::vec(0i64..50, 2..16),
        seed in 0u64..1000,
    ) {
        let mut a = sum_runtime(&values, 2, seed);
        let ra = a.run_rounds().expect("runs");
        let mut b = sum_runtime(&values, 2, seed);
        let rb = b.run_rounds().expect("runs");
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(dataspace_fingerprint(&a), dataspace_fingerprint(&b));
    }

    /// Job moving conserves the multiset of payloads: every job becomes
    /// exactly one done tuple, under any seed, scheduler, and worker
    /// count; and no worker leaves its loop while a job remains (a guard
    /// that loses a conflict retries rather than ending the loop).
    #[test]
    fn movers_conserve_tuples(
        jobs in proptest::collection::vec(0i64..20, 0..24),
        workers in 1usize..5,
        seed in 0u64..1000,
        rounds in any::<bool>(),
    ) {
        let mut rt = mover_runtime(&jobs, workers, seed);
        let report = if rounds { rt.run_rounds() } else { rt.run() }.expect("runs");
        prop_assert!(report.outcome.is_completed());
        prop_assert_eq!(
            rt.dataspace().count_matches(&pattern![Value::atom("job"), any]),
            0
        );
        prop_assert_eq!(
            rt.dataspace().count_matches(&pattern![Value::atom("premature"), any]),
            0
        );
        let mut got: Vec<i64> = rt
            .dataspace()
            .find_all(&pattern![Value::atom("done"), any])
            .into_iter()
            .map(|id| rt.dataspace().tuple(id).expect("live")[1].as_int().expect("int"))
            .collect();
        got.sort_unstable();
        let mut want = jobs.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// The sort program sorts every permutation under every seed, and the
    /// serial and rounds schedulers agree on the result.
    #[test]
    fn sort_agrees_across_schedulers(
        mut values in proptest::collection::vec(0i64..100, 2..12),
        seed in 0u64..100,
    ) {
        values.dedup(); // duplicates allowed, just shrink noise
        let mut expected = values.clone();
        expected.sort_unstable();
        let mut serial = sdl::workloads::sort_runtime(&values, seed);
        serial.run().expect("runs");
        let mut rounds = sdl::workloads::sort_runtime(&values, seed);
        rounds.run_rounds().expect("runs");
        prop_assert_eq!(
            sdl::workloads::read_sequence(&serial, values.len()),
            expected.clone()
        );
        prop_assert_eq!(
            sdl::workloads::read_sequence(&rounds, values.len()),
            expected
        );
    }
}
