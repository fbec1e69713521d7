//! Linda clients of the server agree with SDL on shared workloads, and
//! the runtime holds up at "large-scale concurrency" process counts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use sdl::metrics::Metrics;
use sdl::server::{serve, Client, ServerConfig};
use sdl::workloads::{random_array, sum3_runtime};
use sdl_core::{CompiledProgram, Outcome, Runtime};
use sdl_dataspace::TupleSource;
use sdl_tuple::{pattern, tuple, Value};

#[test]
fn linda_workers_sum_like_sdl() {
    let values = random_array(64, 5);
    let expected: i64 = values.iter().sum();

    // SDL: the Sum3 replication.
    let mut rt = sum3_runtime(&values, 0);
    rt.run().unwrap();
    assert_eq!(sdl::workloads::final_sum(&rt), expected);

    // Linda, over the server's one-tuple operations: workers take two
    // tuples and put back the sum. Two one-tuple `inp`s are *not* atomic
    // together, so a worker holding one tuple must put it back if no
    // partner is available — exactly the awkwardness SDL's multi-tuple
    // transactions remove.
    let server = serve(ServerConfig::default(), Metrics::disabled()).expect("bind");
    let connect = || {
        let mut c = Client::connect(server.addr()).expect("connect");
        c.set_timeout(Some(Duration::from_secs(10))).unwrap();
        c
    };
    let mut c = connect();
    for v in &values {
        c.out(tuple![Value::atom("v"), *v]).unwrap();
    }
    let merges = values.len() - 1;
    let merged = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let mut w = connect();
            let merged = &merged;
            s.spawn(move || {
                let v = || pattern![Value::atom("v"), any];
                while merged.load(Ordering::SeqCst) < merges {
                    let Some(a) = w.try_take(v()).unwrap() else {
                        continue; // every tuple is in some worker's hands
                    };
                    match w.try_take(v()).unwrap() {
                        Some(b) => {
                            let sum = a[1].as_int().unwrap() + b[1].as_int().unwrap();
                            w.out(tuple![Value::atom("v"), sum]).unwrap();
                            merged.fetch_add(1, Ordering::SeqCst);
                        }
                        None => w.out(a).unwrap(), // no partner: put it back
                    }
                }
            });
        }
    });
    // One tuple is left, so a worker that takes it finds no partner and
    // has to put it back for the sum to survive.
    let v = || pattern![Value::atom("v"), any];
    let last = c.take(v()).unwrap();
    assert_eq!(c.try_take(v()).unwrap(), None, "no partner");
    c.out(last).unwrap();
    assert_eq!(c.read(v()).unwrap()[1], Value::Int(expected));
    server.shutdown().expect("shutdown");
}

#[test]
fn ten_thousand_processes_run_to_completion() {
    // "Programs involving many thousands of concurrent processes":
    // 5000 producers + 5000 consumers, each consumer blocking until its
    // producer's item appears.
    let n = 5000i64;
    let program = CompiledProgram::from_source(
        "process Producer(k) { -> <item, k>; }
         process Consumer(k) { exists v : <item, k>! => ; }",
    )
    .unwrap();
    let mut b = Runtime::builder(program).seed(1);
    // Consumers first, so most block before their producer runs.
    for k in 0..n {
        b = b.spawn("Consumer", vec![Value::Int(k)]);
    }
    for k in 0..n {
        b = b.spawn("Producer", vec![Value::Int(k)]);
    }
    let mut rt = b.build().unwrap();
    let report = rt.run().unwrap();
    assert!(report.outcome.is_completed(), "{:?}", report.outcome);
    assert_eq!(report.processes_created, 2 * n as u64);
    assert!(rt.dataspace().is_empty());
}

#[test]
fn deep_spawn_chain() {
    // Process creation like the paper's Search recursion, 2000 deep.
    let program = CompiledProgram::from_source(
        "process Hop(k) {
            select {
                k > 0 -> spawn Hop(k - 1)
              | k == 0 -> <bottom>
            }
         }",
    )
    .unwrap();
    let mut rt = Runtime::builder(program)
        .spawn("Hop", vec![Value::Int(2000)])
        .build()
        .unwrap();
    let report = rt.run().unwrap();
    assert!(report.outcome.is_completed());
    assert!(rt
        .dataspace()
        .contains_match(&pattern![Value::atom("bottom")]));
    assert_eq!(report.processes_created, 2001);
}

#[test]
fn threaded_executor_scales_job_pool() {
    use sdl_core::parallel::ParallelRuntime;
    let program = CompiledProgram::from_source(
        "process Worker() {
            loop { exists j : <job, j>! -> <done, j> }
         }",
    )
    .unwrap();
    for threads in [1usize, 4] {
        let mut b = ParallelRuntime::builder(program.clone())
            .threads(threads)
            .seed(7);
        for j in 0..500i64 {
            b = b.tuple(tuple![Value::atom("job"), j]);
        }
        for _ in 0..threads * 2 {
            b = b.spawn("Worker", vec![]);
        }
        let (report, ds) = b.build().unwrap().run().unwrap();
        assert!(report.outcome.is_completed());
        assert_eq!(report.commits, 500, "threads={threads}");
        assert_eq!(ds.count_matches(&pattern![Value::atom("done"), any]), 500);
    }
}

#[test]
fn quiescent_society_reports_every_blocked_process() {
    let program =
        CompiledProgram::from_source("process Waiter(k) { exists v : <never, k> => ; }").unwrap();
    let mut b = Runtime::builder(program);
    for k in 0..100i64 {
        b = b.spawn("Waiter", vec![Value::Int(k)]);
    }
    let mut rt = b.build().unwrap();
    let report = rt.run().unwrap();
    match report.outcome {
        Outcome::Quiescent { blocked } => assert_eq!(blocked.len(), 100),
        other => panic!("expected quiescence, got {other:?}"),
    }

    // Consensus-blocked processes that import nothing are 100
    // communities of one; the report names each one's own.
    let program = CompiledProgram::from_source(
        "process Agreer(k) { import { <k, *>; } <never, k> @> skip; }",
    )
    .unwrap();
    let mut b = Runtime::builder(program);
    for k in 0..100i64 {
        b = b.spawn("Agreer", vec![Value::Int(k)]);
    }
    let mut rt = b.build().unwrap();
    let Outcome::Quiescent { blocked } = rt.run().unwrap().outcome else {
        panic!("expected quiescence");
    };
    assert_eq!(blocked.len(), 100);
    let text = rt.blocked_report();
    for pid in blocked {
        let line = format!(
            "{pid} Agreer: blocked on consensus (community {{{pid}}} is all at a consensus guard"
        );
        assert!(text.contains(&line), "no `{line}` in {text}");
    }
}
