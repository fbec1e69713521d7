//! End-to-end runtime tests: complete SDL programs through parser,
//! compiler, and both schedulers, including the paper's §3 examples.

use sdl_dataspace::TupleSource;
use sdl_tuple::{pattern, Value};

use crate::{Builtins, CompiledProgram, Outcome, Runtime};

fn run_src(src: &str, seed: u64) -> Runtime {
    let program = CompiledProgram::from_source(src).unwrap();
    let mut rt = Runtime::builder(program).seed(seed).build().unwrap();
    rt.run().unwrap();
    rt
}

fn atom(s: &str) -> Value {
    Value::atom(s)
}

#[test]
fn membership_test_has_no_effect() {
    let rt = run_src(
        "process P() { <year, 87> -> <seen>; <year, 99> -> <not_seen>; }
         init { <year, 87>; spawn P(); }",
        0,
    );
    assert_eq!(rt.dataspace().count_matches(&pattern![atom("seen")]), 1);
    assert_eq!(rt.dataspace().count_matches(&pattern![atom("not_seen")]), 0);
    assert_eq!(rt.dataspace().count_matches(&pattern![atom("year"), 87]), 1);
}

#[test]
fn retraction_removes_one_instance() {
    let rt = run_src(
        "process P() { <x>! -> ; }
         init { <x>; <x>; spawn P(); }",
        0,
    );
    assert_eq!(rt.dataspace().count_value(&sdl_tuple::tuple![atom("x")]), 1);
}

#[test]
fn delayed_transaction_waits_for_producer() {
    let rt = run_src(
        "process Consumer() { exists v : <item, v>! => <consumed, v>; }
         process Producer() { -> <item, 7>; }
         init { spawn Consumer(); spawn Producer(); }",
        0,
    );
    assert!(rt
        .dataspace()
        .contains_match(&pattern![atom("consumed"), 7]));
}

#[test]
fn delayed_transaction_quiesces_without_producer() {
    let program = CompiledProgram::from_source(
        "process Consumer() { exists v : <item, v>! => <consumed, v>; }
         init { spawn Consumer(); }",
    )
    .unwrap();
    let mut rt = Runtime::builder(program).build().unwrap();
    let report = rt.run().unwrap();
    match report.outcome {
        Outcome::Quiescent { blocked } => assert_eq!(blocked.len(), 1),
        other => panic!("expected quiescence, got {other:?}"),
    }
}

#[test]
fn selection_commits_exactly_one_branch() {
    let rt = run_src(
        "process P() {
            select { <a>! -> <took_a> | <b>! -> <took_b> }
         }
         init { <a>; <b>; spawn P(); }",
        3,
    );
    let took = rt.dataspace().count_matches(&pattern![atom("took_a")])
        + rt.dataspace().count_matches(&pattern![atom("took_b")]);
    assert_eq!(took, 1, "exactly one guarded sequence commits");
    assert_eq!(
        rt.dataspace().len(),
        2,
        "one of a/b retracted, one marker asserted"
    );
}

#[test]
fn selection_with_no_enabled_immediate_guard_skips() {
    let rt = run_src(
        "process P() {
            select { <nope>! -> <bad> }
            -> <after>;
         }
         init { spawn P(); }",
        0,
    );
    assert!(rt.dataspace().contains_match(&pattern![atom("after")]));
    assert!(!rt.dataspace().contains_match(&pattern![atom("bad")]));
}

#[test]
fn selection_branch_sequence_runs_after_guard() {
    let rt = run_src(
        "process P() {
            select {
                <go>! -> <step1>;
                    -> <step2>;
                    -> <step3>;
            }
         }
         init { <go>; spawn P(); }",
        0,
    );
    for s in ["step1", "step2", "step3"] {
        assert!(rt.dataspace().contains_match(&pattern![atom(s)]), "{s}");
    }
}

#[test]
fn repetition_drains_matching_tuples() {
    // The paper's §2.3 example: pair positive indices with values,
    // discard non-positive indices, exit when no indices remain.
    let rt = run_src(
        "process P() {
            loop {
                exists i, v : <index, i>!, <value, v>! : i > 0 -> <i, v>
              | exists i : <index, i>! : i <= 0 -> skip
              | not <index, *> -> exit
            }
         }
         init {
            <index, 1>; <index, 2>; <index, 0>;
            <value, 10>; <value, 20>;
            spawn P();
         }",
        1,
    );
    assert_eq!(
        rt.dataspace().count_matches(&pattern![atom("index"), any]),
        0
    );
    assert_eq!(
        rt.dataspace().count_matches(&pattern![atom("value"), any]),
        0
    );
    assert_eq!(rt.dataspace().len(), 2, "two pairs built");
}

#[test]
fn exit_terminates_only_innermost_loop() {
    let rt = run_src(
        "process P() {
            loop {
                <ticket>! -> ;
                    loop { <inner>! -> exit }
                    -> <outer_pass>;
            }
            -> <done>;
         }
         init { <ticket>; <ticket>; <inner>; <inner>; spawn P(); }",
        0,
    );
    assert!(rt.dataspace().contains_match(&pattern![atom("done")]));
    assert_eq!(
        rt.dataspace().count_matches(&pattern![atom("outer_pass")]),
        2,
        "outer loop survived inner exits"
    );
}

#[test]
fn abort_terminates_process_immediately() {
    let rt = run_src(
        "process P() { <poison>! -> abort; -> <unreachable>; }
         init { <poison>; spawn P(); }",
        0,
    );
    assert!(!rt
        .dataspace()
        .contains_match(&pattern![atom("unreachable")]));
}

#[test]
fn let_binds_process_constant() {
    let rt = run_src(
        "process P() {
            exists a : <year, a>! : a > 87 -> let N = a;
            -> <found, N>;
         }
         init { <year, 90>; spawn P(); }",
        0,
    );
    assert!(rt.dataspace().contains_match(&pattern![atom("found"), 90]));
}

#[test]
fn spawn_creates_processes_dynamically() {
    // The paper's §3.2 Search: recursive traversal by process creation.
    let rt = run_src(
        "process Search(id, P) {
            select {
                exists v : <id, P, v, *> -> <P, v>
              | exists pi, n : <id, pi, *, n> : pi != P and n != nil -> spawn Search(n, P)
              | exists pi2 : <id, pi2, *, nil> : pi2 != P -> <P, not_found>
            }
         }
         init {
            <n1, color, red, n2>;
            <n2, size, big, n3>;
            <n3, weight, 10, nil>;
            spawn Search(n1, weight);
         }",
        0,
    );
    assert!(rt.dataspace().contains_match(&pattern![atom("weight"), 10]));
}

#[test]
fn find_by_content_single_transaction() {
    // The paper's §3.2 Find: content addressing beats traversal.
    let rt = run_src(
        "process Find(P) {
            select {
                exists v : <*, P, v, *> -> <P, v>
              | not <*, P, *, *> -> <P, not_found>
            }
         }
         init {
            <n1, color, red, n2>;
            <n2, size, big, nil>;
            spawn Find(size);
            spawn Find(taste);
         }",
        0,
    );
    assert!(rt
        .dataspace()
        .contains_match(&pattern![atom("size"), atom("big")]));
    assert!(rt
        .dataspace()
        .contains_match(&pattern![atom("taste"), atom("not_found")]));
}

#[test]
fn replication_sums_array_serial() {
    // §3.1 Sum3 at N = 16.
    let program = CompiledProgram::from_source(
        "process Sum3() {
            par { exists n, a, m, b : <n, a>!, <m, b>! : n != m -> <m, a + b> }
         }
         init { spawn Sum3(); }",
    )
    .unwrap();
    let n = 16i64;
    let mut builder = Runtime::builder(program).seed(7);
    for k in 1..=n {
        builder = builder.tuple(sdl_tuple::tuple![k, k * 3]);
    }
    let mut rt = builder.build().unwrap();
    let report = rt.run().unwrap();
    assert!(report.outcome.is_completed());
    assert_eq!(rt.dataspace().len(), 1);
    let (_, t) = rt.dataspace().iter().next().unwrap();
    let expected: i64 = (1..=n).map(|k| k * 3).sum();
    assert_eq!(t[1], Value::Int(expected));
    assert_eq!(report.commits as i64, n - 1, "N-1 pair additions");
}

#[test]
fn replication_rounds_are_logarithmic() {
    // §3.1: with round-level parallelism the replication needs ~log2 N
    // rounds, not N.
    let n = 64i64;
    let program = CompiledProgram::from_source(
        "process Sum3() {
            par { exists n, a, m, b : <n, a>!, <m, b>! : n != m -> <m, a + b> }
         }
         init { spawn Sum3(); }",
    )
    .unwrap();
    let mut builder = Runtime::builder(program).seed(7);
    for k in 1..=n {
        builder = builder.tuple(sdl_tuple::tuple![k, 1i64]);
    }
    let mut rt = builder.build().unwrap();
    let report = rt.run_rounds().unwrap();
    assert!(report.outcome.is_completed());
    let (_, t) = rt.dataspace().iter().next().unwrap();
    assert_eq!(t[1], Value::Int(n));
    // log2(64) = 6 combining rounds, plus bounded bookkeeping rounds.
    assert!(
        report.rounds <= 12,
        "expected O(log N) rounds, got {}",
        report.rounds
    );
    assert!(report.rounds >= 6);
}

#[test]
fn replication_body_helpers_run_concurrently() {
    let rt = run_src(
        "process P() {
            par {
                exists j : <job, j>! -> let J = j;
                    -> <started, J>;
                    -> <finished, J>;
            }
            -> <all_done>;
         }
         init { <job, 1>; <job, 2>; <job, 3>; spawn P(); }",
        5,
    );
    assert_eq!(
        rt.dataspace()
            .count_matches(&pattern![atom("finished"), any]),
        3
    );
    assert!(
        rt.dataspace().contains_match(&pattern![atom("all_done")]),
        "replication waited for its bodies"
    );
}

#[test]
fn consensus_barrier_synchronises_two_processes() {
    // Both processes do a step, then meet at a consensus barrier, then
    // record the second phase. Neither may start phase 2 before both
    // finished phase 1.
    let rt = run_src(
        "process W(me) {
            -> <phase1, me>;
            <phase1, 1>, <phase1, 2> @> skip;
            -> <phase2, me>;
         }
         init { spawn W(1); spawn W(2); }",
        0,
    );
    assert_eq!(
        rt.dataspace().count_matches(&pattern![atom("phase2"), any]),
        2
    );
}

#[test]
fn consensus_query_failure_blocks_everyone() {
    let program = CompiledProgram::from_source(
        "process W(me) {
            <never> @> skip;
            -> <after, me>;
         }
         init { <something>; spawn W(1); spawn W(2); }",
    )
    .unwrap();
    let mut rt = Runtime::builder(program).build().unwrap();
    let report = rt.run().unwrap();
    assert!(matches!(report.outcome, Outcome::Quiescent { .. }));
    assert!(!rt.dataspace().contains_match(&pattern![atom("after"), any]));
}

#[test]
fn sum1_consensus_phases() {
    // §3.1 Sum1: synchronous summation with an explicit consensus
    // barrier per phase. N = 8 → exactly 3 phases.
    let src = "
        process Sum1(k, j) {
            exists a, b : <k - 2^(j-1), a>!, <k, b>! -> <k, a + b>;
            select {
                k mod 2^(j+1) == 0 @> spawn Sum1(k, j+1)
              | k mod 2^(j+1) != 0 @> skip
            }
        }
        init { spawn Sum1(2, 1); spawn Sum1(4, 1); spawn Sum1(6, 1); spawn Sum1(8, 1); }
    ";
    let program = CompiledProgram::from_source(src).unwrap();
    let mut builder = Runtime::builder(program).seed(11);
    for k in 1..=8i64 {
        builder = builder.tuple(sdl_tuple::tuple![k, k]);
    }
    let mut rt = builder.build().unwrap();
    let report = rt.run().unwrap();
    assert!(
        report.outcome.is_completed(),
        "outcome: {:?}",
        report.outcome
    );
    assert_eq!(rt.dataspace().len(), 1);
    let (_, t) = rt.dataspace().iter().next().unwrap();
    assert_eq!(t[0], Value::Int(8));
    assert_eq!(t[1], Value::Int(36), "1+2+...+8");
    // One consensus firing after each of the 3 phases (the last phase's
    // consensus has only the k=8 process left once others skip out).
    assert_eq!(report.consensus_rounds, 3, "a = log2 8 barriers");
}

#[test]
fn sum2_delayed_phases() {
    // §3.1 Sum2: asynchronous, phase-tagged.
    let src = "
        process Sum2(k, j) {
            exists a, b : <k - 2^(j-1), a, j>!, <k, b, j>! => <k, a + b, j + 1>;
        }
    ";
    let program = CompiledProgram::from_source(src).unwrap();
    let n = 16i64;
    let mut builder = Runtime::builder(program).seed(3);
    for k in 1..=n {
        builder = builder.tuple(sdl_tuple::tuple![k, k, 1i64]);
    }
    // Society: Sum2(k, j) for each k divisible by 2^j.
    let mut j = 1i64;
    while 2i64.pow(j as u32) <= n {
        let stride = 2i64.pow(j as u32);
        let mut k = stride;
        while k <= n {
            builder = builder.spawn("Sum2", vec![Value::Int(k), Value::Int(j)]);
            k += stride;
        }
        j += 1;
    }
    let mut rt = builder.build().unwrap();
    let report = rt.run().unwrap();
    assert!(report.outcome.is_completed());
    assert_eq!(rt.dataspace().len(), 1);
    let (_, t) = rt.dataspace().iter().next().unwrap();
    assert_eq!(t[1], Value::Int((1..=n).sum::<i64>()));
    assert_eq!(report.consensus_rounds, 0, "no barriers needed");
}

#[test]
fn sort_with_views_and_consensus_termination() {
    // §3.2 Sort: neighbour exchange with consensus-detected termination.
    // Node k holds <k, value>; Sort(k, k+1) swaps out-of-order pairs and
    // exits when its pair is ordered *and* every other Sort process
    // agrees (the chain of overlapping views forms one community).
    let src = "
        process Sort(this, next) {
            import { <this, *>; <next, *>; }
            export { <this, *>; <next, *>; }
            loop {
                exists a, b : <this, a>!, <next, b>! : a > b
                    -> <this, b>, <next, a>
              | exists a2, b2 : <this, a2>, <next, b2> : a2 <= b2 @> exit
            }
        }
    ";
    let program = CompiledProgram::from_source(src).unwrap();
    let values = vec![5i64, 3, 9, 1, 7, 2, 8, 4];
    let n = values.len() as i64;
    let mut builder = Runtime::builder(program).seed(13);
    for (i, v) in values.iter().enumerate() {
        builder = builder.tuple(sdl_tuple::tuple![i as i64 + 1, *v]);
    }
    for i in 1..n {
        builder = builder.spawn("Sort", vec![Value::Int(i), Value::Int(i + 1)]);
    }
    let mut rt = builder.build().unwrap();
    let report = rt.run().unwrap();
    assert!(
        report.outcome.is_completed(),
        "outcome: {:?}",
        report.outcome
    );
    // Extract the sorted sequence.
    let mut got = Vec::new();
    for i in 1..=n {
        let ids = rt.dataspace().find_all(&pattern![i, any]);
        assert_eq!(ids.len(), 1, "node {i}");
        got.push(rt.dataspace().tuple(ids[0]).unwrap()[1].as_int().unwrap());
    }
    let mut expected = values.clone();
    expected.sort_unstable();
    assert_eq!(got, expected);
    assert!(report.consensus_rounds >= 1, "termination via consensus");
}

#[test]
fn export_filtering_drops_foreign_tuples() {
    let program = CompiledProgram::from_source(
        "process P() {
            export { <allowed, *>; }
            -> <allowed, 1>, <forbidden, 2>;
         }
         init { spawn P(); }",
    )
    .unwrap();
    let tracer = crate::Tracer::new();
    let mut rt = Runtime::builder(program)
        .tracer(tracer.clone())
        .build()
        .unwrap();
    rt.run().unwrap();
    assert!(rt.dataspace().contains_match(&pattern![atom("allowed"), 1]));
    assert!(!rt
        .dataspace()
        .contains_match(&pattern![atom("forbidden"), 2]));
    let dropped: usize = tracer
        .take()
        .iter()
        .map(|r| match r {
            crate::TraceRecord::Commit { asserted, .. } => {
                asserted.iter().filter(|a| a.1.is_none()).count()
            }
            _ => 0,
        })
        .sum();
    assert_eq!(dropped, 1);
}

#[test]
fn import_restricts_what_a_transaction_sees() {
    let rt = run_src(
        "process P() {
            import { <mine, *>; }
            select {
                exists v : <other, v> -> <saw_other>
              | exists v2 : <mine, v2> -> <saw_mine, v2>
            }
         }
         init { <mine, 1>; <other, 2>; spawn P(); }",
        0,
    );
    assert!(rt
        .dataspace()
        .contains_match(&pattern![atom("saw_mine"), 1]));
    assert!(!rt.dataspace().contains_match(&pattern![atom("saw_other")]));
}

#[test]
fn determinism_same_seed_same_trace() {
    let src = "
        process W() {
            loop { exists a, b : <v, a>!, <v, b>! -> <v, a + b> }
        }
        init {
            <v, 1>; <v, 2>; <v, 3>; <v, 4>; <v, 5>;
            spawn W(); spawn W(); spawn W();
        }
    ";
    let runs: Vec<(u64, usize, Vec<String>)> = (0..2)
        .map(|_| {
            let program = CompiledProgram::from_source(src).unwrap();
            let tracer = crate::Tracer::new();
            let mut rt = Runtime::builder(program)
                .seed(99)
                .tracer(tracer.clone())
                .build()
                .unwrap();
            let report = rt.run().unwrap();
            let tuples: Vec<String> = rt.dataspace().iter().map(|(_, t)| t.to_string()).collect();
            (report.commits, tracer.take().len(), tuples)
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
}

#[test]
fn different_seeds_may_differ_but_agree_on_sum() {
    let src = "
        process W() {
            loop { exists a, b : <v, a>!, <v, b>! -> <v, a + b> }
        }
        init { <v, 1>; <v, 2>; <v, 4>; <v, 8>; spawn W(); spawn W(); }
    ";
    for seed in 0..5 {
        let program = CompiledProgram::from_source(src).unwrap();
        let mut rt = Runtime::builder(program).seed(seed).build().unwrap();
        rt.run().unwrap();
        assert_eq!(rt.dataspace().len(), 1);
        let (_, t) = rt.dataspace().iter().next().unwrap();
        assert_eq!(t[1], Value::Int(15), "seed {seed}");
    }
}

#[test]
fn rounds_scheduler_agrees_with_serial_on_final_state() {
    let src = "
        process Sum3() {
            par { exists n, a, m, b : <n, a>!, <m, b>! : n != m -> <m, a + b> }
        }
        init { spawn Sum3(); }
    ";
    for seed in [0, 1, 2] {
        let make = || {
            let program = CompiledProgram::from_source(src).unwrap();
            let mut b = Runtime::builder(program).seed(seed);
            for k in 1..=32i64 {
                b = b.tuple(sdl_tuple::tuple![k, k * k]);
            }
            b.build().unwrap()
        };
        let mut serial = make();
        serial.run().unwrap();
        let mut rounds = make();
        rounds.run_rounds().unwrap();
        let sum = |rt: &Runtime| rt.dataspace().iter().next().unwrap().1[1].clone();
        assert_eq!(sum(&serial), sum(&rounds), "seed {seed}");
    }
}

#[test]
fn forall_transaction_retracts_everything_at_once() {
    let rt = run_src(
        "process P() {
            forall v : <item, v>! -> <moved, v>;
         }
         init { <item, 1>; <item, 2>; <item, 3>; spawn P(); }",
        0,
    );
    assert_eq!(
        rt.dataspace().count_matches(&pattern![atom("item"), any]),
        0
    );
    assert_eq!(
        rt.dataspace().count_matches(&pattern![atom("moved"), any]),
        3
    );
}

#[test]
fn builtin_predicates_in_queries() {
    let program = CompiledProgram::from_source(
        "process P() {
            loop { exists v : <n, v>! : even(v) -> <even_n, v> }
         }
         init { <n, 1>; <n, 2>; <n, 3>; <n, 4>; spawn P(); }",
    )
    .unwrap();
    let mut rt = Runtime::builder(program)
        .builtins(Builtins::standard())
        .build()
        .unwrap();
    rt.run().unwrap();
    assert_eq!(
        rt.dataspace().count_matches(&pattern![atom("even_n"), any]),
        2
    );
    assert_eq!(rt.dataspace().count_matches(&pattern![atom("n"), any]), 2);
}

#[test]
fn step_limit_stops_runaway_programs() {
    let program = CompiledProgram::from_source(
        "process P() { loop { -> <junk> } }
         init { spawn P(); }",
    )
    .unwrap();
    let mut rt = Runtime::builder(program)
        .limits(crate::RunLimits { max_attempts: 100 })
        .build()
        .unwrap();
    let report = rt.run().unwrap();
    assert_eq!(report.outcome, Outcome::StepLimit);
}

#[test]
fn tuples_survive_their_creator() {
    // "Tuples ... can survive the termination of the creating process."
    let rt = run_src(
        "process Short() { -> <legacy, 42>; }
         process Reader() { exists v : <legacy, v> => <read, v>; }
         init { spawn Short(); spawn Reader(); }",
        0,
    );
    assert!(rt.dataspace().contains_match(&pattern![atom("legacy"), 42]));
    assert!(rt.dataspace().contains_match(&pattern![atom("read"), 42]));
}

#[test]
fn tuple_ownership_recorded() {
    let program = CompiledProgram::from_source(
        "process P() { -> <made_by_p>; }
         init { <made_by_env>; spawn P(); }",
    )
    .unwrap();
    let mut rt = Runtime::builder(program).build().unwrap();
    rt.run().unwrap();
    let env_made = rt.dataspace().find_all(&pattern![atom("made_by_env")])[0];
    let p_made = rt.dataspace().find_all(&pattern![atom("made_by_p")])[0];
    assert_eq!(env_made.owner, sdl_tuple::ProcId::ENV);
    assert_ne!(p_made.owner, sdl_tuple::ProcId::ENV);
}

#[test]
fn consensus_communities_fire_independently() {
    // Two disjoint communities (disjoint views): each pair meets its own
    // barrier without waiting for the other pair.
    let src = "
        process W(g, me) {
            import { <g, *>; }
            export { <g, *>; }
            -> <g, me>;
            <g, 1>, <g, 2> @> skip;
            -> <g, done>;
        }
        init { spawn W(left, 1); spawn W(left, 2); spawn W(right, 1); spawn W(right, 2); }
    ";
    let rt = run_src(src, 0);
    assert_eq!(
        rt.dataspace().count_matches(&pattern![any, atom("done")]),
        4
    );
}

#[test]
fn a_community_completed_by_an_exit_fires_at_idle() {
    // A(1) and A(2) park at their consensus with C still running; all
    // three import <pool, 1>. C never reaches a consensus guard: it
    // commits and exits, which leaves {A(1), A(2)} complete with no
    // member parking again. Only the idle scan can fire it.
    use crate::trace::{TraceRecord, Tracer};
    use sdl_lang::ast::TxnKind;

    let program = CompiledProgram::from_source(
        "process A(me) { import { <pool, *>; } <pool, 1> @> <fired, me>; }
         process C() { import { <pool, *>; } -> <c_done>; }
         init { <pool, 1>; spawn A(1); spawn A(2); spawn C(); }",
    )
    .unwrap();
    let tracer = Tracer::new();
    let mut rt = Runtime::builder(program)
        .tracer(tracer.clone())
        .build()
        .unwrap();
    let report = rt.run().unwrap();
    assert!(report.outcome.is_completed(), "{:?}", report.outcome);
    assert_eq!(report.consensus_rounds, 1);
    assert_eq!(
        rt.dataspace().count_matches(&pattern![atom("fired"), any]),
        2
    );
    let records = tracer.take();
    let at = |found: &dyn Fn(&TraceRecord) -> bool| records.iter().position(found).unwrap();
    let c_exit = at(&|r| matches!(r, TraceRecord::Exit { pid, .. } if pid.0 == 3));
    let fired =
        at(&|r| matches!(r, TraceRecord::Commit { parts, .. } if parts[0].1 == TxnKind::Consensus));
    assert!(c_exit < fired, "the exit completes the community");
    assert!(
        !records[c_exit..fired]
            .iter()
            .any(|r| matches!(r, TraceRecord::Park { .. })),
        "nothing parks between the exit and the firing"
    );
}

#[test]
fn a_complete_community_whose_probe_fails_does_not_fire() {
    // A(1) and A(2) park while only <pool, 1> is there, so their queries
    // fail. A(2)'s park still walks to a complete community, probes it,
    // and the failing probe keeps it from firing. E's <pool, 2> then
    // wakes both; the next complete walk fires.
    use sdl_metrics::{Counter, Metrics};

    let program = CompiledProgram::from_source(
        "process A(me) { import { <pool, *>; } exists v : <pool, v> : v > 1 @> <fired, me>; }
         process E() { import { <x, *>; } -> <pool, 2>; <never> => skip; }
         init { <pool, 1>; spawn A(1); spawn A(2); spawn E(); }",
    )
    .unwrap();
    let (metrics, registry) = Metrics::registry();
    let mut rt = Runtime::builder(program).metrics(metrics).build().unwrap();
    let report = rt.run().unwrap();
    assert_eq!(
        report.outcome,
        Outcome::Quiescent {
            blocked: vec![sdl_tuple::ProcId(3)]
        }
    );
    assert_eq!(report.consensus_rounds, 1);
    assert_eq!(
        rt.dataspace().count_matches(&pattern![atom("fired"), any]),
        2
    );
    assert_eq!(registry.counter(Counter::ConsensusChecksFired), 1);
    assert_eq!(registry.counter(Counter::ConsensusChecksIncomplete), 4);
    assert_eq!(registry.counter(Counter::TxnAttemptsConsensus), 3);
}

#[test]
fn processes_method_lists_society() {
    let program = CompiledProgram::from_source(
        "process P() { <never> => skip; } init { spawn P(); spawn P(); }",
    )
    .unwrap();
    let mut rt = Runtime::builder(program).build().unwrap();
    rt.run().unwrap();
    assert_eq!(rt.processes().len(), 2, "both blocked forever");
}

// ---------------------------------------------------------------------
// Construct edge cases
// ---------------------------------------------------------------------

#[test]
fn exit_in_replication_guard_cancels_outstanding_bodies() {
    // One branch spawns long-running bodies (they block forever); the
    // stop branch exits the construct, cancelling them.
    let rt = run_src(
        "process P() {
            par {
                exists j : <job, j>! -> let J = j;
                    <never, J> => <unreachable>;
              | <stop>! -> exit
            }
            -> <after_par>;
         }
         init { <job, 1>; <job, 2>; <stop>; spawn P(); }",
        2,
    );
    assert!(rt.dataspace().contains_match(&pattern![atom("after_par")]));
    assert!(!rt
        .dataspace()
        .contains_match(&pattern![atom("unreachable")]));
}

#[test]
fn nested_replication_inside_loop() {
    let rt = run_src(
        "process P() {
            loop {
                exists b : <batch, b>! -> let B = b;
                    par { exists j : <job, B, j>! -> <done, B, j> }
            }
            -> <all_batches_done>;
         }
         init {
            <batch, 1>; <batch, 2>;
            <job, 1, 10>; <job, 1, 11>; <job, 2, 20>;
            spawn P();
         }",
        4,
    );
    assert_eq!(
        rt.dataspace()
            .count_matches(&pattern![atom("done"), any, any]),
        3
    );
    assert!(rt
        .dataspace()
        .contains_match(&pattern![atom("all_batches_done")]));
}

#[test]
fn consensus_guard_inside_replication() {
    // A par construct whose consensus branch fires once everything is
    // drained — mixing the paper's replication with consensus.
    let rt = run_src(
        "process P(me) {
            par {
                exists j : <job, j>! -> <done, j>
              | not <job, *> @> exit
            }
            -> <finished, me>;
         }
         init { <job, 1>; <job, 2>; <job, 3>; spawn P(1); spawn P(2); }",
        3,
    );
    assert_eq!(
        rt.dataspace().count_matches(&pattern![atom("done"), any]),
        3
    );
    assert_eq!(
        rt.dataspace()
            .count_matches(&pattern![atom("finished"), any]),
        2
    );
}

#[test]
fn abort_in_replication_body_notifies_parent() {
    let rt = run_src(
        "process P() {
            par {
                exists j : <job, j>! -> let J = j;
                    <poison, J>! -> abort;
                    -> <survived, J>;
            }
            -> <par_done>;
         }
         init { <job, 1>; <job, 2>; <poison, 1>; spawn P(); }",
        1,
    );
    // Body 1 aborts at the poison; body 2 survives; the construct still
    // completes (aborted helpers count as finished).
    assert!(rt
        .dataspace()
        .contains_match(&pattern![atom("survived"), 2]));
    assert!(!rt
        .dataspace()
        .contains_match(&pattern![atom("survived"), 1]));
    assert!(rt.dataspace().contains_match(&pattern![atom("par_done")]));
}

#[test]
fn rounds_mode_select_and_delayed_agree_with_serial() {
    let src = "
        process P() {
            select {
                exists v : <a, v>! => <got_a, v>
              | exists v2 : <b, v2>! => <got_b, v2>
            }
         }
         process Producer() { -> <b, 9>; }
         init { spawn P(); spawn Producer(); }
    ";
    for rounds in [false, true] {
        let program = CompiledProgram::from_source(src).unwrap();
        let mut rt = Runtime::builder(program).seed(5).build().unwrap();
        let report = if rounds { rt.run_rounds() } else { rt.run() }.unwrap();
        assert!(report.outcome.is_completed(), "rounds={rounds}");
        assert!(
            rt.dataspace().contains_match(&pattern![atom("got_b"), 9]),
            "rounds={rounds}"
        );
    }
}

#[test]
fn sum1_runs_under_rounds_scheduler() {
    // Consensus + spawn + select under the rounds scheduler.
    let src = "
        process Sum1(k, j) {
            exists a, b : <k - 2^(j-1), a>!, <k, b>! -> <k, a + b>;
            select {
                k mod 2^(j+1) == 0 @> spawn Sum1(k, j+1)
              | k mod 2^(j+1) != 0 @> skip
            }
        }
        init { spawn Sum1(2, 1); spawn Sum1(4, 1); }
    ";
    let program = CompiledProgram::from_source(src).unwrap();
    let mut b = Runtime::builder(program).seed(2);
    for k in 1..=4i64 {
        b = b.tuple(sdl_tuple::tuple![k, k]);
    }
    let mut rt = b.build().unwrap();
    let report = rt.run_rounds().unwrap();
    assert!(report.outcome.is_completed(), "{:?}", report.outcome);
    assert_eq!(report.consensus_rounds, 2);
    let (_, t) = rt.dataspace().iter().next().unwrap();
    assert_eq!(t[1], Value::Int(10));
}

#[test]
fn conditional_export_rule() {
    // Export <out, v> only while the license tuple exists.
    let rt = run_src(
        "process P() {
            export { <license> => <out, *>; }
            -> <out, 1>;
            exists l : <license>! -> ;
            -> <out, 2>;
         }
         init { <license>; spawn P(); }",
        0,
    );
    assert!(rt.dataspace().contains_match(&pattern![atom("out"), 1]));
    assert!(
        !rt.dataspace().contains_match(&pattern![atom("out"), 2]),
        "export set shrank with the dataspace"
    );
}

#[test]
fn empty_behaviour_terminates_immediately() {
    let rt = run_src("process P() { } init { spawn P(); <left>; }", 0);
    assert_eq!(rt.dataspace().len(), 1);
}

#[test]
fn selection_inside_selection_branch() {
    let rt = run_src(
        "process P() {
            select {
                <outer>! -> ;
                    select { <inner>! -> <both> | not <inner> -> <only_outer> }
            }
         }
         init { <outer>; <inner>; spawn P(); }",
        0,
    );
    assert!(rt.dataspace().contains_match(&pattern![atom("both")]));
}

#[test]
fn blocked_report_explains_quiescence() {
    let program = CompiledProgram::from_source(
        "process Waiter() { <never> => skip; }
         process Consenter() { <ok> @> skip; }
         init { <ok>; spawn Waiter(); spawn Consenter(); }",
    )
    .unwrap();
    let mut rt = Runtime::builder(program).build().unwrap();
    rt.run().unwrap();
    let report = rt.blocked_report();
    assert!(report.contains("Waiter"), "{report}");
    assert!(report.contains("delayed"), "{report}");
    assert!(report.contains("Consenter"), "{report}");
    assert!(report.contains("consensus"), "{report}");
    // A completed run reports nothing.
    let program =
        CompiledProgram::from_source("process P() { -> skip; } init { spawn P(); }").unwrap();
    let mut rt2 = Runtime::builder(program).build().unwrap();
    rt2.run().unwrap();
    assert!(rt2.blocked_report().contains("no blocked"));
}

#[test]
fn blocked_report_names_the_community_and_who_is_missing() {
    // Two workers share <job, 1, *>; A reaches its consensus guard, B
    // waits on a tuple nobody asserts. C is alone with a failing query.
    let program = CompiledProgram::from_source(
        "process A() { import { <job, 1, *>; } <job, 1, 7> @> skip; }
         process B() { import { <job, 1, *>; <never>; } <never> => skip; }
         process C() { import { <job, 2, *>; } <job, 2, 0> @> skip; }
         init { <job, 1, 7>; <job, 2, 9>; spawn A(); spawn B(); spawn C(); }",
    )
    .unwrap();
    let mut rt = Runtime::builder(program).build().unwrap();
    rt.run().unwrap();
    let report = rt.blocked_report();
    let line = |name: &str| {
        report
            .lines()
            .find(|l| l.contains(name))
            .unwrap_or_else(|| panic!("no line for {name} in {report}"))
            .to_owned()
    };
    assert!(
        line(" A:").contains("community {p1, p2} incomplete: {p2} not at a consensus guard"),
        "{report}"
    );
    assert!(line(" B:").contains("delayed"), "{report}");
    assert!(
        line(" C:").contains("community {p3} is all at a consensus guard"),
        "{report}"
    );
}

/// The community index the runtime maintained equals one built from the
/// society and the store as they stand, and every process's kept window
/// shows and subscribes what a window built afresh does.
fn assert_index_current(rt: &Runtime, ctx: &str) {
    use crate::interp::{site, Site};
    use sdl_dataspace::WatchSet;

    let mut rebuilt = crate::consensus::CommunityIndex::build(&rt.processes(), rt.builtins());
    let mut kept = rt.communities.clone();
    for p in rt.processes() {
        let window = kept.window(p.id, &rt.ds, rt.builtins());
        let fresh = p.def.view.window(&rt.ds, &p.env, rt.builtins());
        assert_eq!(window.all_ids(), fresh.all_ids(), "{} window {ctx}", p.id);
        let txns: Vec<_> = match site(p) {
            Some(Site::Txn(t)) => vec![t],
            Some(Site::Guards(branches, _)) => branches.iter().map(|b| b.guard.clone()).collect(),
            None => Vec::new(),
        };
        for t in txns {
            for atom in crate::txn::resolve_atoms(&t, &p.env, rt.builtins()).unwrap_or_default() {
                let (mut a, mut b) = (WatchSet::new(), WatchSet::new());
                window.subscribe(&atom, &mut a);
                fresh.subscribe(&atom, &mut b);
                assert_eq!(a, b, "{} subscribes to {} {ctx}", p.id, atom.pattern);
            }
        }
    }
    assert_eq!(
        kept.import_sets(&rt.ds, rt.builtins()),
        rebuilt.import_sets(&rt.ds, rt.builtins()),
        "import sets {ctx}"
    );
    assert_eq!(
        kept.partition(&rt.ds, rt.builtins()),
        rebuilt.partition(&rt.ds, rt.builtins()),
        "partition {ctx}"
    );
}

/// Wherever a run can stop, the community index the runtime maintained
/// from spawns, terminations, `let`s and commits equals one built from
/// the society and the store as they stand.
#[test]
fn runtime_keeps_the_community_index_current() {
    use crate::RunLimits;

    // Spawn under a dataspace-dependent view, consensus exits
    // (terminations that retract condition tuples), a `let` that moves a
    // view, and replication helpers that inherit one.
    let labeling = "
        process Threshold() {
            par { exists p, v : <image, p, v>! -> <threshold, p, T(v)>, spawn Label(p, T(v)) }
        }
        process Label(r, t) {
            import {
                <threshold, r, t>; <label, r, *>; <image, r, *>;
                forall p : neighbor(p, r) => <threshold, p, t>;
                forall p2, l : neighbor(p2, r), <threshold, p2, t> => <label, p2, l>;
                forall p3, v : neighbor(p3, r) => <image, p3, v>;
            }
            export { <label, *, *>; }
            -> <label, r, r>;
            not <image, *, *> => skip;
            loop {
                exists l, p4, l2 : <label, r, l>!, <label, p4, l2> : l < l2 -> <label, r, l2>
              | forall p5, l3, l4 : <threshold, r, t>!, <label, p5, l3>, <label, r, l4> :
                    l3 == l4 @> exit
            }
        }
        init { <image, 0, 9>; <image, 1, 9>; <image, 2, 0>; <image, 3, 9>;
               <image, 4, 0>; <image, 5, 0>; spawn Threshold(); }";
    let walkers = "
        process Walker(k) {
            import { <cell, k, *>; forall v : <open, k> => <prize, k, v>; }
            loop {
                exists v : <cell, k, v>! -> let k = v, <open, v>
              | exists w : <prize, k, w>! @> exit
            }
        }
        process Batch(k) {
            import { <cell, k, *>; }
            par { exists v : <cell, k, v>! -> let J = v; -> skip; }
        }
        init { <cell, 1, 2>; <cell, 2, 3>; <cell, 3, 3>; <cell, 5, 6>; <cell, 5, 7>;
               <prize, 3, 0>; <prize, 2, 0>;
               spawn Walker(1); spawn Walker(2); spawn Batch(5); }";
    // Reader expands its rule before the first partition; Ticker's
    // consensus then moves Reader's condition right after a partition
    // refreshed it, and Opener moves it again while Reader is stale with
    // its rule expanded.
    let gates = "
        process Reader() {
            import { forall v : <open, v> => <item, v>; }
            loop {
                exists v : <item, v>! -> <took, v>
              | not <item, *> @> exit
            }
        }
        process Ticker() { import { <tick>; } <tick>! @> <open, 2>; }
        process Opener() { import { <none>; } true -> skip; true -> <open, 3>; }
        init { <open, 1>; <item, 1>; <item, 2>; <item, 3>; <tick>;
               spawn Reader(); spawn Ticker(); spawn Opener(); }";
    let mut b = Builtins::standard();
    b.register_grid_neighbor(3, 2);
    b.register("T", |args: &[Value]| {
        args[0].as_int().map(|v| Value::Int(i64::from(v > 4)))
    });

    for (src, rounds) in [
        (labeling, false),
        (labeling, true),
        (walkers, false),
        (walkers, true),
        (gates, false),
        (gates, true),
    ] {
        let mut finished = false;
        for limit in 1..400 {
            let program = CompiledProgram::from_source(src).unwrap();
            let mut rt = Runtime::builder(program)
                .seed(11)
                .builtins(b.clone())
                .limits(RunLimits {
                    max_attempts: limit,
                })
                .build()
                .unwrap();
            let report = if rounds {
                rt.run_rounds().unwrap()
            } else {
                rt.run().unwrap()
            };
            assert_index_current(&rt, &format!("after {limit} attempts (rounds: {rounds})"));
            if report.outcome != Outcome::StepLimit {
                assert!(report.consensus_rounds > 0, "{report:?}");
                finished = true;
                break;
            }
        }
        assert!(finished, "400 attempts cover the whole run");
    }
}

/// Arms the stall watchdog at a zero threshold, so every park trips it,
/// over a society where a producer wakes one consumer and nothing ever
/// wakes the waiter (pid 2).
fn stall_society<R>(
    b: crate::RuntimeBuilder<R>,
    metrics: sdl_metrics::Metrics,
    tracer: &crate::Tracer,
) -> crate::RuntimeBuilder<R> {
    b.metrics(metrics)
        .tracer(tracer.clone())
        .stall_threshold(std::time::Duration::ZERO)
        .spawn("Consumer", vec![])
        .spawn("Waiter", vec![])
        .spawn("Producer", vec![])
}

#[test]
fn stall_watchdog_flags_each_park_once_on_every_executor() {
    use crate::parallel::ParallelRuntime;
    use crate::TraceRecord;
    use sdl_metrics::{Gauge, Metrics};
    use sdl_tuple::ProcId;

    let src = "process Consumer() { exists x : <item, x>! => <got, x> }
         process Waiter() { <never> => skip; }
         process Producer() { true -> <item, 1> }";
    // Executor, then its end-of-run blocked-queue depth and stalled
    // count. The serial and rounds schedulers' parks outlive the run
    // (their blocked report reads them afterwards); the threaded drain
    // settles them.
    for (exec, depth, stalled) in [("serial", 1, 1), ("rounds", 1, 1), ("threaded", 0, 0)] {
        let (metrics, registry) = Metrics::registry();
        let tracer = crate::Tracer::new();
        let program = CompiledProgram::from_source(src).unwrap();
        let outcome = if exec == "threaded" {
            let b = ParallelRuntime::builder(program).threads(2);
            stall_society(b, metrics, &tracer)
                .build()
                .unwrap()
                .run()
                .unwrap()
                .0
                .outcome
        } else {
            let b = stall_society(Runtime::builder(program), metrics, &tracer);
            let mut rt = b.build().unwrap();
            match exec {
                "rounds" => rt.run_rounds(),
                _ => rt.run(),
            }
            .unwrap()
            .outcome
        };
        assert_eq!(
            outcome,
            Outcome::Quiescent {
                blocked: vec![ProcId(2)]
            },
            "{exec}"
        );
        // Stalls flagged in each open park interval.
        let mut open = std::collections::HashMap::new();
        for record in tracer.take() {
            match record {
                TraceRecord::Park { pid, .. } => {
                    assert!(open.insert(pid, 0).is_none(), "{exec}: {pid} parked twice");
                }
                TraceRecord::Unpark { pid, .. } => {
                    assert!(
                        open.remove(&pid).is_some(),
                        "{exec}: {pid} unparked while not parked"
                    );
                }
                TraceRecord::Stall { pid, .. } => {
                    let flags = open.get_mut(&pid).expect("a stall outside a park");
                    *flags += 1;
                    assert_eq!(*flags, 1, "{exec}: {pid} flagged twice in one park");
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "{exec}: parks left open {open:?}");
        for gauge in [Gauge::BlockedQueueDepth, Gauge::StalledProcesses] {
            assert!(
                registry.gauge_min(gauge) >= 0,
                "{exec}: {gauge:?} dipped negative"
            );
        }
        assert_eq!(registry.gauge(Gauge::BlockedQueueDepth), depth, "{exec}");
        assert_eq!(registry.gauge(Gauge::StalledProcesses), stalled, "{exec}");
    }
}
