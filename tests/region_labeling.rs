//! E3 — §3.3 region labeling: the worker model and the community model
//! both agree with a sequential flood-fill oracle, and the community
//! model's consensus communities coincide with the image's regions.

use sdl::workloads::{community_labeling_runtime, read_labels, worker_labeling_runtime, Image};
use sdl_core::{TraceRecord, Tracer};
use sdl_lang::ast::TxnKind;

const CUTOFF: i64 = 128;

#[test]
fn worker_model_matches_flood_fill() {
    for (s, seed) in [(4i64, 1u64), (6, 2), (8, 3)] {
        let image = Image::synthetic(s, s, 2, seed);
        let expected = image.flood_fill_labels(CUTOFF);
        let mut rt = worker_labeling_runtime(&image, CUTOFF, seed);
        let report = rt.run().unwrap();
        assert!(report.outcome.is_completed(), "S={s}: {:?}", report.outcome);
        assert_eq!(read_labels(&rt, image.len()), expected, "S={s} seed={seed}");
    }
}

#[test]
fn worker_model_single_region() {
    // Uniform image: one region labelled with the max pixel id.
    let image = Image {
        width: 3,
        height: 3,
        pixels: vec![10; 9],
    };
    let mut rt = worker_labeling_runtime(&image, CUTOFF, 0);
    rt.run().unwrap();
    assert_eq!(read_labels(&rt, 9), vec![8; 9]);
}

#[test]
fn community_model_matches_flood_fill() {
    for (s, seed) in [(3i64, 1u64), (4, 2), (5, 3), (6, 4)] {
        let image = Image::synthetic(s, s, 2, seed);
        let expected = image.flood_fill_labels(CUTOFF);
        let mut rt = community_labeling_runtime(&image, CUTOFF, seed);
        let report = rt.run().unwrap();
        assert!(report.outcome.is_completed(), "S={s}: {:?}", report.outcome);
        assert_eq!(read_labels(&rt, image.len()), expected, "S={s} seed={seed}");
        // Thresholds were discarded on exit ("the threshold values are
        // discarded").
        use sdl_dataspace::TupleSource;
        assert!(!rt.dataspace().contains_match(&sdl_tuple::pattern![
            sdl_tuple::Value::atom("threshold"),
            any,
            any
        ]));
    }
}

#[test]
fn community_model_one_consensus_per_region() {
    let image = Image::synthetic(5, 5, 2, 9);
    let expected = image.flood_fill_labels(CUTOFF);
    let n_regions = {
        let mut labels = expected.clone();
        labels.sort_unstable();
        labels.dedup();
        labels.len() as u64
    };
    let mut rt = community_labeling_runtime(&image, CUTOFF, 9);
    let report = rt.run().unwrap();
    assert!(report.outcome.is_completed());
    assert_eq!(
        report.consensus_rounds, n_regions,
        "each region fires exactly one consensus"
    );
}

#[test]
fn community_model_regions_finish_independently() {
    // Two separate bright pixels in a dark field: three regions. In the
    // traced run, some region's consensus fires before the global last
    // commit — regions become available before the whole image is done.
    let image = Image {
        width: 5,
        height: 1,
        pixels: vec![200, 10, 10, 10, 200],
    };
    let program =
        sdl_core::CompiledProgram::from_source(sdl::workloads::COMMUNITY_LABELING_SRC).unwrap();
    let tracer = Tracer::new();
    let mut b = sdl_core::Runtime::builder(program)
        .seed(3)
        .tracer(tracer.clone())
        .builtins(sdl::workloads::image_builtins(&image, CUTOFF));
    for (p, v) in image.pixels.iter().enumerate() {
        b = b.tuple(sdl_tuple::tuple![
            sdl_tuple::Value::atom("image"),
            p as i64,
            *v
        ]);
    }
    let mut rt = b.spawn("Threshold", vec![]).build().unwrap();
    rt.run().unwrap();
    assert_eq!(
        read_labels(&rt, image.len()),
        image.flood_fill_labels(CUTOFF)
    );
    let log = tracer.take();
    let first_consensus = log
        .iter()
        .position(
            |r| matches!(r, TraceRecord::Commit { parts, .. } if parts[0].1 == TxnKind::Consensus),
        )
        .expect("some region consensus");
    let last_commit = log
        .iter()
        .rposition(|r| matches!(r, TraceRecord::Commit { .. }))
        .expect("commits happened");
    assert!(
        first_consensus < last_commit,
        "a region finalised before the computation ended"
    );
}

#[test]
fn worker_model_in_rounds_mode() {
    let image = Image::synthetic(6, 6, 2, 5);
    let expected = image.flood_fill_labels(CUTOFF);
    let mut rt = worker_labeling_runtime(&image, CUTOFF, 5);
    let report = rt.run_rounds().unwrap();
    assert!(report.outcome.is_completed(), "{:?}", report.outcome);
    assert_eq!(read_labels(&rt, image.len()), expected);
    // Label propagation needs at most O(diameter) rounds — within twice
    // the image side, not its area — far below the serial commit count.
    assert!(
        report.rounds < report.commits,
        "rounds {} < commits {}",
        report.rounds,
        report.commits
    );
    assert!(
        report.rounds <= 2 * 6,
        "{} rounds on a 6x6 image",
        report.rounds
    );
}

#[test]
fn checkerboard_stresses_many_regions() {
    // 4x4 checkerboard: every pixel its own region.
    let mut pixels = Vec::new();
    for y in 0..4i64 {
        for x in 0..4i64 {
            pixels.push(if (x + y) % 2 == 0 { 200 } else { 10 });
        }
    }
    let image = Image {
        width: 4,
        height: 4,
        pixels,
    };
    let expected = image.flood_fill_labels(CUTOFF);
    assert_eq!(expected, (0..16).collect::<Vec<i64>>(), "all singletons");
    let mut rt = worker_labeling_runtime(&image, CUTOFF, 0);
    rt.run().unwrap();
    assert_eq!(read_labels(&rt, 16), expected);
    let mut rt2 = community_labeling_runtime(&image, CUTOFF, 0);
    let report = rt2.run().unwrap();
    assert_eq!(read_labels(&rt2, 16), expected);
    assert_eq!(report.consensus_rounds, 16, "one consensus per singleton");
}

#[test]
fn community_model_routes_each_commit_to_the_members_it_concerns() {
    // A commit's asserted labels are checked only by the Label processes
    // whose kept interest its keys meet (the pixel and its same-class
    // neighbours), against their kept expansion: a handful of admit
    // checks per commit, not one per process in the society.
    use sdl_metrics::{Counter, Metrics};
    let image = Image::synthetic(6, 6, 2, 5);
    let (metrics, registry) = Metrics::registry();
    let program =
        sdl_core::CompiledProgram::from_source(sdl::workloads::COMMUNITY_LABELING_SRC).unwrap();
    let mut b = sdl_core::Runtime::builder(program)
        .seed(5)
        .metrics(metrics)
        .builtins(sdl::workloads::image_builtins(&image, CUTOFF));
    for (p, v) in image.pixels.iter().enumerate() {
        b = b.tuple(sdl_tuple::tuple![
            sdl_tuple::Value::atom("image"),
            p as i64,
            *v
        ]);
    }
    let mut rt = b.spawn("Threshold", vec![]).build().unwrap();
    let report = rt.run().unwrap();
    assert!(report.outcome.is_completed(), "{:?}", report.outcome);
    assert_eq!(
        read_labels(&rt, image.len()),
        image.flood_fill_labels(CUTOFF)
    );
    let checks = registry.counter(Counter::WindowAdmitChecks) as f64 / report.commits as f64;
    assert!(checks <= 6.0, "{checks:.2} admit checks per commit");
}
