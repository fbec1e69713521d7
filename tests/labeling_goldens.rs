//! Schedule goldens for community-model region labeling.
//!
//! Which consensus communities fire, with which participants, is a
//! function of the program and the image; how many commits and attempts
//! it takes, and in which order independent communities fire, also
//! depend on the seed and on which commits wake a parked process — its
//! watch subscription. They do not depend on how the runtime detects
//! communities or how a window finds its candidates: a `consensus_sets`
//! sweep rebuilt per probe or the incremental index, a per-candidate
//! admit filter or the window's rule expansion, all reproduce the values
//! below under the same subscription. Narrowing a parked `Label` to its neighbours'
//! labels and same-class thresholds cut the serial attempt counts and
//! swapped e3-36's first two (independent) firings.

use sdl::workloads::{community_labeling_runtime, read_labels, Image};
use sdl_core::{TraceRecord, Tracer};
use sdl_lang::ast::TxnKind;

const CUTOFF: i64 = 128;

/// The benchmark's frozen `society_labeling` geometry (benchmark/src/
/// society.rs `IMAGE_MASK`); the grey levels only ever reach the program
/// through their threshold class.
fn benchmark_mask() -> Image {
    const MASK: [&str; 6] = ["##....", "##..#.", "....#.", ".##.#.", ".##...", "......"];
    Image {
        width: 6,
        height: 6,
        pixels: MASK
            .iter()
            .flat_map(|row| row.bytes())
            .map(|c| if c == b'#' { 200 } else { 10 })
            .collect(),
    }
}

fn image(name: &str) -> Image {
    match name {
        "mask6x6" => benchmark_mask(),
        "e3-16" => Image::synthetic(4, 4, 3, 1),
        "e3-36" => Image::synthetic(6, 6, 3, 2),
        other => panic!("unknown image {other}"),
    }
}

/// `commits/attempts/consensus_rounds` then one `a,b,c` participant list
/// per consensus commit, in firing order.
fn fingerprint(name: &str, seed: u64, rounds: bool) -> String {
    let img = image(name);
    let tracer = Tracer::new();
    let mut rt = {
        let program =
            sdl_core::CompiledProgram::from_source(sdl::workloads::COMMUNITY_LABELING_SRC).unwrap();
        let mut b = sdl_core::Runtime::builder(program)
            .seed(seed)
            .tracer(tracer.clone())
            .builtins(sdl::workloads::image_builtins(&img, CUTOFF));
        for (p, v) in img.pixels.iter().enumerate() {
            b = b.tuple(sdl_tuple::tuple![
                sdl_tuple::Value::atom("image"),
                p as i64,
                *v
            ]);
        }
        b.spawn("Threshold", vec![]).build().unwrap()
    };
    let report = if rounds {
        rt.run_rounds().unwrap()
    } else {
        rt.run().unwrap()
    };
    assert!(report.outcome.is_completed(), "{name} seed {seed}");
    assert_eq!(read_labels(&rt, img.len()), img.flood_fill_labels(CUTOFF));
    let mut out = format!(
        "{}/{}/{}",
        report.commits, report.attempts, report.consensus_rounds
    );
    for r in tracer.take() {
        if let TraceRecord::Commit { parts, .. } = r {
            if parts[0].1 != TxnKind::Consensus {
                continue;
            }
            let ids: Vec<String> = parts.iter().map(|(p, _)| p.0.to_string()).collect();
            out.push(' ');
            out.push_str(&ids.join(","));
        }
    }
    out
}

/// The untraced builder the benchmark uses must agree with the traced
/// one on the counts (tracing does not perturb the schedule).
#[test]
fn untraced_counts_match_the_traced_fingerprint() {
    let img = benchmark_mask();
    let mut rt = community_labeling_runtime(&img, CUTOFF, 1988);
    let report = rt.run().unwrap();
    let traced = fingerprint("mask6x6", 1988, false);
    assert!(traced.starts_with(&format!(
        "{}/{}/{} ",
        report.commits, report.attempts, report.consensus_rounds
    )));
}

/// `(image, seed, rounds scheduler, fingerprint)`.
const GOLDENS: &[(&str, u64, bool, &str)] = &[
    ("mask6x6", 7, false, "352/712/4 2,3,8,9 12,18,24 21,22,27,28 4,5,6,7,10,11,13,14,15,16,17,19,20,23,25,26,29,30,31,32,33,34,35,36,37"),
    ("mask6x6", 7, true, "224/379/4 2,3,8,9 12,18,24 21,22,27,28 4,5,6,7,10,11,13,14,15,16,17,19,20,23,25,26,29,30,31,32,33,34,35,36,37"),
    ("mask6x6", 42, false, "352/712/4 2,3,8,9 12,18,24 21,22,27,28 4,5,6,7,10,11,13,14,15,16,17,19,20,23,25,26,29,30,31,32,33,34,35,36,37"),
    ("mask6x6", 42, true, "222/379/4 2,3,8,9 12,18,24 21,22,27,28 4,5,6,7,10,11,13,14,15,16,17,19,20,23,25,26,29,30,31,32,33,34,35,36,37"),
    ("mask6x6", 1988, false, "352/712/4 2,3,8,9 12,18,24 21,22,27,28 4,5,6,7,10,11,13,14,15,16,17,19,20,23,25,26,29,30,31,32,33,34,35,36,37"),
    ("mask6x6", 1988, true, "220/379/4 2,3,8,9 12,18,24 21,22,27,28 4,5,6,7,10,11,13,14,15,16,17,19,20,23,25,26,29,30,31,32,33,34,35,36,37"),
    ("e3-16", 7, false, "105/169/3 2,3,4,5,9 10,14,15 6,7,8,11,12,13,16,17"),
    ("e3-16", 7, true, "86/132/3 10,14,15 2,3,4,5,9 6,7,8,11,12,13,16,17"),
    ("e3-16", 42, false, "105/169/3 2,3,4,5,9 10,14,15 6,7,8,11,12,13,16,17"),
    ("e3-16", 42, true, "85/132/3 10,14,15 2,3,4,5,9 6,7,8,11,12,13,16,17"),
    ("e3-16", 1988, false, "105/169/3 2,3,4,5,9 10,14,15 6,7,8,11,12,13,16,17"),
    ("e3-16", 1988, true, "89/132/3 10,14,15 2,3,4,5,9 6,7,8,11,12,13,16,17"),
    ("e3-36", 7, false, "334/728/3 10,11,12,17,18,23,24 15,21,27 2,3,4,5,6,7,8,9,13,14,16,19,20,22,25,26,28,29,30,31,32,33,34,35,36,37"),
    ("e3-36", 7, true, "236/440/3 15,21,27 10,11,12,17,18,23,24 2,3,4,5,6,7,8,9,13,14,16,19,20,22,25,26,28,29,30,31,32,33,34,35,36,37"),
    ("e3-36", 42, false, "334/728/3 10,11,12,17,18,23,24 15,21,27 2,3,4,5,6,7,8,9,13,14,16,19,20,22,25,26,28,29,30,31,32,33,34,35,36,37"),
    ("e3-36", 42, true, "228/440/3 15,21,27 10,11,12,17,18,23,24 2,3,4,5,6,7,8,9,13,14,16,19,20,22,25,26,28,29,30,31,32,33,34,35,36,37"),
    ("e3-36", 1988, false, "334/728/3 10,11,12,17,18,23,24 15,21,27 2,3,4,5,6,7,8,9,13,14,16,19,20,22,25,26,28,29,30,31,32,33,34,35,36,37"),
    ("e3-36", 1988, true, "236/440/3 15,21,27 10,11,12,17,18,23,24 2,3,4,5,6,7,8,9,13,14,16,19,20,22,25,26,28,29,30,31,32,33,34,35,36,37"),
];

#[test]
fn schedules_match_the_recorded_goldens() {
    for (name, seed, rounds, expected) in GOLDENS {
        assert_eq!(
            &fingerprint(name, *seed, *rounds),
            expected,
            "{name} seed {seed} rounds {rounds}"
        );
    }
}
