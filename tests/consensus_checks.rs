//! How often the community-model labeling looks for a complete consensus
//! community, and how often the look fires one.
//!
//! Every process that parks at a consensus guard checks its own
//! community; an idle serial loop, a rounds barrier and the parks that
//! follow a process's exit scan every community. Each check counts once
//! in `sdl_consensus_checks_total{result}`. A check probes the members'
//! queries only when every member is parked at a consensus guard, so the
//! consensus attempts count only complete communities. The firings, and
//! their order (`labeling_goldens`), are those of a full scan on every
//! park.

use sdl::metrics::{Counter, Metrics};
use sdl::workloads::{image_builtins, read_labels, Image, COMMUNITY_LABELING_SRC};
use sdl_core::{CompiledProgram, Runtime};
use sdl_tuple::{tuple, Value};

const CUTOFF: i64 = 128;

/// The benchmark's `society_labeling` geometry (benchmark/src/society.rs
/// `IMAGE_MASK`) in two grey levels.
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

/// `(fired, incomplete)` checks of one labeling run, and its consensus
/// query attempts (every member a check probes).
type Checks = (u64, u64, u64);

fn checks(img: &Image, seed: u64, rounds: bool) -> Checks {
    let (metrics, registry) = Metrics::registry();
    let mut b = Runtime::builder(CompiledProgram::from_source(COMMUNITY_LABELING_SRC).unwrap())
        .seed(seed)
        .metrics(metrics)
        .builtins(image_builtins(img, CUTOFF));
    for (p, v) in img.pixels.iter().enumerate() {
        b = b.tuple(tuple![Value::atom("image"), p as i64, *v]);
    }
    let mut rt = b.spawn("Threshold", vec![]).build().unwrap();
    let report = if rounds {
        rt.run_rounds().unwrap()
    } else {
        rt.run().unwrap()
    };
    assert!(report.outcome.is_completed());
    assert_eq!(read_labels(&rt, img.len()), img.flood_fill_labels(CUTOFF));
    (
        registry.counter(Counter::ConsensusChecksFired),
        registry.counter(Counter::ConsensusChecksIncomplete),
        registry.counter(Counter::TxnAttemptsConsensus),
    )
}

/// `(image, seed, rounds scheduler, (fired, incomplete, consensus
/// attempts))`.
const PINS: &[(&str, u64, bool, Checks)] = &[
    ("mask6x6", 7, false, (4, 241, 36)),
    ("mask6x6", 1988, false, (4, 241, 36)),
    ("mask6x6", 7, true, (4, 12, 36)),
    ("e3-16", 7, false, (3, 40, 16)),
    ("e3-36", 7, false, (3, 276, 36)),
];

#[test]
fn labeling_checks_match_the_full_scan() {
    for &(name, seed, rounds, expected) in PINS {
        let img = match name {
            "mask6x6" => benchmark_mask(),
            "e3-16" => Image::synthetic(4, 4, 3, 1),
            _ => Image::synthetic(6, 6, 3, 2),
        };
        assert_eq!(
            checks(&img, seed, rounds),
            expected,
            "{name} seed {seed} rounds {rounds}"
        );
    }
}
