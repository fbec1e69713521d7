//! Program visualization — the paper's companion concern: "there is no
//! other way for humans to assimilate voluminous information about the
//! continuously changing program state".
//!
//! Runs the community-model region labeling under tracing and renders,
//! from the one record stream: the dataspace growth sparkline,
//! per-process statistics, and the process interaction graph (DOT).
//!
//! ```sh
//! cargo run --release --example visualize
//! ```

use sdl::core::{CompiledProgram, Runtime, Tracer};
use sdl::trace::{self, render_growth, Stats};
use sdl::workloads::{image_builtins, Image, COMMUNITY_LABELING_SRC};

const CUTOFF: i64 = 128;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let image = Image::synthetic(6, 6, 2, 11);
    let program = CompiledProgram::from_source(COMMUNITY_LABELING_SRC)?;
    let tracer = Tracer::new();
    let mut b = Runtime::builder(program)
        .seed(4)
        .tracer(tracer.clone())
        .builtins(image_builtins(&image, CUTOFF));
    for (p, v) in image.pixels.iter().enumerate() {
        b = b.tuple(sdl_tuple::tuple![
            sdl_tuple::Value::atom("image"),
            p as i64,
            *v
        ]);
    }
    let mut rt = b.spawn("Threshold", vec![]).build()?;
    let report = rt.run()?;
    let records = tracer.take();

    println!("== run ==\n{report}\n");

    println!("== dataspace growth (|D| over time) ==");
    println!(
        "{}\n",
        render_growth(&trace::growth(&records, image.len()), 64)
    );

    println!("== per-process statistics (first processes) ==");
    let stats = Stats::from_records(&records);
    let table = stats.to_string();
    for line in table.lines().take(10) {
        println!("{line}");
    }
    println!("...\n");

    println!("== process interaction graph (who consumed whose tuples) ==");
    let dot = trace::dot::interactions(&records);
    let lines: Vec<&str> = dot.lines().collect();
    for l in lines.iter().take(12) {
        println!("{l}");
    }
    if lines.len() > 12 {
        println!("  … {} more edges", lines.len() - 12);
        println!("}}");
    }

    println!("\n== final dataspace ==");
    println!("{}", trace::render_dataspace(rt.dataspace(), 6));

    println!("(pipe the DOT output into `dot -Tsvg` for the picture)");
    Ok(())
}
