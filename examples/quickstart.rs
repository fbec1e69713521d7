//! Quickstart: parse an SDL program, run it, inspect the dataspace.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sdl::core::{CompiledProgram, Runtime, Tracer};
use sdl::trace::{render_dataspace, timeline, Stats};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's very first example, as a running program: find a year
    // past 87, record it, and retract the original tuple — atomically.
    let source = r#"
        process Finder() {
            exists a : <year, a>! : a > 87 -> let N = a, <found, N>;
            -> <finder_done, N>;
        }

        process Watcher() {
            // A delayed transaction blocks until the dataspace allows it.
            exists y : <found, y> => <watched, y>;
        }

        init {
            <year, 85>;
            <year, 90>;
            <year, 95>;
            spawn Finder();
            spawn Watcher();
        }
    "#;

    let program = CompiledProgram::from_source(source)?;
    let tracer = Tracer::new();
    let mut rt = Runtime::builder(program)
        .seed(42)
        .tracer(tracer.clone())
        .build()?;
    let report = rt.run()?;
    let records = tracer.take();

    println!("run report: {report}\n");
    println!("{}", render_dataspace(rt.dataspace(), 10));
    println!("per-process statistics:");
    println!("{}", Stats::from_records(&records));

    println!("\nevent timeline:");
    print!("{}", timeline::render(&records));
    Ok(())
}
