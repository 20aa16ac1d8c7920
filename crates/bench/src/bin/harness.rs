//! Experiment harness: runs the experiments of [`oar_bench::registry`] and
//! prints their rows (a table plus one `JSON <label> {...}` line per row).
//! A gated experiment exits 1 when one of its bounds is violated.
//!
//! ```text
//! cargo run --release -p oar-bench --bin harness -- <experiment>        # full size
//! cargo run --release -p oar-bench --bin harness -- <experiment>-smoke  # the CI gate
//! cargo run --release -p oar-bench --bin harness -- all | figures | gates
//! ```
//!
//! Run it with no known name to list the experiments; `gates` prints the
//! Markdown gate table kept in `docs/BENCHMARKS.md`.

use oar_bench::registry::{find, gates_markdown, run, usage, EXPERIMENTS};

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let passed = match arg.as_str() {
        "gates" => {
            print!("{}", gates_markdown());
            true
        }
        // Every experiment runs even after one has failed its gate.
        "all" | "figures" => {
            let chosen = EXPERIMENTS
                .iter()
                .filter(|e| arg == "all" || e.name.starts_with("fig"));
            chosen.filter(|e| !run(e, false)).count() == 0
        }
        name => match find(name) {
            Some((experiment, smoke)) => run(experiment, smoke),
            None => {
                eprintln!("unknown experiment '{name}'");
                eprintln!("expected: {}", usage());
                std::process::exit(2);
            }
        },
    };
    if !passed {
        std::process::exit(1);
    }
}
