//! Regenerate every paper exhibit from one simulated measurement window.
//!
//! Usage: `cargo run --release --example paper_figures [-- seed [small|default]]`
//! Prints the same rows/series the paper's figures and tables report, and
//! writes the raw rows as JSON to `target/paper_figures.json`.

use streamlab::experiments::{render_report, run_all};
use streamlab::{Simulation, SimulationConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2016);
    let cfg = match args.get(2).map(String::as_str) {
        Some("default") => SimulationConfig::default_scale(seed),
        _ => SimulationConfig::small(seed),
    };
    eprintln!(
        "simulating {} sessions over {} videos on {} servers (seed {seed})...",
        cfg.traffic.sessions, cfg.catalog.videos, cfg.fleet.servers
    );
    let out = Simulation::new(cfg).run().expect("simulation");
    // Each exhibit runs once: the report and the JSON render from the
    // same results.
    let results = run_all(&out);
    println!("{}", render_report(&results));

    // Raw rows as JSON for external plotting.
    let all: serde_json::Map = results
        .into_iter()
        .map(|r| (format!("{:?}", r.id), r.json))
        .collect();
    let path = "target/paper_figures.json";
    std::fs::write(path, serde_json::to_string_pretty(&all).unwrap()).expect("write json");
    eprintln!("raw rows written to {path}");
}
