//! Golden-snapshot regression tests for the headline paper shapes.
//!
//! A fixed run (`SimulationConfig::tiny(2016)`, one thread) is
//! summarized into a handful of scalar metrics and compared against the
//! committed snapshot in `tests/golden/paper_shapes.json`. The run is
//! fully deterministic, but comparisons use explicit tolerances so that
//! refactors which only reshuffle float summation order (or retune a
//! sub-model slightly) fail loudly only when a paper *shape* actually
//! moves:
//!
//! * cache miss ratio — the §4.1 steady-state, a few percent;
//! * hit/miss median latency — misses cost an order of magnitude (Fig. 5);
//! * first-chunk retransmit dominance — chunk 0 carries most of the loss
//!   (Fig. 15, connection warm-up).
//!
//! Regenerating after an intentional behavior change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -q --test golden_shapes
//! ```
//!
//! then commit the updated `tests/golden/paper_shapes.json` alongside the
//! change that moved the numbers, explaining the move in the same commit.

use std::path::PathBuf;
use streamlab::{Simulation, SimulationConfig};

/// Relative tolerance for ratio/latency metrics. Generous enough to absorb
/// float-order noise, far tighter than any real behavior change.
const REL_TOL: f64 = 0.05;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("paper_shapes.json")
}

struct Shapes {
    miss_rate: f64,
    hit_median_ms: f64,
    miss_median_ms: f64,
    first_chunk_retx_mean: f64,
    later_chunk_retx_mean: f64,
}

fn measure() -> Shapes {
    let out = Simulation::new(SimulationConfig::tiny(2016))
        .run()
        .expect("golden run");
    let cdn = streamlab::analysis::figures::cdn::headline_stats(&out.dataset);
    let retx = streamlab::analysis::figures::network::fig15(&out.dataset, 19);
    let first = retx.bins.first().expect("chunk-0 bin");
    let later = &retx.bins[3..];
    let later_mean = later.iter().map(|b| b.mean).sum::<f64>() / later.len().max(1) as f64;
    Shapes {
        miss_rate: cdn.miss_rate,
        hit_median_ms: cdn.hit_median_ms,
        miss_median_ms: cdn.miss_median_ms,
        first_chunk_retx_mean: first.mean,
        later_chunk_retx_mean: later_mean,
    }
}

fn to_json(s: &Shapes) -> String {
    let mut m = serde_json::Map::new();
    m.insert("config".into(), serde_json::json!("tiny(2016), threads=1"));
    m.insert("miss_rate".into(), serde_json::json!(s.miss_rate));
    m.insert("hit_median_ms".into(), serde_json::json!(s.hit_median_ms));
    m.insert("miss_median_ms".into(), serde_json::json!(s.miss_median_ms));
    m.insert(
        "first_chunk_retx_mean".into(),
        serde_json::json!(s.first_chunk_retx_mean),
    );
    m.insert(
        "later_chunk_retx_mean".into(),
        serde_json::json!(s.later_chunk_retx_mean),
    );
    serde_json::to_string_pretty(&serde_json::Value::Object(m)).expect("serialize golden")
}

fn field(v: &serde_json::Value, name: &str) -> f64 {
    v.get(name)
        .and_then(|x| x.as_f64())
        .unwrap_or_else(|| panic!("golden file missing field {name}"))
}

fn assert_close(name: &str, got: f64, want: f64, rel_tol: f64) {
    let tol = rel_tol * want.abs();
    assert!(
        (got - want).abs() <= tol,
        "{name} drifted outside tolerance: got {got}, golden {want} (±{tol:.6})\n\
         If this change is intentional, regenerate with:\n\
         GOLDEN_REGEN=1 cargo test -q --test golden_shapes"
    );
}

#[test]
fn paper_shapes_match_golden_snapshot() {
    let shapes = measure();
    let path = golden_path();

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir golden");
        // Atomic so an interrupted regen can't leave a torn golden file.
        streamlab::supervisor::atomic_write(&path, (to_json(&shapes) + "\n").as_bytes())
            .expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with GOLDEN_REGEN=1 cargo test -q --test golden_shapes",
            path.display()
        )
    });
    let golden: serde_json::Value = serde_json::from_str(&text).expect("parse golden");

    assert_close(
        "miss_rate",
        shapes.miss_rate,
        field(&golden, "miss_rate"),
        REL_TOL,
    );
    assert_close(
        "hit_median_ms",
        shapes.hit_median_ms,
        field(&golden, "hit_median_ms"),
        REL_TOL,
    );
    assert_close(
        "miss_median_ms",
        shapes.miss_median_ms,
        field(&golden, "miss_median_ms"),
        REL_TOL,
    );
    assert_close(
        "first_chunk_retx_mean",
        shapes.first_chunk_retx_mean,
        field(&golden, "first_chunk_retx_mean"),
        REL_TOL,
    );
    assert_close(
        "later_chunk_retx_mean",
        shapes.later_chunk_retx_mean,
        field(&golden, "later_chunk_retx_mean"),
        REL_TOL,
    );

    // Shape invariants, independent of exact snapshot values: misses cost
    // an order of magnitude, and the first chunk dominates retransmits.
    assert!(
        shapes.miss_median_ms > 10.0 * shapes.hit_median_ms,
        "miss/hit separation collapsed: {} vs {}",
        shapes.miss_median_ms,
        shapes.hit_median_ms
    );
    assert!(
        shapes.first_chunk_retx_mean > 1.5 * shapes.later_chunk_retx_mean.max(0.01),
        "first-chunk retransmit dominance collapsed: {} vs {}",
        shapes.first_chunk_retx_mean,
        shapes.later_chunk_retx_mean
    );
}
