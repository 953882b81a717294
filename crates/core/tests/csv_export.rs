//! `streamlab run` streams `chunks.csv` and `sessions.csv` through
//! `atomic_write_with`, whose writer buffers the staging file. The files
//! it publishes must hold exactly the bytes the exporters produce, across
//! the many buffer flushes a real export takes.

use std::fs;
use streamlab::supervisor::atomic_write_with;
use streamlab::telemetry::export;
use streamlab::{Simulation, SimulationConfig};

#[test]
fn csv_exports_through_atomic_writes_match_in_memory_exports() {
    let out = Simulation::new(SimulationConfig::tiny(7))
        .run()
        .expect("tiny run");
    let dir = std::env::temp_dir().join(format!("streamlab-csv-export-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");

    let mut chunks = Vec::new();
    export::write_chunks_csv(&out.dataset, &mut chunks).expect("chunks into memory");
    let mut sessions = Vec::new();
    export::write_sessions_csv(&out.dataset, &mut sessions).expect("sessions into memory");
    // Tiny's chunk export spans many 64 KiB buffers.
    assert!(chunks.len() > 16 * 64 * 1024, "{} bytes", chunks.len());

    let chunks_path = dir.join("chunks.csv");
    atomic_write_with(&chunks_path, |w| export::write_chunks_csv(&out.dataset, w))
        .expect("chunks.csv");
    let sessions_path = dir.join("sessions.csv");
    atomic_write_with(&sessions_path, |w| {
        export::write_sessions_csv(&out.dataset, w)
    })
    .expect("sessions.csv");

    for (path, expected) in [(&chunks_path, &chunks), (&sessions_path, &sessions)] {
        // Not `assert_eq!`: a failure would print megabytes.
        assert!(
            fs::read(path).unwrap() == *expected,
            "{} differs",
            path.display()
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
