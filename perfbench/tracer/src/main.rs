//! `perfbench-tracer`: the benchmark's in-process half.
//!
//! ```text
//! perfbench-tracer reference [--target-chunks N] [--sweep-json FILE] -- <streamlab args>
//! perfbench-tracer replay --spans FILE [--probe-spill-dir DIR] -- <streamlab args>
//! ```
//!
//! `reference` runs the workload's configuration untraced — with
//! `--target-chunks`, at the session count where its world simulates about
//! N chunk requests — and prints that session count and the chunk requests
//! it simulated (and writes the `sweep.json` a sweep must produce). `replay` runs the traced
//! replay, writes its spans to FILE, and prints the per-layer totals as
//! one JSON object. The streamlab arguments are the ones the CLI run of
//! the workload receives.

use perfbench_tracer::alloc::CountingAlloc;
use perfbench_tracer::replay::{self, Workload};
use perfbench_tracer::trace::Layer;
use serde::{Map, Number, Value};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    sub: String,
    spans: Option<PathBuf>,
    sweep_json: Option<PathBuf>,
    probe_spill_dir: Option<PathBuf>,
    target_chunks: Option<u64>,
    workload: Workload,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let sub = args.first().cloned().ok_or("missing subcommand")?;
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("missing `--` before the streamlab arguments")?;
    let (mut spans, mut sweep_json, mut probe_spill_dir, mut target_chunks) =
        (None, None, None, None);
    let mut it = args[1..split].iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .map(PathBuf::from)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--spans" => spans = Some(value),
            "--sweep-json" => sweep_json = Some(value),
            "--probe-spill-dir" => probe_spill_dir = Some(value),
            "--target-chunks" => {
                let text = value.to_string_lossy().into_owned();
                let n = text
                    .parse()
                    .map_err(|e| format!("--target-chunks {text}: {e}"))?;
                target_chunks = Some(n);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        sub,
        spans,
        sweep_json,
        probe_spill_dir,
        target_chunks,
        workload: Workload::from_cli_args(&args[split + 1..])?,
    })
}

fn uint(v: u64) -> Value {
    Value::Number(Number::UInt(v))
}

fn float(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

fn cmd_reference(args: &Args) -> Result<Value, String> {
    let mut w = args.workload.clone();
    if let Some(target) = args.target_chunks {
        w.sessions = Some(replay::sessions_for(&w, target)?);
    }
    let r = replay::reference(&w)?;
    if let (Some(path), Some(json)) = (&args.sweep_json, &r.sweep_json) {
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut obj = Map::new();
    let sessions = w.config()?.traffic.sessions;
    obj.insert("sessions".to_owned(), uint(sessions as u64));
    obj.insert("chunks".to_owned(), uint(r.chunks));
    Ok(Value::Object(obj))
}

fn cmd_replay(args: &Args) -> Result<Value, String> {
    let w = &args.workload;
    let spans_path = args.spans.as_ref().ok_or("replay needs --spans FILE")?;
    let r = replay::replay(w, replay::span_estimate(w)?)?;

    let mut layers = Map::new();
    for layer in Layer::ALL {
        let t = r.tracer.totals(layer);
        let mut m = Map::new();
        m.insert("self_s".to_owned(), float(t.self_ns as f64 / 1e9));
        m.insert("calls".to_owned(), uint(t.calls));
        m.insert("allocs".to_owned(), uint(t.allocs));
        m.insert("alloc_bytes".to_owned(), uint(t.alloc_bytes));
        layers.insert(layer.name().to_owned(), Value::Object(m));
    }
    let c = &r.counters;
    let mut counters = Map::new();
    for (name, v) in [
        ("chunks", c.chunks),
        ("serves", c.serves),
        ("ram_hits", c.ram_hits),
        ("misses", c.misses),
        ("retries", c.retries),
        ("segments", c.segments),
        ("retx", c.retx),
        ("queue_peak_len", c.queue_peak_len),
        ("export_write_calls", c.export_write_calls),
        ("export_bytes", c.export_bytes),
        ("sealed_segments", c.sealed_segments),
        ("sealed_bytes", c.sealed_bytes),
    ] {
        counters.insert(name.to_owned(), uint(v));
    }

    let mut obj = Map::new();
    obj.insert("wall_s".to_owned(), float(r.wall_ns as f64 / 1e9));
    obj.insert(
        "unattributed_s".to_owned(),
        float(r.unattributed_ns as f64 / 1e9),
    );
    let self_ns: u64 = Layer::ALL.iter().map(|&l| r.tracer.totals(l).self_ns).sum();
    obj.insert(
        "coverage_exact".to_owned(),
        Value::Bool(self_ns + r.unattributed_ns == r.wall_ns),
    );
    obj.insert("spans".to_owned(), uint(r.tracer.spans().len() as u64));
    obj.insert("layers".to_owned(), Value::Object(layers));
    obj.insert("counters".to_owned(), Value::Object(counters));

    // Spans are written once the replay has ended, outside its window.
    let file =
        std::fs::File::create(spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let mut out = std::io::BufWriter::with_capacity(1 << 20, file);
    r.tracer
        .write_spans(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    drop(r);

    // The scheduler only runs with more than one worker; its figures come
    // from a separate untraced run at the workload's own thread count.
    let (steals, idle_s) = if w.threads > 1 {
        let p = replay::probe_scheduler(w, args.probe_spill_dir.as_deref())?;
        (p.steals, p.idle_s)
    } else {
        (0, 0.0)
    };
    let mut scheduler = Map::new();
    scheduler.insert("steals".to_owned(), uint(steals));
    scheduler.insert("idle_s".to_owned(), float(idle_s));
    obj.insert("scheduler".to_owned(), Value::Object(scheduler));
    Ok(Value::Object(obj))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&argv).and_then(|args| match args.sub.as_str() {
        "reference" => cmd_reference(&args),
        "replay" => cmd_replay(&args),
        other => Err(format!("unknown subcommand {other}")),
    });
    match result {
        Ok(v) => {
            println!("{}", v.to_json_string());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
