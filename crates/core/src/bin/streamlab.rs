//! The `streamlab` command-line interface.
//!
//! ```text
//! streamlab list                         # the experiment registry
//! streamlab run [opts]                   # full report + exports
//! streamlab experiment <id> [opts]       # one exhibit to stdout
//! streamlab ablation [opts]              # the take-away comparison table
//! streamlab recurrence [--days N] [opts] # the §4.2.1 multi-day study
//! streamlab trace [opts]                 # write the workload trace as JSON
//! streamlab replay <trace.json> [opts]   # replay a saved trace
//! streamlab sweep [--seeds N] [opts]     # seed-robustness sweep (checkpointed)
//! streamlab sweep --resume DIR           # resume an interrupted sweep
//! streamlab serve --state DIR [opts]     # crash-recoverable job daemon
//! streamlab submit [opts]                # queue a sweep on the daemon
//! streamlab status [<job-id>] [opts]     # job list / one job's status
//! streamlab cancel <job-id> [opts]       # cancel a queued/running job
//! streamlab shutdown [opts]              # stop the daemon
//!
//! options: --scale tiny|small|default   (default: small)
//!          --sessions N                 (override the scale preset's
//!                                        session count — e.g. a million-
//!                                        session run with --spill-dir)
//!          --seed N                     (default: 2016)
//!          --seeds N                    (sweep only: number of seeds)
//!          --out DIR                    (run/sweep; default: streamlab-out)
//!          --resume DIR                 (sweep only: continue from a run
//!                                        directory, skipping completed
//!                                        seeds; config comes from its
//!                                        manifest)
//!          --threads N                  (default: 1; worker threads for
//!                                        the engine, which runs one event
//!                                        loop per server — per PoP under
//!                                        failure faults — with work
//!                                        stealing; output is identical
//!                                        at any thread count)
//!          --shard-deadline SECS        (watchdog: cancel a shard that
//!                                        makes no progress for SECS wall
//!                                        seconds and keep the rest)
//!          --spill-dir DIR              (run only: out-of-core telemetry,
//!                                        sealing sorted columnar segments
//!                                        into DIR instead of keeping every
//!                                        chunk record in RAM; output is
//!                                        byte-identical either way. A
//!                                        sweep accepts it and writes
//!                                        nothing there: it folds each
//!                                        session as it ends)
//!          --spill-threshold ROWS       (run only: rows per shard
//!                                        buffered before a segment is
//!                                        sealed; default 262144)
//!          --audit                      (verify structural invariants of
//!                                        the finished run and fail loudly
//!                                        on any violation)
//!          --metrics-out FILE           (run only: write the deterministic
//!                                        metrics block)
//!          --metrics-format json|openmetrics
//!                                       (run only: --metrics-out format;
//!                                        `json` writes the deterministic
//!                                        block only, `openmetrics` adds a
//!                                        clearly-flagged wall-clock
//!                                        section; default json)
//!          --trace-events FILE          (run only: write the structured
//!                                        event trace as JSONL)
//!          --trace-out FILE             (run only: write a Chrome Trace
//!                                        Event file — deterministic
//!                                        sim-time span lanes per session
//!                                        plus wall-clock engine lanes —
//!                                        loadable in Perfetto or
//!                                        chrome://tracing)
//!          --summary-shards N           (shards shown in the end-of-run
//!                                        summary breakdown; 0 = all;
//!                                        default 8)
//!          --faults FILE                (JSON fault scenario — server
//!                                        restarts/outages, loss bursts,
//!                                        blackouts, backend slowdowns —
//!                                        see examples/*.json)
//!          --storage-faults FILE        (JSON storage fault plan — inject
//!                                        EIO/ENOSPC/torn-write/lost-fsync/
//!                                        slow-io/crash at the Nth matching
//!                                        create/write/fsync/rename; routes
//!                                        every persistence path through the
//!                                        fault-injecting storage layer;
//!                                        see examples/storage_faults_*.json)
//!
//! service-mode options (serve/submit/status/cancel/shutdown):
//!          --state DIR                  (daemon state directory: durable
//!                                        queue, checkpoints, quarantine;
//!                                        clients discover the daemon via
//!                                        DIR/endpoint.json; default
//!                                        streamlab-state)
//!          --addr HOST:PORT             (serve: bind address; default
//!                                        127.0.0.1:0 = any free port)
//!          --workers N                  (serve: worker threads; default 2)
//!          --queue-depth N              (serve: admission bound on queued
//!                                        jobs; default 16)
//!          --max-job-sessions N         (serve: per-job session budget)
//!          --max-inflight-sessions N    (serve: fleet-wide session budget)
//!          --max-job-threads N          (serve: per-job thread clamp)
//!          --chaos-kill-after N         (serve: abort() the daemon after N
//!                                        durable seed records — the chaos
//!                                        gate's deterministic SIGKILL)
//!          --priority N                 (submit: higher runs sooner)
//!          --label S                    (submit: human-readable job label)
//!          --retries N                  (submit: retry a shed (503)
//!                                        submission up to N times with
//!                                        capped exponential backoff that
//!                                        honors the daemon's Retry-After
//!                                        hint; default 0 = fail fast)
//!          --wait                       (submit/status: block until the
//!                                        job reaches a terminal state)
//!          --follow                     (status <id>: stream heartbeats)
//!
//! --help or -h prints the usage. An unknown option or a stray positional
//! argument is an error: nothing runs.
//!
//! All file outputs are atomic: written to a same-directory staging file,
//! fsynced, then renamed into place, so a crash never leaves a torn file.
//! ```

use std::fs;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use streamlab::ablation;
use streamlab::experiments::{full_report, render_report, run_all, run_experiment, ExperimentId};
use streamlab::multiday::recurrence_study;
use streamlab::supervisor::{atomic_write, atomic_write_with};
use streamlab::telemetry::export;
use streamlab::{ObsOptions, Simulation, SimulationConfig};

struct Opts {
    scale: String,
    sessions: Option<usize>,
    seed: u64,
    out: PathBuf,
    days: usize,
    days_given: bool,
    seeds: Option<usize>,
    threads: usize,
    shard_deadline: Option<f64>,
    spill_dir: Option<String>,
    spill_threshold: usize,
    audit: bool,
    resume: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    metrics_format: MetricsFormat,
    trace_events: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    summary_shards: usize,
    faults: Option<String>,
    storage_faults: Option<String>,
    state: PathBuf,
    addr: String,
    workers: usize,
    queue_depth: usize,
    max_job_sessions: Option<u64>,
    max_inflight_sessions: Option<u64>,
    max_job_threads: Option<usize>,
    chaos_kill_after: Option<u64>,
    priority: i64,
    label: Option<String>,
    retries: u32,
    wait: bool,
    follow: bool,
    help: bool,
    /// Positional arguments after the command.
    rest: Vec<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Json,
    OpenMetrics,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        scale: "small".into(),
        sessions: None,
        seed: 2016,
        out: PathBuf::from("streamlab-out"),
        days: 5,
        days_given: false,
        seeds: None,
        threads: 1,
        shard_deadline: None,
        spill_dir: None,
        spill_threshold: streamlab::SpillConfig::DEFAULT_THRESHOLD,
        audit: false,
        resume: None,
        metrics_out: None,
        metrics_format: MetricsFormat::Json,
        trace_events: None,
        trace_out: None,
        summary_shards: 8,
        faults: None,
        storage_faults: None,
        state: PathBuf::from("streamlab-state"),
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        max_job_sessions: None,
        max_inflight_sessions: None,
        max_job_threads: None,
        chaos_kill_after: None,
        priority: 0,
        label: None,
        retries: 0,
        wait: false,
        follow: false,
        help: false,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                opts.scale = it.next().ok_or("--scale needs a value")?.clone();
            }
            "--sessions" => {
                let n: usize = it
                    .next()
                    .ok_or("--sessions needs a value")?
                    .parse()
                    .map_err(|e| format!("bad sessions: {e}"))?;
                if n == 0 {
                    return Err("--sessions must be at least 1".into());
                }
                opts.sessions = Some(n);
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--out" => {
                opts.out = PathBuf::from(it.next().ok_or("--out needs a value")?);
            }
            "--days" => {
                opts.days = it
                    .next()
                    .ok_or("--days needs a value")?
                    .parse()
                    .map_err(|e| format!("bad days: {e}"))?;
                opts.days_given = true;
            }
            "--seeds" => {
                opts.seeds = Some(
                    it.next()
                        .ok_or("--seeds needs a value")?
                        .parse()
                        .map_err(|e| format!("bad seeds: {e}"))?,
                );
            }
            "--threads" => {
                opts.threads = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad threads: {e}"))?;
                if opts.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--shard-deadline" => {
                let secs: f64 = it
                    .next()
                    .ok_or("--shard-deadline needs a value (seconds)")?
                    .parse()
                    .map_err(|e| format!("bad shard deadline: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--shard-deadline must be a positive number of seconds".into());
                }
                opts.shard_deadline = Some(secs);
            }
            "--spill-dir" => {
                opts.spill_dir = Some(it.next().ok_or("--spill-dir needs a value")?.clone());
            }
            "--spill-threshold" => {
                opts.spill_threshold = it
                    .next()
                    .ok_or("--spill-threshold needs a value (rows)")?
                    .parse()
                    .map_err(|e| format!("bad spill threshold: {e}"))?;
                if opts.spill_threshold == 0 {
                    return Err("--spill-threshold must be at least 1 row".into());
                }
            }
            "--audit" => {
                opts.audit = true;
            }
            "--resume" => {
                opts.resume = Some(PathBuf::from(it.next().ok_or("--resume needs a value")?));
            }
            "--metrics-out" => {
                opts.metrics_out = Some(PathBuf::from(
                    it.next().ok_or("--metrics-out needs a value")?,
                ));
            }
            "--metrics-format" => {
                opts.metrics_format =
                    match it.next().ok_or("--metrics-format needs a value")?.as_str() {
                        "json" => MetricsFormat::Json,
                        "openmetrics" => MetricsFormat::OpenMetrics,
                        other => {
                            return Err(format!(
                                "unknown metrics format '{other}' (json|openmetrics)"
                            ))
                        }
                    };
            }
            "--trace-events" => {
                opts.trace_events = Some(PathBuf::from(
                    it.next().ok_or("--trace-events needs a value")?,
                ));
            }
            "--trace-out" => {
                opts.trace_out = Some(PathBuf::from(it.next().ok_or("--trace-out needs a value")?));
            }
            "--summary-shards" => {
                opts.summary_shards = it
                    .next()
                    .ok_or("--summary-shards needs a value (0 = all)")?
                    .parse()
                    .map_err(|e| format!("bad summary shard count: {e}"))?;
            }
            "--faults" => {
                opts.faults = Some(it.next().ok_or("--faults needs a value")?.clone());
            }
            "--storage-faults" => {
                opts.storage_faults =
                    Some(it.next().ok_or("--storage-faults needs a value")?.clone());
            }
            "--state" => {
                opts.state = PathBuf::from(it.next().ok_or("--state needs a value")?);
            }
            "--addr" => {
                opts.addr = it.next().ok_or("--addr needs a value (host:port)")?.clone();
            }
            "--workers" => {
                opts.workers = it
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|e| format!("bad workers: {e}"))?;
                if opts.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--queue-depth" => {
                opts.queue_depth = it
                    .next()
                    .ok_or("--queue-depth needs a value")?
                    .parse()
                    .map_err(|e| format!("bad queue depth: {e}"))?;
            }
            "--max-job-sessions" => {
                opts.max_job_sessions = Some(
                    it.next()
                        .ok_or("--max-job-sessions needs a value")?
                        .parse()
                        .map_err(|e| format!("bad session budget: {e}"))?,
                );
            }
            "--max-inflight-sessions" => {
                opts.max_inflight_sessions = Some(
                    it.next()
                        .ok_or("--max-inflight-sessions needs a value")?
                        .parse()
                        .map_err(|e| format!("bad session budget: {e}"))?,
                );
            }
            "--max-job-threads" => {
                opts.max_job_threads = Some(
                    it.next()
                        .ok_or("--max-job-threads needs a value")?
                        .parse()
                        .map_err(|e| format!("bad thread clamp: {e}"))?,
                );
            }
            "--chaos-kill-after" => {
                opts.chaos_kill_after = Some(
                    it.next()
                        .ok_or("--chaos-kill-after needs a value")?
                        .parse()
                        .map_err(|e| format!("bad chaos kill count: {e}"))?,
                );
            }
            "--priority" => {
                opts.priority = it
                    .next()
                    .ok_or("--priority needs a value")?
                    .parse()
                    .map_err(|e| format!("bad priority: {e}"))?;
            }
            "--label" => {
                opts.label = Some(it.next().ok_or("--label needs a value")?.clone());
            }
            "--retries" => {
                opts.retries = it
                    .next()
                    .ok_or("--retries needs a value")?
                    .parse()
                    .map_err(|e| format!("bad retry count: {e}"))?;
            }
            "--wait" => {
                opts.wait = true;
            }
            "--follow" => {
                opts.follow = true;
            }
            "--help" | "-h" => {
                opts.help = true;
            }
            other if other.starts_with('-') => return Err(format!("unknown option '{other}'")),
            other => opts.rest.push(other.to_owned()),
        }
    }
    Ok(opts)
}

fn config(opts: &Opts) -> Result<SimulationConfig, String> {
    let mut cfg = match opts.scale.as_str() {
        "tiny" => SimulationConfig::tiny(opts.seed),
        "small" => SimulationConfig::small(opts.seed),
        "default" => SimulationConfig::default_scale(opts.seed),
        other => return Err(format!("unknown scale '{other}' (tiny|small|default)")),
    };
    if let Some(n) = opts.sessions {
        cfg.traffic.sessions = n;
    }
    cfg.threads = opts.threads;
    if let Some(secs) = opts.shard_deadline {
        cfg.shard_deadline_ms = (secs * 1000.0).round().max(1.0) as u64;
    }
    if let Some(dir) = &opts.spill_dir {
        cfg.spill = Some(streamlab::SpillConfig {
            dir: dir.clone(),
            threshold: opts.spill_threshold,
        });
    }
    if let Some(path) = &opts.faults {
        cfg.faults = streamlab::faults::FaultScenario::from_json_file(path)?;
    }
    Ok(cfg)
}

/// `io::Error` → CLI error with the offending path.
fn at(path: &std::path::Path) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

/// Report shards that died mid-run, each line prefixed with `scope` (the
/// seed, in a sweep). The run still succeeds with partial results; the
/// warning makes the gap impossible to miss.
fn warn_partial(scope: &str, errors: &[streamlab::ShardError]) {
    for e in errors {
        eprintln!("warning: partial results — {scope}{e}");
    }
    if !errors.is_empty() {
        eprintln!(
            "warning: {scope}{} shard(s) lost; the dataset covers the surviving shards' servers only",
            errors.len()
        );
    }
}

/// Print this process's own peak resident set (`VmHWM` in
/// `/proc/self/status`) as one stderr line; print nothing where `/proc` is
/// absent. A parent's `wait4` cannot give this figure: a child's
/// `ru_maxrss` starts at the high-water mark of the process that forked
/// it.
fn report_peak_rss() {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return;
    };
    if let Some(peak) = status.lines().find_map(|l| l.strip_prefix("VmHWM:")) {
        eprintln!("peak RSS (VmHWM): {}", peak.trim());
    }
}

fn find_experiment(name: &str) -> Option<ExperimentId> {
    ExperimentId::all()
        .iter()
        .copied()
        .find(|id| format!("{id:?}").eq_ignore_ascii_case(name))
}

fn usage() -> &'static str {
    "usage: streamlab <list|run|experiment <id>|ablation|recurrence|trace|replay <file>|sweep|\
     serve|submit|status [<job>]|cancel <job>|shutdown> \
     [--scale tiny|small|default] [--sessions N] [--seed N] [--out DIR] [--days N] [--seeds N] \
     [--threads N] \
     [--shard-deadline SECS] [--spill-dir DIR] [--spill-threshold ROWS] [--audit] [--resume DIR] \
     [--metrics-out FILE] [--metrics-format json|openmetrics] [--trace-events FILE] \
     [--trace-out FILE] [--summary-shards N] [--faults FILE] [--storage-faults FILE] \
     [--state DIR] [--addr HOST:PORT] [--workers N] [--queue-depth N] \
     [--max-job-sessions N] [--max-inflight-sessions N] [--max-job-threads N] \
     [--chaos-kill-after N] [--priority N] [--label S] [--retries N] [--wait] [--follow] \
     [--help]\n\
     (sweep: --seeds sets the seed count and checkpoints per-seed results under \
     --out; --resume DIR continues an interrupted sweep from its manifest. \
     serve runs the crash-recoverable job daemon over --state; submit/status/\
     cancel/shutdown talk to it through DIR/endpoint.json.)"
}

/// A command's entry point.
type Handler = fn(&Opts) -> Result<(), String>;

/// Every command: its name, how many positional arguments it takes at
/// most, and its entry point.
const COMMANDS: [(&str, usize, Handler); 13] = [
    ("list", 0, cmd_list),
    ("run", 0, cmd_run),
    ("experiment", 1, cmd_experiment),
    ("ablation", 0, cmd_ablation),
    ("recurrence", 0, cmd_recurrence),
    ("trace", 0, cmd_trace),
    ("replay", 1, cmd_replay),
    ("sweep", 0, cmd_sweep),
    ("serve", 0, cmd_serve),
    ("submit", 0, cmd_submit),
    ("status", 1, cmd_status),
    ("cancel", 1, cmd_cancel),
    ("shutdown", 0, cmd_shutdown),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if cmd == "--help" || cmd == "-h" {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(&(_, positionals, handler)) = COMMANDS.iter().find(|(name, ..)| *name == cmd) else {
        eprintln!("error: unknown command '{cmd}'\n{}", usage());
        return ExitCode::FAILURE;
    };
    let opts = match parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if opts.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if let Some(extra) = opts.rest.get(positionals) {
        eprintln!("error: unexpected argument '{extra}'\n{}", usage());
        return ExitCode::FAILURE;
    }

    // Route every persistence path through the fault-injecting storage
    // layer before any command touches disk. Inert unless the flag is
    // given: the default ambient storage is the real filesystem.
    if let Some(path) = &opts.storage_faults {
        let plan = match streamlab::supervisor::StorageFaultPlan::from_json_file(path) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!("storage faults armed: {plan}");
        streamlab::supervisor::install_ambient_storage(streamlab::supervisor::Storage::faulty(
            plan,
        ));
    }

    let result = handler(&opts);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_list(_: &Opts) -> Result<(), String> {
    for id in ExperimentId::all() {
        println!("{:<8} {}", format!("{id:?}"), id.title());
    }
    Ok(())
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let cfg = config(opts)?;
    eprintln!(
        "simulating {} sessions / {} videos / {} servers (seed {}) ...",
        cfg.traffic.sessions, cfg.catalog.videos, cfg.fleet.servers, opts.seed
    );
    let obs = ObsOptions {
        trace: opts.trace_events.is_some(),
        spans: opts.trace_out.is_some(),
    };
    let out = Simulation::new(cfg)
        .run_observed(obs)
        .map_err(|e| e.to_string())?;
    warn_partial("", &out.shard_errors);

    if opts.audit {
        let report = out
            .audit()
            .ok_or("internal error: observed run has no metrics to audit")?;
        eprintln!("{}", report.render());
        if !report.is_clean() {
            return Err("audit failed: structural invariants violated (see above)".into());
        }
    }

    fs::create_dir_all(&opts.out).map_err(|e| e.to_string())?;

    let metrics = out
        .metrics
        .as_ref()
        .ok_or("internal error: observed run returned no metrics block")?;
    if let Some(path) = &opts.metrics_out {
        let body = match opts.metrics_format {
            // Only the deterministic block goes to disk: byte-identical
            // at any --threads value (the wall-clock profile is not).
            MetricsFormat::Json => {
                serde_json::to_string_pretty(&metrics.sim).map_err(|e| e.to_string())? + "\n"
            }
            // OpenMetrics carries both halves; the wall-clock section is
            // flagged non-deterministic line by line.
            MetricsFormat::OpenMetrics => {
                streamlab::obs::openmetrics::render(&metrics.sim, Some(&metrics.profile))
            }
        };
        atomic_write(path, body.as_bytes()).map_err(at(path))?;
    }
    if let Some(path) = &opts.trace_events {
        let lines = out.trace_lines.as_deref().unwrap_or(&[]);
        let mut body = lines.join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        atomic_write(path, body.as_bytes()).map_err(at(path))?;
    }
    if let Some(path) = &opts.trace_out {
        let spans = out.sim_spans.as_deref().unwrap_or(&[]);
        let body = streamlab::obs::render_chrome_trace(spans, out.wall_trace.as_ref());
        atomic_write(path, body.as_bytes()).map_err(at(path))?;
    }

    // Each exhibit runs once: report.txt and figures.json both render
    // from the same results.
    let results = run_all(&out);
    let report = render_report(&results);
    let report_path = opts.out.join("report.txt");
    atomic_write(&report_path, report.as_bytes()).map_err(at(&report_path))?;

    let all: serde_json::Map = results
        .into_iter()
        .map(|r| (format!("{:?}", r.id), r.json))
        .collect();
    let figures_path = opts.out.join("figures.json");
    atomic_write(
        &figures_path,
        serde_json::to_string_pretty(&all)
            .map_err(|e| e.to_string())?
            .as_bytes(),
    )
    .map_err(at(&figures_path))?;

    let chunks_path = opts.out.join("chunks.csv");
    atomic_write_with(&chunks_path, |f| export::write_chunks_csv(&out.dataset, f))
        .map_err(at(&chunks_path))?;
    let sessions_path = opts.out.join("sessions.csv");
    atomic_write_with(&sessions_path, |f| {
        export::write_sessions_csv(&out.dataset, f)
    })
    .map_err(at(&sessions_path))?;
    let plots =
        streamlab::plot::emit_all(&out, &opts.out.join("plots")).map_err(|e| e.to_string())?;

    println!("{report}");
    // The compact self-telemetry summary every run ends with.
    print!("{}", metrics.summary_with(opts.summary_shards));
    eprintln!(
        "wrote report.txt, figures.json, chunks.csv, sessions.csv and {plots} gnuplot scripts to {}",
        opts.out.display()
    );
    if let Some(path) = &opts.metrics_out {
        eprintln!("wrote deterministic metrics to {}", path.display());
    }
    if let Some(path) = &opts.trace_events {
        eprintln!("wrote event trace to {}", path.display());
    }
    if let Some(path) = &opts.trace_out {
        eprintln!(
            "wrote Chrome trace to {} (open in Perfetto or chrome://tracing)",
            path.display()
        );
    }
    report_peak_rss();
    Ok(())
}

fn cmd_experiment(opts: &Opts) -> Result<(), String> {
    let name = opts
        .rest
        .first()
        .ok_or("experiment needs an id, e.g. `streamlab experiment Fig05` (see `list`)")?;
    let id = find_experiment(name).ok_or_else(|| format!("unknown experiment '{name}'"))?;
    let cfg = config(opts)?;
    let out = Simulation::new(cfg).run().map_err(|e| e.to_string())?;
    warn_partial("", &out.shard_errors);
    let r = run_experiment(id, &out);
    println!("== {} ==\n{}", r.title, r.text);
    Ok(())
}

fn cmd_ablation(opts: &Opts) -> Result<(), String> {
    use streamlab::cdn::{AdmissionPolicy, EvictionPolicy, PrefetchPolicy};
    use streamlab::client::abr::AbrAlgorithm;
    let cfg = config(opts)?;
    type Tweak = fn(&mut SimulationConfig);
    let variants: Vec<(&str, Tweak)> = vec![
        ("baseline-lru", |_| {}),
        ("perfect-lfu", |c| {
            c.fleet_mut().server.cache.policy = EvictionPolicy::PerfectLfu;
        }),
        ("gd-size", |c| {
            c.fleet_mut().server.cache.policy = EvictionPolicy::GdSize;
        }),
        ("prefetch", |c| {
            c.fleet_mut().prefetch = PrefetchPolicy::NextChunksOnMiss(5);
        }),
        ("pin-first-chunks", |c| {
            c.fleet_mut().pin_first_chunks = true;
        }),
        ("partition-popular", |c| {
            c.fleet_mut().partition_popular = true;
        }),
        ("pacing", |c| {
            c.tcp.pacing = true;
        }),
        ("cubic", |c| {
            c.tcp.congestion_control = streamlab::net::CongestionControl::Cubic;
        }),
        ("admission-2nd-hit", |c| {
            c.fleet_mut().server.cache.admission = AdmissionPolicy::OnSecondRequest;
        }),
        ("robust-abr", |c| {
            c.abr = AbrAlgorithm::RobustRate { window: 5 };
        }),
    ];
    let results = ablation::compare(&cfg, &variants).map_err(|e| e.to_string())?;
    println!("{}", ablation::render(&results));
    Ok(())
}

fn cmd_sweep(opts: &Opts) -> Result<(), String> {
    // `sweep --days` was a deprecated alias for --seeds (a warning shipped
    // for several releases); it is gone now.
    if opts.days_given {
        return Err(
            "`sweep --days N` has been removed; use `sweep --seeds N` to set the seed count".into(),
        );
    }
    let result = if let Some(dir) = &opts.resume {
        eprintln!("resuming sweep from {} ...", dir.display());
        streamlab::sweep::resume_checkpointed(dir, opts.audit)?
    } else {
        let cfg = config(opts)?;
        let n_seeds = opts.seeds.unwrap_or(5);
        let seeds: Vec<u64> = (0..n_seeds as u64).map(|i| opts.seed + i).collect();
        eprintln!(
            "sweeping {} seeds at the {} scale (checkpoints in {}) ...",
            seeds.len(),
            opts.scale,
            opts.out.display()
        );
        streamlab::sweep::run_seeds_checkpointed(&cfg, &seeds, &opts.out, opts.audit)?
    };
    if !result.resumed.is_empty() {
        eprintln!(
            "resumed {} completed seed(s) from checkpoints; computed {} fresh",
            result.resumed.len(),
            result.computed.len()
        );
    }
    for name in &result.skipped_records {
        eprintln!("warning: ignored unusable checkpoint record {name} (recomputed its seed)");
    }
    for (seed, errors) in &result.lost_shards {
        warn_partial(&format!("seed {seed}: "), errors);
    }
    // The merged summary, durable next to the per-seed records.
    let dir = opts.resume.as_deref().unwrap_or(&opts.out);
    let summary_path = dir.join("sweep.json");
    let json = serde_json::to_string_pretty(&result.summary).map_err(|e| e.to_string())?;
    atomic_write(&summary_path, (json + "\n").as_bytes()).map_err(at(&summary_path))?;
    println!("{}", streamlab::sweep::render(&result.summary));
    report_peak_rss();
    Ok(())
}

// ---------------------------------------------------------------------------
// Fleet-service mode: the `serve` daemon and its thin client commands
// ---------------------------------------------------------------------------

fn admission_config(opts: &Opts) -> streamlab::service::AdmissionConfig {
    let mut admission = streamlab::service::AdmissionConfig {
        max_queue_depth: opts.queue_depth,
        ..Default::default()
    };
    if let Some(v) = opts.max_job_sessions {
        admission.max_job_sessions = v;
    }
    if let Some(v) = opts.max_inflight_sessions {
        admission.max_inflight_sessions = v;
    }
    if let Some(v) = opts.max_job_threads {
        admission.max_job_threads = v;
    }
    admission
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    use streamlab::service::{Daemon, ServiceConfig};
    let daemon = Daemon::start(
        ServiceConfig {
            state_dir: opts.state.clone(),
            bind: opts.addr.clone(),
            workers: opts.workers,
            admission: admission_config(opts),
            chaos_kill_after: opts.chaos_kill_after,
            // Picks up --storage-faults when armed; real disk otherwise.
            storage: streamlab::supervisor::ambient_storage(),
        },
        std::sync::Arc::new(streamlab::serve::SweepRunner),
    )?;
    eprintln!(
        "streamlab serve: listening on {} (state {}, {} workers)",
        daemon.addr(),
        opts.state.display(),
        opts.workers
    );
    if let Some(after) = opts.chaos_kill_after {
        eprintln!(
            "streamlab serve: CHAOS MODE — the process aborts after {after} durable seed record(s)"
        );
    }
    daemon.run_until_shutdown();
    eprintln!("streamlab serve: stopped");
    Ok(())
}

fn service_client(opts: &Opts) -> Result<streamlab::service::Client, String> {
    streamlab::service::Client::from_state_dir(&opts.state)
}

/// Print a reply body as pretty JSON on stdout (the machine-readable
/// contract of the client subcommands).
fn print_reply(body: &serde_json::Value) {
    println!("{}", serde_json::to_string_pretty(body).unwrap_or_default());
}

fn cmd_submit(opts: &Opts) -> Result<(), String> {
    let cfg = config(opts)?;
    let n_seeds = opts.seeds.unwrap_or(5);
    if n_seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let seeds: Vec<u64> = (0..n_seeds as u64).map(|i| opts.seed + i).collect();
    let label = opts
        .label
        .clone()
        .unwrap_or_else(|| format!("sweep {} seeds @ {}", seeds.len(), opts.scale));
    let spec = streamlab::serve::sweep_spec(&label, &cfg, seeds, opts.priority, opts.audit);
    let client = service_client(opts)?;
    let reply = if opts.retries == 0 {
        client.submit(&spec)?
    } else {
        // Shed (503) replies are retried with capped, seeded-jitter
        // exponential backoff that honors the daemon's Retry-After hint.
        let policy = streamlab::service::RetryPolicy {
            max_attempts: opts.retries + 1,
            ..Default::default()
        };
        client.submit_with_retry(&spec, policy)?
    };
    print_reply(&reply.body);
    if !reply.ok() {
        let reason = reply
            .body
            .get("shed")
            .and_then(|s| s.get("reason"))
            .and_then(|r| r.as_str())
            .unwrap_or("rejected");
        return Err(format!("submission not accepted: {reason}"));
    }
    let id = reply
        .body
        .get("id")
        .and_then(|v| v.as_str())
        .ok_or("daemon accepted the job but returned no id")?
        .to_owned();
    eprintln!("submitted {id}");
    if opts.wait {
        let done = client.wait(&id, std::time::Duration::from_millis(100))?;
        print_reply(&done);
        let state = done.get("state").and_then(|s| s.as_str()).unwrap_or("");
        if state != "Done" {
            return Err(format!("job {id} finished as {state}"));
        }
    }
    Ok(())
}

fn cmd_status(opts: &Opts) -> Result<(), String> {
    let client = service_client(opts)?;
    match opts.rest.first() {
        None => {
            let reply = client.list()?;
            print_reply(&reply.body);
            Ok(())
        }
        Some(id) => {
            if opts.follow {
                client.follow_heartbeats(id, |line| println!("{line}"))?;
            }
            let body = if opts.wait || opts.follow {
                client.wait(id, std::time::Duration::from_millis(100))?
            } else {
                let reply = client.status(id)?;
                if reply.status == 404 {
                    return Err(format!("no such job: {id}"));
                }
                reply.body
            };
            print_reply(&body);
            Ok(())
        }
    }
}

fn cmd_cancel(opts: &Opts) -> Result<(), String> {
    let id = opts
        .rest
        .first()
        .ok_or("cancel needs a job id, e.g. `streamlab cancel job-000001`")?;
    let client = service_client(opts)?;
    let reply = client.cancel(id)?;
    if reply.status == 404 {
        return Err(format!("no such job: {id}"));
    }
    print_reply(&reply.body);
    Ok(())
}

fn cmd_shutdown(opts: &Opts) -> Result<(), String> {
    let client = service_client(opts)?;
    let reply = client.shutdown()?;
    print_reply(&reply.body);
    Ok(())
}

fn cmd_trace(opts: &Opts) -> Result<(), String> {
    let cfg = config(opts)?;
    let specs = streamlab::trace::generate_trace(&cfg);
    fs::create_dir_all(&opts.out).map_err(|e| e.to_string())?;
    let path = opts.out.join("trace.json");
    atomic_write_with(&path, |f| {
        streamlab::trace::save_trace(&specs, f).map_err(io::Error::other)
    })
    .map_err(at(&path))?;
    eprintln!("wrote {} sessions to {}", specs.len(), path.display());
    Ok(())
}

fn cmd_replay(opts: &Opts) -> Result<(), String> {
    let path = opts
        .rest
        .first()
        .ok_or("replay needs a trace file, e.g. `streamlab replay out/trace.json`")?;
    let file = fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let specs = streamlab::trace::load_trace(file).map_err(|e| e.to_string())?;
    eprintln!("replaying {} sessions ...", specs.len());
    let cfg = config(opts)?;
    let out = streamlab::trace::replay(cfg, specs).map_err(|e| e.to_string())?;
    warn_partial("", &out.shard_errors);
    println!("{}", full_report(&out));
    Ok(())
}

fn cmd_recurrence(opts: &Opts) -> Result<(), String> {
    let cfg = config(opts)?;
    let study = recurrence_study(&cfg, opts.days, 100.0).map_err(|e| e.to_string())?;
    println!(
        "{} days at 100 ms tail threshold: {} prefixes ever in tail, {} persistent (top 10%)",
        study.days,
        study.ever_in_tail,
        study.persistent.len()
    );
    println!(
        "persistent set: {:.0}% non-US; close US tail {:.0}% enterprise; US median distance {:.0} km",
        100.0 * study.persistent_non_us,
        100.0 * study.close_enterprise_share,
        study.us_distance_median_km
    );
    for p in study.persistent.iter().take(15) {
        println!(
            "  {}  freq={:.2}  dist={:.0}km  {}  {}",
            p.prefix,
            p.frequency(),
            p.mean_distance_km,
            if p.is_us { "US" } else { "intl" },
            if p.enterprise {
                "enterprise"
            } else {
                "residential"
            },
        );
    }
    Ok(())
}
