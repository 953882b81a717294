//! A deliberately small HTTP/1.1 layer over `std::net` — no async
//! runtime, no framework, `Connection: close` on every response.
//!
//! The daemon binds a loopback listener and serves:
//!
//! | method | path                   | purpose                                  |
//! |--------|------------------------|------------------------------------------|
//! | GET    | `/healthz`             | liveness probe                           |
//! | GET    | `/metrics`             | OpenMetrics exposition (queue/job state) |
//! | GET    | `/status`              | daemon summary incl. quarantine log      |
//! | POST   | `/jobs`                | submit a [`JobSpec`]                     |
//! | GET    | `/jobs`                | list all jobs                            |
//! | GET    | `/jobs/{id}`           | one job's status                         |
//! | POST   | `/jobs/{id}/cancel`    | request cancellation                     |
//! | GET    | `/jobs/{id}/heartbeats`| close-delimited JSONL progress stream    |
//! | POST   | `/shutdown`            | stop the daemon                          |
//!
//! Shed submissions return `503` with a `Retry-After` header and the
//! structured [`ShedResponse`] body — the graceful-degradation contract:
//! an overloaded daemon answers quickly and precisely instead of queueing
//! without bound.

use crate::job::JobSpec;
use crate::pool::{Pool, SubmitOutcome};
use serde::{Deserialize, Serialize, Value};
use serde_json::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A parsed request: just enough HTTP for a loopback control socket.
struct Request {
    method: String,
    path: String,
    body: String,
}

/// Longest request or header line accepted, terminator included.
const MAX_LINE_BYTES: u64 = 8 << 10;
/// Most header lines one request may carry.
const MAX_HEADERS: usize = 100;

/// One line of at most [`MAX_LINE_BYTES`], so a sender that never sends
/// a newline costs the daemon a bounded buffer.
fn read_line(reader: &mut impl BufRead, what: &str) -> Result<String, String> {
    let mut line = String::new();
    let n = reader
        .take(MAX_LINE_BYTES)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    if n as u64 == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(format!("{what} longer than {MAX_LINE_BYTES} bytes"));
    }
    Ok(line)
}

fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let line = read_line(&mut reader, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let path = parts.next().unwrap_or("").to_owned();
    if method.is_empty() || path.is_empty() {
        return Err("malformed request line".into());
    }
    let mut content_length = 0usize;
    for count in 0.. {
        let header = read_line(&mut reader, "header line")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if count == MAX_HEADERS {
            return Err(format!("more than {MAX_HEADERS} header lines"));
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse::<usize>().ok())
        {
            content_length = v;
        }
    }
    // Bound the body: a control socket has no business accepting more.
    if content_length > 4 << 20 {
        return Err("request body too large".into());
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    Ok(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

fn write_response(stream: &mut TcpStream, status: u16, extra_headers: &[String], body: &str) {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for h in extra_headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn json_body(v: &Value) -> String {
    v.to_json_string() + "\n"
}

/// Serve one connection. `stop` is set (and the caller's accept loop
/// nudged) when a `POST /shutdown` arrives.
pub(crate) fn handle(mut stream: TcpStream, pool: &Arc<Pool>, stop: &Arc<AtomicBool>) {
    let req = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            write_response(
                &mut stream,
                400,
                &[],
                &json_body(&json!({ "error": format!("bad request: {e}") })),
            );
            return;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            // Health traffic re-probes a degraded disk, so polling
            // /healthz is enough to bring the daemon back once space
            // returns. The daemon itself is alive either way: 200.
            let body = match pool.check_disk() {
                None => json!({ "status": "ok", "read_only": false }),
                Some(failure) => json!({
                    "status": "degraded",
                    "read_only": true,
                    "disk": json!({ "reason": failure.reason, "error": failure.message })
                }),
            };
            write_response(&mut stream, 200, &[], &json_body(&body));
        }
        ("GET", "/metrics") => {
            let text = metrics_text(pool);
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/openmetrics-text; version=1.0.0\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                text.len()
            );
            let _ = stream.write_all(head.as_bytes());
            let _ = stream.write_all(text.as_bytes());
        }
        ("GET", "/status") => {
            let (depth, running, inflight) = pool.load();
            let quarantined: Vec<Value> = pool.quarantined().iter().map(|q| q.to_value()).collect();
            let disk = pool.check_disk();
            write_response(
                &mut stream,
                200,
                &[],
                &json_body(&json!({
                    "status": if disk.is_some() { "degraded" } else { "ok" },
                    "read_only": disk.is_some(),
                    "disk": match disk {
                        Some(f) => json!({ "reason": f.reason, "error": f.message }),
                        None => Value::Null,
                    },
                    "queue_depth": depth,
                    "running": running,
                    "inflight_sessions": inflight,
                    "quarantined": quarantined
                })),
            );
        }
        ("POST", "/jobs") => {
            let spec = Value::parse_json(&req.body)
                .map_err(|e| e.to_string())
                .and_then(|v| JobSpec::from_value(&v).map_err(|e| e.to_string()));
            let spec = match spec {
                Ok(s) => s,
                Err(e) => {
                    write_response(
                        &mut stream,
                        400,
                        &[],
                        &json_body(&json!({ "error": format!("bad job spec: {e}") })),
                    );
                    return;
                }
            };
            match pool.submit(spec) {
                SubmitOutcome::Accepted { id, degraded } => {
                    let degraded = match degraded {
                        Some(d) => Value::String(d),
                        None => Value::Null,
                    };
                    write_response(
                        &mut stream,
                        202,
                        &[],
                        &json_body(&json!({
                            "accepted": true,
                            "id": id,
                            "degraded": degraded
                        })),
                    );
                }
                SubmitOutcome::Shed(shed) => {
                    write_response(
                        &mut stream,
                        503,
                        &[format!("Retry-After: {}", shed.retry_after_s)],
                        &json_body(&json!({ "accepted": false, "shed": shed })),
                    );
                }
                SubmitOutcome::Invalid(err) => {
                    write_response(
                        &mut stream,
                        400,
                        &[],
                        &json_body(&json!({ "accepted": false, "error": err })),
                    );
                }
            }
        }
        ("GET", "/jobs") => {
            write_response(
                &mut stream,
                200,
                &[],
                &json_body(&json!({ "jobs": pool.list() })),
            );
        }
        ("POST", "/shutdown") => {
            stop.store(true, Ordering::SeqCst);
            write_response(
                &mut stream,
                200,
                &[],
                &json_body(&json!({ "status": "shutting down" })),
            );
        }
        (method, path) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            let (id, action) = match rest.split_once('/') {
                Some((id, action)) => (id, Some(action)),
                None => (rest, None),
            };
            match (method, action) {
                ("GET", None) => match pool.job(id) {
                    Some(h) => write_response(&mut stream, 200, &[], &json_body(&h.status())),
                    None => not_found(&mut stream, id),
                },
                ("POST", Some("cancel")) => match pool.cancel(id) {
                    Some(status) => write_response(&mut stream, 200, &[], &json_body(&status)),
                    None => not_found(&mut stream, id),
                },
                ("GET", Some("heartbeats")) => match pool.job(id) {
                    Some(handle) => {
                        let head = "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nConnection: close\r\n\r\n";
                        if stream.write_all(head.as_bytes()).is_err() {
                            return;
                        }
                        let mut at = 0usize;
                        loop {
                            let (lines, terminal) =
                                handle.wait_heartbeats(at, Duration::from_millis(250));
                            at += lines.len();
                            for line in &lines {
                                if stream.write_all(line.as_bytes()).is_err()
                                    || stream.write_all(b"\n").is_err()
                                {
                                    return; // client went away
                                }
                            }
                            let _ = stream.flush();
                            if terminal && lines.is_empty() {
                                return; // close delimits the stream
                            }
                        }
                    }
                    None => not_found(&mut stream, id),
                },
                _ => write_response(
                    &mut stream,
                    405,
                    &[],
                    &json_body(&json!({ "error": "method not allowed" })),
                ),
            }
        }
        _ => write_response(
            &mut stream,
            404,
            &[],
            &json_body(&json!({ "error": format!("no route for {} {}", req.method, req.path) })),
        ),
    }
}

fn not_found(stream: &mut TcpStream, id: &str) {
    write_response(
        stream,
        404,
        &[],
        &json_body(&json!({ "error": format!("no such job: {id}") })),
    );
}

/// Render the pool's counters and load as an OpenMetrics exposition,
/// including disk-degradation state and injected-storage-fault counts.
pub(crate) fn metrics_text(pool: &Pool) -> String {
    let c = pool.counters();
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    let (depth, running, inflight) = pool.load();
    let mut counters: Vec<(&str, &str, u64)> = vec![
        (
            "serve_jobs_submitted",
            "submissions accepted into the queue",
            load(&c.jobs_submitted),
        ),
        (
            "serve_jobs_shed",
            "submissions shed by admission control",
            load(&c.jobs_shed),
        ),
        (
            "serve_jobs_completed",
            "jobs run to completion",
            load(&c.jobs_completed),
        ),
        (
            "serve_jobs_failed",
            "jobs that died with a structured error",
            load(&c.jobs_failed),
        ),
        (
            "serve_jobs_cancelled",
            "jobs cancelled by a client",
            load(&c.jobs_cancelled),
        ),
        (
            "serve_seeds_computed",
            "seeds computed fresh",
            load(&c.seeds_computed),
        ),
        (
            "serve_seeds_recovered",
            "seeds resumed from checkpoints",
            load(&c.seeds_recovered),
        ),
        (
            "serve_quarantined",
            "state directories quarantined",
            load(&c.quarantined),
        ),
        (
            "serve_disk_degraded_events",
            "times the state dir entered degraded (read-only) mode",
            load(&c.disk_degraded),
        ),
        (
            "serve_disk_recovered_events",
            "times the state dir recovered from degraded mode",
            load(&c.disk_recovered),
        ),
        (
            "serve_jobs_parked",
            "jobs parked by storage failures awaiting disk recovery",
            load(&c.jobs_parked),
        ),
        (
            "serve_stale_staging_removed",
            "orphaned staging files removed by startup/open sweeps",
            load(&c.stale_staging_removed),
        ),
    ];
    counters.extend(pool.storage_fault_snapshot().samples());
    streamlab_obs::openmetrics::render_exposition(
        &counters,
        &[
            ("serve_queue_depth", "jobs waiting for a worker", depth),
            ("serve_jobs_running", "jobs currently executing", running),
            (
                "serve_inflight_sessions",
                "session cost of queued plus running jobs",
                inflight,
            ),
            (
                "serve_disk_degraded",
                "1 while the state dir is degraded and the daemon is read-only",
                pool.disk_status().is_some() as u64,
            ),
        ],
    )
}
