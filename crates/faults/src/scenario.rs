//! Scenario declaration: what fails, where, and when.

use crate::schedule::{PathFaultTimeline, ServerFaultTimeline};
use serde::{Deserialize, Error, Serialize, Value};
use streamlab_sim::SimTime;

/// A single server restart: at `at_s` the server's RAM cache is wiped
/// while its disk cache stays warm — the paper's churn→miss-storm
/// mechanism (RAM serves the short-term working set, so the first
/// requests after a restart fall through to disk or the backend).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerRestart {
    /// Global server index (as reported by `streamlab list`).
    pub server: usize,
    /// Restart instant, seconds of simulated time.
    pub at_s: f64,
}

/// A single-server outage window: requests reaching the server in
/// `[from_s, until_s)` fail and the client retries / fails over.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerOutage {
    /// Global server index.
    pub server: usize,
    /// Window start, seconds.
    pub from_s: f64,
    /// Window end (exclusive), seconds.
    pub until_s: f64,
}

/// A whole-PoP outage window: every member server rejects requests, so
/// same-PoP failover cannot help and clients back off until the window
/// ends (or abort after `max_attempts_per_chunk`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopOutage {
    /// PoP index.
    pub pop: usize,
    /// Window start, seconds.
    pub from_s: f64,
    /// Window end (exclusive), seconds.
    pub until_s: f64,
}

/// An episodic loss burst on the network path: during the window every
/// transfer round sees `added_loss` extra random segment-loss
/// probability on top of the path's baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossBurst {
    /// Window start, seconds.
    pub from_s: f64,
    /// Window end (exclusive), seconds.
    pub until_s: f64,
    /// Additional per-segment loss probability (0..1).
    pub added_loss: f64,
}

/// A network blackout window: new chunk requests issued inside the
/// window fail immediately (transfers already in flight are modeled as
/// surviving — the paper's sessions ride out sub-second incidents inside
/// TCP, so the blackout bites at request time).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Blackout {
    /// Window start, seconds.
    pub from_s: f64,
    /// Window end (exclusive), seconds.
    pub until_s: f64,
}

/// An origin/backend slowdown window: cache-miss backend fetches take
/// `factor`× their sampled latency fleet-wide.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackendSlowdown {
    /// Window start, seconds.
    pub from_s: f64,
    /// Window end (exclusive), seconds.
    pub until_s: f64,
    /// Multiplier applied to the sampled backend latency (≥ 1).
    pub factor: f64,
}

/// Client-side resilience policy: how a session answers failed chunk
/// requests. All fields have defaults, so scenario files only name what
/// they change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ResilienceConfig {
    /// Time a client waits before declaring a request failed, seconds.
    pub request_timeout_s: f64,
    /// First-retry backoff, seconds; doubles every further attempt.
    pub backoff_base_s: f64,
    /// Exponential backoff ceiling, seconds.
    pub backoff_cap_s: f64,
    /// Jitter fraction: the backoff term is scaled by `1 + jitter·u`
    /// with `u` uniform in `[0, 1)` from the session's retry stream.
    pub backoff_jitter: f64,
    /// Fail over to the next same-PoP server after this many
    /// *consecutive* failures (0 disables failover).
    pub failover_after: u32,
    /// Abort the session after this many failed attempts for one chunk.
    pub max_attempts_per_chunk: u32,
    /// When retries have eaten the buffer below this level, the ABR
    /// drops to the lowest rung (emergency down-switch), seconds.
    pub emergency_buffer_s: f64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            request_timeout_s: 2.0,
            backoff_base_s: 0.5,
            backoff_cap_s: 8.0,
            backoff_jitter: 0.25,
            failover_after: 2,
            max_attempts_per_chunk: 12,
            emergency_buffer_s: 8.0,
        }
    }
}

impl Deserialize for ResilienceConfig {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let d = ResilienceConfig::default();
        let f = |key: &str, dflt: f64| -> Result<f64, Error> {
            match v.get(key) {
                Some(x) => x
                    .as_f64()
                    .ok_or_else(|| Error::msg(format!("resilience.{key}: expected number"))),
                None => Ok(dflt),
            }
        };
        let u = |key: &str, dflt: u32| -> Result<u32, Error> {
            match v.get(key) {
                Some(x) => x
                    .as_u64()
                    .map(|n| n as u32)
                    .ok_or_else(|| Error::msg(format!("resilience.{key}: expected integer"))),
                None => Ok(dflt),
            }
        };
        Ok(ResilienceConfig {
            request_timeout_s: f("request_timeout_s", d.request_timeout_s)?,
            backoff_base_s: f("backoff_base_s", d.backoff_base_s)?,
            backoff_cap_s: f("backoff_cap_s", d.backoff_cap_s)?,
            backoff_jitter: f("backoff_jitter", d.backoff_jitter)?,
            failover_after: u("failover_after", d.failover_after)?,
            max_attempts_per_chunk: u("max_attempts_per_chunk", d.max_attempts_per_chunk)?,
            emergency_buffer_s: f("emergency_buffer_s", d.emergency_buffer_s)?,
        })
    }
}

/// A full fault scenario: every injected failure, plus the resilience
/// policy the clients answer with. The default scenario is completely
/// inert — it schedules nothing, draws no random numbers, and leaves
/// every run byte-identical to a build without the fault layer.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct FaultScenario {
    /// RAM-wipe server restarts.
    pub server_restarts: Vec<ServerRestart>,
    /// Single-server outage windows.
    pub server_outages: Vec<ServerOutage>,
    /// Whole-PoP outage windows.
    pub pop_outages: Vec<PopOutage>,
    /// Episodic path loss bursts (apply to every session's path).
    pub loss_bursts: Vec<LossBurst>,
    /// Network blackout windows (fail new requests fleet-wide).
    pub blackouts: Vec<Blackout>,
    /// Origin/backend slowdown windows (fleet-wide).
    pub backend_slowdowns: Vec<BackendSlowdown>,
    /// Harness fault: PoP indices whose shard job panics at start.
    /// Exercises the orchestrator's panic isolation and partial-result
    /// reporting.
    pub panic_pops: Vec<usize>,
    /// Harness fault: PoP indices whose shard job wedges (sim-time stops
    /// advancing) instead of finishing. Exercises the supervisor
    /// watchdog's stall detection. Without a
    /// `--shard-deadline` the run would hang, so the engine rejects this
    /// fault when no deadline is configured.
    pub stall_pops: Vec<usize>,
    /// Harness fault: global server indices whose shard job panics at
    /// start. With fine-grained (per-server) sharding this kills just the
    /// one server's shard and its PoP siblings survive; when the server's
    /// PoP runs as a single coarse shard (because another fault pins it
    /// together), the whole PoP's shard panics.
    pub panic_servers: Vec<usize>,
    /// Harness fault: global server indices whose shard job wedges
    /// instead of finishing — the per-server analogue of `stall_pops`,
    /// with the same shard-granularity semantics as `panic_servers`.
    /// Rejected without a `--shard-deadline`, like `stall_pops`.
    pub stall_servers: Vec<usize>,
    /// Harness fault: abort the whole process (as if `SIGKILL`ed) after
    /// this many sweep seed records have been written by this process
    /// (0 = off). A driver-level fault used to exercise checkpoint
    /// resume; it is stripped from the config stored in a sweep's run
    /// directory so the resumed run completes.
    pub kill_after_seeds: u32,
    /// Client resilience policy.
    pub resilience: ResilienceConfig,
}

impl Deserialize for FaultScenario {
    fn from_value(v: &Value) -> Result<Self, Error> {
        if v.as_object().is_none() {
            return Err(Error::msg("fault scenario: expected a JSON object"));
        }
        fn list<T: Deserialize>(v: &Value, key: &str) -> Result<Vec<T>, Error> {
            match v.get(key) {
                Some(x) => Vec::<T>::from_value(x)
                    .map_err(|e| Error::msg(format!("fault scenario {key}: {e}"))),
                None => Ok(Vec::new()),
            }
        }
        Ok(FaultScenario {
            server_restarts: list(v, "server_restarts")?,
            server_outages: list(v, "server_outages")?,
            pop_outages: list(v, "pop_outages")?,
            loss_bursts: list(v, "loss_bursts")?,
            blackouts: list(v, "blackouts")?,
            backend_slowdowns: list(v, "backend_slowdowns")?,
            panic_pops: list(v, "panic_pops")?,
            stall_pops: list(v, "stall_pops")?,
            panic_servers: list(v, "panic_servers")?,
            stall_servers: list(v, "stall_servers")?,
            kill_after_seeds: match v.get("kill_after_seeds") {
                Some(x) => x.as_u64().map(|n| n as u32).ok_or_else(|| {
                    Error::msg("fault scenario kill_after_seeds: expected integer")
                })?,
                None => 0,
            },
            resilience: match v.get("resilience") {
                Some(r) => ResilienceConfig::from_value(r)?,
                None => ResilienceConfig::default(),
            },
        })
    }
}

impl FaultScenario {
    /// True when the scenario injects nothing at all (including harness
    /// faults). An inert scenario leaves runs byte-identical to a build
    /// without the fault layer.
    pub fn is_inert(&self) -> bool {
        self.server_restarts.is_empty()
            && self.server_outages.is_empty()
            && self.pop_outages.is_empty()
            && self.loss_bursts.is_empty()
            && self.blackouts.is_empty()
            && self.backend_slowdowns.is_empty()
            && self.panic_pops.is_empty()
            && self.stall_pops.is_empty()
            && self.panic_servers.is_empty()
            && self.stall_servers.is_empty()
            && self.kill_after_seeds == 0
    }

    /// True when any *path-level* fault (loss burst or blackout) is
    /// declared; used to skip installing timelines on every connection.
    pub fn has_path_faults(&self) -> bool {
        !self.loss_bursts.is_empty() || !self.blackouts.is_empty()
    }

    /// True when any *server-level* fault is declared.
    pub fn has_server_faults(&self) -> bool {
        !self.server_restarts.is_empty()
            || !self.server_outages.is_empty()
            || !self.pop_outages.is_empty()
            || !self.backend_slowdowns.is_empty()
    }

    /// Parse a scenario from JSON text. Missing keys default (an empty
    /// object is the inert scenario).
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = Value::parse_json(text).map_err(|e| format!("fault scenario: {e}"))?;
        let sc = FaultScenario::from_value(&v).map_err(|e| e.to_string())?;
        sc.validate()?;
        Ok(sc)
    }

    /// Read and parse a `--faults` scenario file.
    pub fn from_json_file(path: &str) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading faults {path}: {e}"))?;
        Self::from_json_str(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Sanity-check windows and magnitudes.
    pub fn validate(&self) -> Result<(), String> {
        let window = |name: &str, from: f64, until: f64| -> Result<(), String> {
            if !(from.is_finite() && until.is_finite() && from >= 0.0 && until > from) {
                return Err(format!("{name}: window [{from}, {until}) is not valid"));
            }
            Ok(())
        };
        for r in &self.server_restarts {
            if !(r.at_s.is_finite() && r.at_s >= 0.0) {
                return Err(format!("server_restarts: at_s {} is not valid", r.at_s));
            }
        }
        for o in &self.server_outages {
            window("server_outages", o.from_s, o.until_s)?;
        }
        for o in &self.pop_outages {
            window("pop_outages", o.from_s, o.until_s)?;
        }
        for b in &self.loss_bursts {
            window("loss_bursts", b.from_s, b.until_s)?;
            if !(b.added_loss > 0.0 && b.added_loss <= 1.0) {
                return Err(format!(
                    "loss_bursts: added_loss {} must be in (0, 1]",
                    b.added_loss
                ));
            }
        }
        for b in &self.blackouts {
            window("blackouts", b.from_s, b.until_s)?;
        }
        for s in &self.backend_slowdowns {
            window("backend_slowdowns", s.from_s, s.until_s)?;
            if !(s.factor.is_finite() && s.factor >= 1.0) {
                return Err(format!(
                    "backend_slowdowns: factor {} must be >= 1",
                    s.factor
                ));
            }
        }
        let r = &self.resilience;
        if r.request_timeout_s <= 0.0
            || r.backoff_base_s < 0.0
            || r.backoff_cap_s < r.backoff_base_s
            || r.backoff_jitter < 0.0
            || r.max_attempts_per_chunk == 0
        {
            return Err(
                "resilience: timeout must be > 0, 0 <= base <= cap, jitter >= 0, \
                        max_attempts_per_chunk >= 1"
                    .into(),
            );
        }
        Ok(())
    }

    /// Compile the per-server fault timeline for global server index
    /// `server` living in PoP `pop`: its own restarts and outages, its
    /// PoP's outages, and the fleet-wide backend slowdowns.
    pub fn server_timeline(&self, server: usize, pop: usize) -> ServerFaultTimeline {
        let restarts = self
            .server_restarts
            .iter()
            .filter(|r| r.server == server)
            .map(|r| SimTime::from_secs_f64(r.at_s))
            .collect();
        let mut outages: Vec<(SimTime, SimTime)> = self
            .server_outages
            .iter()
            .filter(|o| o.server == server)
            .map(|o| {
                (
                    SimTime::from_secs_f64(o.from_s),
                    SimTime::from_secs_f64(o.until_s),
                )
            })
            .collect();
        outages.extend(self.pop_outages.iter().filter(|o| o.pop == pop).map(|o| {
            (
                SimTime::from_secs_f64(o.from_s),
                SimTime::from_secs_f64(o.until_s),
            )
        }));
        let slowdowns = self
            .backend_slowdowns
            .iter()
            .map(|s| {
                (
                    SimTime::from_secs_f64(s.from_s),
                    SimTime::from_secs_f64(s.until_s),
                    s.factor,
                )
            })
            .collect();
        ServerFaultTimeline::new(restarts, outages, slowdowns)
    }

    /// Compile the path fault timeline shared by every session.
    pub fn path_timeline(&self) -> PathFaultTimeline {
        let bursts = self
            .loss_bursts
            .iter()
            .map(|b| {
                (
                    SimTime::from_secs_f64(b.from_s),
                    SimTime::from_secs_f64(b.until_s),
                    b.added_loss,
                )
            })
            .collect();
        let blackouts = self
            .blackouts
            .iter()
            .map(|b| {
                (
                    SimTime::from_secs_f64(b.from_s),
                    SimTime::from_secs_f64(b.until_s),
                )
            })
            .collect();
        PathFaultTimeline::new(bursts, blackouts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_object_is_inert() {
        let sc = FaultScenario::from_json_str("{}").unwrap();
        assert!(sc.is_inert());
        assert_eq!(sc.resilience, ResilienceConfig::default());
    }

    #[test]
    fn partial_scenario_defaults_missing_sections() {
        let sc = FaultScenario::from_json_str(
            r#"{
                "server_restarts": [{"server": 3, "at_s": 1800.0}],
                "resilience": {"failover_after": 1}
            }"#,
        )
        .unwrap();
        assert_eq!(sc.server_restarts.len(), 1);
        assert!(sc.server_outages.is_empty());
        assert_eq!(sc.resilience.failover_after, 1);
        assert_eq!(
            sc.resilience.request_timeout_s,
            ResilienceConfig::default().request_timeout_s
        );
        assert!(!sc.is_inert());
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let sc = FaultScenario {
            server_restarts: vec![ServerRestart {
                server: 1,
                at_s: 10.0,
            }],
            server_outages: vec![ServerOutage {
                server: 2,
                from_s: 5.0,
                until_s: 9.0,
            }],
            pop_outages: vec![PopOutage {
                pop: 0,
                from_s: 1.0,
                until_s: 2.0,
            }],
            loss_bursts: vec![LossBurst {
                from_s: 3.0,
                until_s: 4.0,
                added_loss: 0.05,
            }],
            blackouts: vec![Blackout {
                from_s: 6.0,
                until_s: 7.0,
            }],
            backend_slowdowns: vec![BackendSlowdown {
                from_s: 8.0,
                until_s: 9.0,
                factor: 4.0,
            }],
            panic_pops: vec![2],
            stall_pops: vec![1],
            panic_servers: vec![4],
            stall_servers: vec![5],
            kill_after_seeds: 3,
            resilience: ResilienceConfig::default(),
        };
        let text = sc.to_value().to_json_string();
        let back = FaultScenario::from_json_str(&text).unwrap();
        assert_eq!(back, sc);
    }

    #[test]
    fn validation_rejects_bad_windows() {
        assert!(FaultScenario::from_json_str(
            r#"{"server_outages": [{"server": 0, "from_s": 9.0, "until_s": 5.0}]}"#
        )
        .is_err());
        assert!(FaultScenario::from_json_str(
            r#"{"loss_bursts": [{"from_s": 0.0, "until_s": 1.0, "added_loss": 2.0}]}"#
        )
        .is_err());
        assert!(FaultScenario::from_json_str(
            r#"{"backend_slowdowns": [{"from_s": 0.0, "until_s": 1.0, "factor": 0.5}]}"#
        )
        .is_err());
    }

    #[test]
    fn timelines_pick_up_pop_outages() {
        let sc = FaultScenario::from_json_str(
            r#"{
                "server_outages": [{"server": 7, "from_s": 10.0, "until_s": 20.0}],
                "pop_outages": [{"pop": 1, "from_s": 30.0, "until_s": 40.0}]
            }"#,
        )
        .unwrap();
        let t = sc.server_timeline(7, 1);
        assert!(t.is_out(SimTime::from_secs(15)));
        assert!(t.is_out(SimTime::from_secs(35)));
        assert!(!t.is_out(SimTime::from_secs(25)));
        // A different server in the same PoP only sees the PoP outage.
        let t2 = sc.server_timeline(8, 1);
        assert!(!t2.is_out(SimTime::from_secs(15)));
        assert!(t2.is_out(SimTime::from_secs(35)));
    }
}
