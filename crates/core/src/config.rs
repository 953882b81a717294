//! Simulation configuration and scale presets.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use streamlab_cdn::{FleetConfig, TieredCacheConfig};
use streamlab_client::abr::AbrAlgorithm;
use streamlab_client::{PlayerConfig, StackConfig};
use streamlab_faults::FaultScenario;
use streamlab_net::{PropagationModel, TcpConfig};
use streamlab_workload::catalog::CatalogConfig;
use streamlab_workload::population::PopulationConfig;
use streamlab_workload::session::TrafficConfig;

/// Run scale, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Test-sized: hundreds of sessions.
    Tiny,
    /// Example-sized: a few thousand sessions.
    Small,
    /// Paper-shaped default: tens of thousands of sessions.
    Default,
}

/// Out-of-core telemetry: when set, each shard's `TelemetrySink` seals a
/// sorted columnar segment into `dir` and resets whenever its arenas reach
/// `threshold` rows, so peak RSS stays flat in chunk volume; the join
/// streams the segments back through the same sort-merge that joins
/// in-RAM runs. Inert (`None`) by default; output is byte-identical either
/// way at any thread count. Only runs that join spill: a sweep seed folds
/// each session as it ends and ignores it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpillConfig {
    /// Directory segment files are written into (created if missing).
    /// Stored as a `String` so the config stays portable JSON.
    pub dir: String,
    /// Arena row count that triggers a segment seal.
    pub threshold: usize,
}

impl SpillConfig {
    /// The `--spill-threshold` a spilled run uses unless told otherwise.
    pub const DEFAULT_THRESHOLD: usize = 262_144;
}

/// Full configuration of one simulated measurement window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// Day index within a multi-day study (§4.2.1 measures tail-prefix
    /// *recurrence* across days). The world — catalog, population, fleet —
    /// is a pure function of `seed`; the traffic drawn on top varies with
    /// `day`, exactly like re-observing the same deployment on another
    /// date.
    pub day: u64,
    /// Scale tag.
    pub scale: Scale,
    /// Video catalog.
    pub catalog: CatalogConfig,
    /// Client population.
    pub population: PopulationConfig,
    /// Session arrivals and watch times.
    pub traffic: TrafficConfig,
    /// CDN fleet. Shared (`Arc`) because sweeps, ablations and multi-day
    /// studies clone the whole config once per run: the fleet section is
    /// immutable at run time, so every clone is a pointer bump. Mutate
    /// through [`SimulationConfig::fleet_mut`] while still configuring.
    pub fleet: Arc<FleetConfig>,
    /// TCP sender parameters (pacing lives here).
    pub tcp: TcpConfig,
    /// Client download-stack model.
    pub stack: StackConfig,
    /// Player buffering policy.
    pub player: PlayerConfig,
    /// ABR algorithm used by all players in the run.
    pub abr: AbrAlgorithm,
    /// Distance → delay model.
    pub propagation: PropagationModel,
    /// Fault-injection scenario plus the clients' resilience policy.
    /// The default is inert (nothing scheduled, no random draws), so
    /// unfaulted runs are byte-identical to a build without the fault
    /// layer. Loaded from a JSON file via the CLI's `--faults` flag or
    /// set programmatically.
    pub faults: FaultScenario,
    /// Worker threads for the event loops. The engine runs one event
    /// loop per fleet shard — per *server* wherever the fault scenario
    /// cannot reject requests (no failover possible there), per PoP
    /// where it can — across this many workers (`0` and `1` both mean
    /// one), each claiming the largest shard left, so a skewed PoP's
    /// servers spread over every worker. Output is bit-identical at every
    /// thread count
    /// (sessions never touch servers outside their shard, and results
    /// join in canonical shard order), so this is purely a wall-clock
    /// knob.
    pub threads: usize,
    /// Shard watchdog deadline, wall-clock milliseconds; `0` disables
    /// the watchdog. With a deadline set, a shard (a server's — or,
    /// under failure faults, a PoP's — event loop) whose *sim-time*
    /// stops advancing for this long is cancelled and reported as a
    /// structured stall (partial results) instead of hanging the run.
    /// Wall-clock only decides *whether a shard is abandoned*, never any
    /// simulated quantity, so determinism is unaffected on runs that
    /// don't stall.
    pub shard_deadline_ms: u64,
    /// Telemetry spill settings (out-of-core runs); `None` keeps every
    /// record in RAM, the historical behavior.
    pub spill: Option<SpillConfig>,
}

impl SimulationConfig {
    /// The paper-shaped default: 20 k sessions over a day, 10 k videos,
    /// 85 servers.
    pub fn default_scale(seed: u64) -> Self {
        // 65 M sessions over Yahoo's catalog give each popular video many
        // plays; at 20 k sessions the catalog must shrink accordingly so
        // the sessions-per-video ratio (and hence cache reuse) survives
        // the scale-down.
        let catalog = CatalogConfig {
            videos: 3_000,
            ..CatalogConfig::default()
        };
        SimulationConfig {
            seed,
            day: 0,
            scale: Scale::Default,
            catalog,
            population: PopulationConfig::default(),
            traffic: TrafficConfig::default(),
            fleet: {
                let mut fleet = FleetConfig::default();
                fleet.server.cache = TieredCacheConfig {
                    ram_bytes: 14 * 1024 * 1024 * 1024,
                    disk_bytes: 120 * 1024 * 1024 * 1024,
                    ..fleet.server.cache
                };
                Arc::new(fleet)
            },
            tcp: TcpConfig::default(),
            stack: StackConfig::default(),
            player: PlayerConfig::default(),
            abr: AbrAlgorithm::default(),
            propagation: PropagationModel::default(),
            faults: FaultScenario::default(),
            threads: 1,
            shard_deadline_ms: 0,
            spill: None,
        }
    }

    /// Example-sized: a few thousand sessions; runs in seconds.
    pub fn small(seed: u64) -> Self {
        let mut cfg = Self::default_scale(seed);
        cfg.scale = Scale::Small;
        cfg.catalog.videos = 800;
        cfg.population.prefixes = 800;
        cfg.population.enterprises = 6;
        cfg.traffic.sessions = 4_000;
        let fleet = cfg.fleet_mut();
        fleet.servers = 40;
        fleet.server.cache = TieredCacheConfig {
            ram_bytes: 8 * 1024 * 1024 * 1024,
            disk_bytes: 54 * 1024 * 1024 * 1024,
            ..fleet.server.cache
        };
        cfg
    }

    /// Test-sized: hundreds of sessions; fast enough for unit tests.
    pub fn tiny(seed: u64) -> Self {
        let mut cfg = Self::default_scale(seed);
        cfg.scale = Scale::Tiny;
        cfg.catalog.videos = 200;
        cfg.population.prefixes = 250;
        cfg.population.enterprises = 4;
        cfg.traffic.sessions = 600;
        cfg.traffic.window = streamlab_sim::SimDuration::from_secs(4 * 3600);
        let fleet = cfg.fleet_mut();
        fleet.servers = 20;
        fleet.server.cache = TieredCacheConfig {
            ram_bytes: 4 * 1024 * 1024 * 1024,
            disk_bytes: 30 * 1024 * 1024 * 1024,
            ..fleet.server.cache
        };
        cfg
    }

    /// Mutable access to the fleet section for configuration-time edits
    /// (presets, ablations, CLI flags). Copies the section on write only
    /// if another config still shares it.
    pub fn fleet_mut(&mut self) -> &mut FleetConfig {
        Arc::make_mut(&mut self.fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_shrink_monotonically() {
        let d = SimulationConfig::default_scale(1);
        let s = SimulationConfig::small(1);
        let t = SimulationConfig::tiny(1);
        assert!(d.traffic.sessions > s.traffic.sessions);
        assert!(s.traffic.sessions > t.traffic.sessions);
        assert!(d.catalog.videos > s.catalog.videos);
        assert!(s.fleet.servers > t.fleet.servers);
        assert!(t.fleet.servers >= 10, "need at least one server per PoP");
    }

    #[test]
    fn config_serializes() {
        let cfg = SimulationConfig::small(42);
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: SimulationConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.seed, 42);
        assert_eq!(back.traffic.sessions, cfg.traffic.sessions);
    }
}
