//! The reference hash join the telemetry tests hold the library's join to.
//!
//! It builds the dataset key by key with no assumptions about record order
//! or alignment, so it is the semantic definition of the join and the
//! arbiter of which [`JoinError`] a malformed stream gets.

use std::collections::{BTreeMap, HashMap};

use streamlab_telemetry::records::{CdnChunkRecord, PlayerChunkRecord, SessionMeta};
use streamlab_telemetry::{ChunkRecord, Dataset, JoinError, SessionData};
use streamlab_workload::{ChunkIndex, SessionId};

/// Join the three beacon streams, given in the order a sink received them:
/// the last metadata record of a session wins, CDN records are keyed
/// first (a repeated key is a [`JoinError::DuplicateKey`]), then each
/// player record in turn claims its CDN record.
pub fn join_reference(
    metas: &[SessionMeta],
    players: &[PlayerChunkRecord],
    cdns: &[CdnChunkRecord],
) -> Result<Dataset, JoinError> {
    let mut by_id: BTreeMap<SessionId, &SessionMeta> = BTreeMap::new();
    for m in metas {
        by_id.insert(m.session, m);
    }

    let mut cdn: HashMap<(SessionId, ChunkIndex), &CdnChunkRecord> = HashMap::new();
    for r in cdns {
        let key = (r.session, r.chunk);
        if cdn.insert(key, r).is_some() {
            return Err(JoinError::DuplicateKey(key.0, key.1));
        }
    }

    let mut by_session: BTreeMap<SessionId, Vec<ChunkRecord>> = BTreeMap::new();
    for p in players {
        let key = (p.session, p.chunk);
        let Some(c) = cdn.remove(&key) else {
            return Err(JoinError::OrphanPlayerRecord(key.0, key.1));
        };
        if !by_id.contains_key(&p.session) {
            return Err(JoinError::MissingSessionMeta(p.session));
        }
        by_session.entry(p.session).or_default().push(ChunkRecord {
            player: p.clone(),
            cdn: c.clone(),
        });
    }
    if let Some(((s, c), _)) = cdn.into_iter().next() {
        return Err(JoinError::OrphanCdnRecord(s, c));
    }

    let mut sessions = Vec::with_capacity(by_session.len());
    for (id, mut chunks) in by_session {
        // (session, chunk) keys are unique past the duplicate check, so
        // an unstable sort cannot reorder equal elements — there are none.
        chunks.sort_unstable_by_key(|c| c.chunk());
        let meta = by_id[&id].clone();
        sessions.push(SessionData { meta, chunks });
    }
    let raw = sessions.len();
    Ok(Dataset {
        sessions,
        filtered_proxy_sessions: 0,
        raw_sessions: raw,
    })
}
