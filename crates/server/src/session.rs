//! Per-session databases.
//!
//! Each session owns an isolated [`Database`]. Queries execute against
//! an O(1) [`Database::snapshot`] taken under a short lock, so readers
//! never hold the session lock while evaluating and a long analytical
//! read never blocks a concurrent writer — the paper's restructuring
//! pipelines can run for seconds, and admission control (not locking)
//! is what bounds them. Every critical section here is O(1), which is
//! what lets the executor's request jobs route into sessions without a
//! lock ever becoming the connection-scaling bottleneck; the registry
//! itself is read-mostly (one lookup per routed request against rare
//! creates/removes), so it sits behind an `RwLock`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use tabular_core::Database;

/// One client session: an isolated database behind a lock that is only
/// ever held for O(1) snapshot/commit operations.
pub struct Session {
    db: Mutex<Database>,
}

impl Session {
    /// Snapshot the current state (O(1) handle clone).
    pub fn snapshot(&self) -> Database {
        self.db.lock().unwrap_or_else(|e| e.into_inner()).snapshot()
    }

    /// Replace the session state with a completed run's output
    /// (last-writer-wins; the snapshot taken at admission is the
    /// read view the run saw).
    pub fn commit(&self, db: Database) {
        *self.db.lock().unwrap_or_else(|e| e.into_inner()) = db;
    }

    /// Mutate the state in place (table uploads).
    pub fn with_db<T>(&self, f: impl FnOnce(&mut Database) -> T) -> T {
        f(&mut self.db.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// The session registry. Ids are dense integers rendered as `s<N>` on
/// the wire.
#[derive(Default)]
pub struct Sessions {
    next: AtomicU64,
    map: RwLock<HashMap<u64, Arc<Session>>>,
}

impl Sessions {
    /// Open a new empty session and return its id.
    pub fn create(&self) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let session = Arc::new(Session {
            db: Mutex::new(Database::new()),
        });
        self.map
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, session);
        id
    }

    /// Look up a live session (shared lock: the per-request hot path).
    pub fn get(&self, id: u64) -> Option<Arc<Session>> {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&id)
            .cloned()
    }

    /// Close a session; `false` if it was not open.
    pub fn remove(&self, id: u64) -> bool {
        self.map
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&id)
            .is_some()
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.map.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parse a wire session id (`s<N>`).
    pub fn parse_id(text: &str) -> Option<u64> {
        text.strip_prefix('s')?.parse().ok()
    }

    /// Render a session id for the wire.
    pub fn render_id(id: u64) -> String {
        format!("s{id}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular_core::Table;

    #[test]
    fn sessions_are_isolated() {
        let sessions = Sessions::default();
        let a = sessions.create();
        let b = sessions.create();
        assert_ne!(a, b);
        sessions.get(a).unwrap().with_db(|db| {
            db.insert(Table::relational("T", &["X"], &[&["only in a"]]));
        });
        assert_eq!(sessions.get(a).unwrap().snapshot().tables().len(), 1);
        assert!(sessions.get(b).unwrap().snapshot().tables().is_empty());
        assert!(sessions.remove(a));
        assert!(!sessions.remove(a));
        assert!(sessions.get(a).is_none());
        assert_eq!(sessions.len(), 1);
    }

    #[test]
    fn wire_ids_round_trip() {
        assert_eq!(Sessions::parse_id(&Sessions::render_id(7)), Some(7));
        assert_eq!(Sessions::parse_id("7"), None);
        assert_eq!(Sessions::parse_id("sx"), None);
    }
}
