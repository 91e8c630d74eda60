//! The session manager: the server-side key cache of the paper's ARK
//! deployment motif (§V — "the ARK stores the keys of queries in the
//! waiting queue"). A client uploads its `log D0` expansion keys once;
//! every later query carries only a `u64` session id, and the online
//! payload shrinks from hundreds of KB of key material to the query
//! ciphertexts alone.
//!
//! The cache is bounded and **LRU**: each key set pins real memory, so at
//! `max_sessions` the least-recently-used session is evicted to admit the
//! new one instead of rejecting the Hello — under millions of clients the
//! cache self-manages and an evicted client simply re-Hellos (its next
//! query fails with `unknown session`, the client re-registers, and
//! service resumes). Evictions are counted and surfaced through
//! [`crate::ServerStats`]. The index and keyword services share this one
//! cache, generic over the [`SessionKeys`] they hold.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use ive_pir::kspir::{KsPirKeys, KsPirParams};
use ive_pir::{ClientKeys, PirParams};

use crate::ServeError;

/// A client key set the session cache can hold: the parameters a
/// registration is checked against, and the memory it pins.
pub trait SessionKeys: std::fmt::Debug + Send + Sync {
    /// The scheme parameters sessions are validated against.
    type Params: Clone + std::fmt::Debug + Send + Sync;

    /// Rejects a key set that cannot serve `params`.
    ///
    /// # Errors
    /// Fails when the key set does not match the geometry.
    fn validate(&self, params: &Self::Params) -> Result<(), ServeError>;

    /// Bytes of key material this set pins.
    fn byte_len(&self, params: &Self::Params) -> usize;
}

impl SessionKeys for ClientKeys {
    type Params = PirParams;

    fn validate(&self, params: &PirParams) -> Result<(), ServeError> {
        let need = params.log_d0() as usize;
        if self.subs_keys().len() != need {
            return Err(ServeError::Protocol(format!(
                "registered {} expansion keys where the geometry needs {need}",
                self.subs_keys().len()
            )));
        }
        Ok(())
    }

    fn byte_len(&self, params: &PirParams) -> usize {
        ClientKeys::byte_len(self, params.he())
    }
}

impl SessionKeys for KsPirKeys {
    type Params = KsPirParams;

    fn validate(&self, params: &KsPirParams) -> Result<(), ServeError> {
        let need = params.he().n().trailing_zeros() as usize;
        if self.trace_keys().len() != need {
            return Err(ServeError::Protocol(format!(
                "registered {} trace keys where the trace needs {need}",
                self.trace_keys().len()
            )));
        }
        Ok(())
    }

    fn byte_len(&self, params: &KsPirParams) -> usize {
        self.trace_keys().len() * params.he().evk_bytes()
    }
}

/// One cached key set plus its recency stamp. The stamp is atomic so
/// [`SessionManager::lookup`] can touch it under the shared read lock —
/// queries never serialize on the cache write lock just to stay "recent".
#[derive(Debug)]
struct Session<K> {
    keys: Arc<K>,
    last_used: AtomicU64,
}

/// Registered client key material, keyed by session id, LRU-bounded.
#[derive(Debug)]
pub struct SessionManager<K: SessionKeys = ClientKeys> {
    params: K::Params,
    max_sessions: usize,
    next_id: AtomicU64,
    /// Monotonic recency clock; ticked on every register and lookup.
    clock: AtomicU64,
    /// Sessions evicted to make room (shared with the metrics plane).
    evictions: Arc<AtomicU64>,
    keys: RwLock<HashMap<u64, Session<K>>>,
}

impl<K: SessionKeys> SessionManager<K> {
    /// An empty manager for the given scheme parameters, LRU-evicting
    /// once `max_sessions` key sets are cached.
    pub fn new(params: &K::Params, max_sessions: usize) -> Self {
        SessionManager::with_eviction_counter(params, max_sessions, Arc::default())
    }

    /// Like [`SessionManager::new`], but counting evictions into a
    /// caller-shared counter (the serving runtime passes the metrics
    /// plane's counter so evictions surface in [`crate::ServerStats`]).
    pub fn with_eviction_counter(
        params: &K::Params,
        max_sessions: usize,
        evictions: Arc<AtomicU64>,
    ) -> Self {
        SessionManager {
            params: params.clone(),
            max_sessions,
            next_id: AtomicU64::new(1),
            clock: AtomicU64::new(0),
            evictions,
            keys: RwLock::new(HashMap::new()),
        }
    }

    /// Validates and caches one client's key set, returning the session id
    /// the client must present with every query. At capacity the
    /// least-recently-used session is evicted to make room.
    ///
    /// # Errors
    /// Fails when the key set does not match the geometry.
    pub fn register(&self, keys: K) -> Result<u64, ServeError> {
        self.register_shared(Arc::new(keys))
    }

    /// [`SessionManager::register`] for key material already behind an
    /// `Arc` — registration then costs a validation and a map insert, no
    /// key copy (how churn tests drive ~100k registrations cheaply).
    ///
    /// # Errors
    /// Fails when the key set does not match the geometry.
    pub fn register_shared(&self, keys: Arc<K>) -> Result<u64, ServeError> {
        keys.validate(&self.params)?;
        if self.max_sessions == 0 {
            return Err(ServeError::Protocol("session cache disabled (max_sessions = 0)".into()));
        }
        let mut cache = self.keys.write().expect("session lock poisoned");
        while cache.len() >= self.max_sessions {
            // O(cache) scan under the write lock: caps are thousands,
            // not millions, and registration is the cold path.
            let lru = cache
                .iter()
                .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                .map(|(&id, _)| id)
                .expect("cache non-empty at capacity");
            cache.remove(&lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        cache.insert(id, Session { keys, last_used: AtomicU64::new(stamp) });
        Ok(id)
    }

    /// The scheme parameters sessions are validated against.
    #[inline]
    pub fn params(&self) -> &K::Params {
        &self.params
    }

    /// The cached keys for a session, if registered; touches the
    /// session's LRU stamp.
    pub fn lookup(&self, session_id: u64) -> Option<Arc<K>> {
        let cache = self.keys.read().expect("session lock poisoned");
        cache.get(&session_id).map(|s| {
            s.last_used.store(self.clock.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
            Arc::clone(&s.keys)
        })
    }

    /// Drops a session's keys (explicit cache management, not counted as
    /// an LRU eviction); returns whether it existed.
    pub fn evict(&self, session_id: u64) -> bool {
        self.keys.write().expect("session lock poisoned").remove(&session_id).is_some()
    }

    /// Number of LRU evictions performed to admit new sessions.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.keys.read().expect("session lock poisoned").len()
    }

    /// Whether no session is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of cached key material (the scratchpad pressure the
    /// paper's §III-B bandwidth analysis is about).
    pub fn cached_key_bytes(&self) -> usize {
        let cache = self.keys.read().expect("session lock poisoned");
        cache.values().map(|s| s.keys.byte_len(&self.params)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ive_pir::PirClient;
    use rand::SeedableRng;

    #[test]
    fn register_lookup_evict_lifecycle() {
        let params = PirParams::toy();
        let mgr = SessionManager::new(&params, 16);
        assert!(mgr.is_empty());
        let client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(1)).unwrap();
        let id = mgr.register(client.public_keys().clone()).unwrap();
        let id2 = mgr.register(client.public_keys().clone()).unwrap();
        assert_ne!(id, id2, "session ids must be unique");
        assert_eq!(mgr.len(), 2);
        assert!(mgr.cached_key_bytes() > 0);
        assert!(mgr.lookup(id).is_some());
        assert!(mgr.lookup(9999).is_none());
        assert!(mgr.evict(id));
        assert!(!mgr.evict(id));
        assert_eq!(mgr.len(), 1);
        assert_eq!(mgr.evictions(), 0, "explicit evicts are not LRU evictions");
    }

    #[test]
    fn wrong_key_count_rejected() {
        let params = PirParams::toy();
        let mgr = SessionManager::new(&params, 16);
        let client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(2)).unwrap();
        let mut subs = client.public_keys().subs_keys().to_vec();
        subs.pop();
        assert!(mgr.register(ClientKeys::from_subs_keys(subs)).is_err());
    }

    #[test]
    fn keyword_key_sets_are_validated_and_lru_bounded() {
        let params = KsPirParams::toy();
        let mgr = SessionManager::new(&params, 1);
        let client =
            ive_pir::KsPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(5)).unwrap();
        let keys = client.public_keys().clone();
        let mut short = keys.trace_keys().to_vec();
        short.pop();
        assert!(mgr.register(KsPirKeys::from_parts(short)).is_err(), "short trace accepted");
        let a = mgr.register(keys.clone()).unwrap();
        assert!(mgr.cached_key_bytes() > 0);
        let b = mgr.register(keys).unwrap();
        assert_eq!(mgr.evictions(), 1, "a full keyword cache evicts instead of refusing");
        assert!(mgr.lookup(a).is_none() && mgr.lookup(b).is_some());
    }

    #[test]
    fn cache_cap_evicts_least_recently_used() {
        let params = PirParams::toy();
        let mgr = SessionManager::new(&params, 2);
        let client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(3)).unwrap();
        let a = mgr.register(client.public_keys().clone()).unwrap();
        let b = mgr.register(client.public_keys().clone()).unwrap();
        // Touch `a` so `b` becomes the LRU victim.
        assert!(mgr.lookup(a).is_some());
        let c = mgr.register(client.public_keys().clone()).unwrap();
        assert_eq!(mgr.len(), 2, "cap holds");
        assert_eq!(mgr.evictions(), 1);
        assert!(mgr.lookup(a).is_some(), "recently used survives");
        assert!(mgr.lookup(b).is_none(), "LRU session evicted");
        assert!(mgr.lookup(c).is_some(), "new session admitted");
    }

    #[test]
    fn hundred_thousand_registrations_against_a_small_cap() {
        // The ~1M-client regime, shrunk to test time: 100k Hellos churn
        // through a 64-slot cache. Key material is shared behind one Arc
        // so each registration costs a map insert, which is exactly what
        // this test is about — the cache must self-manage (bounded size,
        // exact eviction accounting, survivors are the most recent).
        let params = PirParams::toy();
        let cap = 64usize;
        let mgr = SessionManager::new(&params, cap);
        let client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(4)).unwrap();
        let keys = Arc::new(client.public_keys().clone());
        let total = 100_000usize;
        let mut last_ids = std::collections::VecDeque::with_capacity(cap);
        for _ in 0..total {
            let id = mgr.register_shared(Arc::clone(&keys)).unwrap();
            if last_ids.len() == cap {
                last_ids.pop_front();
            }
            last_ids.push_back(id);
        }
        assert_eq!(mgr.len(), cap, "cache never exceeds its cap");
        assert_eq!(mgr.evictions(), (total - cap) as u64, "every overflow evicted exactly one");
        for id in last_ids {
            assert!(mgr.lookup(id).is_some(), "most recent {cap} sessions survive");
        }
    }
}
