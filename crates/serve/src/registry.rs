//! Lock-free-read model registry: generation-stamped immutable snapshots.
//!
//! The query hot path must never block on a model upload or eviction —
//! the paper's deployment serves heavy read traffic while the job layer
//! hot-registers freshly trained models into the same process. The
//! earlier `RwLock<HashMap>` registry met that only probabilistically
//! (readers still serialized against writers on the lock word); this
//! module removes the reader lock entirely:
//!
//! * the registry's state is an immutable [`RegistrySnapshot`] behind an
//!   `Arc`, stamped with a monotonically increasing **generation**;
//! * readers hold a worker-local [`RegistryReader`]: each request does
//!   one `AtomicU64` load and, while the generation is unchanged, reuses
//!   the cached `Arc<RegistrySnapshot>` — zero locks, zero allocation;
//! * writers serialize on a `Mutex`, build the *next* snapshot off to
//!   the side (the expensive engine compile happens before the lock is
//!   even taken), and publish it atomically: swap the current `Arc`
//!   under a short slot lock, then bump the generation with `Release`.
//!
//! A reader that observes a moved generation re-fetches the snapshot —
//! the slot lock is held only for an `Arc` clone, never while a snapshot
//! is being built — and in-flight queries keep the snapshot (and the
//! [`ServedModel`] `Arc`s inside it) they already hold, so eviction can
//! never invalidate a running query. See DESIGN.md §11.1.

use crate::artifact::ModelArtifact;
use crate::query::QueryEngine;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A registered model: the artifact (kept for re-download/introspection)
/// plus the compiled query engine.
#[derive(Debug)]
pub struct ServedModel {
    /// The artifact as uploaded.
    pub artifact: ModelArtifact,
    /// Engine compiled at registration time.
    pub engine: QueryEngine,
    /// Registry-wide monotonic registration version: every successful
    /// insert — including replacing an existing id — gets a strictly
    /// larger version, so consumers (and the job layer's hot
    /// re-registrations) can tell stale reads from fresh ones.
    pub version: u64,
}

/// One immutable point-in-time view of the registry. Everything a read
/// needs — lookup, count, sorted listing — works on the snapshot alone,
/// with no further synchronization.
#[derive(Debug, Default)]
pub struct RegistrySnapshot {
    generation: u64,
    models: BTreeMap<String, Arc<ServedModel>>,
}

impl RegistrySnapshot {
    /// The generation this snapshot was published at (0 = the empty
    /// snapshot a fresh registry starts with).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Look up a model by id.
    pub fn get(&self, id: &str) -> Option<&Arc<ServedModel>> {
        self.models.get(id)
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no model is registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// `(id, model)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<ServedModel>)> {
        self.models.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// Concurrent model registry. Reads go through [`RegistrySnapshot`]s
/// (one atomic load on the hot path, see module docs); writes serialize
/// on an internal mutex and publish a fresh snapshot per change.
#[derive(Debug)]
pub struct ModelRegistry {
    /// Generation of the currently published snapshot. Readers poll this
    /// — and only this — to decide whether their cached snapshot is
    /// still current.
    generation: AtomicU64,
    /// The published snapshot. Locked only to clone or swap the `Arc`
    /// (a few instructions), never while building a snapshot.
    current: Mutex<Arc<RegistrySnapshot>>,
    /// Serializes writers so publishes (and version assignment) are
    /// totally ordered.
    writer: Mutex<()>,
    next_version: AtomicU64,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self {
            generation: AtomicU64::new(0),
            current: Mutex::new(Arc::new(RegistrySnapshot::default())),
            writer: Mutex::new(()),
            next_version: AtomicU64::new(0),
        }
    }
}

impl ModelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generation of the published snapshot. One atomic load; readers
    /// with a cached snapshot of the same generation need nothing else.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Clone the current snapshot `Arc` (short slot lock, no building).
    pub fn snapshot(&self) -> Arc<RegistrySnapshot> {
        Arc::clone(&self.current.lock().expect("registry slot poisoned"))
    }

    /// A worker-local cached reader for the query hot path.
    pub fn reader(self: &Arc<Self>) -> RegistryReader {
        RegistryReader {
            cached: self.snapshot(),
            registry: Arc::clone(self),
            refreshes: 0,
        }
    }

    /// Publish `models` as the next snapshot. Caller must hold the
    /// writer lock.
    fn publish(&self, models: BTreeMap<String, Arc<ServedModel>>) {
        let mut slot = self.current.lock().expect("registry slot poisoned");
        let generation = slot.generation + 1;
        *slot = Arc::new(RegistrySnapshot { generation, models });
        drop(slot);
        self.generation.store(generation, Ordering::Release);
    }

    /// Compile and register a model under `id`, replacing any previous
    /// model with that id. Returns the assigned (monotonic) version.
    pub fn insert(&self, id: &str, artifact: ModelArtifact) -> crate::error::Result<u64> {
        // The engine compile is the expensive part; it happens before
        // any lock is taken.
        let engine = QueryEngine::from_artifact(&artifact)?;
        // Version assignment and publish both happen under the writer
        // lock so commit order matches version order: without this, two
        // racing inserts of the same id could leave the lower version
        // live after the higher one was observed.
        let _writers = self.writer.lock().expect("registry writer poisoned");
        let version = 1 + self.next_version.fetch_add(1, Ordering::Relaxed);
        let model = Arc::new(ServedModel {
            artifact,
            engine,
            version,
        });
        let mut models = self.snapshot().models.clone();
        models.insert(id.to_string(), model);
        self.publish(models);
        Ok(version)
    }

    /// Ensure every future version exceeds `floor`. Used when
    /// re-registering persisted artifacts after a restart: the counter
    /// is in-memory, so without a floor a rebooted registry would hand
    /// out versions that collide with (and sort below) artifact files
    /// already on disk.
    pub fn advance_versions_past(&self, floor: u64) {
        self.next_version.fetch_max(floor, Ordering::Relaxed);
    }

    /// Evict a model by id, returning it if it was registered. In-flight
    /// queries holding the snapshot (or the model `Arc`) finish
    /// unaffected; absent ids publish nothing.
    pub fn remove(&self, id: &str) -> Option<Arc<ServedModel>> {
        let _writers = self.writer.lock().expect("registry writer poisoned");
        let current = self.snapshot();
        current.models.get(id)?;
        let mut models = current.models.clone();
        let removed = models.remove(id);
        self.publish(models);
        removed
    }

    /// Fetch a model by id. One-shot convenience (snapshot clone + set
    /// lookup); the serving hot path uses a [`RegistryReader`] instead.
    pub fn get(&self, id: &str) -> Option<Arc<ServedModel>> {
        self.snapshot().get(id).cloned()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True when no model is registered.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// `(id, model)` pairs sorted by id.
    pub fn list(&self) -> Vec<(String, Arc<ServedModel>)> {
        self.snapshot()
            .iter()
            .map(|(id, model)| (id.to_string(), Arc::clone(model)))
            .collect()
    }
}

/// Worker-local snapshot cache: the reader half of the registry's
/// publish protocol. Each [`Self::current`] call is one atomic
/// generation load; the cached `Arc<RegistrySnapshot>` is reused until a
/// writer publishes, so steady-state reads touch no lock at all.
#[derive(Debug)]
pub struct RegistryReader {
    registry: Arc<ModelRegistry>,
    cached: Arc<RegistrySnapshot>,
    refreshes: u64,
}

impl RegistryReader {
    /// The current snapshot: cached until the published generation
    /// passes the cached one, then re-fetched (one short slot lock).
    ///
    /// A publish swaps the slot before it stores the generation, so a
    /// reader can fetch snapshot `g + 1` while the atomic still reads
    /// `g`. Comparing for "newer", not "different", keeps that reader on
    /// its cache instead of re-fetching on every read until the store
    /// lands.
    pub fn current(&mut self) -> &Arc<RegistrySnapshot> {
        if self.registry.generation() > self.cached.generation() {
            self.cached = self.registry.snapshot();
            self.refreshes += 1;
        }
        &self.cached
    }

    /// How many times this reader had to re-fetch a snapshot. Bounded by
    /// the number of publishes — the observable form of "readers do one
    /// atomic load and otherwise reuse" that the contention tests pin.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ModelMeta, WeightMatrix};
    use least_linalg::DenseMatrix;

    fn demo_artifact() -> ModelArtifact {
        let mut w = DenseMatrix::zeros(3, 3);
        w[(0, 1)] = 2.0;
        w[(1, 2)] = 3.0;
        ModelArtifact::new(
            WeightMatrix::Dense(w),
            vec![0.0; 3],
            vec![1.0; 3],
            ModelMeta {
                threshold: 0.0,
                fingerprint: "unit-test".into(),
            },
        )
        .unwrap()
    }

    #[test]
    fn registry_insert_get_list() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        reg.insert("m1", demo_artifact()).unwrap();
        reg.insert("m0", demo_artifact()).unwrap();
        assert_eq!(reg.len(), 2);
        assert!(reg.get("m1").is_some());
        assert!(reg.get("nope").is_none());
        let ids: Vec<String> = reg.list().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec!["m0", "m1"]);
        // Replacement keeps the count.
        reg.insert("m1", demo_artifact()).unwrap();
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn registry_versions_are_monotonic_across_replace_and_remove() {
        let reg = ModelRegistry::new();
        let v1 = reg.insert("m", demo_artifact()).unwrap();
        let v2 = reg.insert("m", demo_artifact()).unwrap();
        assert!(v2 > v1, "replacement must get a fresh version");
        assert_eq!(reg.get("m").unwrap().version, v2);
        let evicted = reg.remove("m").expect("was registered");
        assert_eq!(evicted.version, v2);
        assert!(reg.get("m").is_none());
        assert!(reg.remove("m").is_none(), "double-remove reports absence");
        let v3 = reg.insert("m", demo_artifact()).unwrap();
        assert!(v3 > v2, "re-registration after eviction keeps climbing");
        // A restart re-seeding the counter keeps versions above any
        // previously persisted artifact.
        reg.advance_versions_past(100);
        let v4 = reg.insert("m", demo_artifact()).unwrap();
        assert!(v4 > 100);
        reg.advance_versions_past(5); // floors never move backwards
        let v5 = reg.insert("m", demo_artifact()).unwrap();
        assert!(v5 > v4);
    }

    #[test]
    fn generations_move_only_on_effective_writes() {
        let reg = Arc::new(ModelRegistry::new());
        assert_eq!(reg.generation(), 0);
        reg.insert("m", demo_artifact()).unwrap();
        assert_eq!(reg.generation(), 1);
        assert!(reg.remove("nope").is_none());
        assert_eq!(reg.generation(), 1, "no-op remove publishes nothing");
        reg.remove("m").unwrap();
        assert_eq!(reg.generation(), 2);
        assert_eq!(reg.snapshot().generation(), 2);
    }

    #[test]
    fn reader_reuses_snapshot_until_generation_moves() {
        let reg = Arc::new(ModelRegistry::new());
        reg.insert("m", demo_artifact()).unwrap();
        let mut reader = reg.reader();
        for _ in 0..1000 {
            assert!(reader.current().get("m").is_some());
        }
        assert_eq!(reader.refreshes(), 0, "unchanged generation: pure reuse");

        reg.insert("m2", demo_artifact()).unwrap();
        assert!(reader.current().get("m2").is_some());
        assert_eq!(reader.refreshes(), 1);
        for _ in 0..1000 {
            reader.current();
        }
        assert_eq!(
            reader.refreshes(),
            1,
            "one refresh per publish, not per read"
        );
    }

    #[test]
    fn reader_refreshes_once_while_a_publish_is_in_flight() {
        // Stage the window inside `publish`: the slot already holds the
        // next snapshot, the generation store has not landed yet.
        let reg = Arc::new(ModelRegistry::new());
        reg.insert("m", demo_artifact()).unwrap();
        let mut reader = reg.reader();
        // One complete publish the reader has not seen yet, so its next
        // read fetches whatever the slot holds: the staged snapshot.
        reg.insert("m2", demo_artifact()).unwrap();
        let staged = {
            let mut slot = reg.current.lock().unwrap();
            let generation = slot.generation + 1;
            *slot = Arc::new(RegistrySnapshot {
                generation,
                models: slot.models.clone(),
            });
            generation
        };
        assert_eq!(reg.generation(), staged - 1, "store still in flight");
        for _ in 0..100 {
            assert!(reader.current().get("m").is_some());
        }
        assert!(reader.refreshes() <= 1, "{} refreshes", reader.refreshes());
        reg.generation.store(staged, Ordering::Release);
        for _ in 0..100 {
            reader.current();
        }
        assert!(reader.refreshes() <= 1, "{} refreshes", reader.refreshes());
    }

    #[test]
    fn in_flight_snapshot_survives_eviction() {
        let reg = Arc::new(ModelRegistry::new());
        reg.insert("m", demo_artifact()).unwrap();
        let mut reader = reg.reader();
        let held = Arc::clone(reader.current());
        reg.remove("m").unwrap();
        // The held snapshot still answers; a fresh one does not.
        assert!(held.get("m").is_some());
        assert!(reader.current().get("m").is_none());
    }
}
