//! The sharded session store: id → live [`ExploreSession`], with LRU
//! eviction to checkpoints and transparent restore.
//!
//! # Concurrency model
//!
//! Sessions live in `shards` hash maps, each behind its own mutex, so
//! lookups on different sessions rarely contend. Each resident session
//! sits in an [`SessionSlot`] whose *inner* mutex serializes commands —
//! interleaved commands on one session execute one at a time, in lock
//! acquisition order, exactly as if a single client had sent them
//! sequentially. Shard locks are only ever held for map operations,
//! never across engine work.
//!
//! # Admission and eviction
//!
//! At most [`SessionConfig::max_resident`] sessions are live at once.
//! When a create (or a checkpoint restore) would exceed the cap, the
//! least-recently-used *idle* session is checkpointed to the configured
//! directory and dropped; a session whose checkpoint cannot be written
//! (no directory, disk fault) is **skipped, never dropped** — degrade,
//! don't corrupt. If nothing is evictable the request is refused with a
//! typed 429 ([`ServeError::SessionLimit`]) and no state changes.
//!
//! # Restore
//!
//! A command against an id that is not resident probes
//! `<checkpoint_dir>/session-<id>.qagsess` through the engine's own
//! [`StoreIo`] (so fault-injection tests cover this path too). A valid
//! checkpoint resumes transparently — the response is byte-identical to
//! the un-evicted session's, with the restore visible only in provenance
//! — and a missing or corrupt file is a typed 404 that mutates nothing.

use crate::api::ServeError;
use crate::metrics::Metrics;
use crate::net::Deadline;
use qagview_common::io::StoreIo;
use qagview_common::{QagError, StoreErrorKind};
use qagview_interactive::{
    checkpoint_file_name, ExploreCommand, ExploreResponse, ExploreSession, Explorer,
    SessionCheckpoint, SessionSpec,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Session-store tuning knobs.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Number of map shards (lock granularity for session lookup).
    pub shards: usize,
    /// Cap on concurrently *resident* sessions; the admission-control
    /// knob. Evicted sessions don't count — they live on disk.
    pub max_resident: usize,
    /// Where evicted/checkpointed sessions are written. `None` disables
    /// checkpointing: at the cap, creates are refused outright.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            shards: 8,
            max_resident: 256,
            checkpoint_dir: None,
        }
    }
}

/// One resident session.
#[derive(Debug)]
pub struct SessionSlot {
    id: u64,
    /// Logical-clock stamp of the last command (LRU recency).
    last_used: AtomicU64,
    inner: Mutex<SlotInner>,
}

#[derive(Debug)]
struct SlotInner {
    session: ExploreSession,
    /// Commands successfully applied to this session (monotonic).
    seq: u64,
    /// Set under the inner lock when the slot is evicted; a waiter that
    /// acquires the lock afterwards must re-resolve the id (it will
    /// restore from the just-written checkpoint), never mutate this
    /// husk — that update would be invisible to every later restore.
    evicted: bool,
}

/// What a successfully applied command produced.
#[derive(Debug)]
pub struct CommandOutcome {
    /// The command's sequence number within its session (1-based).
    pub seq: u64,
    /// Whether this command transparently restored the session from a
    /// checkpoint first.
    pub restored: bool,
    /// The engine's response.
    pub response: ExploreResponse,
}

/// What a drain sweep accomplished.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DrainOutcome {
    /// Sessions checkpointed to disk and released.
    pub checkpointed: usize,
    /// Sessions that could not be checkpointed (still locked at the
    /// deadline, or the write failed); they stay resident.
    pub failures: usize,
}

/// A point-in-time description of one session, for the stats endpoint.
#[derive(Debug)]
pub struct SessionInfo {
    /// Whether the session is resident (vs. checkpointed on disk only).
    pub resident: bool,
    /// Commands applied so far (unknown for a checkpoint-only session).
    pub seq: Option<u64>,
    /// The session's exploration state, if it has one.
    pub state: Option<qagview_interactive::ExploreState>,
    /// Bytes retained in shared caches on this session's behalf.
    pub retained_bytes: u64,
    /// The session's memory budget.
    pub budget_bytes: Option<u64>,
}

/// The sharded map of live sessions plus the checkpoint/restore logic.
#[derive(Debug)]
pub struct SessionStore {
    engine: Arc<Explorer>,
    shards: Vec<Mutex<HashMap<u64, Arc<SessionSlot>>>>,
    cfg: SessionConfig,
    metrics: Arc<Metrics>,
    /// Logical LRU clock, bumped on every command.
    clock: AtomicU64,
    next_id: AtomicU64,
    resident: AtomicUsize,
}

impl SessionStore {
    /// Build a store over a shared engine. When a checkpoint directory is
    /// configured, existing checkpoint files are scanned so freshly
    /// issued ids never collide with sessions from a previous process.
    pub fn new(engine: Arc<Explorer>, cfg: SessionConfig, metrics: Arc<Metrics>) -> Self {
        let shards = (0..cfg.shards.max(1)).map(|_| Mutex::default()).collect();
        let mut next_id = 1u64;
        if let Some(dir) = &cfg.checkpoint_dir {
            if let Ok(entries) = engine.config().store_io.list(dir) {
                for meta in entries {
                    if let Some(id) = checkpoint_id_of(&meta.path) {
                        next_id = next_id.max(id + 1);
                    }
                }
            }
        }
        SessionStore {
            engine,
            shards,
            cfg,
            metrics,
            clock: AtomicU64::new(1),
            next_id: AtomicU64::new(next_id),
            resident: AtomicUsize::new(0),
        }
    }

    /// The store configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Sessions currently resident.
    pub fn resident(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    fn io(&self) -> Arc<dyn StoreIo> {
        Arc::clone(&self.engine.config().store_io)
    }

    fn shard(&self, id: u64) -> &Mutex<HashMap<u64, Arc<SessionSlot>>> {
        // Mix the id so sequential ids spread across shards.
        let h = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 32) as usize % self.shards.len()]
    }

    fn checkpoint_path(&self, id: u64) -> Option<PathBuf> {
        self.cfg
            .checkpoint_dir
            .as_ref()
            .map(|d| d.join(checkpoint_file_name(id)))
    }

    fn lookup(&self, id: u64) -> Option<Arc<SessionSlot>> {
        self.shard(id).lock().expect("shard lock").get(&id).cloned()
    }

    /// Reserve one resident slot, evicting the LRU idle session if the
    /// cap is reached. On failure nothing has changed.
    fn admit(&self) -> Result<(), ServeError> {
        loop {
            let now = self.resident.load(Ordering::Acquire);
            if now < self.cfg.max_resident {
                if self
                    .resident
                    .compare_exchange(now, now + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return Ok(());
                }
                continue; // raced; re-read
            }
            if !self.evict_lru() {
                return Err(ServeError::SessionLimit {
                    resident: now,
                    cap: self.cfg.max_resident,
                });
            }
        }
    }

    /// Checkpoint and drop the least-recently-used idle session. Returns
    /// whether one was evicted. Sessions that are mid-command, or whose
    /// checkpoint cannot be written, are skipped — an eviction failure
    /// never loses state.
    fn evict_lru(&self) -> bool {
        let Some(dir) = self.cfg.checkpoint_dir.as_ref() else {
            return false; // nowhere to spill: the cap is a hard refusal
        };
        let mut candidates: Vec<Arc<SessionSlot>> = Vec::new();
        for shard in &self.shards {
            candidates.extend(shard.lock().expect("shard lock").values().cloned());
        }
        candidates.sort_by_key(|s| s.last_used.load(Ordering::Relaxed));
        let io = self.io();
        for slot in candidates {
            // A held inner lock means the session is mid-command — not idle.
            let Ok(mut inner) = slot.inner.try_lock() else {
                continue;
            };
            if inner.evicted {
                continue;
            }
            let path = dir.join(checkpoint_file_name(slot.id));
            match inner.session.checkpoint().save_io(io.as_ref(), &path) {
                Ok(()) => {
                    inner.evicted = true;
                    drop(inner);
                    let removed = self
                        .shard(slot.id)
                        .lock()
                        .expect("shard lock")
                        .remove(&slot.id)
                        .is_some();
                    if removed {
                        self.resident.fetch_sub(1, Ordering::AcqRel);
                    }
                    Metrics::bump(&self.metrics.sessions_evicted);
                    return true;
                }
                Err(_) => {
                    // Degrade, never corrupt: the session stays resident;
                    // try the next candidate.
                    Metrics::bump(&self.metrics.checkpoint_failures);
                    continue;
                }
            }
        }
        false
    }

    /// Create a fresh session from `spec` and return its id. The spec's
    /// budget override is applied by
    /// [`Explorer::open_session`], the one documented front door.
    pub fn create(&self, spec: SessionSpec) -> Result<u64, ServeError> {
        self.admit()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let session = self.engine.open_session(spec).map_err(ServeError::Engine)?;
        let slot = Arc::new(SessionSlot {
            id,
            last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
            inner: Mutex::new(SlotInner {
                session,
                seq: 0,
                evicted: false,
            }),
        });
        self.shard(id).lock().expect("shard lock").insert(id, slot);
        Metrics::bump(&self.metrics.sessions_created);
        Ok(id)
    }

    /// Resolve `id` to a resident slot, restoring from a checkpoint when
    /// necessary. Returns the slot and whether a restore happened.
    fn resolve(&self, id: u64) -> Result<(Arc<SessionSlot>, bool), ServeError> {
        if let Some(slot) = self.lookup(id) {
            return Ok((slot, false));
        }
        let path = self
            .checkpoint_path(id)
            .ok_or_else(|| ServeError::UnknownSession(format!("{id:x}")))?;
        let cp = SessionCheckpoint::load_io(self.io().as_ref(), &path).map_err(|e| {
            // Missing and corrupt checkpoints are both "no such session"
            // to the client; the distinction lives in the message.
            match e {
                QagError::Store {
                    kind: StoreErrorKind::NotFound,
                    ..
                } => ServeError::UnknownSession(format!("{id:x}")),
                other => {
                    ServeError::UnknownSession(format!("{id:x} (checkpoint unusable: {other})"))
                }
            }
        })?;
        self.admit()?;
        let slot = Arc::new(SessionSlot {
            id,
            last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
            inner: Mutex::new(SlotInner {
                session: cp.resume(Arc::clone(&self.engine)),
                seq: 0,
                evicted: false,
            }),
        });
        let mut shard = self.shard(id).lock().expect("shard lock");
        match shard.get(&id) {
            // Another thread restored (or re-created) it while we loaded:
            // use theirs, release our reserved slot.
            Some(existing) => {
                let existing = Arc::clone(existing);
                drop(shard);
                self.resident.fetch_sub(1, Ordering::AcqRel);
                Ok((existing, false))
            }
            None => {
                shard.insert(id, Arc::clone(&slot));
                drop(shard);
                Metrics::bump(&self.metrics.sessions_restored);
                Ok((slot, true))
            }
        }
    }

    /// Apply one command to a session, serialized by the session lock.
    /// Any refusal leaves the session exactly as it was.
    pub fn command(&self, id: u64, cmd: ExploreCommand) -> Result<CommandOutcome, ServeError> {
        self.command_deadline(id, cmd, None)
    }

    /// [`SessionStore::command`] under a deadline budget. The budget is
    /// checked while *waiting* for the session lock and once more before
    /// the command executes; once `apply` starts it runs to completion
    /// (engine work is never interrupted mid-mutation). A deadline
    /// refusal is a typed 503 that leaves the session untouched.
    pub fn command_deadline(
        &self,
        id: u64,
        cmd: ExploreCommand,
        deadline: Option<Deadline>,
    ) -> Result<CommandOutcome, ServeError> {
        loop {
            let (slot, restored) = self.resolve(id)?;
            let mut inner = match deadline {
                None => slot.inner.lock().expect("session lock"),
                // `std::sync::Mutex` has no timed lock: poll `try_lock`
                // with a short park, refusing when the budget runs out.
                Some(d) => loop {
                    match slot.inner.try_lock() {
                        Ok(guard) => break guard,
                        Err(std::sync::TryLockError::Poisoned(_)) => panic!("session lock"),
                        Err(std::sync::TryLockError::WouldBlock) => {
                            if d.expired() {
                                return Err(ServeError::DeadlineExceeded {
                                    stage: "session_lock",
                                });
                            }
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                    }
                },
            };
            if inner.evicted {
                // Evicted between resolve and lock: its state is safely in
                // the checkpoint; re-resolve (which restores from it).
                continue;
            }
            if deadline.is_some_and(|d| d.expired()) {
                return Err(ServeError::DeadlineExceeded { stage: "execute" });
            }
            let response = inner.session.apply(cmd).map_err(ServeError::Engine)?;
            inner.seq += 1;
            let seq = inner.seq;
            slot.last_used.store(
                self.clock.fetch_add(1, Ordering::Relaxed),
                Ordering::Relaxed,
            );
            Metrics::bump(&self.metrics.commands);
            return Ok(CommandOutcome {
                seq,
                restored,
                response,
            });
        }
    }

    /// Describe a session: resident state if live, otherwise a read-only
    /// peek at its checkpoint (without making it resident).
    pub fn info(&self, id: u64) -> Result<SessionInfo, ServeError> {
        if let Some(slot) = self.lookup(id) {
            let inner = slot.inner.lock().expect("session lock");
            if !inner.evicted {
                return Ok(SessionInfo {
                    resident: true,
                    seq: Some(inner.seq),
                    state: inner.session.state().cloned(),
                    retained_bytes: inner.session.retained_bytes(),
                    budget_bytes: inner.session.budget_bytes(),
                });
            }
        }
        let path = self
            .checkpoint_path(id)
            .ok_or_else(|| ServeError::UnknownSession(format!("{id:x}")))?;
        let cp = SessionCheckpoint::load_io(self.io().as_ref(), &path)
            .map_err(|_| ServeError::UnknownSession(format!("{id:x}")))?;
        Ok(SessionInfo {
            resident: false,
            seq: None,
            state: cp.state,
            retained_bytes: cp.retained_bytes,
            budget_bytes: cp.budget_bytes,
        })
    }

    /// Explicitly checkpoint a resident session (it stays resident).
    pub fn checkpoint(&self, id: u64) -> Result<(), ServeError> {
        let slot = self
            .lookup(id)
            .ok_or_else(|| ServeError::UnknownSession(format!("{id:x}")))?;
        let path = self.checkpoint_path(id).ok_or_else(|| {
            ServeError::Engine(QagError::internal("no checkpoint directory is configured"))
        })?;
        let inner = slot.inner.lock().expect("session lock");
        if inner.evicted {
            return Err(ServeError::UnknownSession(format!("{id:x}")));
        }
        inner
            .session
            .checkpoint()
            .save_io(self.io().as_ref(), &path)
            .map_err(|e| {
                Metrics::bump(&self.metrics.checkpoint_failures);
                ServeError::Engine(e)
            })?;
        Metrics::bump(&self.metrics.checkpoints_written);
        Ok(())
    }

    /// Checkpoint **every** resident session and remove it from the map —
    /// the graceful-drain sweep. Each session's inner lock is polled
    /// until acquired or `deadline` runs out (a session still mid-command
    /// after the in-flight grace period is counted as a failure and left
    /// resident, never dropped), and a checkpoint that cannot be written
    /// likewise leaves its session resident: degrade, don't corrupt. A
    /// restarted server over the same checkpoint directory restores every
    /// drained session bit-identically.
    pub fn drain_to_checkpoints(&self, deadline: Deadline) -> DrainOutcome {
        let mut out = DrainOutcome::default();
        let Some(dir) = self.cfg.checkpoint_dir.clone() else {
            // Nowhere to spill: nothing to do (sessions die with the
            // process exactly as they always did without a directory).
            return out;
        };
        let mut slots: Vec<Arc<SessionSlot>> = Vec::new();
        for shard in &self.shards {
            slots.extend(shard.lock().expect("shard lock").values().cloned());
        }
        let io = self.io();
        for slot in slots {
            let inner = loop {
                match slot.inner.try_lock() {
                    Ok(guard) => break Some(guard),
                    Err(std::sync::TryLockError::Poisoned(_)) => panic!("session lock"),
                    Err(std::sync::TryLockError::WouldBlock) if deadline.expired() => break None,
                    Err(std::sync::TryLockError::WouldBlock) => {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                }
            };
            let Some(mut inner) = inner else {
                Metrics::bump(&self.metrics.drain_checkpoint_failures);
                out.failures += 1;
                continue;
            };
            if inner.evicted {
                continue; // already safely on disk
            }
            let path = dir.join(checkpoint_file_name(slot.id));
            match inner.session.checkpoint().save_io(io.as_ref(), &path) {
                Ok(()) => {
                    inner.evicted = true;
                    drop(inner);
                    let removed = self
                        .shard(slot.id)
                        .lock()
                        .expect("shard lock")
                        .remove(&slot.id)
                        .is_some();
                    if removed {
                        self.resident.fetch_sub(1, Ordering::AcqRel);
                    }
                    Metrics::bump(&self.metrics.drain_checkpoints);
                    out.checkpointed += 1;
                }
                Err(_) => {
                    Metrics::bump(&self.metrics.drain_checkpoint_failures);
                    Metrics::bump(&self.metrics.checkpoint_failures);
                    out.failures += 1;
                }
            }
        }
        out
    }

    /// Drop a session: its resident slot (if any) and its checkpoint
    /// file (if any). 404 when neither exists.
    pub fn delete(&self, id: u64) -> Result<(), ServeError> {
        let removed = {
            let mut shard = self.shard(id).lock().expect("shard lock");
            shard.remove(&id).is_some()
        };
        if removed {
            self.resident.fetch_sub(1, Ordering::AcqRel);
        }
        let file_removed = self
            .checkpoint_path(id)
            .is_some_and(|p| self.io().remove(&p).is_ok());
        if removed || file_removed {
            Ok(())
        } else {
            Err(ServeError::UnknownSession(format!("{id:x}")))
        }
    }
}

/// Parse the session id out of a checkpoint file name
/// (`session-<16 hex digits>.qagsess`).
fn checkpoint_id_of(path: &std::path::Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let hex = name.strip_prefix("session-")?.strip_suffix(".qagsess")?;
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_ids_parse_from_file_names() {
        let p = std::path::Path::new("/x/session-00000000000000ff.qagsess");
        assert_eq!(checkpoint_id_of(p), Some(0xff));
        assert_eq!(
            checkpoint_id_of(std::path::Path::new("/x/plane-abc.qag")),
            None
        );
        assert_eq!(
            checkpoint_id_of(std::path::Path::new("/x/session-zz.qagsess")),
            None
        );
    }
}
