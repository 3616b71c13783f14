//! Session checkpoints: an [`ExploreSession`]'s restorable state as one
//! small, versioned, checksummed file.
//!
//! The serving layer evicts idle sessions under memory pressure and must
//! survive process restarts, but from the client's side an eviction has to
//! be invisible: the next command on a checkpointed session produces the
//! **same bytes** it would have produced had the session stayed resident.
//! That works because a session is a thin state machine over a shared
//! [`Explorer`] — everything expensive lives in the
//! engine's caches and the `.qag` plane store, so the checkpoint only
//! needs `(sql, k, L, D, threshold, drill)` plus the previous command's
//! solution (which seeds transition rendering) and the budget bookkeeping.
//! A restored session's first response differs from the resident one in
//! provenance only, never in the view.
//!
//! # File layout (format version 4)
//!
//! Same envelope discipline as the `.qag` plane store: little-endian
//! integers, floats as raw bit patterns.
//!
//! ```text
//! [ 0.. 8)  magic            b"QAGSESSN"
//! [ 8..12)  format version   u32 (currently 4)
//! [12..20)  payload checksum u64 — wire::checksum64 of every later byte
//! [20..  )  payload:
//!   state   flag u8; when present: sql str · k/l/d u64 ·
//!           threshold (flag u8 + f64 bits) · drill (flag u8 + arity u32
//!           + slot u32 run)
//!   last    flag u8; when present: relation fingerprint u64 · solution
//!           (covered u64 · sum f64 bits · cluster count u32 · per
//!           cluster: pattern arity u32 + slots · member count u32 +
//!           member u32 run · sum f64 bits)
//!   budget  flag u8 + u64 (the session's memory budget override)
//!   retained_bytes u64
//! ```
//!
//! Versions 1–3 are rejected as [`StoreErrorKind::UnsupportedVersion`] —
//! a clean "session unknown", not corruption. Version 2 carried the
//! fidelity bytes of the removed sampled mode. Version 4 has version 3's
//! layout; it marks checkpoints written since `SUM`/`AVG` became the
//! correctly rounded exact sum, because a version-3 checkpoint's last view
//! (relation fingerprint, solution sums) may hold the bits of the old
//! row-order float sums.
//!
//! # Failure model
//!
//! Writes go through the store's crash-safe temp + sync + rename path, so
//! a fault mid-checkpoint leaves the previous checkpoint (or nothing)
//! intact — never a torn file. Every decode failure is a typed
//! [`QagError::Store`]; the serving layer treats a corrupt or missing
//! checkpoint as "session unknown", which is a refusal, not corruption.

use crate::explore::{ExploreSession, ExploreState, Explorer};
use crate::store::{io_error, write_image};
use qagview_common::io::StoreIo;
use qagview_common::wire::{checksum64, Reader, Writer};
use qagview_common::{QagError, Result, StoreErrorKind};
use qagview_core::{Solution, SolutionCluster};
use qagview_lattice::Pattern;
use std::path::Path;
use std::sync::Arc;

/// Magic bytes identifying a session-checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"QAGSESSN";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 4;
/// Bytes before the payload: magic (8) + version (4) + checksum (8).
const HEADER_BYTES: usize = 20;

/// An upper bound on plausible pattern arity / cluster counts in a
/// checkpoint, used to reject absurd counts in corrupt files before they
/// turn into giant allocations.
const SANE_COUNT: usize = 1 << 24;

/// The canonical file name for a session checkpoint inside a store
/// directory. The extension is distinct from `.qag` (and from the
/// write-back temp pattern), so plane-store GC and orphan sweeps never
/// touch checkpoints and vice versa.
pub fn checkpoint_file_name(session_id: u64) -> String {
    format!("session-{session_id:016x}.qagsess")
}

/// Everything needed to reconstruct an [`ExploreSession`] on a fresh
/// engine (or a fresh process) such that its next command responds
/// byte-identically to the un-evicted session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// The session's exploration state; `None` when it was checkpointed
    /// before its first successful `SetQuery`.
    pub state: Option<ExploreState>,
    /// The previous command's `(relation fingerprint, solution)`, which
    /// seeds transition rendering on the next command.
    pub last: Option<(u64, Solution)>,
    /// The session's memory-budget override.
    pub budget_bytes: Option<u64>,
    /// Bytes the session had retained in shared caches at checkpoint
    /// time (informational — recomputed by the next command).
    pub retained_bytes: u64,
}

impl SessionCheckpoint {
    /// Serialize to the versioned, checksummed byte image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(256);
        w.put_bytes(&CHECKPOINT_MAGIC);
        w.put_u32(CHECKPOINT_VERSION);
        let checksum_at = w.len();
        w.put_u64(0); // patched below
        match &self.state {
            None => w.put_u8(0),
            Some(state) => {
                w.put_u8(1);
                w.put_str_u32(&state.sql);
                w.put_u64(state.k as u64);
                w.put_u64(state.l as u64);
                w.put_u64(state.d as u64);
                match state.threshold {
                    None => w.put_u8(0),
                    Some(t) => {
                        w.put_u8(1);
                        w.put_f64_bits(t);
                    }
                }
                match &state.drill {
                    None => w.put_u8(0),
                    Some(p) => {
                        w.put_u8(1);
                        put_pattern(&mut w, p);
                    }
                }
            }
        }
        match &self.last {
            None => w.put_u8(0),
            Some((fp, solution)) => {
                w.put_u8(1);
                w.put_u64(*fp);
                put_solution(&mut w, solution);
            }
        }
        match self.budget_bytes {
            None => w.put_u8(0),
            Some(b) => {
                w.put_u8(1);
                w.put_u64(b);
            }
        }
        w.put_u64(self.retained_bytes);
        let sum = checksum64(&w.as_bytes()[HEADER_BYTES..]);
        w.patch_u64(checksum_at, sum);
        w.into_bytes()
    }

    /// Decode a checkpoint image, verifying magic, version, and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<SessionCheckpoint> {
        let mut r = Reader::new(bytes);
        let magic = r.read_bytes(8)?;
        if magic != CHECKPOINT_MAGIC {
            return Err(QagError::store(
                StoreErrorKind::BadMagic,
                "not a session-checkpoint file",
            ));
        }
        let version = r.read_u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(QagError::store(
                StoreErrorKind::UnsupportedVersion,
                format!("checkpoint format version {version}, supported: {CHECKPOINT_VERSION}"),
            ));
        }
        let expected = r.read_u64()?;
        let actual = checksum64(&bytes[HEADER_BYTES.min(bytes.len())..]);
        if expected != actual {
            return Err(QagError::store(
                StoreErrorKind::ChecksumMismatch,
                format!("checkpoint checksum {actual:016x}, header says {expected:016x}"),
            ));
        }
        let state = match r.read_u8()? {
            0 => None,
            1 => {
                let sql = r.read_str_u32()?;
                let k = r.read_u64()? as usize;
                let l = r.read_u64()? as usize;
                let d = r.read_u64()? as usize;
                let threshold = match r.read_u8()? {
                    0 => None,
                    1 => Some(r.read_f64_bits()?),
                    other => return Err(bad_flag("threshold", other)),
                };
                let drill = match r.read_u8()? {
                    0 => None,
                    1 => Some(read_pattern(&mut r)?),
                    other => return Err(bad_flag("drill", other)),
                };
                Some(ExploreState {
                    sql,
                    k,
                    l,
                    d,
                    threshold,
                    drill,
                })
            }
            other => return Err(bad_flag("state", other)),
        };
        let last = match r.read_u8()? {
            0 => None,
            1 => {
                let fp = r.read_u64()?;
                let solution = read_solution(&mut r)?;
                Some((fp, solution))
            }
            other => return Err(bad_flag("last view", other)),
        };
        let budget_bytes = match r.read_u8()? {
            0 => None,
            1 => Some(r.read_u64()?),
            other => return Err(bad_flag("budget", other)),
        };
        let retained_bytes = r.read_u64()?;
        if !r.is_exhausted() {
            return Err(QagError::store(
                StoreErrorKind::Corrupt,
                format!("{} trailing bytes after the checkpoint", r.remaining()),
            ));
        }
        Ok(SessionCheckpoint {
            state,
            last,
            budget_bytes,
            retained_bytes,
        })
    }

    /// Write this checkpoint to `path` crash-safely (temp + sync +
    /// rename) through an explicit I/O backend.
    pub fn save_io(&self, io: &dyn StoreIo, path: &Path) -> Result<()> {
        write_image(io, path, &self.to_bytes())
    }

    /// Read and decode a checkpoint from `path`. A missing file is the
    /// typed [`StoreErrorKind::NotFound`] (a clean "session unknown"),
    /// never retried.
    pub fn load_io(io: &dyn StoreIo, path: &Path) -> Result<SessionCheckpoint> {
        let bytes = io.read(path).map_err(|e| io_error("read", path, e))?;
        SessionCheckpoint::from_bytes(&bytes)
    }

    /// Rebuild a live session on `engine` from this checkpoint. The
    /// session behaves exactly as the original would have: its next
    /// command re-derives the view through the engine's caches (or the
    /// `.qag` store) and renders the same transition.
    pub fn resume(&self, engine: Arc<Explorer>) -> ExploreSession {
        ExploreSession::resume_from(engine, self)
    }
}

fn bad_flag(what: &str, value: u8) -> QagError {
    QagError::store(
        StoreErrorKind::Corrupt,
        format!("checkpoint {what} flag byte is {value}, expected 0 or 1"),
    )
}

fn put_pattern(w: &mut Writer, p: &Pattern) {
    let slots = p.slots();
    w.put_u32(u32::try_from(slots.len()).expect("pattern arity fits u32"));
    w.put_u32_slice(slots);
}

fn read_pattern(r: &mut Reader<'_>) -> Result<Pattern> {
    let arity = r.read_count(SANE_COUNT, "pattern arity")?;
    Ok(Pattern::new(r.read_u32_vec(arity)?))
}

fn put_solution(w: &mut Writer, s: &Solution) {
    w.put_u64(s.covered as u64);
    w.put_f64_bits(s.sum);
    w.put_u32(u32::try_from(s.clusters.len()).expect("cluster count fits u32"));
    for c in &s.clusters {
        put_pattern(w, &c.pattern);
        w.put_u32(u32::try_from(c.members.len()).expect("member count fits u32"));
        w.put_u32_slice(&c.members);
        w.put_f64_bits(c.sum);
    }
}

fn read_solution(r: &mut Reader<'_>) -> Result<Solution> {
    let covered = r.read_u64()? as usize;
    let sum = r.read_f64_bits()?;
    let n_clusters = r.read_count(SANE_COUNT, "solution cluster")?;
    let mut clusters = Vec::with_capacity(n_clusters.min(1024));
    for _ in 0..n_clusters {
        let pattern = read_pattern(r)?;
        let n_members = r.read_count(SANE_COUNT, "cluster member")?;
        let members = r.read_u32_vec(n_members)?;
        let sum = r.read_f64_bits()?;
        clusters.push(SolutionCluster {
            pattern,
            members,
            sum,
        });
    }
    Ok(Solution {
        clusters,
        covered,
        sum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qagview_lattice::STAR;

    fn sample() -> SessionCheckpoint {
        SessionCheckpoint {
            state: Some(ExploreState {
                sql: "SELECT g, AVG(v) AS val FROM t GROUP BY g \
                      HAVING count(*) > 5 ORDER BY val DESC"
                    .into(),
                k: 4,
                l: 8,
                d: 2,
                threshold: Some(12.5),
                drill: Some(Pattern::new(vec![3, STAR, 7])),
            }),
            last: Some((
                0xdead_beef_cafe_f00d,
                Solution {
                    clusters: vec![
                        SolutionCluster {
                            pattern: Pattern::new(vec![3, STAR, STAR]),
                            members: vec![0, 2, 5],
                            sum: -0.0,
                        },
                        SolutionCluster {
                            pattern: Pattern::new(vec![STAR, 1, 7]),
                            members: vec![1],
                            sum: 41.25,
                        },
                    ],
                    covered: 4,
                    sum: 41.25,
                },
            )),
            budget_bytes: Some(1 << 20),
            retained_bytes: 77_000,
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let cp = sample();
        let back = SessionCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert_eq!(back, cp);
        // f64 bit identity, beyond PartialEq (which -0.0 == 0.0 would pass).
        let (_, sol) = back.last.as_ref().unwrap();
        assert_eq!(sol.clusters[0].sum.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn empty_session_round_trips() {
        let cp = SessionCheckpoint {
            state: None,
            last: None,
            budget_bytes: None,
            retained_bytes: 0,
        };
        assert_eq!(SessionCheckpoint::from_bytes(&cp.to_bytes()).unwrap(), cp);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            let err = SessionCheckpoint::from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, QagError::Store { .. }),
                "truncation at {len} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_caught_or_decodes_cleanly() {
        let bytes = sample().to_bytes();
        for pos in 0..bytes.len() {
            let mut copy = bytes.clone();
            copy[pos] ^= 0x01;
            // Checksum catches payload flips; header flips hit magic /
            // version / checksum checks. Nothing may panic.
            let r = SessionCheckpoint::from_bytes(&copy);
            assert!(r.is_err(), "flip at {pos} slipped through");
        }
    }

    #[test]
    fn wrong_magic_version_and_checksum_are_distinct_kinds() {
        let bytes = sample().to_bytes();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            SessionCheckpoint::from_bytes(&bad_magic)
                .unwrap_err()
                .store_kind(),
            Some(StoreErrorKind::BadMagic)
        );

        let mut bad_version = bytes.clone();
        bad_version[8] = 0xff;
        assert_eq!(
            SessionCheckpoint::from_bytes(&bad_version)
                .unwrap_err()
                .store_kind(),
            Some(StoreErrorKind::UnsupportedVersion)
        );

        let mut bad_payload = bytes.clone();
        let last = bad_payload.len() - 1;
        bad_payload[last] ^= 0xff;
        assert_eq!(
            SessionCheckpoint::from_bytes(&bad_payload)
                .unwrap_err()
                .store_kind(),
            Some(StoreErrorKind::ChecksumMismatch)
        );
    }

    #[test]
    fn file_names_are_unique_per_session_and_not_qag() {
        let a = checkpoint_file_name(1);
        let b = checkpoint_file_name(2);
        assert_ne!(a, b);
        assert!(a.ends_with(".qagsess"));
        assert!(!a.ends_with(".qag"));
    }
}
