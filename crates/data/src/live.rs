//! Live, mutable worlds: concurrent rating writes with delta events.
//!
//! A generated [`World`] is immutable by construction; [`MutableWorld`]
//! wraps one behind a reader/writer lock so the serving edge can apply
//! live rating writes while read traffic continues. Each successful
//! write emits fine-grained [`RatingDelta`] events — *which* user/item
//! changed and how — instead of leaning on the matrix's coarse revision
//! counter, which is what lets downstream caches and indexes maintain
//! themselves incrementally rather than rebuilding from scratch.
//!
//! Writes are journaled through an optional [`Wal`] *before* they touch
//! the matrix, and index maintenance runs via a caller-supplied
//! callback **inside the write-lock critical section**. That ordering is
//! load-bearing: if maintenance ran after the lock dropped, a reader
//! could observe the new revision while derived state still reflected
//! the old one. Under the lock, readers only observe the new revision
//! after its maintenance completed.

use std::path::PathBuf;
use std::sync::{Mutex, RwLock, RwLockReadGuard};
use std::time::Instant;

use crate::synth::World;
use crate::wal::{Wal, WalOp, WalRecord, WalStats};
use exrec_types::{Error, ItemId, Result, UserId};

/// One observed change to the ratings matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatingDelta {
    /// User whose row changed.
    pub user: UserId,
    /// Item whose column changed.
    pub item: ItemId,
    /// Value before the write (`None` = was unrated).
    pub prev: Option<f64>,
    /// Value after the write (`None` = now unrated).
    pub value: Option<f64>,
    /// Matrix revision *after* this delta was applied.
    pub revision: u64,
}

/// What one [`MutableWorld::apply`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ApplyOutcome {
    /// Ops that changed the matrix (no-op unrates excluded).
    pub applied: u64,
    /// Ops carried by the record (applied + no-ops).
    pub ops: u64,
    /// Matrix revision after the record.
    pub revision: u64,
    /// Time spent appending to the WAL, in nanoseconds (0 without one).
    pub wal_append_ns: u64,
    /// WAL size after the append, in bytes (0 without one).
    pub wal_size_bytes: u64,
}

/// A [`World`] that accepts journaled writes while being served.
#[derive(Debug)]
pub struct MutableWorld {
    world: RwLock<World>,
    wal: Mutex<Option<Wal>>,
}

impl MutableWorld {
    /// Wraps a world with no journal (writes are volatile).
    pub fn new(world: World) -> Self {
        Self::with_wal(world, None)
    }

    /// Wraps a world with an optional journal.
    pub fn with_wal(world: World, wal: Option<Wal>) -> Self {
        Self {
            world: RwLock::new(world),
            wal: Mutex::new(wal),
        }
    }

    /// Read access for serving. Holds the lock until dropped — keep the
    /// guard for the duration of one request, no longer.
    pub fn read(&self) -> RwLockReadGuard<'_, World> {
        self.world.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Validates and applies one record atomically.
    ///
    /// All ops are validated against the current matrix *before*
    /// anything is journaled or applied, so a bad op rejects the whole
    /// record and the matrix/WAL never diverge. On success the record
    /// is appended to the journal (if any), applied to the matrix, and
    /// `sync` runs with the post-write world and the emitted deltas —
    /// still under the write lock, see the module docs for why.
    ///
    /// # Errors
    ///
    /// Validation errors ([`Error::UnknownUser`], [`Error::UnknownItem`],
    /// [`Error::InvalidRating`]) or journal I/O failures; in both cases
    /// the matrix is unchanged.
    pub fn apply<F>(&self, record: &WalRecord, sync: F) -> Result<ApplyOutcome>
    where
        F: FnOnce(&World, &[RatingDelta]),
    {
        let mut world = self.world.write().unwrap_or_else(|e| e.into_inner());
        let ops = record.ops();
        for op in &ops {
            validate(&world, op)?;
        }

        let (wal_append_ns, wal_size_bytes) = {
            let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
            match wal.as_mut() {
                Some(wal) => {
                    let started = Instant::now();
                    wal.append(record)?;
                    (started.elapsed().as_nanos() as u64, wal.stats().size_bytes)
                }
                None => (0, 0),
            }
        };

        let mut deltas = Vec::with_capacity(ops.len());
        for op in &ops {
            let (item, value) = match *op {
                WalOp::Rate { item, value, .. } => (item, Some(value)),
                WalOp::Unrate { item, .. } => (item, None),
            };
            let prev = op
                .apply(&mut world.ratings)
                .expect("ops were validated before journaling");
            if prev.is_none() && value.is_none() {
                continue; // unrate of an absent rating: nothing changed
            }
            deltas.push(RatingDelta {
                user: op.user(),
                item,
                prev,
                value,
                revision: world.ratings.revision(),
            });
        }
        sync(&world, &deltas);

        Ok(ApplyOutcome {
            applied: deltas.len() as u64,
            ops: ops.len() as u64,
            revision: world.ratings.revision(),
            wal_append_ns,
            wal_size_bytes,
        })
    }

    /// Compacts the journal: snapshots the current matrix beside the WAL
    /// and empties the log, so the next open warm-starts from the
    /// snapshot alone. No-op (returning `None`) without a journal.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on snapshot or truncation failures.
    pub fn compact(&self) -> Result<Option<PathBuf>> {
        // Read lock is enough: the wal mutex serialises against apply's
        // journal append, and apply holds the *write* lock, so no write
        // can land between the snapshot and the reset.
        let world = self.world.read().unwrap_or_else(|e| e.into_inner());
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        match wal.as_mut() {
            Some(wal) => wal.compact(&world.ratings).map(Some),
            None => Ok(None),
        }
    }

    /// Journal stats, if a journal is attached.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|w| w.stats())
    }
}

fn validate(world: &World, op: &WalOp) -> Result<()> {
    let (user, item) = match *op {
        WalOp::Rate { user, item, value } => {
            if !world.ratings.scale().contains(value) {
                return Err(Error::InvalidRating {
                    value,
                    scale: *world.ratings.scale(),
                });
            }
            (user, item)
        }
        WalOp::Unrate { user, item } => (user, item),
    };
    if user.index() >= world.ratings.n_users() {
        return Err(Error::UnknownUser { user });
    }
    if item.index() >= world.ratings.n_items() {
        return Err(Error::UnknownItem { item });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{movies, WorldConfig};

    fn world() -> World {
        movies::generate(&WorldConfig {
            n_users: 12,
            n_items: 10,
            density: 0.3,
            seed: 7,
            ..WorldConfig::default()
        })
    }

    #[test]
    fn apply_emits_deltas_and_bumps_revision() {
        let live = MutableWorld::new(world());
        let before = live.read().ratings.revision();
        let mut seen = Vec::new();
        let outcome = live
            .apply(
                &WalRecord::Rate {
                    user: UserId(1),
                    item: ItemId(2),
                    value: 4.0,
                },
                |w, deltas| {
                    assert_eq!(w.ratings.rating(UserId(1), ItemId(2)), Some(4.0));
                    seen = deltas.to_vec();
                },
            )
            .unwrap();
        assert_eq!(outcome.applied, 1);
        assert_eq!(outcome.revision, before + 1);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].user, UserId(1));
        assert_eq!(seen[0].value, Some(4.0));
        assert_eq!(seen[0].revision, before + 1);
    }

    #[test]
    fn invalid_op_rejects_whole_batch() {
        let live = MutableWorld::new(world());
        let before = live.read().ratings.clone();
        let record = WalRecord::Batch(vec![
            WalOp::Rate {
                user: UserId(0),
                item: ItemId(0),
                value: 3.0,
            },
            WalOp::Rate {
                user: UserId(999),
                item: ItemId(0),
                value: 3.0,
            },
        ]);
        let err = live.apply(&record, |_, _| panic!("sync must not run"));
        assert!(matches!(err, Err(Error::UnknownUser { .. })));
        assert_eq!(
            *live.read().ratings.triples().collect::<Vec<_>>(),
            *before.triples().collect::<Vec<_>>()
        );
    }

    #[test]
    fn noop_unrate_emits_no_delta() {
        let live = MutableWorld::new(world());
        // Find an unrated pair.
        let (user, item) = {
            let w = live.read();
            let mut found = None;
            'outer: for u in 0..w.ratings.n_users() {
                for i in 0..w.ratings.n_items() {
                    if w.ratings
                        .rating(UserId(u as u32), ItemId(i as u32))
                        .is_none()
                    {
                        found = Some((UserId(u as u32), ItemId(i as u32)));
                        break 'outer;
                    }
                }
            }
            found.expect("sparse world has unrated pairs")
        };
        let before = live.read().ratings.revision();
        let outcome = live
            .apply(&WalRecord::Unrate { user, item }, |_, deltas| {
                assert!(deltas.is_empty())
            })
            .unwrap();
        assert_eq!(outcome.applied, 0);
        assert_eq!(outcome.ops, 1);
        assert_eq!(outcome.revision, before);
    }

    #[test]
    fn journaled_writes_replay_after_restart() {
        let dir = std::env::temp_dir().join(format!("exrec-live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.wal");
        let _ = std::fs::remove_file(&path);

        let (wal, replayed) = Wal::open(&path, crate::wal::FsyncPolicy::Never).unwrap();
        assert!(replayed.is_empty());
        let live = MutableWorld::with_wal(world(), Some(wal));
        live.apply(
            &WalRecord::Rate {
                user: UserId(2),
                item: ItemId(3),
                value: 2.0,
            },
            |_, _| {},
        )
        .unwrap();
        let expect = live.read().ratings.clone();
        drop(live);

        // "Crash" (no compaction): regenerate the same base world and
        // replay the journal tail on top.
        let mut fresh = world();
        let (_, records) = Wal::open(&path, crate::wal::FsyncPolicy::Never).unwrap();
        crate::wal::replay_into(&mut fresh.ratings, &records).unwrap();
        assert_eq!(fresh.ratings, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
