//! Dynamic object store: the write path of the engine.
//!
//! The paper evaluates a *static* object set; this module adds the moving
//! objects its motivating scenarios describe (soldiers, animals) without
//! giving up the reproducibility of the static design. Objects live in
//! two places:
//!
//! * a **WAL** ([`sknn_store::Wal`]) of logical operation records — the
//!   one durable copy of the object set: the genesis placement, then every
//!   insert, delete and move, each made atomic and durable by its own
//!   fsynced `Commit` record;
//! * an in-memory **snapshot** — the id → [`SurfacePoint`] table plus the
//!   `Dxy` R-tree — published copy-on-write so readers never block and
//!   never observe a half-applied mutation.
//!
//! Concurrency model: readers clone an `Arc` to the current
//! [`ObjectSnapshot`] and use it for the whole query; writers serialise on
//! a single write half (WAL + transaction counter) and swap in a new
//! snapshot only after the commit record is fsynced. A failed fsync
//! aborts: the WAL's pending records are withdrawn, so the aborted
//! operation leaves no trace anywhere.
//!
//! What a commit copies: the snapshot is persistent, so the new one shares
//! everything with its predecessor except the one 64-id table chunk its op
//! writes and the R-tree nodes on the paths its delete and insert walk
//! (plus any split siblings). A commit therefore costs O(height × fanout)
//! whatever the number of live objects, and the snapshots readers still
//! hold never change.
//!
//! Recovery ([`ObjectStore::recover`]) rebuilds everything from a
//! [`CrashImage`] (the durable WAL prefix): replay the committed `Op`
//! records — the genesis run through the bulk load, the rest through the
//! `apply` the live path uses — and reopen the log cut at its last durable
//! commit. Committed mutations survive every kill point; uncommitted ones
//! vanish atomically.

use crate::workload::{SceneObject, SurfacePoint};
use sknn_geom::{Point3, Rect2};
use sknn_spatial::RTree;
use sknn_store::{CrashImage, FaultInjector, StoreResult, Wal, WalRecord, WalStats};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// A mutex poisoned by a panicking holder still guards valid data for our
/// use (all writes go through commit/abort pairs); recover the guard.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// ---------------------------------------------------------------------------
// Logical operations
// ---------------------------------------------------------------------------

/// One logical mutation of the object set. `Genesis` marks the initial
/// bulk placement: recovery bulk-loads the leading run of genesis records
/// (bit-identical to [`SceneBuilder`](crate::workload::SceneBuilder)'s
/// R-tree) and replays everything after it incrementally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObjOp {
    /// Initial placement of object `id` (bulk-loaded on recovery).
    Genesis {
        /// Object id (dense, assigned in order).
        id: u32,
        /// Placement.
        point: SurfacePoint,
    },
    /// A new object appears.
    Insert {
        /// Object id (dense, assigned in order).
        id: u32,
        /// Placement.
        point: SurfacePoint,
    },
    /// Object `id` disappears.
    Delete {
        /// Object id.
        id: u32,
    },
    /// Object `id` moves to a new surface position.
    Move {
        /// Object id.
        id: u32,
        /// New placement.
        point: SurfacePoint,
    },
}

/// Bytes of a delete record: kind + id.
const OP_DELETE_LEN: usize = 1 + 4;
/// Bytes of an insert/move record: kind + id + tri + (x, y, z).
const OP_POINT_LEN: usize = 1 + 4 + 4 + 24;

impl ObjOp {
    /// Encode as a WAL `Op` payload.
    pub fn encode(&self) -> Vec<u8> {
        let put_point = |out: &mut Vec<u8>, p: &SurfacePoint| {
            out.extend_from_slice(&p.tri.to_le_bytes());
            out.extend_from_slice(&p.pos.x.to_le_bytes());
            out.extend_from_slice(&p.pos.y.to_le_bytes());
            out.extend_from_slice(&p.pos.z.to_le_bytes());
        };
        match self {
            ObjOp::Genesis { id, point } | ObjOp::Insert { id, point } => {
                let mut out = Vec::with_capacity(OP_POINT_LEN);
                out.push(if matches!(self, ObjOp::Genesis { .. }) { 0 } else { 1 });
                out.extend_from_slice(&id.to_le_bytes());
                put_point(&mut out, point);
                out
            }
            ObjOp::Delete { id } => {
                let mut out = Vec::with_capacity(OP_DELETE_LEN);
                out.push(2);
                out.extend_from_slice(&id.to_le_bytes());
                out
            }
            ObjOp::Move { id, point } => {
                let mut out = Vec::with_capacity(OP_POINT_LEN);
                out.push(3);
                out.extend_from_slice(&id.to_le_bytes());
                put_point(&mut out, point);
                out
            }
        }
    }

    /// Decode a record written by [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Option<ObjOp> {
        let u32_at = |off: usize| -> Option<u32> {
            bytes.get(off..off + 4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        };
        let f64_at = |off: usize| -> Option<f64> {
            bytes.get(off..off + 8).map(|b| f64::from_le_bytes(b.try_into().unwrap()))
        };
        let kind = *bytes.first()?;
        let id = u32_at(1)?;
        if kind == 2 {
            return (bytes.len() == OP_DELETE_LEN).then_some(ObjOp::Delete { id });
        }
        if bytes.len() != OP_POINT_LEN {
            return None;
        }
        let point = SurfacePoint {
            tri: u32_at(5)?,
            pos: Point3::new(f64_at(9)?, f64_at(17)?, f64_at(25)?),
        };
        match kind {
            0 => Some(ObjOp::Genesis { id, point }),
            1 => Some(ObjOp::Insert { id, point }),
            3 => Some(ObjOp::Move { id, point }),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Ids per table chunk: a commit copies the one chunk it changes.
const CHUNK: usize = 64;

/// An immutable view of the object set: the id table, the live count, and
/// the `Dxy` R-tree over planar projections. Queries hold one snapshot
/// for their whole run; mutations publish a fresh one.
///
/// Both halves are persistent. The table is a list of shared chunks of
/// `CHUNK` ids and the R-tree shares its nodes, so the snapshot a commit
/// publishes shares everything with its predecessor except the one chunk
/// and the R-tree paths its op changed.
#[derive(Clone)]
pub struct ObjectSnapshot {
    /// Chunk `id / CHUNK`, slot `id % CHUNK` is the object's position,
    /// `None` once deleted. Ids are dense and never reused; every chunk
    /// but the last is full.
    table: Vec<Arc<Vec<Option<SurfacePoint>>>>,
    /// Ids ever assigned.
    ids: usize,
    live: usize,
    rtree: RTree<u32>,
}

impl ObjectSnapshot {
    /// Position of a live object. Panics for deleted/unknown ids — the
    /// query path only sees ids it got from this snapshot's own R-tree.
    pub fn point(&self, id: u32) -> SurfacePoint {
        self.get(id).expect("id must be live in this snapshot")
    }

    /// Position of `id`, or `None` if deleted or never assigned.
    pub fn get(&self, id: u32) -> Option<SurfacePoint> {
        let id = id as usize;
        self.table.get(id / CHUNK)?.get(id % CHUNK).copied().flatten()
    }

    /// Number of live objects.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Ids ever assigned (dense upper bound; some may be deleted).
    pub fn id_bound(&self) -> u32 {
        self.ids as u32
    }

    /// Ids of all live objects, ascending.
    pub fn live_ids(&self) -> Vec<u32> {
        let slots = self.table.iter().flat_map(|chunk| chunk.iter());
        (0..).zip(slots).filter_map(|(id, slot)| slot.map(|_| id)).collect()
    }

    /// The `Dxy` R-tree over live objects' planar projections.
    pub fn rtree(&self) -> &RTree<u32> {
        &self.rtree
    }

    /// Check the snapshot's invariants: R-tree structure, tree/table
    /// agreement on membership and position.
    pub fn validate(&self) -> Result<(), String> {
        self.rtree.validate()?;
        if self.rtree.len() != self.live {
            return Err(format!(
                "rtree has {} entries, table {} live",
                self.rtree.len(),
                self.live
            ));
        }
        let mut seen = vec![false; self.ids];
        for (rect, id) in self.rtree.iter_all() {
            let p =
                self.get(id).ok_or_else(|| format!("rtree entry {id} is not live in the table"))?;
            if rect != Rect2::from_point(p.pos.xy()) {
                return Err(format!("rtree rect for {id} disagrees with the table position"));
            }
            if std::mem::replace(&mut seen[id as usize], true) {
                return Err(format!("rtree holds {id} twice"));
            }
        }
        Ok(())
    }

    /// The table slot of an assigned id, its chunk copied first if an
    /// earlier snapshot shares it.
    fn slot_mut(&mut self, id: u32) -> &mut Option<SurfacePoint> {
        let id = id as usize;
        assert!(id < self.ids, "id {id} was never assigned");
        &mut Arc::make_mut(&mut self.table[id / CHUNK])[id % CHUNK]
    }

    /// Apply one non-genesis op. Panics on log corruption (replaying a
    /// committed log can only fail if the durability layer is broken).
    fn apply(&mut self, op: &ObjOp) {
        match *op {
            ObjOp::Genesis { .. } => panic!("genesis records precede the incremental log"),
            ObjOp::Insert { id, point } => {
                assert_eq!(id as usize, self.ids, "insert ids are dense");
                if self.ids.is_multiple_of(CHUNK) {
                    self.table.push(Arc::new(Vec::with_capacity(CHUNK)));
                }
                Arc::make_mut(self.table.last_mut().expect("a chunk with room")).push(Some(point));
                self.ids += 1;
                self.rtree.insert(Rect2::from_point(point.pos.xy()), id);
                self.live += 1;
            }
            ObjOp::Delete { id } => {
                let old = self.slot_mut(id).take().expect("delete of a live object");
                assert!(
                    self.rtree.delete(&Rect2::from_point(old.pos.xy()), &id),
                    "rtree and table disagree on object {id}"
                );
                self.live -= 1;
            }
            ObjOp::Move { id, point } => {
                let old = self.slot_mut(id).replace(point).expect("move of a live object");
                assert!(
                    self.rtree.delete(&Rect2::from_point(old.pos.xy()), &id),
                    "rtree and table disagree on object {id}"
                );
                self.rtree.insert(Rect2::from_point(point.pos.xy()), id);
            }
        }
    }

    fn from_genesis(objects: &[(u32, SurfacePoint)]) -> Self {
        for (i, &(id, _)) in objects.iter().enumerate() {
            assert_eq!(id as usize, i, "genesis ids are dense and ordered");
        }
        let rtree = RTree::bulk_load(
            objects.iter().map(|&(id, p)| (Rect2::from_point(p.pos.xy()), id)).collect(),
        );
        let table = objects
            .chunks(CHUNK)
            .map(|chunk| Arc::new(chunk.iter().map(|&(_, p)| Some(p)).collect()))
            .collect();
        Self { table, ids: objects.len(), live: objects.len(), rtree }
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Everything a writer needs, behind one mutex: mutations are serialised,
/// so the WAL sees ops in a total order.
struct WriteHalf {
    wal: Wal,
    next_txn: u64,
}

/// Write-path counters of the object store: WAL traffic, aborts,
/// recoveries and the live object count.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteStats {
    /// WAL counters (appends, fsyncs, failed fsyncs, truncations).
    pub wal: WalStats,
    /// Always 0: the store writes no pages back. Kept only because
    /// `benchmark/` reads it (harness debt, ROADMAP).
    pub flushed_pages: u64,
    /// Mutations aborted by a failed commit fsync.
    pub aborted_ops: u64,
    /// Times this store was rebuilt from a crash image (0 or 1).
    pub recoveries: u64,
    /// Committed `Op` records replayed by the last recovery (genesis
    /// included).
    pub replay_records: u64,
    /// Live objects in the current snapshot.
    pub live_objects: usize,
    /// Always 0: the store has no dirty pages. Kept only because
    /// `benchmark/` reads it (harness debt, ROADMAP).
    pub dirty_pages: usize,
}

/// What [`ObjectStore::recover`] did, for assertions and telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Committed `Op` records replayed, genesis included.
    pub replay_records: u64,
    /// Logical ops replayed on top of the genesis bulk load.
    pub replayed_ops: u64,
    /// Transactions with a durable commit in the log.
    pub committed_txns: usize,
    /// Bytes discarded as a torn/corrupt WAL tail.
    pub torn_tail_bytes: usize,
}

/// The durable, concurrently readable object set. See the module docs.
pub struct ObjectStore {
    fault: Option<Arc<FaultInjector>>,
    snap: RwLock<Arc<ObjectSnapshot>>,
    write: Mutex<WriteHalf>,
    aborted: AtomicU64,
    recoveries: u64,
    replay_records: u64,
}

impl ObjectStore {
    /// Create a store from the initial object set ("genesis"): every
    /// object is logged as a genesis `Op` record under one committed
    /// transaction — the recovery baseline. Genesis is never
    /// fault-injected — it models the pre-built database the paper
    /// starts from. `pool_pages` is unused (the store pages nothing) and
    /// kept only because `benchmark/` passes it (harness debt, ROADMAP).
    pub fn genesis(
        objects: &[SceneObject],
        _pool_pages: usize,
        fault: Option<Arc<FaultInjector>>,
    ) -> Self {
        let mut wal = Wal::new();
        for o in objects {
            let payload = ObjOp::Genesis { id: o.id, point: o.point }.encode();
            wal.append(1, &WalRecord::Op { payload });
        }
        wal.append(1, &WalRecord::Commit);
        wal.sync(None).expect("genesis fsync is not fault-injected");
        let snap = ObjectSnapshot::from_genesis(
            &objects.iter().map(|o| (o.id, o.point)).collect::<Vec<_>>(),
        );
        Self {
            fault,
            snap: RwLock::new(Arc::new(snap)),
            write: Mutex::new(WriteHalf { wal, next_txn: 2 }),
            aborted: AtomicU64::new(0),
            recoveries: 0,
            replay_records: 0,
        }
    }

    /// The current snapshot. Clone-cheap (`Arc`); hold it for the whole
    /// query so concurrent mutations cannot shift the ground mid-ranking.
    pub fn snapshot(&self) -> Arc<ObjectSnapshot> {
        match self.snap.read() {
            Ok(g) => Arc::clone(&g),
            Err(p) => Arc::clone(&p.into_inner()),
        }
    }

    /// Insert a new object; returns its id. Durable once this returns.
    pub fn insert(&self, point: SurfacePoint) -> StoreResult<u32> {
        let mut w = lock_recover(&self.write);
        let id = self.snapshot().id_bound();
        self.commit_op(&mut w, ObjOp::Insert { id, point })?;
        Ok(id)
    }

    /// Delete an object. `Ok(false)` if the id is not live (no-op, not
    /// logged).
    pub fn delete(&self, id: u32) -> StoreResult<bool> {
        let mut w = lock_recover(&self.write);
        if self.snapshot().get(id).is_none() {
            return Ok(false);
        }
        self.commit_op(&mut w, ObjOp::Delete { id })?;
        Ok(true)
    }

    /// Move an object to a new surface position. `Ok(false)` if the id is
    /// not live.
    pub fn move_object(&self, id: u32, point: SurfacePoint) -> StoreResult<bool> {
        let mut w = lock_recover(&self.write);
        if self.snapshot().get(id).is_none() {
            return Ok(false);
        }
        self.commit_op(&mut w, ObjOp::Move { id, point })?;
        Ok(true)
    }

    /// The commit protocol. Under the write lock: append the `Op` record,
    /// append `Commit`, fsync. Success publishes a new snapshot; failure
    /// withdraws the pending records, leaving no trace.
    fn commit_op(&self, w: &mut WriteHalf, op: ObjOp) -> StoreResult<()> {
        let mark = w.wal.mark();
        w.wal.append(w.next_txn, &WalRecord::Op { payload: op.encode() });
        w.wal.append(w.next_txn, &WalRecord::Commit);
        if let Err(e) = w.wal.sync(self.fault.as_deref()) {
            w.wal.truncate_pending(mark);
            self.aborted.fetch_add(1, Relaxed);
            return Err(e);
        }
        w.next_txn += 1;
        let mut next = ObjectSnapshot::clone(&self.snapshot());
        next.apply(&op);
        match self.snap.write() {
            Ok(mut g) => *g = Arc::new(next),
            Err(p) => *p.into_inner() = Arc::new(next),
        }
        Ok(())
    }

    /// Returns `Ok(0)` pages flushed and does nothing: every commit is
    /// already durable in the WAL and no page needs writing back. Kept
    /// only because `benchmark/` calls it (harness debt, ROADMAP);
    /// truncating the log here is ROADMAP item 7(a)'s open half.
    pub fn checkpoint(&self) -> StoreResult<u64> {
        Ok(0)
    }

    /// What a crash preserves: the durable WAL prefix. Everything
    /// volatile — pending WAL bytes, the in-memory snapshot — is gone.
    pub fn crash_image(&self) -> CrashImage {
        CrashImage { wal: lock_recover(&self.write).wal.durable_bytes().to_vec() }
    }

    /// Redo-only recovery. Replays the committed `Op` records of the
    /// durable log into a fresh snapshot — bulk-loads the leading run of
    /// genesis records, then applies the rest through the same
    /// `ObjectSnapshot::apply` the live write path uses — and reopens the
    /// log cut at the end of its last durable `Commit`, so records a crash
    /// left without their commit cannot be adopted by the next one.
    /// Panics if a committed record does not decode or apply — that is a
    /// durability bug, not an environmental condition — and never returns
    /// `Err`. `pool_pages` is unused and, like the `StoreResult`, kept only
    /// for `benchmark/` (harness debt, ROADMAP).
    pub fn recover(
        image: &CrashImage,
        _pool_pages: usize,
        fault: Option<Arc<FaultInjector>>,
    ) -> StoreResult<(Self, RecoveryReport)> {
        let plan = Wal::redo_plan(&image.wal);
        let ops: Vec<ObjOp> = plan
            .entries
            .iter()
            .filter(|e| plan.committed.contains(&e.txn))
            .filter_map(|e| match &e.record {
                WalRecord::Op { payload } => {
                    Some(ObjOp::decode(payload).expect("undecodable committed op record"))
                }
                WalRecord::Commit => None,
            })
            .collect();
        let genesis: Vec<(u32, SurfacePoint)> = ops
            .iter()
            .map_while(|o| match *o {
                ObjOp::Genesis { id, point } => Some((id, point)),
                _ => None,
            })
            .collect();
        let mut snap = ObjectSnapshot::from_genesis(&genesis);
        for op in &ops[genesis.len()..] {
            snap.apply(op);
        }
        let report = RecoveryReport {
            replay_records: ops.len() as u64,
            replayed_ops: (ops.len() - genesis.len()) as u64,
            committed_txns: plan.committed.len(),
            torn_tail_bytes: image.wal.len() - plan.valid_len,
        };
        let store = Self {
            fault,
            snap: RwLock::new(Arc::new(snap)),
            write: Mutex::new(WriteHalf {
                wal: Wal::from_durable(&image.wal[..plan.committed_len]),
                next_txn: plan.committed.iter().max().copied().unwrap_or(1) + 1,
            }),
            aborted: AtomicU64::new(0),
            recoveries: 1,
            replay_records: report.replay_records,
        };
        Ok((store, report))
    }

    /// True once the fault injector has requested a crash (a
    /// `kill_at_lsn` target was reached). The workload harness polls this
    /// and stops issuing operations.
    pub fn kill_requested(&self) -> bool {
        self.fault.as_deref().is_some_and(|f| f.kill_requested())
    }

    /// The store's write-path counters.
    pub fn write_stats(&self) -> WriteStats {
        let w = lock_recover(&self.write);
        WriteStats {
            wal: w.wal.stats(),
            flushed_pages: 0,
            aborted_ops: self.aborted.load(Relaxed),
            recoveries: self.recoveries,
            replay_records: self.replay_records,
            live_objects: self.snapshot().live(),
            dirty_pages: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SceneBuilder;
    use sknn_terrain::dem::TerrainConfig;

    fn scene_store(n: usize, seed: u64) -> (Vec<SceneObject>, ObjectStore) {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(seed);
        let scene = SceneBuilder::new(&mesh).object_count(n).seed(seed).build();
        let objects = scene.objects().to_vec();
        let store = ObjectStore::genesis(&objects, 32, None);
        (objects, store)
    }

    fn shifted(p: SurfacePoint, dx: f64) -> SurfacePoint {
        SurfacePoint { tri: p.tri, pos: Point3::new(p.pos.x + dx, p.pos.y, p.pos.z) }
    }

    #[test]
    fn op_encoding_roundtrip() {
        let p = SurfacePoint { tri: 7, pos: Point3::new(1.5, -2.25, 3.125) };
        for op in [
            ObjOp::Genesis { id: 0, point: p },
            ObjOp::Insert { id: 41, point: p },
            ObjOp::Delete { id: 9 },
            ObjOp::Move { id: 3, point: p },
        ] {
            assert_eq!(ObjOp::decode(&op.encode()), Some(op));
        }
        assert_eq!(ObjOp::decode(&[]), None);
        assert_eq!(ObjOp::decode(&[9, 0, 0, 0, 0]), None);
        let mut short = ObjOp::Insert { id: 1, point: p }.encode();
        short.pop();
        assert_eq!(ObjOp::decode(&short), None);
    }

    #[test]
    fn genesis_matches_scene_and_validates() {
        let (objects, store) = scene_store(25, 3);
        let snap = store.snapshot();
        assert_eq!(snap.live(), objects.len());
        snap.validate().unwrap();
        for o in &objects {
            assert_eq!(snap.get(o.id), Some(o.point));
        }
    }

    #[test]
    fn mutations_publish_new_snapshots_and_leave_old_ones_alone() {
        let (objects, store) = scene_store(10, 5);
        let before = store.snapshot();
        let id = store.insert(shifted(objects[0].point, 0.5)).unwrap();
        assert_eq!(id, 10);
        assert!(store.delete(3).unwrap());
        assert!(!store.delete(3).unwrap(), "double delete is a no-op");
        assert!(store.move_object(4, shifted(objects[4].point, 0.25)).unwrap());
        assert!(!store.move_object(3, objects[3].point).unwrap(), "moving a deleted id fails");
        // The pre-mutation snapshot is untouched.
        assert_eq!(before.live(), 10);
        assert_eq!(before.get(3), Some(objects[3].point));
        let after = store.snapshot();
        assert_eq!(after.live(), 10); // +1 insert, -1 delete
        assert_eq!(after.get(3), None);
        assert_eq!(after.get(4).unwrap().pos.x, objects[4].point.pos.x + 0.25);
        after.validate().unwrap();
    }

    /// Table chunks of `snap` that `base` does not share.
    fn unshared_chunks(snap: &ObjectSnapshot, base: &ObjectSnapshot) -> usize {
        snap.table
            .iter()
            .enumerate()
            .filter(|&(i, c)| base.table.get(i).is_none_or(|b| !Arc::ptr_eq(b, c)))
            .count()
    }

    #[test]
    fn a_commit_copies_one_table_chunk() {
        let (objects, store) = scene_store(4000, 17);
        let before = store.snapshot();
        assert!(store.move_object(1234, shifted(objects[1234].point, 0.5)).unwrap());
        let after = store.snapshot();
        assert_eq!(unshared_chunks(&after, &before), 1, "a move copies its id's chunk");
        assert!(store.delete(77).unwrap());
        let id = store.insert(shifted(objects[5].point, 0.25)).unwrap();
        assert_eq!(id as usize, 4000);
        let last = store.snapshot();
        // The delete's chunk and the insert's (partial) last chunk.
        assert_eq!(unshared_chunks(&last, &after), 2);
        // The earlier snapshots still hold what they held.
        assert_eq!(before.get(1234), Some(objects[1234].point));
        assert_eq!(after.get(77), Some(objects[77].point));
        assert_eq!((before.id_bound(), after.id_bound(), last.id_bound()), (4000, 4000, 4001));
        for s in [&before, &after, &last] {
            s.validate().unwrap();
        }
    }

    #[test]
    fn clean_crash_recovery_is_bit_identical() {
        let (objects, store) = scene_store(20, 7);
        let ins = store.insert(shifted(objects[1].point, 0.75)).unwrap();
        store.delete(5).unwrap();
        store.move_object(2, shifted(objects[2].point, -0.5)).unwrap();
        store.checkpoint().unwrap();
        store.insert(shifted(objects[6].point, 1.25)).unwrap();
        store.delete(ins).unwrap();

        let image = store.crash_image();
        let (rec, report) = ObjectStore::recover(&image, 32, None).unwrap();
        assert!(report.replayed_ops >= 2, "post-checkpoint ops replayed");
        assert_eq!(report.torn_tail_bytes, 0);
        let a = store.snapshot();
        let b = rec.snapshot();
        b.validate().unwrap();
        assert_eq!(a.live(), b.live());
        assert_eq!(a.id_bound(), b.id_bound());
        for id in 0..a.id_bound() {
            assert_eq!(a.get(id), b.get(id), "object {id}");
        }
        // The planar index answers identically (structure and all).
        let q = objects[0].point.pos.xy();
        let ka: Vec<_> = a.rtree().knn(q, 8).iter().map(|&(d, _, id)| (d, id)).collect();
        let kb: Vec<_> = b.rtree().knn(q, 8).iter().map(|&(d, _, id)| (d, id)).collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn uncommitted_tail_is_invisible_after_crash() {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(11);
        let scene = SceneBuilder::new(&mesh).object_count(12).seed(11).build();
        let store = ObjectStore::genesis(scene.objects(), 32, None);
        store.insert(shifted(scene.objects()[0].point, 0.5)).unwrap();
        let mut image = store.crash_image();
        // Model a crash *during* the commit fsync by tearing the tail
        // mid-commit-frame: keep the op record plus 3 bytes of the commit
        // record.
        let (entries, _) = Wal::scan(&image.wal);
        let last = entries.last().unwrap();
        assert!(matches!(last.record, WalRecord::Commit));
        let before_commit = entries[entries.len() - 2].end;
        image.wal.truncate(before_commit + 3);
        let (rec, report) = ObjectStore::recover(&image, 32, None).unwrap();
        assert_eq!(report.torn_tail_bytes, 3);
        // The torn-off commit means the insert never happened.
        let snap = rec.snapshot();
        snap.validate().unwrap();
        assert_eq!(snap.live(), 12);
        assert_eq!(snap.get(12), None);
        assert_eq!(snap.id_bound(), 12);
        // The reopened log ends at genesis' commit: the stray op is gone.
        assert_eq!(rec.crash_image().wal, image.wal[..entries[entries.len() - 3].end]);
    }

    #[test]
    fn failed_fsync_aborts_without_a_trace() {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(13);
        let scene = SceneBuilder::new(&mesh).object_count(8).seed(13).build();
        let fault = Arc::new(FaultInjector::script().fail_nth_fsync(1));
        let store = ObjectStore::genesis(scene.objects(), 32, Some(fault));
        let before = store.snapshot();
        let durable = store.crash_image().wal;
        let err = store.insert(scene.objects()[0].point).unwrap_err();
        assert!(matches!(err, sknn_store::StoreError::FsyncFailed { .. }));
        // Nothing moved: snapshot and durable WAL unchanged.
        let after = store.snapshot();
        assert_eq!(after.live(), before.live());
        assert_eq!(store.crash_image().wal, durable);
        let stats = store.write_stats();
        assert_eq!(stats.aborted_ops, 1);
        assert!(stats.wal.truncated > 0);
        // The next (un-faulted) insert succeeds and recovery agrees.
        let id = store.insert(scene.objects()[1].point).unwrap();
        assert_eq!(id, 8);
        let (rec, _) = ObjectStore::recover(&store.crash_image(), 32, None).unwrap();
        assert_eq!(rec.snapshot().live(), 9);
        rec.snapshot().validate().unwrap();
    }
}
