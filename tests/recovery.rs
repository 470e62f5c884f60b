//! Crash-recovery proof harness for the dynamic object store (DESIGN §18).
//!
//! Each test runs a scripted mutation workload against an
//! [`ObjectStore`], simulates a crash at a chosen point — every WAL
//! record boundary, a torn WAL tail, a scripted `kill_at_lsn`, or a failed
//! commit fsync — and then recovers from the crash image. The recovered
//! store must match an **oracle** built by replaying exactly the
//! committed operation prefix through the public API on a fresh store:
//!
//! * **durability** — every operation that returned `Ok` (its commit
//!   record was fsynced) is present after restart;
//! * **atomicity** — no aborted or un-fsynced operation is visible;
//! * **bit-identity** — the recovered planar index answers queries with
//!   the same ids *and the same f64 bit patterns* as the oracle, at any
//!   thread count, because recovery rebuilds the R-tree through the very
//!   same genesis-bulk-load + incremental-apply path.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use surface_knn::core::metrics::QueryResult;
use surface_knn::core::objects::{ObjOp, ObjectSnapshot, ObjectStore};
use surface_knn::core::workload::Scene;
use surface_knn::geom::Rect2;
use surface_knn::prelude::*;
use surface_knn::store::{FaultKind, StoreResult, Wal, WalRecord};
use surface_knn::terrain::mesh::TerrainMesh;

fn mesh() -> &'static TerrainMesh {
    static M: OnceLock<TerrainMesh> = OnceLock::new();
    M.get_or_init(|| TerrainConfig::bh().with_grid(17).build_mesh(4242))
}

fn scene(n: usize, seed: u64) -> Scene<'static> {
    SceneBuilder::new(mesh()).object_count(n).seed(seed).build()
}

// ---------------------------------------------------------------------------
// Scripted workload
// ---------------------------------------------------------------------------

/// One planned mutation. Recorded when it commits so an oracle can replay
/// the exact committed prefix later.
#[derive(Clone, Copy, Debug)]
enum Action {
    Insert(SurfacePoint),
    Move(u32, SurfacePoint),
    Delete(u32),
}

/// Deterministic op mix (2 inserts : 1 move : 1 delete) against whatever
/// ids are live in the store's current snapshot.
fn plan(scene: &Scene<'_>, store: &ObjectStore, seed: u64, i: u64) -> Action {
    let live = store.snapshot().live_ids();
    let p = scene.random_query(seed ^ (0x5EED_0000 + i));
    match i % 4 {
        1 if live.len() > 1 => Action::Move(live[(i as usize * 31) % live.len()], p),
        3 if live.len() > 1 => Action::Delete(live[(i as usize * 17) % live.len()]),
        _ => Action::Insert(p),
    }
}

fn issue(store: &ObjectStore, a: Action) -> StoreResult<()> {
    match a {
        Action::Insert(p) => store.insert(p).map(|_| ()),
        Action::Move(id, p) => store.move_object(id, p).map(|ok| assert!(ok, "move of a live id")),
        Action::Delete(id) => store.delete(id).map(|ok| assert!(ok, "delete of a live id")),
    }
}

/// Run `n` scripted ops, stopping early if the fault injector requests a
/// crash. Returns the actions that committed, in order.
fn run_workload(scene: &Scene<'_>, store: &ObjectStore, seed: u64, n: u64) -> Vec<Action> {
    let mut committed = Vec::new();
    for i in 0..n {
        if store.kill_requested() {
            break;
        }
        let a = plan(scene, store, seed, i);
        if issue(store, a).is_ok() {
            committed.push(a);
        }
    }
    committed
}

/// The oracle: a fresh genesis store with the committed prefix replayed
/// through the public API. Bit-identical to what recovery must produce.
fn oracle(scene: &Scene<'_>, committed: &[Action]) -> ObjectStore {
    let store = ObjectStore::genesis(scene.objects(), 64, None);
    for &a in committed {
        issue(&store, a).expect("oracle replay is not fault-injected");
    }
    store
}

/// An oracle derived from a (possibly truncated) durable WAL alone: replay
/// the `Op` payloads of every transaction with a durable commit record.
fn oracle_from_wal(scene: &Scene<'_>, wal_bytes: &[u8]) -> ObjectStore {
    let (entries, _) = Wal::scan(wal_bytes);
    let committed: std::collections::HashSet<u64> =
        entries.iter().filter(|e| matches!(e.record, WalRecord::Commit)).map(|e| e.txn).collect();
    let store = ObjectStore::genesis(scene.objects(), 64, None);
    for e in &entries {
        if !committed.contains(&e.txn) {
            continue;
        }
        if let WalRecord::Op { payload } = &e.record {
            match ObjOp::decode(payload).expect("committed op decodes") {
                ObjOp::Insert { id, point } => assert_eq!(store.insert(point).unwrap(), id),
                ObjOp::Delete { id } => assert!(store.delete(id).unwrap()),
                ObjOp::Move { id, point } => assert!(store.move_object(id, point).unwrap()),
                // The oracle's own genesis already holds these.
                ObjOp::Genesis { id, point } => assert_eq!(store.snapshot().get(id), Some(point)),
            }
        }
    }
    store
}

/// Full equality: table contents, live count, id bound, snapshot
/// invariants, and a bit-exact planar k-NN fingerprint.
fn assert_same_objects(want: &ObjectSnapshot, got: &ObjectSnapshot, ctx: &str) {
    got.validate().unwrap_or_else(|e| panic!("{ctx}: invalid recovered snapshot: {e}"));
    assert_eq!(want.id_bound(), got.id_bound(), "{ctx}: id bound");
    assert_eq!(want.live(), got.live(), "{ctx}: live count");
    for id in 0..want.id_bound() {
        assert_eq!(want.get(id), got.get(id), "{ctx}: object {id}");
    }
    let e = mesh().extent();
    for (fx, fy) in [(0.2, 0.3), (0.5, 0.5), (0.85, 0.7)] {
        let q = Point2::new(e.lo.x + fx * e.width(), e.lo.y + fy * e.height());
        let fp = |s: &ObjectSnapshot| -> Vec<(u64, u32)> {
            s.rtree().knn(q, 8).iter().map(|&(d, _, id)| (d.to_bits(), id)).collect()
        };
        assert_eq!(fp(want), fp(got), "{ctx}: planar k-NN at ({fx}, {fy})");
    }
}

// ---------------------------------------------------------------------------
// Kill-point sweeps
// ---------------------------------------------------------------------------

/// The headline sweep: crash at **every** WAL record boundary and prove
/// the recovered store equals the WAL-derived oracle at each one — and
/// stays equal when it crashes again right after recovery.
#[test]
fn every_wal_record_boundary_is_a_safe_kill_point() {
    let scene = scene(24, 42);
    let store = ObjectStore::genesis(scene.objects(), 64, None);
    let genesis_len = store.crash_image().wal.len();
    let committed = run_workload(&scene, &store, 7, 32);
    assert_eq!(committed.len(), 32, "no fault injector, no aborted commit");

    let image = store.crash_image();
    let (entries, valid) = Wal::scan(&image.wal);
    assert_eq!(valid, image.wal.len(), "the durable WAL has no torn tail");
    let mut kill_points = 0;
    for e in entries.iter().filter(|e| e.end >= genesis_len) {
        let mut crash = image.clone();
        crash.wal.truncate(e.end);
        let (rec, report) =
            ObjectStore::recover(&crash, 64, None).expect("recovery succeeds at every boundary");
        assert_eq!(report.torn_tail_bytes, 0);
        let want = oracle_from_wal(&scene, &crash.wal);
        let ctx = format!("kill after lsn {} ({})", e.lsn, e.record.kind_name());
        assert_same_objects(&want.snapshot(), &rec.snapshot(), &ctx);
        let (rec2, report2) = ObjectStore::recover(&rec.crash_image(), 64, None).unwrap();
        assert_eq!(report2.torn_tail_bytes, 0);
        assert_same_objects(&want.snapshot(), &rec2.snapshot(), &format!("re-crash, {ctx}"));
        kill_points += 1;
    }
    // Genesis' commit, then each op's `Op` and `Commit` records.
    assert_eq!(kill_points, 2 * committed.len() + 1, "one kill point per record boundary");
    // The full (untruncated) image recovers to the live store's state.
    let (rec, _) = ObjectStore::recover(&image, 64, None).unwrap();
    assert_same_objects(&store.snapshot(), &rec.snapshot(), "full image");
}

/// Torn WAL tails — a crash mid-record — are discarded: recovery lands on
/// the last whole record and loses only the unfinished suffix.
#[test]
fn torn_wal_tails_are_discarded_cleanly() {
    let scene = scene(18, 43);
    let store = ObjectStore::genesis(scene.objects(), 64, None);
    let genesis_len = store.crash_image().wal.len();
    run_workload(&scene, &store, 11, 16);

    let image = store.crash_image();
    let (entries, _) = Wal::scan(&image.wal);
    for e in entries.iter().filter(|e| e.end >= genesis_len && e.end + 3 < image.wal.len()) {
        let mut crash = image.clone();
        crash.wal.truncate(e.end + 3);
        let (rec, report) = ObjectStore::recover(&crash, 64, None).unwrap();
        assert_eq!(report.torn_tail_bytes, 3, "three stray bytes past lsn {}", e.lsn);
        let want = oracle_from_wal(&scene, &crash.wal[..e.end]);
        assert_same_objects(&want.snapshot(), &rec.snapshot(), &format!("torn after {}", e.lsn));
    }
}

/// `kill_at_lsn` crashes the workload mid-stream: the durable log must
/// replay to exactly the committed state the workload was told about.
#[test]
fn kill_at_lsn_crashes_recover_bit_identically() {
    let scene = scene(20, 44);
    let probe = ObjectStore::genesis(scene.objects(), 64, None);
    let genesis_lsn = Wal::scan(&probe.crash_image().wal).0.last().unwrap().lsn;

    for off in [1u64, 3, 7, 12, 21, 34] {
        let fault = Arc::new(FaultInjector::script().kill_at_lsn(genesis_lsn + off));
        let store = ObjectStore::genesis(scene.objects(), 64, Some(fault));
        let committed = run_workload(&scene, &store, 101 + off, 48);
        assert!(store.kill_requested(), "offset {off} reached its kill point");

        let (rec, _) = ObjectStore::recover(&store.crash_image(), 64, None).unwrap();
        let want = oracle(&scene, &committed);
        assert_same_objects(&want.snapshot(), &rec.snapshot(), &format!("kill at +{off}"));
        // The survivor store itself agrees too: fsync-on-commit means
        // every Ok the workload saw is durable.
        assert_same_objects(&store.snapshot(), &rec.snapshot(), &format!("live vs rec +{off}"));
    }
}

/// A crash can leave the durable log ending between an op's `Op` record
/// and its `Commit` — the sweep above counts that boundary as safe. The
/// store recovered from it must not adopt the stray record: its next
/// commit reuses the uncommitted transaction's id, so a log reopened with
/// the record still in it would commit that too.
#[test]
fn a_recovered_store_never_adopts_an_uncommitted_tail() {
    let scene = scene(14, 52);
    let store = ObjectStore::genesis(scene.objects(), 64, None);
    store.insert(scene.random_query(1)).unwrap();
    store.insert(scene.random_query(2)).unwrap();
    let mut crash = store.crash_image();
    let (entries, _) = Wal::scan(&crash.wal);
    assert_eq!(entries.last().unwrap().record, WalRecord::Commit);
    crash.wal.truncate(entries[entries.len() - 2].end);

    let (survivor, _) = ObjectStore::recover(&crash, 64, None).unwrap();
    survivor.insert(scene.random_query(3)).unwrap();
    let (rec, _) = ObjectStore::recover(&survivor.crash_image(), 64, None).unwrap();
    assert_same_objects(&survivor.snapshot(), &rec.snapshot(), "second recovery");
}

/// Commit fsync failures abort atomically mid-workload: aborted ops leave
/// no trace in the live store, on disk, or after recovery.
#[test]
fn fsync_faults_abort_atomically_mid_workload() {
    let scene = scene(20, 46);
    let fault = Arc::new(FaultInjector::seeded(9, 0.2, FaultKind::FsyncFault));
    let store = ObjectStore::genesis(scene.objects(), 64, Some(fault));
    let mut committed = Vec::new();
    let mut aborted = 0u64;
    for i in 0..48u64 {
        let a = plan(&scene, &store, 303, i);
        match issue(&store, a) {
            Ok(()) => committed.push(a),
            Err(_) => aborted += 1,
        }
    }
    assert!(aborted > 0, "the 20 % fsync fault rate fired at least once");
    assert!(committed.len() > aborted as usize, "most ops still committed");
    assert_eq!(store.write_stats().aborted_ops, aborted);

    let want = oracle(&scene, &committed);
    assert_same_objects(&want.snapshot(), &store.snapshot(), "live store after aborts");
    let (rec, _) = ObjectStore::recover(&store.crash_image(), 64, None).unwrap();
    assert_same_objects(&want.snapshot(), &rec.snapshot(), "recovered after aborts");
}

/// A checkpoint mid-workload leaves the recovered state unchanged.
#[test]
fn checkpoint_bounds_replay_and_preserves_identity() {
    let scene = scene(22, 47);
    let store = ObjectStore::genesis(scene.objects(), 64, None);
    let committed_a = run_workload(&scene, &store, 404, 20);
    let (rec_before, _) = ObjectStore::recover(&store.crash_image(), 64, None).unwrap();
    assert_same_objects(
        &oracle(&scene, &committed_a).snapshot(),
        &rec_before.snapshot(),
        "pre-checkpoint crash",
    );
    store.checkpoint().unwrap();
    let mut committed = committed_a;
    committed.extend(run_workload(&scene, &store, 505, 10));
    assert_eq!(committed.len(), 30);

    let (rec, report) = ObjectStore::recover(&store.crash_image(), 64, None).unwrap();
    assert_eq!(report.replayed_ops, 30, "the logical log still replays every op");
    assert_eq!(report.committed_txns, 31, "genesis plus thirty mutations");
    let want = oracle(&scene, &committed);
    assert_same_objects(&want.snapshot(), &rec.snapshot(), "post-checkpoint crash");
    assert_same_objects(&store.snapshot(), &rec.snapshot(), "live vs recovered");
}

// ---------------------------------------------------------------------------
// Engine-level bit-identity and concurrency
// ---------------------------------------------------------------------------
/// `try_query_batch` with every query answered.
fn answers(
    engine: &Mr3Engine,
    batch: &[(SurfacePoint, usize)],
    threads: usize,
) -> Vec<QueryResult> {
    engine.try_query_batch(batch, threads).into_iter().map(Result::unwrap).collect()
}

/// Neighbour ids and the exact bit patterns of both bounds.
fn fingerprint(results: &[QueryResult]) -> Vec<Vec<(u32, u64, u64)>> {
    results
        .iter()
        .map(|r| {
            r.neighbors.iter().map(|n| (n.id, n.range.lb.to_bits(), n.range.ub.to_bits())).collect()
        })
        .collect()
}

/// After a crash mid-workload, a restarted engine serves surface k-NN
/// answers bit-identical to the survivor — at 1, 4, and 8 threads.
#[test]
fn recovered_engine_serves_bit_identical_knn_at_any_thread_count() {
    let scene = scene(30, 48);
    let cfg = Mr3Config::default();
    let engine = Mr3Engine::build(mesh(), &scene, &cfg);
    for i in 0..24u64 {
        let a = plan(&scene, engine.objects(), 606, i);
        issue(engine.objects(), a).unwrap();
    }

    let image = engine.objects().crash_image();
    let (store, report) = ObjectStore::recover(&image, cfg.pool_pages, None).unwrap();
    assert!(report.replayed_ops >= 24);
    let restarted = Mr3Engine::build(mesh(), &scene, &cfg).with_object_store(store);
    assert_eq!(restarted.write_stats().recoveries, 1);

    let batch: Vec<(SurfacePoint, usize)> =
        scene.random_queries(6, 99).into_iter().map(|q| (q, 5)).collect();
    let reference = fingerprint(&answers(&engine, &batch, 1));
    for threads in [1usize, 4, 8] {
        assert_eq!(
            fingerprint(&answers(&engine, &batch, threads)),
            reference,
            "survivor at {threads} threads"
        );
        assert_eq!(
            fingerprint(&answers(&restarted, &batch, threads)),
            reference,
            "restarted engine at {threads} threads"
        );
    }
}

/// Mutations racing a stream of queries never panic and never surface a
/// half-applied state; once writers quiesce, the engine answers exactly
/// like a sequential replay of the committed history.
#[test]
fn concurrent_mutations_never_disturb_readers() {
    let scene = scene(26, 49);
    let cfg = Mr3Config::default();
    let engine = Mr3Engine::build(mesh(), &scene, &cfg);

    let committed: Vec<Action> = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut done = Vec::new();
            for i in 0..60u64 {
                let a = plan(&scene, engine.objects(), 707, i);
                if issue(engine.objects(), a).is_ok() {
                    done.push(a);
                }
                std::thread::yield_now();
            }
            done
        });
        for t in 0..2u64 {
            let (scene, engine) = (&scene, &engine);
            s.spawn(move || {
                for j in 0..12u64 {
                    let q = scene.random_query(808 + t * 100 + j);
                    let res = engine.try_query(q, 4).unwrap();
                    assert_eq!(res.neighbors.len(), 4, "reader {t} query {j}");
                    for n in &res.neighbors {
                        assert!(
                            n.range.lb.is_finite() && n.range.lb <= n.range.ub,
                            "reader {t} query {j}: torn range [{}, {}]",
                            n.range.lb,
                            n.range.ub
                        );
                    }
                }
            });
        }
        writer.join().expect("the writer never panics")
    });

    let replayed =
        Mr3Engine::build(mesh(), &scene, &cfg).with_object_store(oracle(&scene, &committed));
    assert_same_objects(
        &replayed.objects().snapshot(),
        &engine.objects().snapshot(),
        "post-quiesce object set",
    );
    let batch: Vec<(SurfacePoint, usize)> =
        scene.random_queries(5, 909).into_iter().map(|q| (q, 4)).collect();
    assert_eq!(
        fingerprint(&answers(&engine, &batch, 4)),
        fingerprint(&answers(&replayed, &batch, 4)),
        "post-quiesce answers match a sequential replay"
    );
}

// ---------------------------------------------------------------------------
// Structural identity, pinned
// ---------------------------------------------------------------------------
//
// The tests above compare a live store against a recovered one, and both
// sides run the same R-tree code, so a change to how that code builds the
// tree would pass them unnoticed. The two below pin digests of the tree's
// exact shape and of the engine's answers; both constants were computed
// before the R-tree became persistent (path-copying) and must never be
// edited to make a change pass.

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn rect(&mut self, r: &Rect2) {
        for v in [r.lo.x, r.lo.y, r.hi.x, r.hi.y] {
            self.word(v.to_bits());
        }
    }
}

/// Splitmix64: the op mix's private, seeded generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A 4 000-object genesis store after a seeded 20 000-op mix (40 % move,
/// 30 % insert, 30 % delete): the R-tree's height, its `iter_all` order
/// with every rectangle's bits, and the exact `knn` and `within_distance`
/// answers (order included) at 200 seeded points hash to one constant.
#[test]
fn rtree_shape_after_a_long_mix_matches_the_pinned_digest() {
    let scene = scene(4000, 61);
    let store = ObjectStore::genesis(scene.objects(), 64, None);
    let mut live: Vec<u32> = (0..4000).collect();
    let mut rng = 0x51AB_1E5Eu64;
    for i in 0..20_000u64 {
        let roll = splitmix(&mut rng) % 10;
        let pick = splitmix(&mut rng) as usize % live.len();
        let p = scene.random_query(0x00D1_6E57 ^ i);
        if roll < 4 {
            assert!(store.move_object(live[pick], p).unwrap());
        } else if roll < 7 || live.len() < 2 {
            live.push(store.insert(p).unwrap());
        } else {
            assert!(store.delete(live.swap_remove(pick)).unwrap());
        }
    }
    let snap = store.snapshot();
    snap.validate().unwrap();
    let tree = snap.rtree();
    let mut h = Fnv::new();
    h.word(tree.height() as u64);
    h.word(tree.len() as u64);
    for (r, id) in tree.iter_all() {
        h.rect(&r);
        h.word(u64::from(id));
    }
    let e = mesh().extent();
    let radius = 0.04 * e.width();
    for j in 0..200u64 {
        let fx = (splitmix(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
        let fy = (splitmix(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
        let q = Point2::new(e.lo.x + fx * e.width(), e.lo.y + fy * e.height());
        h.word(j);
        for (d, r, id) in tree.knn(q, 8) {
            h.word(d.to_bits());
            h.rect(&r);
            h.word(u64::from(id));
        }
        for (r, id) in tree.within_distance(q, radius) {
            h.rect(&r);
            h.word(u64::from(id));
        }
    }
    assert_eq!(h.0, 0x6042_ff57_fd27_2435, "R-tree shape digest moved: {:#018x}", h.0);
}

/// The MR3 answers of a 6-query batch on a 30-object store after 24
/// mutations — neighbour ids and both bounds' bits — hash to one constant.
#[test]
fn mr3_answers_after_mutations_match_the_pinned_digest() {
    let scene = scene(30, 48);
    let engine = Mr3Engine::build(mesh(), &scene, &Mr3Config::default());
    for i in 0..24u64 {
        issue(engine.objects(), plan(&scene, engine.objects(), 606, i)).unwrap();
    }
    let batch: Vec<(SurfacePoint, usize)> =
        scene.random_queries(6, 99).into_iter().map(|q| (q, 5)).collect();
    let mut h = Fnv::new();
    for answer in fingerprint(&answers(&engine, &batch, 1)) {
        h.word(answer.len() as u64);
        for (id, lb, ub) in answer {
            h.word(u64::from(id));
            h.word(lb);
            h.word(ub);
        }
    }
    assert_eq!(h.0, 0xd85f_b714_5fc5_1fce, "MR3 answer digest moved: {:#018x}", h.0);
}

// ---------------------------------------------------------------------------
// Property sweep
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any workload seed and kill point: recovery reproduces exactly
    /// the committed prefix, bit-identically.
    #[test]
    fn recovery_is_exact_for_any_seed_and_kill_point(
        seed in 0u64..400,
        kill_off in 1u64..90,
    ) {
        let scene = scene(12 + (seed % 9) as usize, 50 + seed);
        let probe = ObjectStore::genesis(scene.objects(), 64, None);
        let genesis_lsn = Wal::scan(&probe.crash_image().wal).0.last().unwrap().lsn;

        let fault = Arc::new(FaultInjector::script().kill_at_lsn(genesis_lsn + kill_off));
        let store = ObjectStore::genesis(scene.objects(), 64, Some(fault));
        let committed = run_workload(&scene, &store, seed, 50);

        let (rec, report) = ObjectStore::recover(&store.crash_image(), 64, None).unwrap();
        prop_assert_eq!(report.replayed_ops as usize, committed.len());
        let want = oracle(&scene, &committed);
        let (a, b) = (want.snapshot(), rec.snapshot());
        prop_assert!(b.validate().is_ok());
        prop_assert_eq!(a.id_bound(), b.id_bound());
        prop_assert_eq!(a.live(), b.live());
        for id in 0..a.id_bound() {
            prop_assert_eq!(a.get(id), b.get(id));
        }
    }

    /// Commits copy only what they change and share the rest with the
    /// snapshots before them, so no later commit may reach into an earlier
    /// snapshot: every snapshot kept along a random op sequence still
    /// validates and still holds exactly its objects and tree order.
    #[test]
    fn every_retained_snapshot_stays_as_published(
        seed in 0u64..400,
        ops in proptest::collection::vec((0u8..3, any::<u64>()), 1..90),
    ) {
        let scene = scene(100 + (seed % 60) as usize, 70 + seed);
        let store = ObjectStore::genesis(scene.objects(), 64, None);
        type Kept = (Arc<ObjectSnapshot>, Vec<(Rect2, u32)>, Vec<Option<SurfacePoint>>);
        let record = |s: Arc<ObjectSnapshot>| -> Kept {
            let table = (0..s.id_bound()).map(|id| s.get(id)).collect();
            let order = s.rtree().iter_all();
            (s, order, table)
        };
        let mut kept = vec![record(store.snapshot())];
        for (kind, r) in ops {
            let live = store.snapshot().live_ids();
            let id = live[r as usize % live.len()];
            let p = scene.random_query(r);
            match kind {
                0 => prop_assert!(store.move_object(id, p).unwrap()),
                1 => {
                    store.insert(p).unwrap();
                }
                _ if live.len() > 1 => prop_assert!(store.delete(id).unwrap()),
                _ => {}
            }
            kept.push(record(store.snapshot()));
        }
        for (step, (snap, order, table)) in kept.iter().enumerate() {
            prop_assert!(snap.validate().is_ok(), "snapshot {}: {:?}", step, snap.validate());
            prop_assert_eq!(&snap.rtree().iter_all(), order);
            prop_assert_eq!(snap.id_bound() as usize, table.len());
            for (id, want) in table.iter().enumerate() {
                prop_assert_eq!(snap.get(id as u32), *want);
            }
        }
    }
}
