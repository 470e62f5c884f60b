//! `write_mix`: one writer committing durable object operations (40 %
//! move, 30 % insert, 30 % delete, a checkpoint every `CHECKPOINT_EVERY`)
//! beside one reader cycling warm queries on the same engine; then the
//! store is crashed, recovered from its durable bytes alone, and the live
//! set compared with what the writer was told had committed — `ROUNDS`
//! times over, each round on a fresh store.

use crate::pace::Pace;
use crate::queries::{Phase, QueryLoop};
use crate::stats::{median, quantile, ratio, Ops, Report};
use crate::trace::Tracer;
use crate::world::{self, stream, with_cold_builds, Rng, World};
use crate::Ctx;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use surface_knn::core::objects::ObjectStore;
use surface_knn::prelude::*;

const CHECKPOINT_EVERY: u64 = 2000;
const SMOKE_CHECKPOINT_EVERY: u64 = 50;
/// The writer's op count per second of `--seconds`: a count, not a
/// duration, because the store keeps its whole WAL — memory and recovery
/// time grow with ops committed, so a timed window would charge a faster
/// writer with a higher `peak_rss_mb`. 5 000/s is about what the reference
/// host commits, so the rounds together still last about `--seconds`.
const OPS_PER_WINDOW_SECOND: f64 = 5000.0;
/// The ops are committed in this many rounds, each starting from the
/// genesis object set and ending in its own crash and recovery. A store
/// slows as it ages (its WAL and heap only grow) and holds ~25 KB of
/// process memory per op by the time it has been recovered, so one long
/// round would mostly measure the age it reached; five short ones keep the
/// store in one regime, bound the memory, and give throughput five
/// independent samples to take the median of.
const ROUNDS: u64 = 5;
/// Pre-generated placements for inserts and moves, cycled.
const PLACEMENTS: usize = 8192;

#[derive(Clone, Copy)]
enum Kind {
    Move,
    Insert,
    Delete,
}

/// The writer's view of what it has been told is durable.
struct Writer<'a> {
    rng: Rng,
    placements: &'a [SurfacePoint],
    next_placement: usize,
    /// Acknowledged live objects; ids also kept in a vector so a random
    /// live id is O(1) to draw.
    oracle: BTreeMap<u32, SurfacePoint>,
    ids: Vec<u32>,
    done: u64,
    errors: u64,
    checkpoint_every: u64,
}

#[derive(Default)]
struct WritePhase {
    ops: Ops,
    /// Whether each op recorded spans.
    traced: Vec<bool>,
    by_kind: [Vec<f64>; 3],
    checkpoint_ms: Vec<f64>,
    dirty_pages_max: usize,
}

impl Writer<'_> {
    fn placement(&mut self) -> SurfacePoint {
        self.next_placement = (self.next_placement + 1) % self.placements.len();
        self.placements[self.next_placement]
    }

    /// Forget everything acknowledged: the store is back at genesis.
    fn reset(&mut self, scene: &Scene<'_>) {
        self.oracle = scene.objects().iter().map(|o| (o.id, o.point)).collect();
        self.ids = scene.objects().iter().map(|o| o.id).collect();
    }

    /// Commit `ops` operations, adding them to `out`; returns the seconds
    /// it took.
    fn run(
        &mut self,
        store: &ObjectStore,
        mut tracer: Option<&mut Tracer>,
        ops: u64,
        out: &mut WritePhase,
    ) -> f64 {
        let start = Instant::now();
        for _ in 0..ops {
            let draw = self.rng.unit();
            let kind = if draw < 0.4 {
                Kind::Move
            } else if draw < 0.7 || self.ids.len() < 2 {
                Kind::Insert
            } else {
                Kind::Delete
            };
            let slot = self.rng.below(self.ids.len());
            let target = self.ids[slot];
            let point = self.placement();
            let t0 = Instant::now();
            let acked = match kind {
                Kind::Move => store.move_object(target, point).map(|moved| {
                    assert!(moved, "oracle says {target} is live");
                    self.oracle.insert(target, point);
                }),
                Kind::Insert => store.insert(point).map(|id| {
                    self.oracle.insert(id, point);
                    self.ids.push(id);
                }),
                Kind::Delete => store.delete(target).map(|deleted| {
                    assert!(deleted, "oracle says {target} is live");
                    self.oracle.remove(&target);
                    self.ids.swap_remove(slot);
                }),
            };
            let t_op = Instant::now();
            self.errors += u64::from(acked.is_err());
            self.done += 1;
            // The op that fills the interval pays for the checkpoint: that
            // is the foreground stall a median hides and a p99 should not.
            let mut t1 = t_op;
            if self.done.is_multiple_of(self.checkpoint_every) {
                out.dirty_pages_max = out.dirty_pages_max.max(store.write_stats().dirty_pages);
                let c0 = Instant::now();
                self.errors += u64::from(store.checkpoint().is_err());
                t1 = Instant::now();
                out.checkpoint_ms.push((t1 - c0).as_secs_f64() * 1e3);
            }
            out.ops.push(t0, t1, 0.0);
            out.by_kind[kind as usize].push((t_op - t0).as_secs_f64() * 1e6);
            // A traced phase traces every second op; the others are its
            // untraced reference, interleaved so both age with the store.
            let traced = tracer.as_deref_mut().filter(|_| self.done % 2 == 1);
            out.traced.push(traced.is_some());
            if let Some(tr) = traced {
                let at = tr.at(t0);
                let root = tr.span(self.done, 0, "op", at, tr.at(t1) - at);
                let name = match kind {
                    Kind::Move => "core.objects.move",
                    Kind::Insert => "core.objects.insert",
                    Kind::Delete => "core.objects.delete",
                };
                tr.span(self.done, root, name, at, tr.at(t_op) - at);
                if t1 > t_op {
                    tr.span(
                        self.done,
                        root,
                        "core.objects.checkpoint",
                        tr.at(t_op),
                        tr.at(t1) - tr.at(t_op),
                    );
                    let ws = store.write_stats();
                    tr.count(self.done, "store.wal_appends", ws.wal.appends as f64);
                    tr.count(self.done, "store.wal_fsyncs", ws.wal.fsyncs as f64);
                    tr.count(self.done, "store.flushed_pages", ws.flushed_pages as f64);
                }
            }
        }
        start.elapsed().as_secs_f64()
    }
}

/// Commit `ops` writes on this thread while `reader` cycles its pool beside
/// it, from op `reader_op`, until the writer is done.
fn phase(
    reader: &QueryLoop<'_, '_>,
    reader_op: u64,
    writer: &mut Writer<'_>,
    tracer: Option<&mut Tracer>,
    ops: u64,
    out: &mut WritePhase,
) -> (f64, Phase) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop = &stop;
        // Answers change as objects move, so they are checked for form
        // only; pool entries are not held to their first answer.
        let reading = s.spawn(move || {
            reader.run(reader_op, &mut Pace::new(), None, None, |_| !stop.load(Ordering::Relaxed))
        });
        let secs = writer.run(reader.engine.objects(), tracer, ops, out);
        stop.store(true, Ordering::Relaxed);
        (secs, reading.join().expect("reader thread"))
    })
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let ready_at_once = |_: &World<'_>, ready: &mut dyn FnMut()| ready();
    let ((), setup_s) =
        with_cold_builds(ctx, ctx.write_objects, 1, ready_at_once, |w| measure(ctx, w, rep));
    if !ctx.traced {
        rep.set("setup_s", setup_s);
    }
}

fn measure(ctx: &Ctx, mut w: World<'_>, rep: &mut Report) {
    let scene = w.scene;
    let mut engine = w.engines.pop().expect("the world has one engine");
    engine.cold_cache = false;
    let pool = world::hot_mix(ctx, scene, ctx.warm_pool);
    let placements = world::uniform_points(
        scene,
        if ctx.smoke { 256 } else { PLACEMENTS },
        &mut Rng::new(ctx.seed, stream::PLACEMENTS),
    );
    let mut writer = Writer {
        rng: Rng::new(ctx.seed, stream::OP_MIX),
        placements: &placements,
        next_placement: 0,
        oracle: BTreeMap::new(),
        ids: Vec::new(),
        done: 0,
        errors: 0,
        checkpoint_every: if ctx.smoke { SMOKE_CHECKPOINT_EVERY } else { CHECKPOINT_EVERY },
    };
    let round_ops =
        ((OPS_PER_WINDOW_SECOND * ctx.seconds) as u64 / if ctx.smoke { 10 } else { 1 } / ROUNDS)
            .max(1);

    // Untimed: let the reader's caches fill before any clock starts.
    let warm = QueryLoop { engine: &engine, pool: &pool, k: ctx.k }.run(
        0,
        &mut Pace::new(),
        None,
        None,
        |done| done < pool.len(),
    );
    let mut reads = vec![warm];

    let mut tracer = ctx.traced.then(Tracer::new);
    if ctx.traced {
        engine.enable_tracing();
    }
    let mut written = WritePhase::default();
    let mut rates = Vec::new();
    let mut recover_ms = Vec::new();
    let (mut lost_or_invented, mut replayed) = (0u64, 0u64);
    // WAL bytes, appends, fsyncs and flushed pages over all rounds.
    let mut wal = [0u64; 4];
    for round in 0..ROUNDS {
        if round > 0 {
            engine = engine.with_object_store(ObjectStore::genesis(
                scene.objects(),
                w.cfg.pool_pages,
                None,
            ));
        }
        writer.reset(scene);
        let store_counts = |e: &Mr3Engine<'_, '_>| {
            let ws = e.write_stats();
            [
                e.objects().crash_image().wal.len() as u64,
                ws.wal.appends,
                ws.wal.fsyncs,
                ws.flushed_pages,
            ]
        };
        let before = store_counts(&engine);
        let reader = QueryLoop { engine: &engine, pool: &pool, k: ctx.k };
        let reader_op: u64 = reads.iter().map(|r| r.ops.len() as u64).sum();
        let (secs, read) =
            phase(&reader, reader_op, &mut writer, tracer.as_mut(), round_ops, &mut written);
        rates.push(round_ops as f64 / secs);
        reads.push(read);
        for (total, (after, before)) in wal.iter_mut().zip(store_counts(&engine).iter().zip(before))
        {
            *total += after - before;
        }

        // Crash: only the durable WAL prefix and page image survive.
        let image = engine.objects().crash_image();
        let t = Instant::now();
        let recovered = ObjectStore::recover(&image, w.cfg.pool_pages, None);
        recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match &recovered {
            Ok((store, report)) => {
                replayed += report.replayed_ops;
                let snap = store.snapshot();
                let lost = writer.oracle.iter().filter(|(&id, &p)| snap.get(id) != Some(p));
                let invented =
                    snap.live_ids().into_iter().filter(|id| !writer.oracle.contains_key(id));
                lost_or_invented += (lost.count() + invented.count()) as u64;
            }
            Err(_) => lost_or_invented += writer.oracle.len() as u64,
        }
    }
    engine.disable_tracing();

    let raw_ms = written.ops.raw_ms();
    if let Some(tracer) = &tracer {
        let split = |want: bool| -> Vec<f64> {
            raw_ms
                .iter()
                .zip(&written.traced)
                .filter(|(_, &t)| t == want)
                .map(|(&ms, _)| ms)
                .collect()
        };
        rep.set("obs.trace_overhead_ratio", ratio(median(&split(true)), median(&split(false))));
        let [moves, inserts, deletes] = &written.by_kind;
        rep.set("core.objects.move_us_p50", median(moves));
        rep.set("core.objects.insert_us_p50", median(inserts));
        rep.set("core.objects.delete_us_p50", median(deletes));
        rep.set("core.objects.write_p99_us", quantile(&raw_ms, 0.99) * 1e3);
        rep.set("core.objects.checkpoint_ms_p50", median(&written.checkpoint_ms));
        rep.set("core.objects.recover_ms", median(&recover_ms));
        rep.set("core.objects.replayed_ops", replayed as f64);
        rep.set("core.objects.live", writer.oracle.len() as f64);
        rep.set("store.dirty_pages_max", written.dirty_pages_max as f64);
        let per_op = |count: u64| count as f64 / (round_ops * ROUNDS) as f64;
        rep.set("store.wal_bytes_per_op", per_op(wal[0]));
        rep.set("store.wal_appends_per_op", per_op(wal[1]));
        rep.set("store.wal_fsyncs_per_op", per_op(wal[2]));
        rep.set("store.flushed_pages_per_op", per_op(wal[3]));
        // The reader's numbers, from the first round's reader.
        let read = &reads[1];
        let reader_s = read.ops.end.last().map_or(0.0, |&t| (t - read.start).as_secs_f64());
        rep.set("core.objects.reader_qps", ratio(read.ops.len() as f64, reader_s));
        rep.set("core.objects.reader_p50_ms", median(&read.ops.raw_ms()));
        read.costs.report(rep);
        crate::report_build(rep, &w.times);
        crate::write_trace(ctx, "write_mix", tracer);
    } else {
        // On the wall clock: the write path is bound by copying memory,
        // which the reference kernel's kind of slowdown barely touches, so
        // normalising by it only added noise.
        rep.set("ops_per_s", median(&rates));
        rep.set("op_p50_ms", median(&raw_ms));
        rep.set("op_p90_ms", quantile(&raw_ms, 0.9));
    }
    eprintln!(
        "write_mix: {} ops acknowledged in {ROUNDS} rounds, {replayed} replayed in {:.1} ms per \
         round, {lost_or_invented} lost or invented",
        writer.done - writer.errors,
        median(&recover_ms),
    );
    rep.attempted = writer.done + reads.iter().map(|r| r.ops.len() as u64).sum::<u64>();
    rep.failed = writer.errors + reads.iter().map(|r| r.failed).sum::<u64>() + lost_or_invented;
}
