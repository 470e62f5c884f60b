//! The benchmark's world: the terrain, a seeded object set, the engines
//! built over them stage by stage (so each build stage is timed as its own
//! layer), and the seeded query generators every workload draws from.

use crate::pace::Pace;
use crate::Ctx;
use std::time::Instant;
use surface_knn::core::persist::Structures;
use surface_knn::geom::{Point2, Rect2};
use surface_knn::multires::build_dmtm;
use surface_knn::prelude::*;
use surface_knn::sdn::{Msdn, MsdnConfig};
use surface_knn::shard::{ShardMap, ShardSpec};

/// splitmix64: the benchmark's only randomness, so inputs are a pure
/// function of `--seed` and need nothing from the program under test.
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of the run's seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seed streams. Each input family draws from its own stream so changing
/// one workload's op count never shifts another family's values.
pub mod stream {
    pub const OBJECTS: u64 = 2;
    pub const QUERIES: u64 = 3;
    pub const OP_MIX: u64 = 5;
    pub const PLACEMENTS: u64 = 6;
}

/// The map is the dataset, as BH and EP are the paper's: one fixed fractal
/// surface, and the hot spots on it (its towns and waterholes), for every
/// run. `--seed` draws what happens *on* the map — where the objects are,
/// where each query falls, the write mix.
const MAP_SEED: u64 = 2006;

/// Wall time of each build stage, summed over the world's engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    pub mesh_ms: f64,
    pub dmtm_ms: f64,
    pub msdn_ms: f64,
    pub engine_ms: f64,
}

/// One built world: the terrain, the genesis scene, and one engine per
/// tile (a single engine over everything when `tiles.len() == 1`).
pub struct World<'w> {
    pub mesh: &'w TerrainMesh,
    pub scene: &'w Scene<'w>,
    pub cfg: Mr3Config,
    pub engines: Vec<Mr3Engine<'w, 'w>>,
    pub tiles: Vec<Rect2>,
    pub times: BuildTimes,
    /// When the build began.
    pub started: Instant,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `Mr3Engine::build`, stage by stage.
pub fn build_engine<'w>(
    mesh: &'w TerrainMesh,
    scene: &'w Scene<'w>,
    cfg: &Mr3Config,
    times: &mut BuildTimes,
) -> Mr3Engine<'w, 'w> {
    let t = Instant::now();
    let tree = build_dmtm(mesh);
    times.dmtm_ms += ms_since(t);
    let t = Instant::now();
    let msdn = Msdn::build(
        mesh,
        &MsdnConfig { levels: cfg.msdn_levels.clone(), plane_spacing: cfg.plane_spacing },
    );
    times.msdn_ms += ms_since(t);
    let t = Instant::now();
    let engine = Mr3Engine::build_from(mesh, scene, cfg, Structures { tree, msdn });
    times.engine_ms += ms_since(t);
    engine
}

/// Build the world cold — mesh, scene, then one engine per tile, each
/// restricted to the objects its tile owns exactly as `sknn shard` does —
/// and hand it to `body`.
pub fn with_world<R>(
    ctx: &Ctx,
    objects: usize,
    shards: usize,
    body: impl FnOnce(World<'_>) -> R,
) -> R {
    let started = Instant::now();
    let mut times = BuildTimes::default();
    let mesh = TerrainConfig::bh().with_grid(ctx.grid).build_mesh(MAP_SEED);
    times.mesh_ms = ms_since(started);
    let side = (objects as f64).sqrt() as usize;
    let scene = SceneBuilder::new(&mesh)
        .objects_at(jittered(&mesh.extent(), side, side, &mut Rng::new(ctx.seed, stream::OBJECTS)))
        .build();
    let cfg = Mr3Config::default();
    let tiles = ShardMap::vertical_slabs(mesh.extent(), shards);
    let owner = probe_map(&tiles);
    let engines = (0..shards)
        .map(|i| {
            let engine = build_engine(&mesh, &scene, &cfg, &mut times);
            if shards > 1 {
                for o in scene.objects() {
                    if owner.home(o.point.pos.xy()) != Some(i) {
                        engine.objects().delete(o.id).expect("shard partition delete");
                    }
                }
            }
            engine
        })
        .collect();
    body(World { mesh: &mesh, scene: &scene, cfg, engines, tiles, times, started })
}

/// A shard map over `tiles` with no addresses: the ownership and
/// interior predicates only.
pub fn probe_map(tiles: &[Rect2]) -> ShardMap {
    ShardMap::new(tiles.iter().map(|&tile| ShardSpec { tile, addr: String::new() }).collect())
}

/// One point in each cell of an `nx × ny` lattice over `rect`, uniform
/// within its cell, in seeded random order. Seeded like independent uniform
/// draws, but every draw covers `rect` evenly — so the cost of a pool of
/// queries (or the density of a set of objects) depends little on the seed,
/// and a run-to-run difference is the program's, not the sample's.
pub fn jittered(rect: &Rect2, nx: usize, ny: usize, rng: &mut Rng) -> Vec<Point2> {
    let (w, h) = (rect.width() / nx as f64, rect.height() / ny as f64);
    // Stay off cell and terrain edges so facet location is unambiguous.
    let inset = |lo: f64, span: f64, r: &mut Rng| lo + span * r.range(0.01, 0.99);
    let mut points: Vec<Point2> = (0..nx * ny)
        .map(|c| {
            let (cx, cy) = ((c % nx) as f64, (c / nx) as f64);
            Point2::new(inset(rect.lo.x + cx * w, w, rng), inset(rect.lo.y + cy * h, h, rng))
        })
        .collect();
    for i in (1..points.len()).rev() {
        points.swap(i, rng.below(i + 1));
    }
    points
}

fn lift(scene: &Scene<'_>, points: Vec<Point2>) -> Vec<SurfacePoint> {
    points
        .into_iter()
        .map(|p| scene.surface_point(p).expect("a point strictly inside the terrain has a facet"))
        .collect()
}

/// `n` points spread evenly over the whole terrain.
pub fn uniform_points(scene: &Scene<'_>, n: usize, rng: &mut Rng) -> Vec<SurfacePoint> {
    let side = (n as f64).sqrt().ceil() as usize;
    let mut points = jittered(&scene.mesh().extent(), side, side, rng);
    points.truncate(n);
    lift(scene, points)
}

/// The hot-spot traffic shape: `HOT_SHARE` of the queries fall within
/// `RADIUS_M` of one of `SPOTS` hot spots (taken in turn, so each spot gets
/// its share), the rest are spread over the terrain.
pub fn hot_mix(ctx: &Ctx, scene: &Scene<'_>, n: usize) -> Vec<SurfacePoint> {
    const SPOTS: usize = 16;
    const RADIUS_M: f64 = 30.0;
    const HOT_SHARE: f64 = 0.8;
    let e = scene.mesh().extent();
    // Keep whole discs on the terrain.
    let inner = e.expanded(-RADIUS_M);
    let spots = jittered(&inner, 4, SPOTS / 4, &mut Rng::new(MAP_SEED, 0));
    let mut rng = Rng::new(ctx.seed, stream::QUERIES);
    let hot = (n as f64 * HOT_SHARE).round() as usize;
    let points: Vec<Point2> = (0..hot)
        .map(|i| {
            // Uniform over the disc.
            let (rad, ang) = (RADIUS_M * rng.unit().sqrt(), rng.range(0.0, std::f64::consts::TAU));
            let c = spots[i % SPOTS];
            Point2::new(c.x + rad * ang.cos(), c.y + rad * ang.sin())
        })
        .collect();
    let mut pool = lift(scene, points);
    pool.extend(uniform_points(scene, n - hot, &mut rng));
    shuffle(&mut pool, &mut rng);
    pool
}

/// The boundary traffic shape: half the queries spread over the terrain,
/// half within `BAND_M` of the vertical line `x = cut`, spread along it.
pub fn straddle_mix(ctx: &Ctx, scene: &Scene<'_>, n: usize, cut: f64) -> Vec<SurfacePoint> {
    const BAND_M: f64 = 64.0;
    let e = scene.mesh().extent();
    let mut rng = Rng::new(ctx.seed, stream::QUERIES);
    let band = Rect2::new(Point2::new(cut - BAND_M, e.lo.y), Point2::new(cut + BAND_M, e.hi.y));
    let mut pool = lift(scene, jittered(&band, 1, n / 2, &mut rng));
    pool.extend(uniform_points(scene, n - n / 2, &mut rng));
    shuffle(&mut pool, &mut rng);
    pool
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Cold builds per run; `setup_s` is their median.
pub const SETUP_BUILDS: usize = 3;

/// Build the world cold `SETUP_BUILDS` times and hand the last one to
/// `body`. `ready` does whatever the workload still has to do before its
/// first operation (start its servers) and calls its second argument at the
/// moment it could take one; each build is timed from its start to that
/// moment on the host-normalised clock. Returns `body`'s result and
/// `setup_s`, the median of the builds.
pub fn with_cold_builds<R>(
    ctx: &Ctx,
    objects: usize,
    shards: usize,
    ready: impl Fn(&World<'_>, &mut dyn FnMut()),
    body: impl FnOnce(World<'_>) -> R,
) -> (R, f64) {
    // Kernel samples either side of each build, for its host-speed factor.
    const KERNEL_SAMPLES: usize = 3;
    let mut pace = Pace::new();
    let mut spans = Vec::new();
    let mut body = Some(body);
    let mut out = None;
    for build in 1..=SETUP_BUILDS {
        (0..KERNEL_SAMPLES).for_each(|_| pace.sample());
        with_world(ctx, objects, shards, |w| {
            let started = w.started;
            ready(&w, &mut || spans.push((started, Instant::now())));
            (0..KERNEL_SAMPLES).for_each(|_| pace.sample());
            if build == SETUP_BUILDS {
                out = body.take().map(|body| body(w));
            }
        });
    }
    let clock = pace.clock();
    let secs: Vec<f64> = spans.iter().map(|&(from, to)| clock.secs(from, to)).collect();
    (out.expect("the last build ran the body"), crate::stats::median(&secs))
}
