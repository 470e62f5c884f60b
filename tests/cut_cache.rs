//! The shared cut cache's contracts (DESIGN.md §16).
//!
//! * **Bit-identity** — a front derived from resident tile units (read
//!   from the unit store's page runs) equals the Morton payload layout's
//!   `PagedDmtm::fetch_front` of the same region, and a line set handed
//!   out of the line cache equals `PagedMsdn::fetch_lines` of the band's
//!   `select_lines`, byte for byte, for every band of a fused load
//!   (proptests over steps, lattice regions, levels, and 1–4 bands over
//!   both axes). Both caches are read the way a ranking iteration reads
//!   them: a claim, one `Pager::read_into`, publish, finish;
//!   query results under a budget that evicts on every fetch are
//!   bit-identical to the default budget's at any thread count.
//! * **Single-flight** — threads fetching overlapping, unequal regions
//!   load each unit exactly once between them, and nobody deadlocks.
//! * **Bounded memory** — a budget far below the working set evicts
//!   instead of growing, and what is derived stays equal to the oracle.
//! * **Fault interaction** — a failed load publishes none of the units it
//!   had claimed (one bad unit page fails the whole load; a fused line
//!   load: no line of either axis; a ranking iteration's one batch: no
//!   unit and no line), and the next request after the fault clears loads
//!   them fresh and correctly.
//! * **One stall per iteration** — a cold ranking iteration claims its
//!   units and lines in both caches and reads them in one batch, so it
//!   pays at most one stall; a batch that stalls also carries the next
//!   schedule step's keys, and once its regions are bounded the rest of
//!   the schedule's, so no run stalls twice in a row and none more than
//!   twice; a bounded radius batch that stalls also carries the lines of
//!   the ranking run's first two iterations over the step-3 disc, so a
//!   query stalls at most three times, and a radius-only run reads no
//!   line; a fault on a page only a look-ahead asked for, at any depth
//!   or for the next run, degrades the iteration that asks for it, not
//!   the carriers;
//!   overlapping plans on four threads load each key of either cache
//!   exactly once, without deadlock.
//! * **Warm means resident** — with the default budget a repeated query
//!   pool reads no page and evicts nothing on its second pass, in a
//!   fraction of the memory rectangle-keyed cuts needed.
//! * **The fetch clocks add up** — a cold query's read, decode and derive
//!   clocks plus its stall make up its cut-fetch time, and a query whose
//!   keys are all resident decodes nothing.
//! * **Cold means derived** — `cold_cache` empties the engine's
//!   whole-terrain fronts too: a cold query derives its first one from
//!   the units it reads, and a warm query shares it.
//! * **Every front a view** — once a warm engine's units are all
//!   resident, one query derives each DMTM step's whole-terrain front
//!   once and a later query derives nothing, answering as a cold engine
//!   does; a cold query reads, stalls and settles exactly as before views,
//!   and its look-aheads carry the same pages and steps (pinned per query
//!   on two fixtures).
//! * **One pair path** — a pair estimate reads like an iteration's group
//!   over the whole terrain: its range equals the private path it
//!   replaced (a front extracted and searched over a fresh CSR, and
//!   `PagedMsdn::lower_bound`) bit for bit, a cold estimate pays one
//!   stall for that path's pages, a warm one reads nothing, and a failed
//!   batch leaves the Euclidean range and no latch.

use proptest::prelude::*;
use std::sync::{mpsc, Arc};
use std::time::Duration;
use surface_knn::core::config::Mr3Config;
use surface_knn::core::metrics::QueryResult;
use surface_knn::core::mr3::{Mr3Engine, QueryOpts};
use surface_knn::core::workload::{SceneBuilder, SurfacePoint};
use surface_knn::core::{ClosestPair, DistRange};
use surface_knn::geodesic::{Dijkstra, ExactGeodesic, Graph, Pathnet};
use surface_knn::geom::{Axis, Rect2};
use surface_knn::multires::{
    build_dmtm, CutCache, CutGrid, DmtmTree, FetchScratch, FrontGraph, PagedDmtm, TileSpan,
    UnitStore,
};
use surface_knn::obs::IterEvent;
use surface_knn::prelude::*;
use surface_knn::sdn::{LineBand, LineCutCache, Msdn, MsdnConfig, PagedMsdn, SimplifiedLine};
use surface_knn::store::{FaultKind, PageId, PageSink, Pager, StoreResult, StructureTag};

const TILES: usize = 8;

struct DmtmFixture {
    pager: Pager,
    dmtm: PagedDmtm,
    grid: CutGrid,
}

fn dmtm_fixture(grid: usize, seed: u64) -> DmtmFixture {
    let mesh = TerrainConfig::bh().with_grid(grid).build_mesh(seed);
    let pager = Pager::new(256);
    let dmtm = PagedDmtm::build(&pager, build_dmtm(&mesh));
    DmtmFixture { pager, dmtm, grid: CutGrid::new(mesh.extent(), TILES, 0.5) }
}

impl DmtmFixture {
    /// The units of `steps`, stored on the fixture's pager beside the
    /// payload oracle's pages.
    fn units(&self, steps: &[u32]) -> UnitStore {
        UnitStore::build(&self.pager, self.dmtm.tree(), self.grid, steps)
    }

    /// A cut cache of `capacity` bytes over the units of `steps`.
    fn cache(&self, capacity: usize, steps: &[u32]) -> CutCache {
        CutCache::new(capacity, self.units(steps))
    }
}

struct MsdnFixture {
    pager: Pager,
    msdn: PagedMsdn,
    grid: CutGrid,
}

fn msdn_fixture(grid: usize, seed: u64) -> MsdnFixture {
    let mesh = TerrainConfig::bh().with_grid(grid).build_mesh(seed);
    let pager = Pager::new(256);
    let cfg = Mr3Config::default();
    let msdn = Msdn::build(&mesh, &MsdnConfig { levels: cfg.msdn_levels, plane_spacing: None });
    let msdn = PagedMsdn::build(&pager, &msdn);
    MsdnFixture { pager, msdn, grid: CutGrid::new(mesh.extent(), TILES, 0.5) }
}

type FrontFingerprint = (u32, Vec<u32>, Vec<(u32, u32, u64)>, Vec<[u64; 3]>);

/// All `f64`s compared by bit pattern: byte-equality, not tolerance.
fn front_fingerprint(fg: &FrontGraph) -> FrontFingerprint {
    assert!(fg.ids.windows(2).all(|w| w[0] < w[1]), "ids must ascend (embed binary-searches)");
    (
        fg.step,
        fg.ids.clone(),
        fg.edges.iter().map(|&(a, b, w)| (a, b, w.to_bits())).collect(),
        fg.rep_pos.iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect(),
    )
}

type LineFingerprint = Vec<(u64, Vec<[u64; 12]>)>;

/// Line order, plane values and every segment coordinate, by bit pattern.
fn line_fingerprint<'a>(lines: impl Iterator<Item = &'a SimplifiedLine>) -> LineFingerprint {
    lines
        .map(|l| {
            let segs = l
                .segments
                .iter()
                .map(|s| {
                    let (a, b, lo, hi) = (s.seg.a, s.seg.b, s.mbr.lo, s.mbr.hi);
                    [a.x, a.y, a.z, b.x, b.y, b.z, lo.x, lo.y, lo.z, hi.x, hi.y, hi.z]
                        .map(f64::to_bits)
                })
                .collect();
            (l.plane.value.to_bits(), segs)
        })
        .collect()
}

/// The front of `span` at `step`, read the way a ranking iteration reads
/// it — a claim, one `Pager::read_into`, publish, finish — and derived
/// from its units; the flag is `true` when no unit was read.
fn extract(
    cache: &CutCache,
    tree: &DmtmTree,
    pager: &Pager,
    step: u32,
    span: TileSpan,
    scratch: &mut FetchScratch,
) -> StoreResult<(FrontGraph, bool)> {
    let mut load = cache.claim(step, &[span]);
    pager.read_into(&mut [&mut load])?;
    load.publish();
    let (units, hit) = load.finish(pager)?.pop().expect("one span, one unit list");
    Ok((FrontGraph::derive(tree, step, &units, scratch), hit))
}

/// Every band's lines at `level` through the line cache's claim path, in
/// one batch, each with whether none of the lines it was first to ask for
/// was read.
fn fetch_bands(
    cache: &LineCutCache,
    msdn: &PagedMsdn,
    pager: &Pager,
    level: usize,
    bands: &[LineBand],
) -> StoreResult<Vec<(Vec<Arc<SimplifiedLine>>, bool)>> {
    let mut load = cache.claim(msdn, level, bands);
    pager.read_into(&mut [&mut load])?;
    load.publish();
    load.finish(pager)
}

/// The uncached oracle of one band: its `select_lines`, read by
/// `fetch_lines`.
fn band_lines(
    msdn: &PagedMsdn,
    pager: &Pager,
    level: usize,
    b: &LineBand,
) -> StoreResult<Vec<SimplifiedLine>> {
    let lines = msdn.select_lines(level, b.axis, b.lo, b.hi, b.roi);
    msdn.fetch_lines(pager, level, &lines.into_iter().map(|l| (b.axis, l)).collect::<Vec<_>>())
}

/// This thread's physical reads of `tag`'s pages since its last reset.
fn physical_reads_of(pager: &Pager, tag: StructureTag) -> u64 {
    pager.io_by_structure().iter().find(|(t, _)| *t == tag).map_or(0, |(_, s)| s.physical_reads)
}

/// A non-empty span from four lattice coordinates in `0..=TILES`.
fn span_from(a: usize, b: usize, c: usize, d: usize) -> TileSpan {
    let order = |p: usize, q: usize| {
        let (lo, hi) = (p.min(q), p.max(q));
        if lo == hi {
            (lo.min(TILES - 1), lo.min(TILES - 1) + 1)
        } else {
            (lo, hi)
        }
    };
    let ((x0, x1), (y0, y1)) = (order(a, b), order(c, d));
    TileSpan { x0, x1, y0, y1 }
}

/// The steps a default engine asks for (its schedule's fronts and the
/// pathnet's leaf charge), then arbitrary ones.
fn pick_step(dmtm: &PagedDmtm, pick: usize, random: u32) -> u32 {
    let schedule = [0.005, 0.25, 0.5, 0.75, 1.0];
    match schedule.get(pick) {
        Some(&frac) => dmtm.tree().step_for_fraction(frac),
        None => random % (dmtm.tree().num_steps() + 1),
    }
}

fn assert_front_matches_oracle(
    f: &DmtmFixture,
    cache: &CutCache,
    step: u32,
    span: TileSpan,
    scratch: &mut FetchScratch,
) {
    let (derived, _) = extract(cache, f.dmtm.tree(), &f.pager, step, span, scratch).unwrap();
    let oracle = f.dmtm.fetch_front(&f.pager, step, Some(&f.grid.span_rect(span))).unwrap();
    assert_eq!(
        front_fingerprint(&derived),
        front_fingerprint(&oracle),
        "derived front at step {step} over {span:?} differs from the paged fetch"
    );
    scratch.recycle(derived);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Derived fronts equal the paged oracle over schedule and random
    /// steps and every kind of lattice region — with a roomy budget (units
    /// accumulate and are reused across cases) and with one so small that
    /// every fetch evicts.
    #[test]
    fn derived_fronts_equal_paged_fetch(
        step_pick in 0usize..8,
        random_step in 0u32..100_000,
        corners in (0usize..=TILES, 0usize..=TILES, 0usize..=TILES, 0usize..=TILES),
        shape in 0usize..4,
    ) {
        let f = dmtm_fixture(25, 305);
        let step = pick_step(&f.dmtm, step_pick, random_step);
        let roomy = f.cache(64 << 20, &[step]);
        let tiny = f.cache(512, &[step]);
        let mut scratch = FetchScratch::default();
        let span = match shape {
            0 => f.grid.full_span(),
            1 => span_from(corners.0, corners.0, corners.2, corners.2), // single tile
            _ => span_from(corners.0, corners.1, corners.2, corners.3),
        };
        // Another fetch first, so the span under test is assembled from a
        // mix of resident and newly loaded units: a neighbouring region
        // under the roomy budget, the whole terrain (64 units through 8
        // shards of 64 bytes — most are evicted on the way in) under the
        // tiny one.
        let neighbour = span_from(corners.1, corners.3, corners.0, corners.2);
        for (cache, warmup) in [(&roomy, neighbour), (&tiny, f.grid.full_span())] {
            assert_front_matches_oracle(&f, cache, step, warmup, &mut scratch);
            assert_front_matches_oracle(&f, cache, step, span, &mut scratch);
            // And once more, now entirely from memory.
            assert_front_matches_oracle(&f, cache, step, span, &mut scratch);
        }
        prop_assert_eq!(roomy.stats().evictions, 0);
        prop_assert!(tiny.stats().evictions > 0, "a 512-byte budget must evict");
        // At most one over-budget unit per shard survives a sweep.
        prop_assert!(tiny.len() <= 8, "tiny cache grew to {} units", tiny.len());
    }

    /// Line sets out of the line cache equal the paged oracle: one load of
    /// 1–4 bands over both axes hands each band the same lines, in the
    /// same order, with the same segments as a band-by-band
    /// `select_lines` + `fetch_lines` — roomy and evicting budgets alike.
    #[test]
    fn cached_lines_equal_paged_fetch(
        level in 0usize..5,
        // Per band: axis, two fractions of the extent along it, the
        // region's lattice corners and whether the region is the extent.
        drawn in proptest::collection::vec(
            (
                0usize..2,
                (0.0f64..1.0, 0.0f64..1.0),
                (0usize..=TILES, 0usize..=TILES, 0usize..=TILES, 0usize..=TILES),
                0usize..3,
            ),
            1..5,
        ),
    ) {
        let f = msdn_fixture(25, 311);
        let roomy = LineCutCache::new(16 << 20);
        let tiny = LineCutCache::new(512);
        let e = f.grid.extent();
        let rois: Vec<Rect2> = drawn
            .iter()
            .map(|&(_, _, corners, whole)| if whole == 0 {
                e
            } else {
                f.grid.span_rect(span_from(corners.0, corners.1, corners.2, corners.3))
            })
            .collect();
        let bands: Vec<LineBand> = drawn
            .iter()
            .zip(&rois)
            .map(|(&(axis_pick, band, _, _), roi)| {
                let axis = [Axis::X, Axis::Y][axis_pick];
                let (origin, width) =
                    if axis == Axis::X { (e.lo.x, e.width()) } else { (e.lo.y, e.height()) };
                let (lo, hi) = (band.0.min(band.1), band.0.max(band.1));
                let (lo, hi) =
                    f.grid.snap_band(axis_pick, origin + lo * width, origin + hi * width);
                LineBand { axis, lo, hi, roi: Some(roi) }
            })
            .collect();
        let oracle: Vec<LineFingerprint> = bands
            .iter()
            .map(|b| {
                let lines =
                    band_lines(&f.msdn, &f.pager, level, b).unwrap();
                line_fingerprint(lines.iter())
            })
            .collect();
        for cache in [&roomy, &tiny] {
            for _ in 0..2 {
                let got = fetch_bands(cache, &f.msdn, &f.pager, level, &bands).unwrap();
                prop_assert_eq!(got.len(), bands.len());
                for ((lines, _), expect) in got.iter().zip(&oracle) {
                    prop_assert_eq!(&line_fingerprint(lines.iter().map(|l| &**l)), expect);
                }
            }
        }
        prop_assert_eq!(roomy.stats().evictions, 0);
        // The first roomy pass loaded each distinct line once, the second
        // nothing.
        let distinct: std::collections::HashSet<(bool, u32)> = bands
            .iter()
            .flat_map(|b| {
                f.msdn
                    .select_lines(level, b.axis, b.lo, b.hi, b.roi)
                    .into_iter()
                    .map(move |line| (b.axis == Axis::Y, line))
            })
            .collect();
        prop_assert_eq!(roomy.stats().misses as usize, distinct.len());
    }
}

/// A fused load whose only fault is on one axis's page publishes no line
/// of either axis and leaves no latch; once the fault clears, the same
/// bands load cleanly and equal the oracle.
#[test]
fn a_fault_on_one_axis_publishes_no_line_of_either() {
    let f = msdn_fixture(25, 313);
    let level = 3;
    let e = f.grid.extent();
    let bands = [
        LineBand { axis: Axis::X, lo: e.lo.x, hi: e.hi.x, roi: Some(&e) },
        LineBand { axis: Axis::Y, lo: e.lo.y, hi: e.hi.y, roi: Some(&e) },
    ];
    // Physical reads of the X band alone and of both: the fused batch
    // reads in ascending page order and the X files precede the Y files,
    // so read `x_reads + 1` is the first Y page.
    let cold_reads = |bands: &[LineBand]| {
        f.pager.reset_stats();
        fetch_bands(&LineCutCache::new(16 << 20), &f.msdn, &f.pager, level, bands).unwrap();
        f.pager.stats().physical_reads
    };
    let (x_reads, both_reads) = (cold_reads(&bands[..1]), cold_reads(&bands));
    assert!(x_reads > 0 && both_reads > x_reads, "both axes read pages");

    let cache = LineCutCache::new(16 << 20);
    f.pager.reset_stats();
    f.pager.set_fault_injector(Some(
        FaultInjector::script().fail_nth_read(x_reads + 1, FaultKind::Permanent),
    ));
    let err = fetch_bands(&cache, &f.msdn, &f.pager, level, &bands);
    assert!(err.is_err(), "a permanent fault on a Y page must fail the load");
    let stats = cache.stats();
    assert_eq!(stats.failed_loads, 1, "{stats:?}");
    assert_eq!(cache.len(), 0, "the failed load published lines");
    assert_eq!(cache.gauges().loading, 0, "the failed load left a latch");

    f.pager.set_fault_injector(None);
    f.pager.reset_stats();
    let got = fetch_bands(&cache, &f.msdn, &f.pager, level, &bands).unwrap();
    for (b, (lines, hit)) in bands.iter().zip(&got) {
        assert!(!hit, "a failed load must not satisfy later requests");
        let oracle = band_lines(&f.msdn, &f.pager, level, b).unwrap();
        assert_eq!(line_fingerprint(lines.iter().map(|l| &**l)), line_fingerprint(oracle.iter()));
    }
}

#[test]
fn overlapping_regions_load_each_unit_once_across_four_threads() {
    let f = dmtm_fixture(33, 301);
    let step = f.dmtm.tree().step_for_fraction(0.5);
    let cache = f.cache(64 << 20, &[step]);
    // Four unequal, mutually overlapping regions; between them they cover
    // columns 0..7 × rows 1..7.
    let spans = [
        TileSpan { x0: 0, x1: 4, y0: 1, y1: 5 },
        TileSpan { x0: 2, x1: 7, y0: 2, y1: 6 },
        TileSpan { x0: 1, x1: 5, y0: 3, y1: 7 },
        TileSpan { x0: 3, x1: 6, y0: 1, y1: 7 },
    ];
    let mut distinct = std::collections::BTreeSet::new();
    for s in &spans {
        for y in s.y0..s.y1 {
            for x in s.x0..s.x1 {
                distinct.insert((x, y));
            }
        }
    }

    // Watchdog: a leader waiting on a unit whose leader waits on one of
    // its own would hang forever; fail loudly instead.
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let workers: Vec<_> = spans
            .iter()
            .map(|&span| {
                let (f, cache) = (&f, &cache);
                s.spawn(move || {
                    let mut scratch = FetchScratch::default();
                    for _ in 0..3 {
                        assert_front_matches_oracle(f, cache, step, span, &mut scratch);
                    }
                })
            })
            .collect();
        s.spawn(move || {
            for w in workers {
                w.join().expect("fetch thread panicked");
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("overlapping fetches did not finish within 10 s: deadlock");
    });

    let stats = cache.stats();
    assert_eq!(stats.misses as usize, distinct.len(), "every unit loads exactly once: {stats:?}");
    assert_eq!(cache.len(), distinct.len());
    assert_eq!(stats.failed_loads, 0);
    assert_eq!(stats.evictions, 0);
}

#[test]
fn failed_load_publishes_none_of_its_claimed_units() {
    let f = dmtm_fixture(25, 307);
    let step = f.dmtm.tree().num_steps() / 2;
    let cache = f.cache(64 << 20, &[step]);
    let mut scratch = FetchScratch::default();
    // One resident neighbour, so the failing request mixes resident and
    // claimed units.
    let resident = TileSpan { x0: 0, x1: 2, y0: 0, y1: 2 };
    assert_front_matches_oracle(&f, &cache, step, resident, &mut scratch);
    let before = cache.len();

    // Permanent faults at rate 1: the load must fail...
    f.pager.reset_stats();
    f.pager.set_fault_injector(Some(FaultInjector::seeded(99, 1.0, FaultKind::Permanent)));
    let span = TileSpan { x0: 1, x1: 5, y0: 1, y1: 4 };
    let err = extract(&cache, f.dmtm.tree(), &f.pager, step, span, &mut scratch);
    assert!(err.is_err(), "a load under permanent faults must fail");
    let stats = cache.stats();
    assert!(stats.failed_loads >= 1, "failed load not counted: {stats:?}");
    // ...and publish nothing: no unit holding a partial adjacency, no
    // latch left behind.
    assert_eq!(cache.len(), before, "failed load left resident units");
    assert_eq!(cache.gauges().loading, 0, "failed load left a latch");

    // After the fault clears, the same region loads fresh and correctly.
    f.pager.set_fault_injector(None);
    let (front, hit) = extract(&cache, f.dmtm.tree(), &f.pager, step, span, &mut scratch).unwrap();
    assert!(!hit, "a failed load must not satisfy later requests");
    let fresh = f.dmtm.fetch_front(&f.pager, step, Some(&f.grid.span_rect(span))).unwrap();
    assert_eq!(front_fingerprint(&front), front_fingerprint(&fresh));
}

/// A permanent fault on one page of a unit load's batch fails the whole
/// load: no unit of the call is resident and no latch is left. Once the
/// injector is gone, the same span loads cleanly and equals the payload
/// layout's fetch.
#[test]
fn a_fault_on_one_unit_page_publishes_no_unit_of_the_load() {
    let f = dmtm_fixture(33, 309);
    let step = f.dmtm.tree().step_for_fraction(1.0);
    let span = TileSpan { x0: 1, x1: 7, y0: 2, y1: 6 };
    let tiles: Vec<u32> = span.tiles(TILES).collect();
    let units = f.units(&[step]);
    let pages = units.pages(step, &tiles);
    assert!(pages.len() > 2, "the span's units fill {} pages", pages.len());
    let cache = CutCache::new(64 << 20, units);
    let bad = pages[pages.len() / 2];
    f.pager.reset_stats();
    f.pager.set_fault_injector(Some(FaultInjector::script().fail_page(
        bad.0,
        FaultKind::Permanent,
        None,
    )));
    let mut scratch = FetchScratch::default();
    let err = extract(&cache, f.dmtm.tree(), &f.pager, step, span, &mut scratch);
    assert!(err.is_err(), "a permanent fault on one unit page must fail the load");
    let stats = cache.stats();
    assert_eq!(stats.failed_loads, 1, "{stats:?}");
    assert_eq!(cache.len(), 0, "the failed load published units");
    assert_eq!(cache.gauges().loading, 0, "the failed load left a latch");

    f.pager.set_fault_injector(None);
    let (front, hit) = extract(&cache, f.dmtm.tree(), &f.pager, step, span, &mut scratch).unwrap();
    assert!(!hit, "a failed load must not satisfy later requests");
    assert_eq!(cache.len(), tiles.len());
    let fresh = f.dmtm.fetch_front(&f.pager, step, Some(&f.grid.span_rect(span))).unwrap();
    assert_eq!(front_fingerprint(&front), front_fingerprint(&fresh));
}

/// One pager holding both structures, as an engine lays them out: the
/// units of the 50 % step first, then the MSDN.
struct BothFixture {
    pager: Pager,
    grid: CutGrid,
    step: u32,
    cuts: CutCache,
    msdn: PagedMsdn,
}

fn both_fixture(grid: usize, seed: u64) -> BothFixture {
    let mesh = TerrainConfig::bh().with_grid(grid).build_mesh(seed);
    let pager = Pager::new(256);
    let tree = build_dmtm(&mesh);
    let lattice = CutGrid::new(mesh.extent(), TILES, 0.5);
    let step = tree.step_for_fraction(0.5);
    let units = {
        let _tag = pager.tag_scope(StructureTag::Dmtm);
        UnitStore::build(&pager, &tree, lattice, &[step])
    };
    let msdn = {
        let _tag = pager.tag_scope(StructureTag::Msdn);
        let cfg = Mr3Config::default();
        PagedMsdn::build(
            &pager,
            &Msdn::build(&mesh, &MsdnConfig { levels: cfg.msdn_levels, plane_spacing: None }),
        )
    };
    BothFixture { pager, grid: lattice, step, cuts: CutCache::new(64 << 20, units), msdn }
}

/// A band over the whole extent along `axis`, restricted to `roi`.
fn whole_band<'r>(axis: Axis, e: &Rect2, roi: &'r Rect2) -> LineBand<'r> {
    let (lo, hi) = if axis == Axis::X { (e.lo.x, e.hi.x) } else { (e.lo.y, e.hi.y) };
    LineBand { axis, lo, hi, roi: Some(roi) }
}

/// A ranking iteration's batch that misses units and lines fails whole
/// on one bad MSDN page: no unit and no line of it is published, no
/// latch is left, each cache counts one failed load. In an engine the
/// same fault degrades the iteration, the answer's bounds still bracket
/// the exact distances, and once the injector is gone the query is
/// bit-identical to a fault-free engine's.
#[test]
fn a_fault_in_the_iteration_batch_publishes_nothing_in_either_cache() {
    let f = both_fixture(25, 317);
    let (step, level) = (f.step, 2);
    let e = f.grid.extent();
    let roi = f.grid.span_rect(TileSpan { x0: 1, x1: 6, y0: 0, y1: 5 });
    let spans = [TileSpan { x0: 1, x1: 4, y0: 0, y1: 3 }, TileSpan { x0: 3, x1: 6, y0: 2, y1: 5 }];
    let bands = [whole_band(Axis::X, &e, &roi), whole_band(Axis::Y, &e, &roi)];
    // A page of the lines the batch reads, found on a throwaway cache.
    let probe = LineCutCache::new(16 << 20);
    let bad = {
        let load = probe.claim(&f.msdn, level, &bands);
        load.pages()[load.pages().len() / 2]
    };
    assert_eq!(f.pager.tag_of(bad), StructureTag::Msdn);

    let lines = LineCutCache::new(16 << 20);
    f.pager.set_fault_injector(Some(FaultInjector::script().fail_page(
        bad.0,
        FaultKind::Permanent,
        None,
    )));
    let mut units = f.cuts.claim(step, &spans);
    let mut band_lines = lines.claim(&f.msdn, level, &bands);
    assert!(!units.pages().is_empty() && !band_lines.pages().is_empty(), "misses both");
    let err = f.pager.read_into(&mut [&mut units, &mut band_lines]);
    assert!(err.is_err(), "a permanent fault on one MSDN page must fail the batch");
    drop((units, band_lines));
    assert_eq!((f.cuts.len(), lines.len()), (0, 0), "the failed batch published keys");
    assert_eq!(f.cuts.gauges().loading + lines.gauges().loading, 0, "a latch was left");
    assert_eq!((f.cuts.stats().failed_loads, lines.stats().failed_loads), (1, 1));
    f.pager.set_fault_injector(None);

    // The engine: find a ranking iteration whose batch misses both caches
    // and fail a read of its own lines. A batch reads in page order and
    // the MSDN's pages follow the units', but a stalling batch also
    // carries look-ahead pages, which may come last; a fault on one of
    // those re-reads the iteration's own keys alone and degrades nothing,
    // dropping only the look-ahead's loads. So the search walks the
    // batch's reads back from its last and takes the first whose fault
    // degrades the query: a page of the iteration's own lines. It
    // qualifies when its fault dropped two more loads (the iteration's
    // units and lines) than a fault on the look-ahead's pages alone.
    let mesh = TerrainConfig::bh().with_grid(25).build_mesh(319);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(7).build();
    let cfg = Mr3Config::default();
    let (q, k) = (scene.random_query(11), 4);
    let clean = Mr3Engine::build(&mesh, &scene, &cfg).try_query(q, k).unwrap();
    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    engine.enable_tracing();
    let iters = engine.try_query(q, k).unwrap().trace.expect("traced").iter_events();
    engine.disable_tracing();
    let mut before = 0;
    let mut found = None;
    'iterations: for e in &iters {
        let reads = before + 1..=before + e.pages;
        before += e.pages;
        // Loads dropped by a fault on a page only the look-ahead asked for
        // (none when it asked for no page of its own).
        let mut ahead_only = (e.ahead_pages == 0).then_some(0);
        for n in reads.rev() {
            let failed = engine.cut_cache_snapshot().unwrap().failed_loads;
            engine.pager().set_fault_injector(Some(
                FaultInjector::script().fail_nth_read(n, FaultKind::Permanent),
            ));
            let got = engine.try_query(q, k).unwrap();
            engine.pager().set_fault_injector(None);
            let snap = engine.cut_cache_snapshot().unwrap();
            assert_eq!(snap.loading, 0, "a failed batch left a latch");
            let dropped = snap.failed_loads - failed;
            if got.degraded.is_none() {
                ahead_only = Some(dropped);
                continue;
            }
            if ahead_only.map(|a| a + 2) == Some(dropped) {
                found = Some(got);
                break 'iterations;
            }
            continue 'iterations;
        }
    }
    let got = found.expect("a cold query has an iteration missing units and lines");
    let degraded = got.degraded.expect("the failed iteration degrades the query");
    assert_eq!((degraded.phase, degraded.faults), ("iter", 1), "{degraded}");
    let page: u64 = degraded.reason.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(engine.pager().tag_of(PageId(page)), StructureTag::Msdn, "{degraded}");
    let exact = ExactGeodesic::new(&mesh);
    for n in &got.neighbors {
        let d = exact.distance(q.to_mesh_point(), scene.object(n.id).point.to_mesh_point());
        assert!(n.range.lb <= d + 1e-6 && d <= n.range.ub + 1e-6, "{n:?} misses {d}");
    }
    let again = engine.try_query(q, k).unwrap();
    assert!(again.degraded.is_none());
    assert_eq!(fingerprint(&[again]), fingerprint(&[clean]));
}

/// A cold ranking iteration reads its units and lines in one batch: with
/// a 1 ms stall per batch, every iteration pays at most one stall, and a
/// query's stalled batches — all of its stall — are at most its
/// iterations.
#[test]
fn a_cold_iteration_pays_one_stall() {
    const STALL: Duration = Duration::from_millis(1);
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(5).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    engine.enable_tracing();
    engine.pager().set_read_stall(STALL);
    for q in scene.random_queries(6, 3) {
        let before = engine.pager().stall_ns();
        let r = engine.try_query(q, 5).unwrap();
        let stalled = engine.pager().stall_ns() - before;
        // Pager stats are reset at query start: the query's own batches.
        let batches = engine.pager().stalled_batches();
        let iters = r.trace.expect("traced").iter_events();
        assert_eq!(iters.len(), r.stats.iterations);
        for e in &iters {
            assert!(e.stalls <= 1, "iteration {} {} paid {} stalls", e.phase, e.i, e.stalls);
        }
        assert_eq!(batches, iters.iter().map(|e| e.stalls).sum::<u64>());
        assert_eq!(stalled, batches * STALL.as_nanos() as u64);
        assert!(
            stalled <= r.stats.iterations as u64 * STALL.as_nanos() as u64,
            "{stalled} ns of stall over {} iterations",
            r.stats.iterations
        );
        assert!(batches > 0, "a cold query reads pages");
    }
}

/// The cut fetch's three clocks and the query's stall make up its wall
/// clock: on a cold query `fetch_read_us + fetch_decode_us +
/// fetch_derive_us` plus the pager stall equals `rank_fetch_us` within
/// the one microsecond each iteration's truncation may lose, and the
/// `iter` events' clocks sum to the query's. A query whose keys are all
/// resident decodes nothing.
#[test]
fn the_fetch_clocks_add_up_to_the_fetch() {
    const STALL: Duration = Duration::from_micros(500);
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(5).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    engine.enable_tracing();
    engine.pager().set_read_stall(STALL);
    let pool = scene.random_queries(6, 3);
    for &q in &pool {
        let r = engine.try_query(q, 5).unwrap();
        // Pager stats are reset at query start: the query's own stall.
        let stall_ns = engine.pager().window_stall_ns();
        assert!(stall_ns > 0, "a cold query stalls");
        let s = r.stats.stages;
        assert!(s.fetch_decode_us > 0 && s.fetch_derive_us > 0, "{s:?}");
        let parts = (s.fetch_read_us + s.fetch_decode_us + s.fetch_derive_us) as f64;
        let gap = parts + stall_ns as f64 / 1e3 - s.rank_fetch_us as f64;
        assert!(gap.abs() <= r.stats.iterations as f64, "{gap} us over {s:?}, {stall_ns} ns");
        let iters = r.trace.expect("traced").iter_events();
        let sum = |f: fn(&IterEvent) -> u64| iters.iter().map(f).sum::<u64>();
        assert_eq!(sum(|e| e.fetch_read_us), s.fetch_read_us);
        assert_eq!(sum(|e| e.fetch_decode_us), s.fetch_decode_us);
        assert_eq!(sum(|e| e.fetch_derive_us), s.fetch_derive_us);
    }

    engine.pager().set_read_stall(Duration::ZERO);
    engine.cold_cache = false;
    for &q in &pool {
        engine.try_query(q, 5).unwrap();
        let r = engine.try_query(q, 5).unwrap();
        let reads = engine.pager().stats().physical_reads;
        assert_eq!((reads, r.stats.cut_cache_misses), (0, 0), "every key resident");
        assert_eq!(r.stats.stages.fetch_decode_us, 0, "{:?}", r.stats.stages);
        assert!(r.stats.stages.fetch_derive_us > 0, "a resident front is still derived");
    }
}

/// `cold_cache` empties the engine's whole-terrain fronts with the cut
/// caches: a cold query's first whole-terrain front is derived from the
/// units it reads, never taken from the query before it, and published
/// for the queries after it; a warm query shares it.
#[test]
fn a_cold_query_derives_its_first_whole_terrain_front() {
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(5).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    engine.enable_tracing();
    // The first iteration over the whole terrain, and the query's totals.
    let first_whole = |engine: &Mr3Engine, q| {
        let r = engine.try_query(q, 5).unwrap();
        let iters = r.trace.expect("traced").iter_events();
        assert_eq!(iters.iter().map(|e| e.whole_fronts).sum::<u64>(), r.stats.whole_fronts as u64);
        assert_eq!(
            iters.iter().map(|e| e.shared_fronts).sum::<u64>(),
            r.stats.shared_fronts as u64
        );
        let e = iters.into_iter().find(|e| e.whole_fronts > 0).expect("a run starts unbounded");
        assert!(!engine.whole_front_steps().is_empty(), "the query published its fronts");
        e
    };
    let pool = scene.random_queries(4, 3);
    for &q in &pool {
        let e = first_whole(&engine, q);
        assert_eq!((e.phase, e.i), ("radius", 0));
        assert_eq!(e.shared_fronts, 0, "a cold query derives its first whole-terrain front");
        assert!(e.pages > 0, "from units it reads");
    }
    engine.cold_cache = false;
    for &q in &pool {
        let e = first_whole(&engine, q);
        assert_eq!(e.shared_fronts, e.whole_fronts, "a warm query shares it");
    }
}

/// Once every unit of a warm engine is resident, one query derives the
/// whole-terrain front of each DMTM step it visits, once — its bounded
/// groups view it instead of deriving their own — and leaves them in the
/// engine's table; a later query claims no DMTM unit for a front and
/// derives nothing. The answers are a cold engine's, bit for bit.
#[test]
fn once_every_unit_is_resident_each_step_is_derived_once() {
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(5).build();
    let cfg = Mr3Config::default();
    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    engine.cold_cache = false;
    engine.enable_tracing();
    let tree = build_dmtm(&mesh);
    let fronts: Vec<f64> = cfg.schedule.dmtm.iter().copied().filter(|&f| f <= 1.0).collect();
    let mut steps: Vec<u32> = fronts.iter().map(|&f| tree.step_for_fraction(f)).collect();
    steps.sort_unstable();
    let pool = scene.random_queries(4, 3);
    // Fresh candidates ask for the whole lattice at every front step: the
    // plans leave every unit resident and derive nothing.
    for i in 0..fronts.len() {
        engine.plan_iteration(pool[0], 10, i, &[]).unwrap();
    }
    assert!(engine.whole_front_steps().is_empty());

    let k = 8;
    let first = engine.try_query(pool[0], k).unwrap();
    let iters = first.trace.clone().expect("traced").iter_events();
    let mut visited: Vec<u32> = iters
        .iter()
        .filter(|e| e.dmtm_frac <= 1.0)
        .map(|e| tree.step_for_fraction(e.dmtm_frac))
        .collect();
    visited.sort_unstable();
    visited.dedup();
    assert_eq!(visited, steps, "the query visits every front step");
    let mut published = engine.whole_front_steps();
    published.sort_unstable();
    assert_eq!(published, steps, "one whole-terrain front per step");
    assert_eq!(first.stats.derived_fronts, steps.len(), "each step derived once");
    assert!(first.stats.shared_fronts > 0, "{:?}", first.stats);
    assert!(iters.iter().any(|e| e.phase == "rank" && e.whole_fronts == 0 && e.shared_fronts > 0));

    let mut warm = vec![first];
    for &q in &pool {
        let r = engine.try_query(q, k).unwrap();
        assert_eq!((r.stats.derived_fronts, r.stats.stages.fetch_derive_us), (0, 0));
        let trace = r.trace.clone().expect("traced");
        let dmtm = trace.io_by_structure().into_iter().find(|io| io.0 == "dmtm");
        assert!(dmtm.is_none_or(|(_, _, physical)| physical == 0), "{dmtm:?}");
        assert!(trace.iter_events().iter().all(|e| e.derived_fronts == 0));
        warm.push(r);
    }
    let cold = Mr3Engine::build(&mesh, &scene, &cfg);
    let want: Vec<QueryResult> =
        [pool[0]].iter().chain(&pool).map(|&q| cold.try_query(q, k).unwrap()).collect();
    assert_eq!(fingerprint(&warm), fingerprint(&want));
}

/// Views change what a cold query derives, never what it reads or
/// settles: on the suite's fixtures each cold query's physical pages,
/// stalled batches and settled nodes are those of the engine before
/// views, and its look-aheads carry the same pages and schedule steps:
/// a moved carry rule moves them (pinned).
#[test]
fn a_cold_query_reads_stalls_and_settles_as_before_views() {
    /// Physical pages, stalled batches, settled nodes, look-ahead pages and
    /// carried steps of one query.
    type Pinned = (u64, u64, usize, u64, usize);
    /// Grid, mesh seed, scene seed, queries, query seed, k, and per query
    /// what it pinned.
    type Fixture = (usize, u64, u64, usize, u64, usize, &'static [Pinned]);
    let fixtures: [Fixture; 2] = [
        (
            33,
            17,
            5,
            6,
            3,
            5,
            &[
                (56, 3, 1907, 46, 7),
                (96, 3, 7662, 99, 7),
                (91, 3, 7419, 92, 7),
                (68, 3, 6327, 58, 7),
                (68, 3, 8079, 69, 7),
                (77, 3, 4543, 77, 7),
            ],
        ),
        (
            25,
            909,
            910,
            12,
            911,
            4,
            &[
                (30, 2, 354, 25, 4),
                (22, 2, 261, 19, 4),
                (43, 3, 1142, 43, 7),
                (59, 3, 1890, 56, 7),
                (65, 3, 1478, 65, 7),
                (23, 2, 82, 19, 4),
                (80, 3, 3567, 67, 7),
                (96, 3, 3783, 92, 7),
                (62, 3, 2143, 53, 7),
                (86, 3, 2809, 87, 7),
                (62, 3, 1915, 57, 7),
                (27, 2, 348, 23, 4),
            ],
        ),
    ];
    for (grid, mesh_seed, scene_seed, n, query_seed, k, want) in fixtures {
        let mesh = TerrainConfig::bh().with_grid(grid).build_mesh(mesh_seed);
        let scene = SceneBuilder::new(&mesh).object_count(30).seed(scene_seed).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let got: Vec<Pinned> = scene
            .random_queries(n, query_seed)
            .into_iter()
            .map(|q| {
                let r = engine.try_query(q, k).unwrap();
                let pager = engine.pager();
                let s = &r.stats;
                let reads = pager.stats().physical_reads;
                (reads, pager.stalled_batches(), s.settled, s.ahead_pages, s.ahead_steps)
            })
            .collect();
        assert_eq!(got, want, "{grid}²");
    }
}

/// A cold iteration that stalls also reads the next schedule step's units
/// and lines over its own groups, so the next iteration of the run finds
/// its keys resident: on the one-stall fixture no run (radius or rank)
/// stalls in two consecutive iterations, and a query's stalled batches
/// are at most the sum over its runs of half their iterations, rounded
/// up.
#[test]
fn a_cold_ranking_run_never_stalls_twice_in_a_row() {
    const STALL: Duration = Duration::from_millis(1);
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(5).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    engine.enable_tracing();
    engine.pager().set_read_stall(STALL);
    for q in scene.random_queries(6, 3) {
        let r = engine.try_query(q, 5).unwrap();
        let batches = engine.pager().stalled_batches();
        let iters = r.trace.expect("traced").iter_events();
        // A run is a maximal stretch of one phase's events from `i == 0`.
        let mut runs: Vec<Vec<u64>> = Vec::new();
        for e in &iters {
            assert!(matches!(e.phase, "radius" | "rank"), "{}", e.phase);
            if e.i == 0 {
                runs.push(Vec::new());
            }
            runs.last_mut().expect("a run starts at i == 0").push(e.stalls);
        }
        for (run, stalls) in runs.iter().enumerate() {
            for (i, pair) in stalls.windows(2).enumerate() {
                assert!(
                    !(pair[0] == 1 && pair[1] == 1),
                    "run {run}: iterations {i} and {} both stalled ({stalls:?})",
                    i + 1
                );
            }
        }
        let bound: usize = runs.iter().map(|r| r.len().div_ceil(2)).sum();
        assert!(batches as usize <= bound, "{batches} stalled batches over runs {runs:?}");
    }
}

/// Once every region of an iteration is bounded, a batch that stalls
/// carries the rest of the schedule over its groups; while a region is
/// still the whole terrain (a run's first iteration) it carries the next
/// step only. On the one-stall fixture every run (radius or rank) then
/// stalls at most twice: at its first iteration, which carries the
/// second, and at its next stalling iteration, which carries the rest.
#[test]
fn a_cold_run_stalls_at_most_twice() {
    const STALL: Duration = Duration::from_millis(1);
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(5).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    engine.enable_tracing();
    engine.pager().set_read_stall(STALL);
    for q in scene.random_queries(6, 3) {
        let r = engine.try_query(q, 5).unwrap();
        let iters = r.trace.expect("traced").iter_events();
        // A run is a maximal stretch of one phase's events from `i == 0`.
        let mut runs: Vec<Vec<&IterEvent>> = Vec::new();
        for e in &iters {
            if e.i == 0 {
                runs.push(Vec::new());
            }
            runs.last_mut().expect("a run starts at i == 0").push(e);
        }
        for run in &runs {
            let stalls: Vec<u64> = run.iter().map(|e| e.stalls).collect();
            let carried: Vec<u64> = run.iter().map(|e| e.ahead_steps).collect();
            assert!(
                stalls.iter().sum::<u64>() <= 2,
                "{} run stalled {stalls:?}, carrying {carried:?} steps",
                run[0].phase
            );
            assert_eq!(run[0].ahead_steps, run[0].stalls, "a first iteration carries one step");
            for e in run.iter().filter(|e| e.stalls == 0) {
                assert_eq!(e.ahead_steps, 0, "a batch that reads nothing carries nothing");
            }
        }
    }
}

/// The radius run's bounded batches, by index into `iters`: radius
/// iterations that stalled while every seed's upper bound was finite. A
/// radius event reports every seed (its `kth_ub`, at k = all seeds, is
/// their largest upper bound), so iteration `i`'s batch was bounded when
/// event `i − 1`'s `kth_ub` is finite.
fn bounded_radius_stalls(iters: &[IterEvent]) -> Vec<usize> {
    (1..iters.len())
        .filter(|&j| {
            let (before, e) = (&iters[j - 1], &iters[j]);
            e.phase == "radius" && e.i > 0 && before.kth_ub.is_finite() && e.stalls == 1
        })
        .collect()
}

/// A bounded radius batch that stalls also carries the lines the ranking
/// run's first two iterations ask for, over the step-3 disc at the
/// seeds' current largest upper bound. On the one-stall fixture a cold
/// query then pays at most three stalled batches — the radius run's
/// first and bounded iterations and one bounded ranking iteration — and
/// once the radius run had a bounded batch that stalled, the ranking
/// run's first two iterations read nothing.
#[test]
fn a_cold_query_stalls_at_most_three_times() {
    const STALL: Duration = Duration::from_millis(1);
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(5).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    engine.enable_tracing();
    engine.pager().set_read_stall(STALL);
    let mut batches = Vec::new();
    let mut reads = Vec::new();
    for q in scene.random_queries(6, 3) {
        let r = engine.try_query(q, 5).unwrap();
        batches.push(engine.pager().stalled_batches());
        let iters = r.trace.expect("traced").iter_events();
        if !bounded_radius_stalls(&iters).is_empty() {
            let first = iters.iter().filter(|e| e.phase == "rank" && e.i < 2);
            reads.extend(first.map(|e| (batches.len() - 1, e.i, e.stalls, e.pages)));
        }
    }
    let total: u64 = batches.iter().sum();
    assert!(
        batches.iter().all(|&b| b <= 3),
        "stalled batches per query {batches:?}, {total} in total"
    );
    assert!(!reads.is_empty(), "no radius run had a bounded batch that stalled");
    for &(query, i, stalls, pages) in &reads {
        assert_eq!((stalls, pages), (0, 0), "query {query}: rank iteration {i} read");
    }
}

/// The radius-only `EXEC` leg (no candidates, so no ranking run follows in
/// its scope) carries no line for one: it reads DMTM pages alone, as it
/// always has.
#[test]
fn a_radius_only_exec_reads_no_msdn_page() {
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(5).build();
    let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    engine.pager().set_read_stall(Duration::from_millis(1));
    let k = 5;
    for q in scene.random_queries(6, 3) {
        let seeds: Vec<(u32, SurfacePoint)> =
            engine.seeds2d(q.pos.xy(), k).into_iter().map(|(_, id, p)| (id, p)).collect();
        let r = engine.exec_ranked(q, k, &seeds, &[], &QueryOpts::default()).unwrap();
        assert!(r.neighbors.is_empty() && r.radius.is_finite());
        let msdn = physical_reads_of(engine.pager(), StructureTag::Msdn);
        let dmtm = physical_reads_of(engine.pager(), StructureTag::Dmtm);
        assert_eq!(msdn, 0, "the radius-only leg read MSDN pages");
        assert!(dmtm > 0, "a cold radius run reads units");
        assert_eq!(r.stats.pages, dmtm, "it reads DMTM pages alone");
    }
}

/// A permanent fault on an MSDN page that only the radius run's carry for
/// the ranking run reads — a level-0 line of the step-3 disc — fails the
/// bounded radius batch that carries it. That carrier drops every
/// look-ahead load, reads its own units alone and degrades nothing: the
/// radius run's bounds and radius equal the fault-free run's. The ranking
/// run's first iteration asks for the page itself and degrades, naming
/// it. No latch is left and the answer still brackets the exact
/// distances.
#[test]
fn a_fault_on_a_line_carried_for_the_ranking_run_degrades_only_the_iteration_asking() {
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(5).build();
    let cfg = Mr3Config::default();
    let k = 5;

    // A pager laid out like the engine's — its unit store, then its MSDN —
    // names the engine's pages.
    let tree = build_dmtm(&mesh);
    let grid = CutGrid::new(mesh.extent(), cfg.cut_cache.tiles, cfg.cut_cache.pad_tiles);
    let steps: Vec<u32> = cfg.schedule.dmtm.iter().map(|&f| tree.step_for_fraction(f)).collect();
    let layout = Pager::new(cfg.pool_pages);
    UnitStore::build(&layout, &tree, grid, &steps);
    let msdn = PagedMsdn::build(
        &layout,
        &Msdn::build(
            &mesh,
            &MsdnConfig { levels: cfg.msdn_levels.clone(), plane_spacing: cfg.plane_spacing },
        ),
    );
    let level = cfg.schedule.msdn_level(0);
    assert!((1..cfg.schedule.len()).all(|n| cfg.schedule.msdn_level(n) != level));

    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    engine.enable_tracing();
    // The first query, and the first level-0 page of its carried disc,
    // whose fault degrades the query: a page the ranking run asks for.
    // Only the ranking run's first iteration asks for level-0 lines, and
    // it finds the carried ones resident, so only the carry reads it.
    let mut found = None;
    'queries: for q in scene.random_queries(6, 3) {
        let clean = engine.try_query(q, k).unwrap();
        let iters = clean.trace.as_ref().expect("traced").iter_events();
        let Some(&carrier) = bounded_radius_stalls(&iters).first() else { continue };
        let r = iters[carrier - 1].kth_ub;
        let disc = [(0, Axis::X), (1, Axis::Y)].map(|(slot, axis)| {
            let c = axis.coord(q.pos);
            let (lo, hi) = grid.snap_band(slot, c - r, c + r);
            LineBand { axis, lo, hi, roi: None }
        });
        let probe = LineCutCache::new(64 << 20);
        for bad in probe.claim(&msdn, level, &disc).pages().to_vec() {
            engine.pager().set_fault_injector(Some(FaultInjector::script().fail_page(
                bad.0,
                FaultKind::Permanent,
                None,
            )));
            let got = engine.try_query(q, k).unwrap();
            engine.pager().set_fault_injector(None);
            if got.degraded.is_some() {
                found = Some((q, bad, clean, carrier, got));
                break 'queries;
            }
        }
    }
    let (q, bad, clean, carrier, got) = found.expect("a carried line page the ranking run uses");
    assert_eq!(engine.pager().tag_of(bad), StructureTag::Msdn);
    assert_eq!(
        engine.pager().with_page(bad, <[u8]>::to_vec).unwrap(),
        layout.with_page(bad, <[u8]>::to_vec).unwrap()
    );

    let clean_iters = clean.trace.as_ref().expect("traced").iter_events();
    let trace = got.trace.as_ref().expect("traced");
    let iters = trace.iter_events();
    let bounds = |e: &IterEvent| (e.phase, e.i, e.alive, e.kth_ub, e.next_lb, e.resolve_lb);
    let radius_run = clean_iters.iter().take_while(|e| e.phase == "radius").count();
    for j in 0..radius_run {
        assert_eq!(bounds(&iters[j]), bounds(&clean_iters[j]), "radius iteration {j} moved");
    }
    assert_eq!(got.radius.to_bits(), clean.radius.to_bits(), "the radius moved");
    let e = &iters[carrier];
    assert!(clean_iters[carrier].ahead_pages > 0, "{:?}", clean_iters[carrier]);
    assert_eq!((e.ahead_pages, e.ahead_steps), (0, 0), "the carrier kept a look-ahead: {e:?}");
    assert_eq!(e.ub_est, clean_iters[carrier].ub_est, "the carrier degraded");

    // The first fault lands after the radius run, before the ranking
    // run's first event, and names the page.
    let names: Vec<&str> = trace.records.iter().map(|r| r.name).collect();
    let fault = names.iter().position(|&n| n == "fault").expect("a fault was absorbed");
    assert_eq!(names[..fault].iter().filter(|&&n| n == "iter").count(), radius_run, "{names:?}");
    let record = &trace.records[fault];
    assert_eq!(record.get("phase").and_then(|v| v.as_str()), Some("iter"));
    assert_eq!(record.get_u64("page"), Some(bad.0));
    assert_eq!(
        (iters[radius_run].phase, iters[radius_run].i, iters[radius_run].ub_est),
        ("rank", 0, 0)
    );
    let degraded = got.degraded.as_ref().expect("the asking iteration degrades the query");
    assert_eq!((degraded.phase, degraded.faults), ("iter", 1), "{degraded}");
    assert!(degraded.reason.ends_with(&format!(" {}", bad.0)), "{degraded}");

    assert_eq!(engine.cut_cache_snapshot().unwrap().loading, 0, "a latch was left");
    let exact = ExactGeodesic::new(&mesh);
    for n in &got.neighbors {
        let d = exact.distance(q.to_mesh_point(), scene.object(n.id).point.to_mesh_point());
        assert!(n.range.lb <= d + 1e-6 && d <= n.range.ub + 1e-6, "{n:?} misses {d}");
    }
}

/// A permanent fault on a unit page that only a step two or more ahead
/// uses — the full-resolution unit at the query's tile, which every
/// bounded batch from the 50 % iteration on carries — fails each batch
/// that looks ahead onto it. Each such carrier drops every look-ahead
/// load, reads its own keys alone and computes exactly the fault-free
/// bounds; the iteration that asks for the page itself degrades, naming
/// it. No latch is left and the answer still brackets the exact
/// distances.
#[test]
fn a_fault_on_a_page_carried_steps_ahead_degrades_only_the_iteration_asking() {
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(5).build();
    let cfg = Mr3Config::default();
    let k = 5;

    // As in `a_fault_on_a_lookahead_page_degrades_only_its_own_iteration`:
    // a store built like the engine's names its pages. Every group's
    // region contains the query, so every iteration at the full-resolution
    // step (or the pathnet level, which asks for the same units) asks for
    // the query tile's unit.
    let tree = build_dmtm(&mesh);
    let grid = CutGrid::new(mesh.extent(), cfg.cut_cache.tiles, cfg.cut_cache.pad_tiles);
    let steps: Vec<u32> = cfg.schedule.dmtm.iter().map(|&f| tree.step_for_fraction(f)).collect();
    let full = tree.step_for_fraction(1.0);
    let half = cfg.schedule.dmtm.iter().position(|&f| f == 0.5).expect("s=1 has a 50 % step");
    assert!(steps[..=half + 1].iter().all(|&s| s != full), "the page is two or more ahead");
    let layout = Pager::new(cfg.pool_pages);
    let store = UnitStore::build(&layout, &tree, grid, &steps);

    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    engine.enable_tracing();
    // The first query with an iteration that asks for the full step.
    let (q, bad, clean, ask) = scene
        .random_queries(6, 3)
        .into_iter()
        .find_map(|q| {
            let (cols, rows) = grid.tiles_meeting(&Rect2::new(q.pos.xy(), q.pos.xy()));
            let tile = (rows.start * grid.tiles() + cols.start) as u32;
            let bad = store.pages(full, &[tile])[0];
            let clean = engine.try_query(q, k).unwrap().trace.expect("traced").iter_events();
            let ask = clean.iter().position(|e| e.dmtm_frac >= 1.0)?;
            Some((q, bad, clean, ask))
        })
        .expect("some query refines to the full step");
    assert_eq!(engine.pager().tag_of(bad), StructureTag::Dmtm);
    assert_eq!(
        engine.pager().with_page(bad, <[u8]>::to_vec).unwrap(),
        layout.with_page(bad, <[u8]>::to_vec).unwrap()
    );
    let carriers: Vec<usize> = (0..ask).filter(|&j| clean[j].ahead_steps >= 2).collect();
    assert!(!carriers.is_empty(), "no batch carried the full step: {clean:?}");

    engine.pager().set_fault_injector(Some(FaultInjector::script().fail_page(
        bad.0,
        FaultKind::Permanent,
        None,
    )));
    let got = engine.try_query(q, k).unwrap();
    engine.pager().set_fault_injector(None);
    let trace = got.trace.as_ref().expect("traced");
    let iters = trace.iter_events();
    let bounds = |e: &IterEvent| (e.phase, e.i, e.alive, e.kth_ub, e.next_lb, e.resolve_lb);
    for j in 0..ask {
        assert_eq!(bounds(&iters[j]), bounds(&clean[j]), "iteration {j} moved");
    }
    for &j in &carriers {
        assert_eq!((iters[j].ahead_steps, iters[j].ahead_pages), (0, 0), "{:?}", iters[j]);
    }

    // The first fault lands before the asking iteration's event and after
    // every earlier one, and names the page.
    let names: Vec<&str> = trace.records.iter().map(|r| r.name).collect();
    let fault = names.iter().position(|&n| n == "fault").expect("a fault was absorbed");
    assert_eq!(names[..fault].iter().filter(|&&n| n == "iter").count(), ask, "{names:?}");
    let record = &trace.records[fault];
    assert_eq!(record.get("phase").and_then(|v| v.as_str()), Some("iter"));
    assert_eq!(record.get_u64("page"), Some(bad.0));
    assert_eq!(iters[ask].ub_est, 0, "the asking iteration computed a bound");
    let degraded = got.degraded.as_ref().expect("the asking iteration degrades the query");
    assert_eq!(degraded.phase, "iter", "{degraded}");
    assert!(degraded.reason.ends_with(&format!(" {}", bad.0)), "{degraded}");

    assert_eq!(engine.cut_cache_snapshot().unwrap().loading, 0, "a latch was left");
    let exact = ExactGeodesic::new(&mesh);
    for n in &got.neighbors {
        let d = exact.distance(q.to_mesh_point(), scene.object(n.id).point.to_mesh_point());
        assert!(n.range.lb <= d + 1e-6 && d <= n.range.ub + 1e-6, "{n:?} misses {d}");
    }
}

/// A permanent fault on a DMTM page that only the next schedule step's
/// units use fails the batch of the iteration that looks ahead onto it.
/// That iteration drops its look-ahead, reads its own keys alone and
/// computes exactly the fault-free bounds; the next iteration asks for
/// the page itself and degrades, naming it. No latch is left and the
/// answer still brackets the exact distances.
#[test]
fn a_fault_on_a_lookahead_page_degrades_only_its_own_iteration() {
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(5).build();
    let cfg = Mr3Config::default();
    let (q, k) = (scene.random_queries(6, 3)[0], 5);

    // The engine lays its unit store out first on a fresh pager, so a
    // store built the same way names the engine's pages. The page: the
    // first of the unit at the query's tile at the radius run's second
    // step. Iteration 0's groups cover the query, so its look-ahead asks
    // for that unit; so does iteration 1, whose regions contain the query.
    let tree = build_dmtm(&mesh);
    let grid = CutGrid::new(mesh.extent(), cfg.cut_cache.tiles, cfg.cut_cache.pad_tiles);
    let steps: Vec<u32> = cfg.schedule.dmtm.iter().map(|&f| tree.step_for_fraction(f)).collect();
    assert_ne!(steps[0], steps[1], "the look-ahead reads a step of its own");
    let layout = Pager::new(cfg.pool_pages);
    let store = UnitStore::build(&layout, &tree, grid, &steps);
    let (cols, rows) = grid.tiles_meeting(&Rect2::new(q.pos.xy(), q.pos.xy()));
    let tile = (rows.start * grid.tiles() + cols.start) as u32;
    let bad = store.pages(steps[1], &[tile])[0];

    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    engine.enable_tracing();
    assert_eq!(engine.pager().tag_of(bad), StructureTag::Dmtm);
    assert_eq!(
        engine.pager().with_page(bad, <[u8]>::to_vec).unwrap(),
        layout.with_page(bad, <[u8]>::to_vec).unwrap()
    );
    let clean = engine.try_query(q, k).unwrap();
    let clean_iters = clean.trace.as_ref().expect("traced").iter_events();
    assert!(clean_iters[0].ahead_pages > 0, "iteration 0 looks ahead: {:?}", clean_iters[0]);

    engine.pager().set_fault_injector(Some(FaultInjector::script().fail_page(
        bad.0,
        FaultKind::Permanent,
        None,
    )));
    let got = engine.try_query(q, k).unwrap();
    engine.pager().set_fault_injector(None);
    let trace = got.trace.as_ref().expect("traced");
    let iters = trace.iter_events();
    let bounds = |e: &IterEvent| (e.phase, e.i, e.alive, e.kth_ub, e.next_lb, e.resolve_lb);
    assert_eq!((iters[0].phase, iters[0].i), ("radius", 0));
    assert_eq!(bounds(&iters[0]), bounds(&clean_iters[0]), "the carrier iteration moved");
    assert_eq!(iters[0].ahead_pages, 0, "the failed look-ahead was read again");

    // The first fault lands after iteration 0's event and before
    // iteration 1's: it is iteration 1's, and it names the page.
    let names: Vec<&str> = trace.records.iter().map(|r| r.name).collect();
    let fault = names.iter().position(|&n| n == "fault").expect("a fault was absorbed");
    assert_eq!(names[..fault].iter().filter(|&&n| n == "iter").count(), 1, "{names:?}");
    let record = &trace.records[fault];
    assert_eq!(record.get("phase").and_then(|v| v.as_str()), Some("iter"));
    assert_eq!(record.get_u64("page"), Some(bad.0));
    assert_eq!((iters[1].phase, iters[1].i, iters[1].ub_est), ("radius", 1, 0));
    let degraded = got.degraded.as_ref().expect("iteration 1 degrades the query");
    assert_eq!(degraded.phase, "iter", "{degraded}");
    assert!(degraded.reason.ends_with(&format!(" {}", bad.0)), "{degraded}");

    assert_eq!(engine.cut_cache_snapshot().unwrap().loading, 0, "a latch was left");
    let exact = ExactGeodesic::new(&mesh);
    for n in &got.neighbors {
        let d = exact.distance(q.to_mesh_point(), scene.object(n.id).point.to_mesh_point());
        assert!(n.range.lb <= d + 1e-6 && d <= n.range.ub + 1e-6, "{n:?} misses {d}");
    }
}

/// Four threads run overlapping iteration plans — units of unequal spans
/// and lines of unequal bands, claimed in both caches and read in one
/// batch — three times each: every unit and every line loads exactly
/// once between them, and nobody deadlocks on a key led by a thread that
/// waits on one of its own.
#[test]
fn overlapping_unit_and_line_plans_load_each_key_once_across_four_threads() {
    let f = both_fixture(33, 321);
    let (step, level) = (f.step, 3);
    let lines = LineCutCache::new(16 << 20);
    let e = f.grid.extent();
    let spans = [
        TileSpan { x0: 0, x1: 4, y0: 1, y1: 5 },
        TileSpan { x0: 2, x1: 7, y0: 2, y1: 6 },
        TileSpan { x0: 1, x1: 5, y0: 3, y1: 7 },
        TileSpan { x0: 3, x1: 6, y0: 1, y1: 7 },
    ];
    let rois: Vec<Rect2> = spans.iter().map(|&s| f.grid.span_rect(s)).collect();
    let band = |axis: Axis, from: f64, to: f64, roi| {
        let (origin, width) =
            if axis == Axis::X { (e.lo.x, e.width()) } else { (e.lo.y, e.height()) };
        let (lo, hi) = f.grid.snap_band(
            usize::from(axis == Axis::Y),
            origin + from * width,
            origin + to * width,
        );
        LineBand { axis, lo, hi, roi: Some(roi) }
    };
    let plans: Vec<[LineBand; 2]> = rois
        .iter()
        .enumerate()
        .map(|(t, roi)| {
            let from = 0.15 * t as f64;
            [band(Axis::X, from, from + 0.45, roi), band(Axis::Y, 0.5 - from / 2.0, 0.9, roi)]
        })
        .collect();
    let mut units = std::collections::BTreeSet::new();
    let mut distinct_lines = std::collections::BTreeSet::new();
    for (span, bands) in spans.iter().zip(&plans) {
        units.extend(span.tiles(TILES));
        for b in bands {
            let picked = f.msdn.select_lines(level, b.axis, b.lo, b.hi, b.roi);
            distinct_lines.extend(picked.into_iter().map(|l| (b.axis == Axis::Y, l)));
        }
    }

    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let workers: Vec<_> = spans
            .iter()
            .zip(&plans)
            .map(|(&span, bands)| {
                let (f, lines) = (&f, &lines);
                s.spawn(move || {
                    for _ in 0..3 {
                        let mut u = f.cuts.claim(step, &[span]);
                        let mut l = lines.claim(&f.msdn, level, bands);
                        f.pager.read_into(&mut [&mut u, &mut l]).unwrap();
                        std::thread::sleep(Duration::from_millis(5));
                        u.publish();
                        l.publish();
                        let got = u.finish(&f.pager).unwrap();
                        assert_eq!(got[0].0.len(), span.tiles(TILES).count());
                        let got = l.finish(&f.pager).unwrap();
                        for (b, (lines, _)) in bands.iter().zip(&got) {
                            let oracle = band_lines(&f.msdn, &f.pager, level, b);
                            let oracle = line_fingerprint(oracle.unwrap().iter());
                            assert_eq!(line_fingerprint(lines.iter().map(|l| &**l)), oracle);
                        }
                    }
                })
            })
            .collect();
        s.spawn(move || {
            for w in workers {
                w.join().expect("plan thread panicked");
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("overlapping plans did not finish within 10 s: deadlock");
    });
    let (cut, line) = (f.cuts.stats(), lines.stats());
    assert_eq!(cut.misses as usize, units.len(), "every unit loads exactly once: {cut:?}");
    assert_eq!(line.misses as usize, distinct_lines.len(), "every line loads once: {line:?}");
    assert_eq!((cut.failed_loads, line.failed_loads), (0, 0));
    assert_eq!(f.cuts.gauges().loading + lines.gauges().loading, 0);
}

#[test]
fn warm_means_resident() {
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(40).seed(5).build();
    let cfg = Mr3Config::default();
    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    engine.cold_cache = false;
    let pool = scene.random_queries(32, 9);

    let first: Vec<QueryResult> = pool.iter().map(|&q| engine.try_query(q, 4).unwrap()).collect();
    let evictions_after_first = engine.cut_cache_snapshot().unwrap().evictions;
    let mut second = Vec::new();
    for &q in &pool {
        second.push(engine.try_query(q, 4).unwrap());
        // Pager stats are reset at query start, so this is the query's own
        // read count.
        assert_eq!(engine.pager().stats().physical_reads, 0, "a warm query read a page");
    }
    assert_eq!(fingerprint(&first), fingerprint(&second));
    assert!(second.iter().all(|r| r.stats.cut_cache_misses == 0));
    let snap = engine.cut_cache_snapshot().unwrap();
    assert_eq!(evictions_after_first, 0);
    assert_eq!(snap.evictions, 0, "the default budget must hold the whole working set");

    // Everything the schedule can ever ask for: every tile of every front
    // step (the pathnet's leaf charge is step 0) and every line.
    let pager = Pager::new(cfg.pool_pages);
    let tree = build_dmtm(&mesh);
    let msdn = Msdn::build(
        &mesh,
        &MsdnConfig { levels: cfg.msdn_levels.clone(), plane_spacing: cfg.plane_spacing },
    );
    let msdn = PagedMsdn::build(&pager, &msdn);
    let grid = CutGrid::new(mesh.extent(), cfg.cut_cache.tiles, cfg.cut_cache.pad_tiles);
    let mut steps: Vec<u32> =
        cfg.schedule.dmtm.iter().map(|&frac| tree.step_for_fraction(frac)).collect();
    let all_fronts = CutCache::new(usize::MAX, UnitStore::build(&pager, &tree, grid, &steps));
    steps.sort_unstable();
    steps.dedup();
    assert!(steps.contains(&0), "s=1's pathnet level charges step 0: {steps:?}");
    let mut scratch = FetchScratch::default();
    for step in steps {
        extract(&all_fronts, &tree, &pager, step, grid.full_span(), &mut scratch).unwrap();
    }
    let all_lines = LineCutCache::new(usize::MAX);
    for level in 0..msdn.num_levels() {
        for axis in [Axis::X, Axis::Y] {
            let whole = LineBand { axis, lo: f64::NEG_INFINITY, hi: f64::INFINITY, roi: None };
            fetch_bands(&all_lines, &msdn, &pager, level, &[whole]).unwrap();
        }
    }
    let everything = all_fronts.gauges().resident_weight + all_lines.gauges().resident_weight;
    assert!(snap.resident_bytes > 0);
    assert!(
        snap.resident_bytes <= everything * 2,
        "{} bytes resident, the whole terrain at every schedule step is {everything}",
        snap.resident_bytes
    );
}

/// One answer: radius bits, then neighbour ids and the exact f64 bit
/// patterns of both bounds.
type AnswerBits = (u64, Vec<(u32, u64, u64)>);
/// `try_query_batch` with every query answered.
fn answers(
    engine: &Mr3Engine,
    batch: &[(SurfacePoint, usize)],
    threads: usize,
) -> Vec<QueryResult> {
    engine.try_query_batch(batch, threads).into_iter().map(Result::unwrap).collect()
}

fn fingerprint(results: &[QueryResult]) -> Vec<AnswerBits> {
    results
        .iter()
        .map(|r| {
            let ns = r.neighbors.iter().map(|n| (n.id, n.range.lb.to_bits(), n.range.ub.to_bits()));
            (r.radius.to_bits(), ns.collect())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Query results do not depend on what the shared cache holds: an
    /// engine whose budget is below one unit per shard (every fetch
    /// re-loads what it needs and evicts it again) answers bit-identically
    /// to the default budget, sequentially and at 1, 4 and 8 threads, cold
    /// and on a warm second pass.
    #[test]
    fn starved_budget_bit_identical_across_thread_counts(
        mesh_seed in 0u64..1000,
        scene_seed in 0u64..1000,
        query_seed in 0u64..1000,
    ) {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(mesh_seed);
        let scene = SceneBuilder::new(&mesh).object_count(12).seed(scene_seed).build();
        let k = 3;
        let qs = scene.random_queries(6, query_seed);
        let batch: Vec<(SurfacePoint, usize)> = qs.iter().map(|&q| (q, k)).collect();

        let mut roomy = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        roomy.cold_cache = false;
        let mut starved_cfg = Mr3Config::default();
        starved_cfg.cut_cache.capacity_bytes = 512;
        let mut starved = Mr3Engine::build(&mesh, &scene, &starved_cfg);
        starved.cold_cache = false;

        let baseline: Vec<QueryResult> = qs.iter().map(|&q| roomy.try_query(q, k).unwrap()).collect();
        let expect = fingerprint(&baseline);
        let sequential: Vec<QueryResult> = qs.iter().map(|&q| starved.try_query(q, k).unwrap()).collect();
        prop_assert!(fingerprint(&sequential) == expect, "starved sequential diverged");
        for (name, engine) in [("roomy", &roomy), ("starved", &starved)] {
            for threads in [1usize, 4, 8] {
                engine.clear_cut_caches();
                let got = answers(engine, &batch, threads);
                prop_assert!(
                    fingerprint(&got) == expect,
                    "{} at {} threads diverged from the sequential default",
                    name,
                    threads
                );
            }
            // The warm path too: a second pass over whatever stayed resident.
            let warm = answers(engine, &batch, 4);
            prop_assert!(fingerprint(&warm) == expect, "{} warm pass diverged", name);
        }
        let (roomy, starved) =
            (roomy.cut_cache_snapshot().unwrap(), starved.cut_cache_snapshot().unwrap());
        prop_assert!(roomy.hits > 0 && roomy.evictions == 0, "roomy: {:?}", roomy);
        prop_assert!(starved.evictions > 0, "starved budget never evicted: {:?}", starved);
    }
}

/// The pair path's oracle: the structures an engine over `mesh` builds,
/// laid out on a pager of its own, and the pair rule the engine once ran
/// privately — the whole front at the step extracted and searched over a
/// fresh CSR (the best exit of Dijkstra's run from `a`'s embedding), the
/// whole-mesh pathnet above 100 %, and `PagedMsdn::lower_bound` over every
/// line of the pair's band.
struct PairOracle<'m> {
    mesh: &'m TerrainMesh,
    cfg: Mr3Config,
    tree: DmtmTree,
    pager: Pager,
    units: UnitStore,
    tiles: Vec<u32>,
    msdn: PagedMsdn,
    net: Pathnet,
}

impl<'m> PairOracle<'m> {
    fn new(mesh: &'m TerrainMesh, cfg: &Mr3Config) -> Self {
        let Structures { tree, msdn } = Structures::build(mesh, cfg);
        let pager = Pager::new(cfg.pool_pages);
        let grid = CutGrid::new(mesh.extent(), cfg.cut_cache.tiles, cfg.cut_cache.pad_tiles);
        let steps: Vec<u32> =
            cfg.schedule.dmtm.iter().map(|&f| tree.step_for_fraction(f)).collect();
        let units = UnitStore::build(&pager, &tree, grid, &steps);
        let tiles = grid.full_span().tiles(grid.tiles()).collect();
        let msdn = PagedMsdn::build(&pager, &msdn);
        let net = Pathnet::build(mesh, cfg.pathnet_steiner, None);
        Self { mesh, cfg: cfg.clone(), tree, pager, units, tiles, msdn, net }
    }

    /// The pair's `(lb, ub)` bits at schedule step `i` and MSDN `level`,
    /// and the pages the replaced path read: the whole terrain's units at
    /// a DMTM step (none at a pathnet level), and the band's lines.
    fn range(&self, a: &SurfacePoint, b: &SurfacePoint, i: usize, level: usize) -> (PairBits, u64) {
        let mut range = DistRange::unbounded();
        range.tighten_lb(a.pos.dist(b.pos));
        let frac = self.cfg.schedule.dmtm[i];
        let mut pages = 0;
        if frac <= 1.0 {
            let m = self.tree.step_for_fraction(frac);
            let fg = FrontGraph::extract(&self.tree, m, None);
            let src = fg.embed(&self.tree, self.mesh, a.tri, a.pos);
            let dst = fg.embed(&self.tree, self.mesh, b.tri, b.pos);
            let csr = Graph::from_undirected(fg.num_nodes(), &fg.edges);
            let run = Dijkstra::run_multi(&csr, &src, None);
            let best = dst.iter().map(|&(x, cost)| run.dist[x as usize] + cost);
            range.tighten_ub(best.fold(f64::INFINITY, f64::min));
            pages += self.units.pages(m, &self.tiles).len() as u64;
        } else {
            range.tighten_ub(self.net.distance(self.mesh, a.to_mesh_point(), b.to_mesh_point()));
        }
        self.pager.reset_stats();
        range.tighten_lb(
            self.msdn.lower_bound(&self.pager, level, a.pos, b.pos, None).unwrap().value,
        );
        (pair_bits(&range), pages + self.pager.stats().physical_reads)
    }
}

type PairBits = (u64, u64);

/// `n` query pairs of `scene` lying over half the terrain's width apart,
/// so every MSDN level has lines between them.
fn far_pairs(scene: &Scene, n: usize) -> Vec<(SurfacePoint, SurfacePoint)> {
    let width = scene.mesh().extent().width();
    let pairs = (0..).map(|i| (scene.random_query(2 * i), scene.random_query(2 * i + 1)));
    pairs.filter(|(a, b)| a.pos.dist(b.pos) > width / 2.0).take(n).collect()
}

fn pair_bits(range: &DistRange) -> PairBits {
    (range.lb.to_bits(), range.ub.to_bits())
}

/// A pair estimate reads the way an iteration reads one group over the
/// whole terrain, and its range is the replaced path's, bit for bit: at
/// every (step, level) of s=1, on a cold engine (each estimate derives its
/// front from the units it reads) and on a warm one whose table holds
/// every whole-terrain front (each estimate shares it).
#[test]
fn pair_estimates_equal_the_replaced_path() {
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(2).seed(5).build();
    let cfg = Mr3Config::default();
    let oracle = PairOracle::new(&mesh, &cfg);
    let pairs = far_pairs(&scene, 3);
    let cold = Mr3Engine::build(&mesh, &scene, &cfg);
    let mut warm = Mr3Engine::build(&mesh, &scene, &cfg);
    warm.cold_cache = false;
    let (a, b) = pairs[0];
    for i in 0..cfg.schedule.len() {
        warm.estimate_pair(a, b, i, 0);
    }
    let mut steps = warm.whole_front_steps();
    steps.sort_unstable();
    let mut want: Vec<u32> = cfg
        .schedule
        .dmtm
        .iter()
        .filter(|&&f| f <= 1.0)
        .map(|&f| oracle.tree.step_for_fraction(f))
        .collect();
    want.sort_unstable();
    want.dedup();
    assert_eq!(steps, want, "the warm engine's table is full");
    for (i, &frac) in cfg.schedule.dmtm.iter().enumerate() {
        for level in 0..oracle.msdn.num_levels() {
            for (a, b) in &pairs {
                let (want, _) = oracle.range(a, b, i, level);
                for (name, engine) in [("cold", &cold), ("warm", &warm)] {
                    let got = engine.estimate_pair(*a, *b, i, level);
                    assert_eq!(pair_bits(&got), want, "{name}: step {i} ({frac}), level {level}");
                }
            }
        }
    }
}

/// One pair batch: a cold pair estimate claims its units and lines
/// together and reads them in one `Pager::read_into`, so it pays one
/// stalled batch for exactly the pages the replaced path read in two. A
/// warm estimate, and a warm `distance_with_accuracy`, read no page.
#[test]
fn a_cold_pair_estimate_pays_one_stall() {
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(2).seed(5).build();
    let cfg = Mr3Config::default();
    let oracle = PairOracle::new(&mesh, &cfg);
    let (a, b) = far_pairs(&scene, 1)[0];
    let cold = Mr3Engine::build(&mesh, &scene, &cfg);
    let mut warm = Mr3Engine::build(&mesh, &scene, &cfg);
    warm.cold_cache = false;
    for i in 0..cfg.schedule.len() {
        let level = cfg.schedule.msdn_level(i);
        let (want, pages) = oracle.range(&a, &b, i, level);
        let got = cold.estimate_pair(a, b, i, level);
        assert_eq!(pair_bits(&got), want, "step {i}");
        // Pager stats are reset at query start: the estimate's own reads.
        let pager = cold.pager();
        assert_eq!(pager.stalled_batches(), 1, "step {i}: one batch");
        assert_eq!(pager.stats().physical_reads, pages, "step {i}: the replaced path's pages");
        if cfg.schedule.dmtm[i] > 1.0 {
            assert_eq!(
                physical_reads_of(pager, StructureTag::Dmtm),
                0,
                "a pathnet level reads no unit"
            );
        }

        warm.estimate_pair(a, b, i, level);
        let again = warm.estimate_pair(a, b, i, level);
        assert_eq!(pair_bits(&again), want, "step {i}, warm");
        let pager = warm.pager();
        assert_eq!(
            (pager.stats().physical_reads, pager.stalled_batches()),
            (0, 0),
            "step {i}, warm"
        );
    }
    let (first, _, _) = warm.distance_with_accuracy(a, b, 1.0);
    let (second, stats, _) = warm.distance_with_accuracy(a, b, 1.0);
    assert_eq!(pair_bits(&second), pair_bits(&first));
    assert_eq!(stats.pages, 0, "a warm distance_with_accuracy read a page");
}

/// One pair batch, one way to degrade: a failed read of the pair's batch
/// leaves the pair its Euclidean lower bound and an unbounded upper
/// bound, under one absorbed fault of phase `pair`, and publishes
/// nothing and leaves no latch: the next estimate on the same engine
/// reads the keys again and returns the fault-free bits.
#[test]
fn a_fault_in_the_pair_batch_leaves_the_euclidean_range() {
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(2).seed(5).build();
    let cfg = Mr3Config::default();
    let (a, b) = far_pairs(&scene, 1)[0];
    let level = cfg.schedule.msdn_level(0);
    let clean = Mr3Engine::build(&mesh, &scene, &cfg).estimate_pair(a, b, 0, level);
    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    engine.cold_cache = false;
    let fail_first = || Some(FaultInjector::script().fail_nth_read(1, FaultKind::Permanent));

    engine.pager().set_fault_injector(fail_first());
    let got = engine.estimate_pair(a, b, 0, level);
    engine.pager().set_fault_injector(None);
    assert_eq!(pair_bits(&got), (a.pos.dist(b.pos).to_bits(), f64::INFINITY.to_bits()));
    let snap = engine.cut_cache_snapshot().unwrap();
    assert_eq!((snap.loading, snap.warm_entries + snap.cooling_entries), (0, 0), "{snap:?}");

    // The same fault under a traced progressive estimate: one absorbed.
    engine.enable_tracing();
    engine.pager().set_fault_injector(fail_first());
    let (_, _, trace) = engine.distance_with_accuracy(a, b, 1.0);
    engine.pager().set_fault_injector(None);
    engine.disable_tracing();
    let trace = trace.expect("traced");
    let faults: Vec<_> = trace.records.iter().filter(|r| r.name == "fault").collect();
    assert_eq!(faults.len(), 1, "{faults:?}");
    assert_eq!(faults[0].get("phase").and_then(|v| v.as_str()), Some("pair"));
    assert_eq!(faults[0].get_u64("absorbed"), Some(1));

    assert_eq!(engine.cut_cache_snapshot().unwrap().loading, 0, "a latch was left");
    let again = engine.estimate_pair(a, b, 0, level);
    assert_eq!(pair_bits(&again), pair_bits(&clean));
}

/// Closest pair on a warm engine: a second run answers bit for bit like
/// the first, reads no page, and takes its fronts from the whole-terrain
/// table the first run filled.
#[test]
fn a_warm_closest_pair_shares_the_whole_terrain_fronts() {
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(17);
    let scene = SceneBuilder::new(&mesh).object_count(10).seed(5).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    engine.cold_cache = false;
    let key = |p: &ClosestPair| (p.a, p.b, p.proven, pair_bits(&p.range));
    let first = engine.closest_pair().expect("ten objects");
    let second = engine.closest_pair().expect("ten objects");
    assert_eq!(key(&second), key(&first));
    assert_eq!(second.stats.pages, 0, "a warm closest pair read a page");
    assert!(second.stats.shared_fronts > 0, "{:?}", second.stats);
}
