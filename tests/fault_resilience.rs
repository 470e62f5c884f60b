//! End-to-end resilience properties of the MR3 engine under injected
//! storage faults (DESIGN.md §13).
//!
//! Two contracts are pinned down across random fault schedules:
//!
//! * **Transient faults are invisible.** Rate-driven transient and
//!   bit-flip faults are absorbed by the pager's retry budget below the
//!   query layer, so `try_query_batch` is *bit-identical* to the
//!   fault-free run at every thread count — same neighbours, same `f64`
//!   bit patterns of every bound, nothing degraded.
//! * **Permanent faults never corrupt a ranking.** Every query either
//!   matches the fault-free result exactly, or is flagged degraded with
//!   bounds that still bracket the exact surface distance, or fails with
//!   a typed error. It never panics and never silently serves bounds
//!   that exclude the truth.

use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};
use surface_knn::core::metrics::QueryResult;
use surface_knn::core::mr3::Mr3Engine;
use surface_knn::geodesic::ExactGeodesic;
use surface_knn::prelude::*;
use surface_knn::store::{FaultInjector, FaultKind};

const K: usize = 4;

struct Fixture {
    engine: Mr3Engine<'static, 'static>,
    scene: &'static Scene<'static>,
    batch: Vec<(SurfacePoint, usize)>,
    baseline: Vec<QueryResult>,
    exact: ExactGeodesic<'static>,
    /// Serialises injector installation: the engine (and its pager) is
    /// shared across the file's tests.
    injector: Mutex<()>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mesh: &'static _ =
            Box::leak(Box::new(TerrainConfig::bh().with_grid(17).build_mesh(31)));
        let scene: &'static Scene<'static> =
            Box::leak(Box::new(SceneBuilder::new(mesh).object_count(24).seed(5).build()));
        let engine = Mr3Engine::build(mesh, scene, &Mr3Config::default());
        let batch: Vec<(SurfacePoint, usize)> =
            (0..6).map(|i| (scene.random_query(100 + i), K)).collect();
        let baseline = engine.try_query_batch(&batch, 1).into_iter().map(Result::unwrap).collect();
        Fixture {
            engine,
            scene,
            batch,
            baseline,
            exact: ExactGeodesic::new(mesh),
            injector: Mutex::new(()),
        }
    })
}

/// Neighbour ids and exact `f64` bit patterns of both bounds match.
fn bitwise_equal(a: &QueryResult, b: &QueryResult) -> bool {
    a.neighbors.len() == b.neighbors.len()
        && a.neighbors.iter().zip(&b.neighbors).all(|(m, n)| {
            m.id == n.id
                && m.range.lb.to_bits() == n.range.lb.to_bits()
                && m.range.ub.to_bits() == n.range.ub.to_bits()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Recoverable fault schedules (transient drops and bit flips, any
    /// seed, any rate) leave batch results bit-identical to the
    /// fault-free baseline at 1, 4 and 8 threads.
    #[test]
    fn transient_faults_leave_results_bit_identical(
        seed in 0u64..10_000,
        rate in 0.01f64..0.9,
        bitflip in any::<bool>(),
    ) {
        let f = fixture();
        let _guard = f.injector.lock().unwrap();
        let kind = if bitflip { FaultKind::BitFlip } else { FaultKind::Transient };
        for threads in [1usize, 4, 8] {
            f.engine.pager().set_fault_injector(Some(FaultInjector::seeded(seed, rate, kind)));
            let results = f.engine.try_query_batch(&f.batch, threads);
            f.engine.pager().set_fault_injector(None);
            for (got, want) in results.iter().zip(&f.baseline) {
                let got = got.as_ref().unwrap_or_else(|e| {
                    panic!("recoverable fault surfaced at {threads} threads: {e}")
                });
                prop_assert!(got.degraded.is_none(), "spuriously degraded: {:?}", got.degraded);
                prop_assert!(bitwise_equal(got, want), "results drifted at {threads} threads");
            }
        }
    }

    /// Under permanent media faults every query lands in one of three
    /// lawful states: identical to the fault-free result, degraded with
    /// bounds that still bracket the exact surface distance, or a typed
    /// fault-budget error — never a panic, never a silently wrong range.
    #[test]
    fn permanent_faults_degrade_or_error_never_corrupt(
        seed in 0u64..10_000,
        rate in 0.002f64..0.08,
    ) {
        let f = fixture();
        let _guard = f.injector.lock().unwrap();
        f.engine.pager().set_fault_injector(Some(FaultInjector::seeded(
            seed, rate, FaultKind::Permanent,
        )));
        let results = f.engine.try_query_batch(&f.batch, 4);
        f.engine.pager().set_fault_injector(None);
        for (i, result) in results.iter().enumerate() {
            match result {
                Ok(res) if res.degraded.is_none() => {
                    prop_assert!(
                        bitwise_equal(res, &f.baseline[i]),
                        "undegraded query {i} drifted from the fault-free result"
                    );
                }
                Ok(res) => {
                    // Degraded: looser bounds are allowed, invalid ones
                    // are not.
                    let (q, _) = f.batch[i];
                    for n in &res.neighbors {
                        let obj = f
                            .scene
                            .objects()
                            .iter()
                            .find(|o| o.id == n.id)
                            .expect("neighbour id must name a scene object");
                        let ds = f
                            .exact
                            .distance(q.to_mesh_point(), obj.point.to_mesh_point());
                        prop_assert!(
                            n.range.lb <= ds + 1e-6,
                            "degraded lb {} excludes exact {ds} (query {i}, object {})",
                            n.range.lb, n.id
                        );
                        if n.range.ub.is_finite() {
                            prop_assert!(
                                n.range.ub >= ds - 1e-6,
                                "degraded ub {} excludes exact {ds} (query {i}, object {})",
                                n.range.ub, n.id
                            );
                        }
                    }
                }
                Err(e @ QueryError::FaultBudgetExceeded { budget, faults, .. }) => {
                    prop_assert!(
                        faults > budget,
                        "typed error without an exceeded budget: {e}"
                    );
                }
            }
        }
    }
}
