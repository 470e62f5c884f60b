//! Wildlife tracking — the paper's motivating application (§1).
//!
//! Environment-protection analysts cluster animal sightings by surface
//! distance to known water sources and foraging grounds: an animal moves
//! *along the terrain*, so ranking sources by straight-line distance can
//! misattribute a sighting across a ridge. This example places water
//! sources on a rugged terrain, streams in new sightings, assigns each to
//! its surface-nearest source, and reports how often a Euclidean
//! assignment would have disagreed.
//!
//! ```sh
//! cargo run --release --example wildlife_tracking
//! ```

use surface_knn::core::ch::ChEngine;
use surface_knn::prelude::*;

fn main() {
    // A rugged study area.
    let mesh = TerrainConfig::bh().with_grid(65).build_mesh(2026);
    // 24 known water sources.
    let scene = SceneBuilder::new(&mesh).object_count(24).seed(11).build();
    let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    let exact = ChEngine::new(&scene);

    let sightings = scene.random_queries(20, 555);
    let mut disagreements = 0usize;
    let mut ratio_sum = 0.0;

    println!("sighting  surface-NN  dist(m)   euclid-NN  dist(m)   agree");
    for (i, s) in sightings.iter().enumerate() {
        // Surface-nearest source via MR3.
        let res = engine.try_query(*s, 1).expect("sknn query failed");
        let surf_id = res.neighbors[0].id;
        let surf_d = exact.pair_distance(*s, scene.object(surf_id).point);

        // Euclidean-nearest source (what a naive GIS would do).
        let (mut euc_id, mut euc_d) = (0u32, f64::INFINITY);
        for o in scene.objects() {
            let d = s.pos.dist(o.point.pos);
            if d < euc_d {
                euc_d = d;
                euc_id = o.id;
            }
        }
        let agree = surf_id == euc_id;
        if !agree {
            disagreements += 1;
        }
        ratio_sum += surf_d / euc_d.max(1e-9);
        println!(
            "{:>8}  #{:<9} {:>7.1}   #{:<8} {:>7.1}   {}",
            i,
            surf_id,
            surf_d,
            euc_id,
            euc_d,
            if agree { "yes" } else { "NO" }
        );
    }
    println!(
        "\n{} of {} sightings would be misassigned by Euclidean ranking;",
        disagreements,
        sightings.len()
    );
    println!(
        "surface distances average {:.2}x the straight-line distance on this terrain.",
        ratio_sum / sightings.len() as f64
    );
}
