//! Environmental licensing — the paper's §1 scenario of assessing "the
//! impact of granting licenses for animal hunting, tourism, waste storage"
//! — exercised with the framework's extension queries (§6):
//!
//! * a **surface range query** finds every habitat within a surface-travel
//!   buffer of a proposed waste-storage site;
//! * a **closest-pair query** finds the two habitats most at risk of
//!   cross-contamination;
//! * an **obstacle-constrained k-NN** re-ranks habitats for a ground crew
//!   that cannot traverse steep slopes.
//!
//! ```sh
//! cargo run --release --example protected_areas
//! ```

use surface_knn::core::constrained::{ConstrainedEngine, ObstacleMask};
use surface_knn::prelude::*;

fn main() {
    let mesh = TerrainConfig::bh().with_grid(65).build_mesh(1212);
    let habitats = SceneBuilder::new(&mesh).object_count(40).seed(19).build();
    let engine = Mr3Engine::build(&mesh, &habitats, &Mr3Config::default());

    // Proposed site.
    let site = habitats.random_query(3);
    println!(
        "proposed site at ({:.0}, {:.0}), elevation {:.1} m\n",
        site.pos.x, site.pos.y, site.pos.z
    );

    // 1. Range query: habitats within 150 m of surface travel.
    let buffer_m = 150.0;
    let range = engine.range_query(site, buffer_m);
    println!(
        "habitats within {buffer_m} m surface distance: {:?} \
         ({} candidates examined, {} undecided, {} pages)",
        range.inside,
        range.stats.candidates,
        range.undecided.len(),
        range.stats.pages
    );

    // 2. Closest habitat pair (contamination risk).
    let cp = engine.closest_pair().expect("at least two habitats");
    println!(
        "\nclosest habitat pair: #{} and #{} at {:.1}-{:.1} m ({}, {} pairs considered)",
        cp.a,
        cp.b,
        cp.range.lb,
        cp.range.ub,
        if cp.proven { "proven" } else { "estimated" },
        cp.stats.candidates
    );

    // 3. Ground-crew access: same k-NN question but slopes above 220 % are
    //    untraversable.
    let mask = ObstacleMask::from_slope_limit(&mesh, 2.2);
    println!("\nslope constraint blocks {:.1}% of facets", mask.blocked_fraction() * 100.0);
    let crew = ConstrainedEngine::build(&mesh, &habitats, mask);
    let free = engine.try_query(site, 5).expect("sknn query failed");
    let constrained = crew.query(site, 5);
    println!("rank  unconstrained        slope-constrained");
    for i in 0..5 {
        let f = free.neighbors.get(i);
        let c = constrained.neighbors.get(i);
        println!(
            "{:>4}  {:<20} {}",
            i + 1,
            f.map(|n| format!("#{} ({:.0} m)", n.id, n.range.ub)).unwrap_or_default(),
            c.map(|n| format!("#{} ({:.0} m)", n.id, n.range.ub))
                .unwrap_or_else(|| "unreachable".into()),
        );
    }
}
