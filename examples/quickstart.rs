//! Quickstart: build a terrain, scatter objects, answer a surface k-NN
//! query, and inspect the cost counters.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use surface_knn::prelude::*;

fn main() {
    // 1. A deterministic synthetic mountain terrain (Bearhead-like preset:
    //    rugged). 65 grid points per side = 4 225 vertices, 8 192 facets.
    let mesh = TerrainConfig::bh().with_grid(65).build_mesh(42);
    println!(
        "terrain: {} vertices, {} facets, {:.0} m x {:.0} m",
        mesh.num_vertices(),
        mesh.num_triangles(),
        mesh.extent().width(),
        mesh.extent().height()
    );

    // 2. Scatter 60 objects uniformly on the surface.
    let scene = SceneBuilder::new(&mesh).object_count(60).seed(7).build();

    // 3. Build the MR3 engine: this constructs the DMTM (multiresolution
    //    collapse tree with distance decoration) and the MSDN (sweep-plane
    //    lower-bound networks) and lays both out on the simulated disk.
    let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());

    // 4. Ask for the 5 nearest objects of a random query point, by
    //    *surface* distance.
    let q = scene.random_query(1);
    let result = engine.try_query(q, 5).expect("sknn query failed");

    println!("\nquery at ({:.1}, {:.1}, {:.1} m elevation)", q.pos.x, q.pos.y, q.pos.z);
    println!("rank  object  surface-distance range (m)   euclidean (m)");
    for (rank, n) in result.neighbors.iter().enumerate() {
        let obj = scene.object(n.id);
        println!(
            "{:>4}  #{:<5}  [{:>7.1}, {:>7.1}]            {:>7.1}",
            rank + 1,
            n.id,
            n.range.lb,
            n.range.ub,
            q.pos.dist(obj.point.pos)
        );
    }

    let s = &result.stats;
    println!(
        "\ncost: {} disk pages, {:?} cpu, {} resolution iterations, \
         {} candidates ranked, {} ub / {} lb estimations ({} dummy-lb shortcuts)",
        s.pages,
        s.cpu,
        s.iterations,
        s.candidates,
        s.ub_estimations,
        s.lb_estimations,
        s.dummy_lb_hits
    );
}
