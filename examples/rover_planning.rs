//! Rover mission support — another application from the paper's §1
//! (citing the sun-synchronous navigation field experiment): a rover must
//! reach one of several science sites, and "nearest" only makes sense
//! along the traversable surface. This example ranks candidate sites by
//! surface distance, then prints the elevation profile of the approximate
//! shortest path to the chosen site.
//!
//! ```sh
//! cargo run --release --example rover_planning
//! ```

use surface_knn::geodesic::Pathnet;
use surface_knn::prelude::*;

fn main() {
    let mesh = TerrainConfig::bh().with_grid(65).build_mesh(7_7);
    let sites = SceneBuilder::new(&mesh).object_count(12).seed(3).build();
    let engine = Mr3Engine::build(&mesh, &sites, &Mr3Config::default());

    let rover = sites.random_query(41);
    println!("rover at ({:.0}, {:.0}), elevation {:.1} m", rover.pos.x, rover.pos.y, rover.pos.z);

    let k = 3;
    let result = engine.try_query(rover, k).expect("sknn query failed");
    println!("\ntop {k} sites by surface distance:");
    for (rank, n) in result.neighbors.iter().enumerate() {
        let site = sites.object(n.id);
        println!(
            "  {}. site #{:<3} surface {:>7.1}-{:>7.1} m   straight-line {:>7.1} m",
            rank + 1,
            n.id,
            n.range.lb,
            n.range.ub,
            rover.pos.dist(site.point.pos),
        );
    }

    // Route to the winner: a dense pathnet gives a good approximate
    // geodesic whose polyline we can profile.
    let target = sites.object(result.neighbors[0].id).point;
    let net = Pathnet::build(&mesh, 3, None);
    let path = net.path_positions(&mesh, rover.to_mesh_point(), target.to_mesh_point());
    let mut dist_so_far = 0.0;
    println!("\nelevation profile of the planned route (every ~10th waypoint):");
    println!("  along(m)  elevation(m)");
    let mut last = path[0];
    for (i, p) in path.iter().enumerate() {
        dist_so_far += p.dist(last);
        last = *p;
        if i % 10 == 0 || i + 1 == path.len() {
            let bar_len =
                ((p.z - mesh.vertices().iter().map(|v| v.z).fold(f64::INFINITY, f64::min)) / 10.0)
                    .max(0.0) as usize;
            println!("  {:>8.1}  {:>8.1}  {}", dist_so_far, p.z, "#".repeat(bar_len.min(60)));
        }
    }
    println!("\ntotal route length: {:.1} m", dist_so_far);
}
