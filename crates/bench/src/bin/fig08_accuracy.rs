//! Figure 8 — "Distance range accuracy".
//!
//! Accuracy ε = lb/ub of the estimated distance range, averaged over
//! random point pairs, as a function of DMTM resolution (0.5 % … 200 %)
//! for each MSDN resolution level (25 … 100 %), plus the
//! Euclidean-distance-as-lb curve. The paper's landmarks: the Euclidean
//! curve saturates near ε ≈ 0.78; SDN 100 % with the pathnet reaches
//! ε ≈ 0.97; DMTM 50 % already achieves ε ≈ 0.87.
//!
//! Output: `lb_source,dmtm_percent,epsilon`, then one
//! `digest,lb_ub_fnv1a,0x…` row: FNV-1a over the `lb` and `ub` bits of
//! every range estimated, in order — a bit-level check of the estimates
//! the rounded ε rows can hide.

use sknn_bench::{bh_mesh, mean, scene_with_density, start_figure, Args};
use sknn_core::config::Mr3Config;
use sknn_core::mr3::Mr3Engine;

fn main() {
    let args = Args::parse();
    let grid: usize = args.get("grid", 65);
    let seed: u64 = args.get("seed", 11);
    let pairs: usize = args.get("queries", 12);

    let mesh = bh_mesh(grid, seed);
    let scene = scene_with_density(&mesh, 4.0, seed + 1);
    let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    // Only ε is reported: keep the caches warm across pairs.
    engine.cold_cache = false;

    // Deterministic long-range pairs.
    let points: Vec<_> =
        (0..2 * pairs as u64).map(|i| scene.random_query(seed ^ (i + 100))).collect();
    let pair_list: Vec<_> = points.chunks(2).map(|c| (c[0], c[1])).collect();

    start_figure(
        "Fig 8: distance range accuracy epsilon = lb/ub",
        "lb_source,dmtm_percent,epsilon",
    );
    // The DMTM levels are the default s=1 schedule's (0.5 % … 200 %): the
    // engine stores and estimates at its schedule's steps only.
    let dmtm_levels = engine.config().schedule.dmtm.clone();
    let sdn_labels = ["sdn25", "sdn37.5", "sdn50", "sdn75", "sdn100"];
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;

    for (lvl, label) in sdn_labels.iter().enumerate() {
        for (step, &frac) in dmtm_levels.iter().enumerate() {
            let mut eps = Vec::new();
            for &(a, b) in &pair_list {
                let range = engine.estimate_pair(a, b, step, lvl);
                digest = fnv1a(fnv1a(digest, range.lb.to_bits()), range.ub.to_bits());
                eps.push(range.accuracy());
            }
            println!("{label},{},{:.4}", (frac * 100.0) as u32, mean(&eps));
        }
    }
    // Euclidean lower bound: same ub ladder, lb fixed at dE.
    for (step, &frac) in dmtm_levels.iter().enumerate() {
        let mut eps = Vec::new();
        for &(a, b) in &pair_list {
            let range = engine.estimate_pair(a, b, step, 0);
            digest = fnv1a(fnv1a(digest, range.lb.to_bits()), range.ub.to_bits());
            let euclid = a.pos.dist(b.pos);
            if range.ub.is_finite() && range.ub > 0.0 {
                eps.push((euclid / range.ub).clamp(0.0, 1.0));
            }
        }
        println!("euclid,{},{:.4}", (frac * 100.0) as u32, mean(&eps));
    }
    println!("digest,lb_ub_fnv1a,{digest:#018x}");
}

/// FNV-1a state `h` advanced over `word`'s little-endian bytes.
fn fnv1a(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}
