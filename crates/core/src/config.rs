//! MR3 configuration: step schedules and optimisation switches.

/// A resolution escalation schedule (paper §5.3). Each iteration pairs a
/// DMTM resolution with an MSDN level; longer steps mean fewer iterations
/// over coarser-grained jumps.
///
/// DMTM resolutions are fractions of the original vertex count; values
/// above `1.0` select the pathnet (`2.0` = one Steiner point per edge, the
/// paper's "200 %" level where `dN = dS` by their definition).
#[derive(Debug, Clone, PartialEq)]
pub struct StepSchedule {
    /// DMTM resolution per iteration.
    pub dmtm: Vec<f64>,
    /// MSDN level *index* (into [`Mr3Config::msdn_levels`]) per iteration.
    pub msdn: Vec<usize>,
    /// Human-readable name ("s=1" etc.).
    pub name: &'static str,
}

impl StepSchedule {
    /// s = 1: DMTM 0.5, 25, 50, 75, 100, 200 %; MSDN 25, 37.5, 50, 75, 100 %.
    pub fn s1() -> Self {
        Self {
            dmtm: vec![0.005, 0.25, 0.5, 0.75, 1.0, 2.0],
            msdn: vec![0, 1, 2, 3, 4, 4],
            name: "s=1",
        }
    }

    /// s = 2: DMTM 0.5, 50, 100, 200 %; MSDN 25, 50, 100 %.
    pub fn s2() -> Self {
        Self { dmtm: vec![0.005, 0.5, 1.0, 2.0], msdn: vec![0, 2, 4, 4], name: "s=2" }
    }

    /// s = 3: DMTM 0.5, 100, 200 %; MSDN 25, 100 % — "less multiresolution",
    /// simulating a traditional filter-and-refine jump to full resolution.
    pub fn s3() -> Self {
        Self { dmtm: vec![0.005, 1.0, 2.0], msdn: vec![0, 4, 4], name: "s=3" }
    }

    /// Number of iterations.
    pub fn len(&self) -> usize {
        self.dmtm.len()
    }

    /// Whether it holds nothing.
    pub fn is_empty(&self) -> bool {
        self.dmtm.is_empty()
    }

    /// MSDN level index for iteration `i` (clamped to the last entry).
    pub fn msdn_level(&self, i: usize) -> usize {
        self.msdn[i.min(self.msdn.len() - 1)]
    }
}

/// Configuration of the shared process-wide cut cache (DMTM front data
/// resident per lattice tile, MSDN crossing lines resident per line,
/// shared across concurrent queries).
///
/// Results do not depend on the budget: fetch regions are canonicalized
/// (padded by `pad_tiles` and snapped to a `tiles × tiles` lattice), and
/// cuts derived from resident units are byte-equal to freshly extracted
/// ones, so the cache only removes repeated work.
#[derive(Debug, Clone, PartialEq)]
pub struct CutCacheConfig {
    /// Total resident-weight budget in approximate bytes, split 3:1
    /// between the DMTM front cache and the MSDN line cache.
    pub capacity_bytes: usize,
    /// Tiles per side of the region-canonicalization lattice; one tile at
    /// one resolution step is the DMTM residency unit.
    pub tiles: usize,
    /// Loading-radius hysteresis: fetch regions are padded by this many
    /// tiles before snapping, so repeat traffic around a hot spot lands
    /// inside already-resident tiles.
    pub pad_tiles: f64,
}

impl Default for CutCacheConfig {
    fn default() -> Self {
        Self { capacity_bytes: 64 << 20, tiles: 16, pad_tiles: 0.5 }
    }
}

/// Knobs of the MR3 engine.
#[derive(Debug, Clone)]
pub struct Mr3Config {
    /// The schedule.
    pub schedule: StepSchedule,
    /// MSDN resolution levels to materialise (ascending fractions).
    pub msdn_levels: Vec<f64>,
    /// Master switch for integrated I/O regions (Fig. 9's experiment).
    pub integrated_io: bool,
    /// Prune search regions to the ellipse of foci (q, candidate) with
    /// constant = current upper bound (§4.2.1).
    pub ellipse_prune: bool,
    /// Restrict upper-bound Dijkstra to the corridor of the previous
    /// round's path ("selectively refined search region", §4.2.1).
    pub corridor_refinement: bool,
    /// Use the corridor-restricted dummy lower bound before a full one
    /// (§4.2.2).
    pub dummy_lower_bound: bool,
    /// Unused: it sized the buffer pool that each query's own page window
    /// replaced. Kept only because the frozen benchmark harness passes it
    /// on (`probes.rs`, `write_mix.rs`; ROADMAP item 11).
    pub pool_pages: usize,
    /// Steiner points per edge for the pathnet (>100 %) level.
    pub pathnet_steiner: usize,
    /// MSDN plane spacing override, metres (`None` = mean edge length).
    pub plane_spacing: Option<f64>,
    /// Shared cut cache (process-wide materialized-cut reuse).
    pub cut_cache: CutCacheConfig,
}

impl Default for Mr3Config {
    fn default() -> Self {
        Self {
            schedule: StepSchedule::s1(),
            msdn_levels: vec![0.25, 0.375, 0.5, 0.75, 1.0],
            integrated_io: true,
            ellipse_prune: true,
            corridor_refinement: true,
            dummy_lower_bound: true,
            pool_pages: 256,
            pathnet_steiner: 1,
            plane_spacing: None,
            cut_cache: CutCacheConfig::default(),
        }
    }
}

impl Mr3Config {
    /// With schedule.
    pub fn with_schedule(mut self, schedule: StepSchedule) -> Self {
        self.schedule = schedule;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_match_paper_listing() {
        let s1 = StepSchedule::s1();
        assert_eq!(s1.dmtm, vec![0.005, 0.25, 0.5, 0.75, 1.0, 2.0]);
        assert_eq!(s1.len(), 6);
        let s2 = StepSchedule::s2();
        assert_eq!(s2.dmtm, vec![0.005, 0.5, 1.0, 2.0]);
        let s3 = StepSchedule::s3();
        assert_eq!(s3.dmtm, vec![0.005, 1.0, 2.0]);
        // All schedules start at 0.5 % and end at the pathnet.
        for s in [&s1, &s2, &s3] {
            assert_eq!(s.dmtm[0], 0.005);
            assert_eq!(*s.dmtm.last().unwrap(), 2.0);
        }
    }

    #[test]
    fn msdn_level_clamps() {
        let s = StepSchedule::s2();
        assert_eq!(s.msdn_level(0), 0);
        assert_eq!(s.msdn_level(2), 4);
        assert_eq!(s.msdn_level(99), 4);
    }

    #[test]
    fn default_config_is_fully_enabled() {
        let c = Mr3Config::default();
        assert!(c.integrated_io && c.ellipse_prune && c.corridor_refinement && c.dummy_lower_bound);
        assert_eq!(c.msdn_levels.len(), 5);
    }
}
