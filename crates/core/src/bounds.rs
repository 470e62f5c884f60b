//! Distance ranges.
//!
//! MR3 never computes a surface distance exactly; every candidate carries
//! a range `[lb, ub]` bracketing its true surface distance. Ranges only
//! ever *tighten*: the engine clamps every new estimate against the best
//! seen, so ranges are monotone even where an individual estimator is not
//! (e.g. across non-nested SDN plane sets).

/// A bracketing interval for an unknown surface distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistRange {
    /// Lower bound.
    pub lb: f64,
    /// Upper bound.
    pub ub: f64,
}

impl DistRange {
    /// The vacuous range.
    pub fn unbounded() -> Self {
        Self { lb: 0.0, ub: f64::INFINITY }
    }

    /// Creates the value from its parts.
    pub fn new(lb: f64, ub: f64) -> Self {
        debug_assert!(lb <= ub + 1e-9, "inverted range [{lb}, {ub}]");
        Self { lb, ub }
    }

    /// Incorporate a new lower-bound estimate (keeps the larger).
    pub fn tighten_lb(&mut self, lb: f64) {
        if lb > self.lb {
            // Never raise lb past ub (floating error in independent
            // estimators); the midpoint of a collapsed range is still a
            // consistent distance estimate.
            self.lb = lb.min(self.ub);
        }
    }

    /// Incorporate a new upper-bound estimate (keeps the smaller).
    pub fn tighten_ub(&mut self, ub: f64) {
        if ub < self.ub {
            self.ub = ub.max(self.lb);
        }
    }

    /// Width of the range.
    pub fn width(&self) -> f64 {
        self.ub - self.lb
    }

    /// The paper's accuracy measure ε = lb/ub (Fig. 8), in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.ub <= 0.0 {
            1.0
        } else {
            (self.lb / self.ub).clamp(0.0, 1.0)
        }
    }

    /// Midpoint, a point estimate of the distance.
    pub fn estimate(&self) -> f64 {
        if self.ub.is_finite() {
            (self.lb + self.ub) * 0.5
        } else {
            self.lb
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tighten_is_monotone() {
        let mut r = DistRange::unbounded();
        r.tighten_lb(3.0);
        r.tighten_ub(10.0);
        assert_eq!(r, DistRange::new(3.0, 10.0));
        // Worse estimates are ignored.
        r.tighten_lb(2.0);
        r.tighten_ub(12.0);
        assert_eq!(r, DistRange::new(3.0, 10.0));
        // Better ones are kept.
        r.tighten_lb(5.0);
        r.tighten_ub(8.0);
        assert_eq!(r, DistRange::new(5.0, 8.0));
    }

    #[test]
    fn tighten_never_inverts() {
        let mut r = DistRange::new(4.0, 5.0);
        r.tighten_lb(6.0); // would cross ub
        assert!(r.lb <= r.ub);
        let mut r = DistRange::new(4.0, 5.0);
        r.tighten_ub(3.0);
        assert!(r.lb <= r.ub);
    }

    #[test]
    fn accuracy_and_estimate() {
        let r = DistRange::new(97.0, 100.0);
        assert!((r.accuracy() - 0.97).abs() < 1e-12);
        assert_eq!(r.estimate(), 98.5);
        assert_eq!(DistRange::new(0.0, 0.0).accuracy(), 1.0);
        let u = DistRange::unbounded();
        assert_eq!(u.accuracy(), 0.0);
        assert_eq!(u.estimate(), 0.0);
    }
}
