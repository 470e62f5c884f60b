//! Query-level fault absorption and graceful degradation.
//!
//! Storage faults that survive the pager's retry budget surface to the
//! ranking engine as [`StoreError`]s. MR3's bounds make a stronger
//! recovery possible than fail-the-query: every materialised resolution's
//! bounds are *valid* (coarser just means looser), so when a
//! finer-resolution DMTM or MSDN fetch fails permanently the ranking can
//! simply keep the last resolution's bounds and carry on. The query then
//! completes with a correct-by-bounds answer and a [`Degraded`] marker
//! explaining what was skipped.
//!
//! A per-query fault budget ([`FAULT_BUDGET`]) caps how much absorption
//! one query tolerates; past it, resolution escalation halts and the
//! fallible entry points ([`Mr3Engine::try_query`](crate::Mr3Engine::try_query))
//! return a typed [`QueryError`] instead of looping against dead media.

use sknn_store::StoreError;
use std::cell::RefCell;
use std::fmt;

/// Storage faults one query may absorb (degrading to the last
/// materialised resolution's bounds) before the fallible entry points
/// return [`QueryError::FaultBudgetExceeded`] instead.
pub const FAULT_BUDGET: usize = 16;

/// Marker that a query completed with valid but looser-than-scheduled
/// bounds because storage faults were absorbed along the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degraded {
    /// Ranking phase of the first absorbed fault (`"iter"` for a ranking
    /// iteration's read batch, `"pair"` for a pair estimate's).
    pub phase: &'static str,
    /// Number of storage faults absorbed during the query.
    pub faults: usize,
    /// Human-readable description of the first fault.
    pub reason: String,
}

impl fmt::Display for Degraded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degraded ({} faults, first in {} phase: {})",
            self.faults, self.phase, self.reason
        )
    }
}

/// Typed failure of a fallible query entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Absorbed storage faults exceeded the per-query budget: the media is
    /// failing faster than degradation can paper over.
    FaultBudgetExceeded {
        /// The configured budget.
        budget: usize,
        /// Faults absorbed before giving up.
        faults: usize,
        /// The fault that broke the budget.
        last: StoreError,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::FaultBudgetExceeded { budget, faults, last } => {
                write!(f, "query absorbed {faults} storage faults (budget {budget}); last: {last}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Per-query accumulator of absorbed storage faults.
///
/// Lives inside the query's ranking context (one per query per thread),
/// so interior mutability via `RefCell` is safe — a context never crosses
/// threads.
#[derive(Debug)]
pub(crate) struct FaultLog {
    budget: usize,
    events: RefCell<Vec<(&'static str, StoreError)>>,
}

impl FaultLog {
    /// An empty log with the given fault budget.
    pub fn new(budget: usize) -> Self {
        Self { budget, events: RefCell::new(Vec::new()) }
    }

    /// Record one absorbed fault.
    pub fn absorb(&self, phase: &'static str, err: StoreError) {
        self.events.borrow_mut().push((phase, err));
    }

    /// Faults absorbed so far.
    pub fn count(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether the budget is spent: refinement should halt and fallible
    /// entry points should return [`QueryError::FaultBudgetExceeded`].
    pub fn exceeded(&self) -> bool {
        self.count() > self.budget
    }

    /// The degradation marker for a completed query: `None` when the
    /// query ran fault-free.
    pub fn degraded(&self) -> Option<Degraded> {
        let events = self.events.borrow();
        let &(phase, first) = events.first()?;
        Some(Degraded { phase, faults: events.len(), reason: first.to_string() })
    }

    /// The typed error when the budget is exceeded, else `None`.
    pub fn error(&self) -> Option<QueryError> {
        if !self.exceeded() {
            return None;
        }
        let events = self.events.borrow();
        let &(_, last) = events.last().expect("exceeded implies non-empty");
        Some(QueryError::FaultBudgetExceeded { budget: self.budget, faults: events.len(), last })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_gates_error_but_not_degradation() {
        let log = FaultLog::new(2);
        assert!(log.degraded().is_none() && log.error().is_none());
        log.absorb("ub", StoreError::PermanentRead { page: 7 });
        log.absorb("lb", StoreError::PermanentRead { page: 8 });
        assert!(!log.exceeded());
        let d = log.degraded().unwrap();
        assert_eq!((d.phase, d.faults), ("ub", 2));
        assert!(d.reason.contains('7'));
        assert!(log.error().is_none());
        log.absorb("lb", StoreError::PermanentRead { page: 9 });
        assert!(log.exceeded());
        match log.error().unwrap() {
            QueryError::FaultBudgetExceeded { budget, faults, last } => {
                assert_eq!((budget, faults), (2, 3));
                assert_eq!(last, StoreError::PermanentRead { page: 9 });
            }
        }
    }
}
