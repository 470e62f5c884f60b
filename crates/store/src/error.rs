//! Typed storage errors.
//!
//! Every failure the physical read path can produce is enumerated here, so
//! callers (the MR3 engine above all) can decide *per kind* whether to
//! retry, degrade to coarser-resolution bounds, or give up with a typed
//! error — instead of the process dying in an `unwrap()`.

use std::fmt;

/// `Result` specialised to storage failures.
pub type StoreResult<T> = Result<T, StoreError>;

/// A failure on the physical read path.
///
/// The variants carry the page so errors stay attributable; they are
/// `Copy + Eq` so a caller can report and compare them freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The page read back does not match the checksum recorded when it was
    /// written: the bytes served by the "disk" are not the bytes stored.
    /// Detected before the page is admitted to the buffer pool, so corrupt
    /// data is never served to a caller.
    Checksum {
        /// Page whose verification failed.
        page: u64,
        /// Checksum recorded at write time.
        stored: u64,
        /// Checksum computed over the bytes read back.
        computed: u64,
    },
    /// A transient read fault persisted through the whole retry budget.
    TransientRead {
        /// Page whose read kept failing.
        page: u64,
        /// Read attempts performed (1 initial + retries).
        attempts: u32,
    },
    /// A permanent, non-retryable media error: retrying cannot help.
    PermanentRead {
        /// Page whose read failed.
        page: u64,
    },
    /// A WAL fsync failed: no pending log byte became durable, so the
    /// committing operation must abort and withdraw its records.
    FsyncFailed {
        /// LSN of the commit record whose fsync failed.
        lsn: u64,
    },
}

impl StoreError {
    /// Page the failure is attributed to. [`StoreError::FsyncFailed`] is
    /// not page-scoped and reports `u64::MAX`.
    pub fn page(&self) -> u64 {
        match *self {
            StoreError::Checksum { page, .. }
            | StoreError::TransientRead { page, .. }
            | StoreError::PermanentRead { page } => page,
            StoreError::FsyncFailed { .. } => u64::MAX,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StoreError::Checksum { page, stored, computed } => write!(
                f,
                "checksum mismatch on page {page}: stored {stored:#018x}, read back {computed:#018x}"
            ),
            StoreError::TransientRead { page, attempts } => {
                write!(f, "transient read fault on page {page} persisted through {attempts} attempts")
            }
            StoreError::PermanentRead { page } => {
                write!(f, "permanent read failure on page {page}")
            }
            StoreError::FsyncFailed { lsn } => {
                write!(f, "WAL fsync for commit lsn {lsn} failed; operation aborted")
            }
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_page() {
        let errs = [
            StoreError::Checksum { page: 7, stored: 1, computed: 2 },
            StoreError::TransientRead { page: 7, attempts: 4 },
            StoreError::PermanentRead { page: 7 },
        ];
        for e in errs {
            assert!(e.to_string().contains('7'), "{e}");
            assert_eq!(e.page(), 7);
        }
    }
}
