#![warn(missing_docs)]
//! Simulated disk storage with page-level I/O accounting.
//!
//! The paper's evaluation (§5) reports *disk page accesses* as a primary
//! cost metric: terrain structures (DMTM, MSDN) live in an Oracle database
//! used purely as a page store, with all indexes "implemented by us".
//! This crate reproduces that setup deterministically:
//!
//! * [`page`] — 8 KiB pages addressed by [`page::PageId`];
//! * [`pager`] — the page store and its per-thread windows; a page's
//!   first read in a query window is a *physical read* (the paper's "page
//!   accessed"), later reads in that window are free hits, and batched reads
//!   ([`pager::Pager::with_pages`], [`Pager::read_into`]) overlap their
//!   simulated stalls without changing the page counts;
//! * [`cache`] — the store's one single-flight mechanism: a process-wide
//!   object cache that loads each missing key once across threads (the
//!   DMTM and MSDN cut caches), read one way: a [`Claim`] over a
//!   request's asks (one key list per span or band), one
//!   [`Pager::read_into`] of the claimed keys' pages, a publish, then
//!   [`Claim::hand_out`], which gives each ask its values and its
//!   first-ask hit flag — the rule lives here, not in the callers;
//! * [`error`] / [`fault`] — the failure model: the physical read path
//!   returns typed [`StoreError`]s instead of panicking, every page is
//!   checksummed ([`page_checksum`], verified on each physical read), and
//!   a seeded deterministic [`FaultInjector`] can fail, corrupt, delay, or
//!   panic reads for resilience testing, with transient faults absorbed by
//!   a bounded [`RetryPolicy`];
//! * [`heapfile`] — the store's one record structure: bulk-built
//!   slotted-page heap files (SDN segments, DMTM node payloads), read in
//!   batches: the pages from [`Pager::with_pages`] or
//!   [`Pager::read_into`], walked by [`HeapFile::records`];
//! * [`wal`] — the checksummed, fsync-on-commit log that is the dynamic
//!   object set's only durable copy.
//!
//! All structures are in memory; "disk" is an accounting fiction — which is
//! exactly what makes page counts reproducible across runs and machines.

//! ```
//! use sknn_store::{HeapFile, Pager};
//!
//! let pager = Pager::new(16);
//! let records: Vec<String> = (0..1000).map(|k| format!("row-{k}")).collect();
//! let (file, rids) = HeapFile::build(&pager, &records);
//!
//! pager.reset_stats();
//! // The record id names the page: a cold read of record 42 reads only it.
//! let mut got = Vec::new();
//! pager
//!     .with_pages(&[rids[42].page], |page, buf| {
//!         HeapFile::records(page, buf, |rid, bytes| {
//!             if rid == rids[42] {
//!                 got = bytes.to_vec();
//!             }
//!         })
//!     })
//!     .unwrap();
//! assert_eq!(got, b"row-42");
//! assert_eq!(pager.stats().physical_reads, 1);
//! assert!(file.num_pages() > 1);
//! ```

pub mod cache;
pub mod error;
pub mod fault;
pub mod heapfile;
pub mod page;
pub mod pager;
pub mod wal;

pub use cache::{CacheGauges, CacheStats, Claim, SingleFlightCache, CACHE_SHARDS};
pub use error::{StoreError, StoreResult};
pub use fault::{FaultInjector, FaultKind, FaultProfile, FaultStats, RetryPolicy};
pub use heapfile::{HeapFile, RecordId};
pub use page::{PageId, PAGE_SIZE};
pub use pager::{
    page_checksum, ConcurrencyStats, IoStats, PageSink, Pager, StructureTag, TagScope,
};
pub use wal::{CrashImage, Lsn, RedoPlan, Wal, WalEntry, WalMark, WalRecord, WalStats};
