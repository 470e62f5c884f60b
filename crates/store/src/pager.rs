//! The page store and its per-query read ledger.
//!
//! A [`Pager`] owns every page of the simulated database. Every page a
//! query asks for is a *logical read*; the first time a query window is
//! served a page it is a *physical read* (the paper's "disk pages
//! accessed"), and every later ask for it in the same window is a free
//! hit. Writes happen at structure-build time and are tracked separately
//! — the evaluation only ever measures read traffic of queries.
//!
//! Every page carries a [`StructureTag`] assigned at allocation time (see
//! [`Pager::tag_scope`]), so read traffic is attributable per on-disk
//! structure — the DMTM unit runs, the MSDN heap files, and so on — both
//! over the pager's lifetime and per query.
//!
//! # Windows
//!
//! Each event is charged into a process-wide row (`lifetime_*`,
//! [`Pager::stall_ns`], [`Pager::fault_stats`]) and the calling thread's
//! window, which [`Pager::reset_stats`] opens empty and the other readers
//! read. A window also holds the set of pages it has been served, so a
//! query running on one thread charges each page physically at most once,
//! whatever other threads read meanwhile: its reset opens an exact
//! ledger. Residency across queries is the cut caches' job
//! ([`SingleFlightCache`](crate::SingleFlightCache)); the pager keeps no
//! shared copy of any page.
//!
//! * **One read path** — [`Pager::with_pages`] takes a sorted page set,
//!   reads every page new to the window and pays **one** stall for the
//!   whole batch, modelling overlapped disk requests (the per-page
//!   `physical_reads` are still charged individually, so the page-access
//!   metric is unchanged; only wall-clock time improves).
//!   [`Pager::with_page`] is a batch of one. Every page's bytes stay in
//!   the page store, so there is no page latch and no mutex on the hit
//!   path (only the page store's read lock, for the page's tag): two
//!   threads that need the same page both read it, each in its own batch
//!   and window, and their stalls overlap.
//!
//! # Failure model
//!
//! The physical read path returns [`StoreResult`] instead of panicking:
//!
//! * every page keeps a [`page_checksum`] in a pager-maintained frame
//!   sidecar, recomputed on write and verified on every physical read —
//!   corrupt bytes are never admitted to a window or served to a caller
//!   (any change inside one aligned 8-byte word, so any bit flip, is
//!   always detected);
//! * an optional, seeded [`FaultInjector`] decides per read *attempt*
//!   whether it faults (transient, permanent, bit flip, latency, panic);
//! * transient faults (including checksum failures from injected bit
//!   flips) are retried with bounded backoff per [`RetryPolicy`]; when
//!   the budget is exhausted a typed [`StoreError`] surfaces;
//! * a failed page is not admitted to the window, the healthy pages of
//!   its batch are, and a panicking reader holds nothing another reader
//!   waits on.
//!
//! Failed attempts are **not** physical reads: the paper's page-access
//! metric counts only successfully served pages, so a fault-free and a
//! transiently-faulty run report identical page counts. Retry traffic is
//! tracked separately in [`FaultStats`].

use crate::error::{StoreError, StoreResult};
use crate::fault::{FaultInjector, FaultKind, FaultStats, RetryPolicy};
use crate::page::{PageId, PAGE_SIZE};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak,
};
use std::time::Duration;

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One xxHash64 round. For a fixed `acc` it is a bijection in `w`, and for
/// a fixed `w` a bijection in `acc`: the multipliers are odd (invertible
/// mod 2⁶⁴), and add and rotate are invertible.
#[inline(always)]
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

/// Absorb one 64-bit value into the running sum; a bijection in `h` for a
/// fixed `v` and in `v` for a fixed `h` (xor of a bijection of `v`, then
/// an odd multiply and an add).
#[inline(always)]
fn absorb(h: u64, v: u64) -> u64 {
    (h ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4)
}

/// The store's one checksum: page sidecars and WAL record CRCs. A
/// word-wide, xxHash64-style sum — four independent lanes of the round
/// `acc = rotl(acc + w·P2, 31)·P1` over the 8-byte little-endian words of
/// each 32-byte stripe, the lanes then absorbed one by one after the input
/// length, the remaining whole words next, and the byte tail last as one
/// zero-padded word. Word-wide with independent lanes because every
/// physical read pays it: ≈ 0.75 µs per 8 KiB page on a 2-core Xeon
/// host, where a byte-serial sum with one dependent multiply per byte
/// costs ≈ 11.5 µs.
///
/// **Detection guarantee:** a change confined to one aligned 8-byte word
/// of the input — so any single-bit flip and any single-byte change —
/// always changes the sum. Every step the word passes through is a
/// bijection in that word with everything else fixed, and every later
/// step is a bijection in the state it changed, so two inputs differing
/// in that word alone can never meet. (The padded tail word is injective
/// because the length is already absorbed.) It is not a cryptographic
/// hash: changes spanning several words are caught only with high
/// probability.
pub fn page_checksum(bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("an 8-byte word"));
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let stripes = bytes.chunks_exact(32);
    let rest = stripes.remainder();
    for stripe in stripes {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, word(w));
        }
    }
    let mut h = lanes.into_iter().fold(P5.wrapping_add(bytes.len() as u64), absorb);
    let words = rest.chunks_exact(8);
    let tail = words.remainder();
    for w in words {
        h = absorb(h, word(w));
    }
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        h = absorb(h, u64::from_le_bytes(padded));
    }
    // Final avalanche: xor-shifts and odd multiplies, each invertible.
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Which on-disk structure a page belongs to. Assigned when the page is
/// allocated (inside a [`Pager::tag_scope`]) and fixed for the page's
/// lifetime; all subsequent traffic on the page is attributed to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum StructureTag {
    /// The multi-resolution terrain model's unit runs.
    Dmtm,
    /// The surface-distance network's per-(axis, level) heap files.
    Msdn,
    /// A generic heap file not owned by a named structure.
    Heap,
    /// The Dxy R-tree (kept for attribution symmetry: the in-memory
    /// R-tree counts its own node accesses rather than paging through
    /// the pager, but traces report it under this tag).
    Rtree,
    /// Pages allocated outside any tag scope.
    #[default]
    Other,
}

impl StructureTag {
    /// Number of distinct tags (array-index domain).
    pub const COUNT: usize = 5;

    /// All tags, in index order.
    pub const ALL: [StructureTag; Self::COUNT] = [
        StructureTag::Dmtm,
        StructureTag::Msdn,
        StructureTag::Heap,
        StructureTag::Rtree,
        StructureTag::Other,
    ];

    /// Stable lower-case name (used as the `structure` field of trace
    /// `io` events).
    pub fn name(self) -> &'static str {
        match self {
            StructureTag::Dmtm => "dmtm",
            StructureTag::Msdn => "msdn",
            StructureTag::Heap => "heap",
            StructureTag::Rtree => "rtree",
            StructureTag::Other => "other",
        }
    }

    fn idx(self) -> usize {
        match self {
            StructureTag::Dmtm => 0,
            StructureTag::Msdn => 1,
            StructureTag::Heap => 2,
            StructureTag::Rtree => 3,
            StructureTag::Other => 4,
        }
    }
}

/// Read/write traffic counters. In a window, `physical_reads` counts the
/// distinct pages it was served; over the lifetime, the sum of every
/// window's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages fetched from "disk": each page's first serving in a window.
    pub physical_reads: u64,
    /// All page read requests, hit or miss.
    pub logical_reads: u64,
    /// Pages written (build time).
    pub writes: u64,
}

impl IoStats {
    /// Reads of a page the window had already been served. Saturates at 0
    /// for the lifetime readers: their counters are loaded one by one
    /// while other threads charge them.
    pub fn hits(&self) -> u64 {
        self.logical_reads.saturating_sub(self.physical_reads)
    }
}

/// How much the read batching saved, in the calling thread's window or
/// over the pager's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConcurrencyStats {
    /// Misses that did not pay their own stall: the members beyond the
    /// first of each [`Pager::with_pages`] batch's served misses.
    pub coalesced_misses: u64,
}

/// Page contents and allocation metadata. Mutated only at build time
/// (alloc / write / tag scopes); queries take the read side.
#[derive(Debug)]
struct PageStore {
    pages: Vec<Box<[u8]>>,
    /// [`page_checksum`] per page (the pager-maintained frame sidecar),
    /// parallel to `pages`. Recomputed on write, verified on every
    /// physical read.
    sums: Vec<u64>,
    /// Structure tag per page, parallel to `pages`.
    tags: Vec<StructureTag>,
    /// Tag applied to new allocations (see [`Pager::tag_scope`]).
    alloc_tag: StructureTag,
}

// Columns of the event table, one per event the pager counts; the three
// page events take one column per structure tag (`+ tag index`).
const TAGS: usize = StructureTag::COUNT;
const LOGICAL: usize = 0;
const PHYSICAL: usize = TAGS;
const WRITES: usize = 2 * TAGS;
const COALESCED: usize = 3 * TAGS;
const STALLED_BATCHES: usize = COALESCED + 1;
/// Wall-clock nanoseconds stalled: simulated disk stalls, injected read
/// latency and retry backoff.
const STALL_NS: usize = COALESCED + 2;
const INJECTED: usize = COALESCED + 3;
const RETRIES: usize = COALESCED + 4;
const EXHAUSTED: usize = COALESCED + 5;
const CHECKSUM: usize = COALESCED + 6;
const PERMANENT: usize = COALESCED + 7;
const EVENTS: usize = COALESCED + 8;

type Row = [u64; EVENTS];
type Totals = [AtomicU64; EVENTS];

/// One thread's window on one pager: its row of the event table and the
/// pages it has been served, a bitset over page ids grown on demand.
struct Window {
    row: Row,
    served: Vec<u64>,
}

impl Window {
    fn has_served(&self, page: u64) -> bool {
        self.served.get((page / 64) as usize).is_some_and(|w| w >> (page % 64) & 1 == 1)
    }

    fn mark_served(&mut self, page: u64) {
        let word = (page / 64) as usize;
        if word >= self.served.len() {
            self.served.resize(word + 1, 0);
        }
        self.served[word] |= 1 << (page % 64);
    }
}

thread_local! {
    /// This thread's window on each live pager it has used, keyed by the
    /// pager's process-wide row (held weakly).
    static WINDOWS: RefCell<Vec<(Weak<Totals>, Window)>> = const { RefCell::new(Vec::new()) };
}

/// The page traffic of `row` over the tag indices `tags`.
fn io_of(row: &Row, tags: std::ops::Range<usize>) -> IoStats {
    let sum = |col: usize| tags.clone().map(|t| row[col + t]).sum();
    IoStats { physical_reads: sum(PHYSICAL), logical_reads: sum(LOGICAL), writes: sum(WRITES) }
}

fn concurrency(row: &Row) -> ConcurrencyStats {
    ConcurrencyStats { coalesced_misses: row[COALESCED] }
}

/// One structure's share of a [`Pager::read_into`] batch: the pages it
/// needs and where their bytes go.
pub trait PageSink {
    /// The pages to read, ascending, each once.
    fn pages(&self) -> &[PageId];
    /// The bytes of one of [`pages`](Self::pages), handed over in
    /// ascending page order.
    fn feed(&mut self, page: PageId, bytes: &[u8]);
}

/// The simulated disk: a page allocator, page contents, and I/O
/// statistics.
#[derive(Debug)]
pub struct Pager {
    store: RwLock<PageStore>,
    /// The process-wide row of the event table (see [`Pager::charge`]).
    events: Arc<Totals>,
    /// Wall-clock penalty per read batch that misses, in nanoseconds
    /// (zero by default). Slept with *no* pager locks held so concurrent
    /// reads overlap their stalls — the I/O-bound regime the paper's disk
    /// numbers imply.
    read_stall_ns: AtomicU64,
    /// Optional deterministic fault source, consulted per read attempt.
    fault: RwLock<Option<FaultInjector>>,
    /// Retry budget for transient faults.
    retry: Mutex<RetryPolicy>,
}

/// Recover a mutex guard even when a holder panicked: every critical
/// section in this module leaves the guarded data consistent at all times
/// (single field updates), so lock poisoning carries no information here
/// and must not take the whole pager down with the panicking thread.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Pager {
    fn store_read(&self) -> RwLockReadGuard<'_, PageStore> {
        self.store.read().unwrap_or_else(|e| e.into_inner())
    }

    fn store_write(&self) -> RwLockWriteGuard<'_, PageStore> {
        self.store.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// Restores the pager's allocation tag when dropped; see
/// [`Pager::tag_scope`].
#[derive(Debug)]
pub struct TagScope<'p> {
    pager: &'p Pager,
    previous: StructureTag,
}

impl Drop for TagScope<'_> {
    fn drop(&mut self) {
        self.pager.store_write().alloc_tag = self.previous;
    }
}

impl Pager {
    /// Create an empty pager. The argument is ignored: it sized the
    /// buffer pool a query window's page set replaced, and stays only
    /// because the frozen benchmark harness calls `Pager::new(usize)`
    /// (ROADMAP item 11).
    pub fn new(_pool_pages: usize) -> Self {
        Self {
            store: RwLock::new(PageStore {
                pages: Vec::new(),
                sums: Vec::new(),
                tags: Vec::new(),
                alloc_tag: StructureTag::Other,
            }),
            events: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
            read_stall_ns: AtomicU64::new(0),
            fault: RwLock::new(None),
            retry: Mutex::new(RetryPolicy::default()),
        }
    }

    /// Make every read batch that reads a page new to its window cost `stall` of
    /// real wall-clock time — once per [`with_pages`](Self::with_pages)
    /// call, however many misses it serves — simulating the seek+transfer
    /// latency of the disk the paper models. The sleep happens with no
    /// pager locks held, so reads on other threads (and their stalls)
    /// overlap exactly as overlapping disk requests would.
    /// `Duration::ZERO` (the default) disables it.
    pub fn set_read_stall(&self, stall: Duration) {
        self.read_stall_ns.store(stall.as_nanos().min(u128::from(u64::MAX)) as u64, Relaxed);
    }

    fn read_stall(&self) -> Duration {
        Duration::from_nanos(self.read_stall_ns.load(Relaxed))
    }

    /// Charge `n` events of column `col` into the process-wide row and the
    /// calling thread's window: an atomic add and a thread-local one.
    fn charge(&self, col: usize, n: u64) {
        self.events[col].fetch_add(n, Relaxed);
        self.with_window(|w| w.row[col] += n);
    }

    /// Run `f` on the calling thread's window on this pager, opening it
    /// empty on first use.
    fn with_window<R>(&self, f: impl FnOnce(&mut Window) -> R) -> R {
        WINDOWS.with_borrow_mut(|windows| {
            let key = Arc::as_ptr(&self.events);
            let at = windows.iter().position(|(p, _)| std::ptr::eq(p.as_ptr(), key));
            let at = at.unwrap_or_else(|| {
                // Dropped pagers' windows go; their weak keys kept the
                // addresses from being reused until now.
                windows.retain(|(p, _)| p.strong_count() > 0);
                let empty = Window { row: [0; EVENTS], served: Vec::new() };
                windows.push((Arc::downgrade(&self.events), empty));
                windows.len() - 1
            });
            f(&mut windows[at].1)
        })
    }

    /// The calling thread's window.
    fn window(&self) -> Row {
        self.with_window(|w| w.row)
    }

    /// The process-wide row.
    fn lifetime(&self) -> Row {
        std::array::from_fn(|col| self.events[col].load(Relaxed))
    }

    /// Add a stalled wall-clock interval to the stall clocks.
    fn charge_stall(&self, d: Duration) {
        self.charge(STALL_NS, d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Wall-clock nanoseconds every thread spent stalled in the pager —
    /// simulated disk stalls, injected latency and retry backoff — since
    /// construction. Process-wide and monotonic: [`Pager::reset_stats`]
    /// does not clear it.
    pub fn stall_ns(&self) -> u64 {
        self.events[STALL_NS].load(Relaxed)
    }

    /// The part of [`stall_ns`](Self::stall_ns) this thread spent since its
    /// last [`reset_stats`](Self::reset_stats): its own stall alone.
    pub fn window_stall_ns(&self) -> u64 {
        self.with_window(|w| w.row[STALL_NS])
    }

    /// Install (or with `None` remove) the deterministic fault source
    /// consulted on every physical read attempt.
    pub fn set_fault_injector(&self, injector: Option<FaultInjector>) {
        *self.fault.write().unwrap_or_else(|e| e.into_inner()) = injector;
    }

    /// Set the retry budget for transient read faults.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *lock_recover(&self.retry) = policy;
    }

    /// The retry budget in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        *lock_recover(&self.retry)
    }

    /// Fault and retry counters of every thread, cumulative since
    /// construction ([`Pager::reset_stats`] does not clear them).
    pub fn fault_stats(&self) -> FaultStats {
        let row = self.lifetime();
        FaultStats {
            injected: row[INJECTED],
            retries: row[RETRIES],
            exhausted: row[EXHAUSTED],
            checksum_failures: row[CHECKSUM],
            permanent_failures: row[PERMANENT],
        }
    }

    /// Attribute allocations to `tag` until the returned guard is dropped
    /// (the previous tag is then restored, so scopes nest):
    ///
    /// ```
    /// # use sknn_store::{Pager, StructureTag};
    /// let pager = Pager::new(8);
    /// let dmtm_page = {
    ///     let _scope = pager.tag_scope(StructureTag::Dmtm);
    ///     pager.alloc() // tagged Dmtm
    /// };
    /// assert_eq!(pager.tag_of(dmtm_page), StructureTag::Dmtm);
    /// ```
    pub fn tag_scope(&self, tag: StructureTag) -> TagScope<'_> {
        let previous = std::mem::replace(&mut self.store_write().alloc_tag, tag);
        TagScope { pager: self, previous }
    }

    /// Allocate a fresh zeroed page, tagged with the active scope's tag.
    pub fn alloc(&self) -> PageId {
        self.alloc_run(1)
    }

    /// Allocate `n` fresh zeroed pages with consecutive ids under one
    /// store lock, tagged with the active scope's tag, and return the
    /// first: the run is `first..first + n` even while other threads
    /// allocate.
    pub fn alloc_run(&self, n: usize) -> PageId {
        static ZERO_PAGE_SUM: OnceLock<u64> = OnceLock::new();
        let zero_sum = *ZERO_PAGE_SUM.get_or_init(|| page_checksum(&[0; PAGE_SIZE]));
        let mut store = self.store_write();
        let first = PageId(store.pages.len() as u64);
        let tag = store.alloc_tag;
        for _ in 0..n {
            store.sums.push(zero_sum);
            store.pages.push(vec![0u8; PAGE_SIZE].into_boxed_slice());
            store.tags.push(tag);
        }
        first
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> usize {
        self.store_read().pages.len()
    }

    /// The structure a page was allocated under.
    pub fn tag_of(&self, id: PageId) -> StructureTag {
        self.store_read().tags[id.0 as usize]
    }

    /// Overwrite bytes within a page. Counts one write and refreshes the
    /// page's checksum. Structures are built once, then queried.
    pub fn write(&self, id: PageId, offset: usize, bytes: &[u8]) {
        assert!(offset + bytes.len() <= PAGE_SIZE, "write past page end");
        let mut store = self.store_write();
        store.pages[id.0 as usize][offset..offset + bytes.len()].copy_from_slice(bytes);
        store.sums[id.0 as usize] = page_checksum(&store.pages[id.0 as usize]);
        let t = store.tags[id.0 as usize].idx();
        drop(store);
        self.charge(WRITES + t, 1);
    }

    /// Flip one bit of a page *without* refreshing its checksum — latent
    /// media corruption, for fault drills and tests. The next physical
    /// read of the page fails verification with
    /// [`StoreError::Checksum`]; a window that was already served the page
    /// keeps hitting it (the page was verified when that window read it).
    pub fn corrupt_byte(&self, id: PageId, offset: usize) {
        assert!(offset < PAGE_SIZE, "corrupt_byte past page end");
        self.store_write().pages[id.0 as usize][offset] ^= 0x01;
    }

    /// Verify a page's bytes against its checksum sidecar. Failure means
    /// the stored bytes themselves are corrupt — rereading cannot help,
    /// so the error is surfaced without retry.
    fn verify_page(&self, page: u64) -> StoreResult<()> {
        let store = self.store_read();
        let stored = store.sums[page as usize];
        let computed = page_checksum(&store.pages[page as usize]);
        drop(store);
        if computed == stored {
            Ok(())
        } else {
            Err(StoreError::Checksum { page, stored, computed })
        }
    }

    /// A miss's physical read of `page`: consult the fault injector with
    /// this read's own attempt number, verify the checksum, and retry
    /// transient failures within the [`RetryPolicy`]. On success the
    /// physical read is charged; the caller pays the stall and admits the
    /// page to the window.
    fn read_attempts(&self, page: u64, tag_idx: usize) -> StoreResult<()> {
        let policy = self.retry_policy();
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            if attempt > 1 {
                self.charge(RETRIES, 1);
                if policy.backoff > Duration::ZERO {
                    // Linear backoff, slept with no pager locks held.
                    let pause = policy.backoff * (attempt - 1);
                    std::thread::sleep(pause);
                    self.charge_stall(pause);
                }
            }
            let (fault, latency) = {
                let guard = self.fault.read().unwrap_or_else(|e| e.into_inner());
                match guard.as_ref() {
                    None => (None, Duration::ZERO),
                    Some(inj) => (inj.decide(page, attempt), inj.latency()),
                }
            };
            if fault.is_some() {
                self.charge(INJECTED, 1);
            }
            let outcome = match fault {
                None => self.verify_page(page),
                Some(FaultKind::Latency) => {
                    // A slow read, not a failed one.
                    std::thread::sleep(latency);
                    self.charge_stall(latency);
                    self.verify_page(page)
                }
                Some(FaultKind::BitFlip) => {
                    // The wire flipped a bit: the checksum the reader
                    // computes over the bytes it received disagrees with
                    // the sidecar. Detected before the page is admitted;
                    // retried like a transient fault.
                    let flip = {
                        let guard = self.fault.read().unwrap_or_else(|e| e.into_inner());
                        guard.as_ref().map_or(0, |inj| inj.flip_offset(page, PAGE_SIZE))
                    };
                    let store = self.store_read();
                    let stored = store.sums[page as usize];
                    let mut received = store.pages[page as usize].to_vec();
                    drop(store);
                    received[flip] ^= 0x01;
                    let computed = page_checksum(&received);
                    Err(StoreError::Checksum { page, stored, computed })
                }
                Some(FaultKind::Transient) => {
                    Err(StoreError::TransientRead { page, attempts: attempt })
                }
                Some(FaultKind::Permanent) => Err(StoreError::PermanentRead { page }),
                Some(FaultKind::Panic) => {
                    panic!("injected fault: panic mid-read of page {page}")
                }
                // The write-side kind never reaches the read path (the
                // injector filters it out of `decide`); treat it as clean.
                Some(FaultKind::FsyncFault) => self.verify_page(page),
            };
            match outcome {
                Ok(()) => {
                    // Charged only on success: failed attempts are not
                    // pages served, and the paper metric must not drift
                    // under injected faults.
                    self.charge(PHYSICAL + tag_idx, 1);
                    return Ok(());
                }
                Err(e @ StoreError::PermanentRead { .. }) => {
                    self.charge(PERMANENT, 1);
                    return Err(e);
                }
                Err(e @ StoreError::Checksum { .. }) if fault.is_none() => {
                    // Latent corruption of the stored bytes: rereading
                    // returns the same bytes, so retrying is useless.
                    self.charge(CHECKSUM, 1);
                    return Err(e);
                }
                Err(e) => {
                    if matches!(e, StoreError::Checksum { .. }) {
                        self.charge(CHECKSUM, 1);
                    }
                    if attempt > policy.max_retries {
                        self.charge(EXHAUSTED, 1);
                        return Err(match e {
                            StoreError::TransientRead { page, .. } => {
                                StoreError::TransientRead { page, attempts: attempt }
                            }
                            other => other,
                        });
                    }
                }
            }
        }
    }

    /// Read a page through the window, handing its bytes to `f`: a
    /// [`with_pages`](Self::with_pages) batch of one.
    ///
    /// `f` runs under the store's read lock; it must not allocate or
    /// write pages. Errors surface as [`StoreError`] without running `f`.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> StoreResult<R> {
        let (mut f, mut out) = (Some(f), None);
        self.with_pages(&[id], |_, bytes| out = f.take().map(|f| f(bytes)))?;
        Ok(out.expect("with_pages hands over every page it was asked for"))
    }

    /// Read a batch of pages through the calling thread's window, handing
    /// each page's bytes to `f` in the given order.
    ///
    /// `ids` must be sorted ascending with no duplicates (asserted) — the
    /// callers coalesce and sort their page sets.
    ///
    /// Every page costs one `logical_read`. A page the window was already
    /// served is a hit: no verify, no stall. Every other page is a miss,
    /// read and verified, and once served it costs one `physical_read` and
    /// joins the window — the paper's page-access metric is identical to a
    /// [`with_page`](Self::with_page) loop. What changes is wall-clock
    /// time: every miss of the batch is read, then the batch pays a
    /// **single** overlapped stall (like a queued batch of disk requests),
    /// with the served misses beyond the first counted as
    /// `coalesced_misses`.
    ///
    /// On a read failure the first error is returned, every healthy miss
    /// of the batch still joins the window, the failed page does not, and
    /// `f` is not called for any page.
    pub fn with_pages(&self, ids: &[PageId], mut f: impl FnMut(PageId, &[u8])) -> StoreResult<()> {
        assert!(
            ids.windows(2).all(|w| w[0].0 < w[1].0),
            "with_pages requires sorted, de-duplicated page ids"
        );
        // One tag pass under one store guard, then the logical charges and
        // the served-set test in one window borrow.
        let mut misses: Vec<(u64, usize)> = {
            let store = self.store_read();
            ids.iter().map(|id| (id.0, store.tags[id.0 as usize].idx())).collect()
        };
        let mut logical = [0u64; TAGS];
        for &(_, t) in &misses {
            logical[t] += 1;
        }
        self.with_window(|w| {
            for (t, &n) in logical.iter().enumerate() {
                w.row[LOGICAL + t] += n;
            }
            misses.retain(|&(page, _)| !w.has_served(page));
        });
        for (t, &n) in logical.iter().enumerate().filter(|(_, &n)| n > 0) {
            self.events[LOGICAL + t].fetch_add(n, Relaxed);
        }
        // Faults and retries are per page; one stall covers every served
        // miss — the overlapped-I/O model.
        let mut first_err: Option<StoreError> = None;
        let mut served = 0u64;
        for (page, t) in misses {
            match self.read_attempts(page, t) {
                Ok(()) => {
                    served += 1;
                    self.with_window(|w| w.mark_served(page));
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if served > 0 {
            self.charge(COALESCED, served - 1);
            self.charge(STALLED_BATCHES, 1);
            let stall = self.read_stall();
            if stall > Duration::ZERO {
                std::thread::sleep(stall);
                self.charge_stall(stall);
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        let store = self.store_read();
        for &id in ids {
            f(id, &store.pages[id.0 as usize]);
        }
        Ok(())
    }

    /// Read the union of `sinks`' pages in **one**
    /// [`with_pages`](Self::with_pages) batch — so the misses of every
    /// structure the sinks read pay one stall between them — and hand each
    /// page's bytes, ascending, to every sink that asked for it. On a read
    /// failure no sink is fed and the first error is returned.
    pub fn read_into(&self, sinks: &mut [&mut dyn PageSink]) -> StoreResult<()> {
        let mut pages: Vec<PageId> = sinks.iter().flat_map(|s| s.pages().iter().copied()).collect();
        if pages.is_empty() {
            return Ok(());
        }
        pages.sort_unstable();
        pages.dedup();
        let mut next = vec![0usize; sinks.len()];
        self.with_pages(&pages, |page, bytes| {
            for (sink, next) in sinks.iter_mut().zip(&mut next) {
                if sink.pages().get(*next) == Some(&page) {
                    *next += 1;
                    sink.feed(page, bytes);
                }
            }
        })
    }

    /// Read batches this thread paid the simulated disk stall for since its
    /// last [`reset_stats`](Self::reset_stats): one per
    /// [`with_pages`](Self::with_pages) call that served a page new to the
    /// window, however many it served, and one per
    /// [`with_page`](Self::with_page) miss.
    /// Counted whether or not a stall is configured, so the count is the
    /// same on any host. Retry backoff is not a batch.
    pub fn stalled_batches(&self) -> u64 {
        self.window()[STALLED_BATCHES]
    }

    /// [`stalled_batches`](Self::stalled_batches) of every thread since
    /// construction.
    pub fn lifetime_stalled_batches(&self) -> u64 {
        self.events[STALLED_BATCHES].load(Relaxed)
    }

    /// This thread's traffic since its last
    /// [`reset_stats`](Self::reset_stats), all structures combined.
    pub fn stats(&self) -> IoStats {
        io_of(&self.window(), 0..TAGS)
    }

    /// Every thread's traffic since construction, untouched by
    /// [`reset_stats`](Self::reset_stats) — monotone, so a scraper may
    /// export it as counters.
    pub fn lifetime_stats(&self) -> IoStats {
        io_of(&self.lifetime(), 0..TAGS)
    }

    /// This thread's per-structure traffic for every tag with any, in
    /// [`StructureTag::ALL`] order.
    pub fn io_by_structure(&self) -> Vec<(StructureTag, IoStats)> {
        let row = self.window();
        StructureTag::ALL
            .into_iter()
            .map(|t| (t, io_of(&row, t.idx()..t.idx() + 1)))
            .filter(|(_, s)| *s != IoStats::default())
            .collect()
    }

    /// Always 0: a window evicts nothing. Kept only because the frozen
    /// benchmark harness reads it (ROADMAP item 11).
    pub fn evictions(&self) -> u64 {
        0
    }

    /// The share of this thread's reads since its last reset that hit a
    /// page the window had already been served (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let s = self.stats();
        if s.logical_reads == 0 {
            0.0
        } else {
            s.hits() as f64 / s.logical_reads as f64
        }
    }

    /// This thread's coalesced misses since its last reset.
    pub fn concurrency_stats(&self) -> ConcurrencyStats {
        concurrency(&self.window())
    }

    /// Every thread's concurrency counters since construction (monotone;
    /// see [`lifetime_stats`](Self::lifetime_stats)).
    pub fn lifetime_concurrency_stats(&self) -> ConcurrencyStats {
        concurrency(&self.lifetime())
    }

    /// Open the calling thread's window empty (e.g. at query start): its
    /// counters go to zero and its page set is emptied, so the windowed
    /// readers count only what this thread charges from here on and every
    /// page's next read is physical, while other threads' windows and the
    /// lifetime totals keep rising. Page tags persist — they describe what
    /// a page *is*, not traffic.
    pub fn reset_stats(&self) {
        self.with_window(|w| {
            w.row = [0; EVENTS];
            w.served.clear();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw_roundtrip() {
        let p = Pager::new(8);
        let a = p.alloc();
        let b = p.alloc();
        assert_ne!(a, b);
        p.write(a, 100, b"hello");
        p.write(b, 0, b"world");
        assert_eq!(&p.with_page(a, <[u8]>::to_vec).unwrap()[100..105], b"hello");
        assert_eq!(&p.with_page(b, <[u8]>::to_vec).unwrap()[..5], b"world");
    }

    /// Runs allocated from racing threads never interleave: every run is
    /// its own block of consecutive ids, tagged with its scope's tag.
    #[test]
    fn alloc_run_is_consecutive_under_racing_allocations() {
        let p = Pager::new(8);
        let _scope = p.tag_scope(StructureTag::Dmtm);
        let runs: Vec<(PageId, usize)> = std::thread::scope(|s| {
            let workers: Vec<_> = (1..=4usize)
                .map(|n| {
                    let p = &p;
                    s.spawn(move || (0..50).map(|_| (p.alloc_run(n), n)).collect::<Vec<_>>())
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
        });
        let mut owner = vec![None; p.num_pages()];
        for (i, &(first, n)) in runs.iter().enumerate() {
            for id in first.0..first.0 + n as u64 {
                assert_eq!(owner[id as usize].replace(i), None, "page {id} handed out twice");
                assert_eq!(p.tag_of(PageId(id)), StructureTag::Dmtm);
            }
        }
        assert!(owner.iter().all(Option::is_some));
        assert_eq!(p.num_pages(), 50 * (1 + 2 + 3 + 4));
    }

    #[test]
    fn hits_are_free_misses_are_charged() {
        let p = Pager::new(4);
        let ids: Vec<_> = (0..3).map(|_| p.alloc()).collect();
        p.reset_stats();
        for &id in &ids {
            p.with_page(id, |_| ()).unwrap();
        }
        assert_eq!(p.stats().physical_reads, 3);
        // Re-reading cached pages adds logical but not physical reads.
        for &id in &ids {
            p.with_page(id, |_| ()).unwrap();
        }
        let s = p.stats();
        assert_eq!(s.physical_reads, 3);
        assert_eq!(s.logical_reads, 6);
        assert_eq!(s.hits(), 3);
        assert_eq!(s.hits(), s.logical_reads - s.physical_reads);
    }

    /// A reset opens an empty window: a page this thread was served
    /// before it is read physically again, on any pager it holds.
    #[test]
    fn reset_stats_forces_cold_reads() {
        let p = Pager::new(8);
        let a = p.alloc();
        p.with_page(a, |_| ()).unwrap();
        p.reset_stats();
        p.with_page(a, |_| ()).unwrap();
        p.with_page(a, |_| ()).unwrap();
        assert_eq!((p.stats().logical_reads, p.stats().physical_reads), (2, 1));
    }

    #[test]
    #[should_panic(expected = "past page end")]
    fn write_past_end_panics() {
        let p = Pager::new(1);
        let a = p.alloc();
        p.write(a, PAGE_SIZE - 2, b"abc");
    }

    #[test]
    fn tag_scopes_nest_and_restore() {
        let p = Pager::new(8);
        let outside = p.alloc();
        let (dmtm_page, msdn_page) = {
            let _dmtm = p.tag_scope(StructureTag::Dmtm);
            let d = p.alloc();
            let m = {
                let _msdn = p.tag_scope(StructureTag::Msdn);
                p.alloc()
            };
            // Inner scope dropped: back to Dmtm.
            assert_eq!(p.tag_of(p.alloc()), StructureTag::Dmtm);
            (d, m)
        };
        assert_eq!(p.tag_of(outside), StructureTag::Other);
        assert_eq!(p.tag_of(dmtm_page), StructureTag::Dmtm);
        assert_eq!(p.tag_of(msdn_page), StructureTag::Msdn);
        // Scope fully unwound.
        assert_eq!(p.tag_of(p.alloc()), StructureTag::Other);
    }

    #[test]
    fn per_structure_attribution_sums_to_global() {
        let p = Pager::new(4);
        let dmtm: Vec<_> = {
            let _s = p.tag_scope(StructureTag::Dmtm);
            (0..3).map(|_| p.alloc()).collect()
        };
        let msdn: Vec<_> = {
            let _s = p.tag_scope(StructureTag::Msdn);
            (0..2).map(|_| p.alloc()).collect()
        };
        p.reset_stats();
        for &id in dmtm.iter().chain(&msdn).chain(&dmtm) {
            p.with_page(id, |_| ()).unwrap();
        }
        let global = p.stats();
        let per: Vec<_> = p.io_by_structure();
        let sum_phys: u64 = per.iter().map(|(_, s)| s.physical_reads).sum();
        let sum_logical: u64 = per.iter().map(|(_, s)| s.logical_reads).sum();
        assert_eq!(sum_phys, global.physical_reads);
        assert_eq!(sum_logical, global.logical_reads);
        // Each tag's own identity also holds.
        for (_, s) in &per {
            assert_eq!(s.hits(), s.logical_reads - s.physical_reads);
        }
        // 3 dmtm pages read twice: the second round hits.
        let of = |tag| per.iter().find(|(t, _)| *t == tag).map_or(IoStats::default(), |p| p.1);
        assert_eq!(
            (of(StructureTag::Dmtm).logical_reads, of(StructureTag::Dmtm).physical_reads),
            (6, 3)
        );
        assert_eq!(
            (of(StructureTag::Msdn).logical_reads, of(StructureTag::Msdn).physical_reads),
            (2, 2)
        );
        assert_eq!(of(StructureTag::Other), IoStats::default());
    }

    #[test]
    fn hit_rate_tracks_stats() {
        let p = Pager::new(4);
        let a = p.alloc();
        p.reset_stats();
        assert_eq!(p.hit_rate(), 0.0);
        p.with_page(a, |_| ()).unwrap(); // miss
        p.with_page(a, |_| ()).unwrap(); // hit
        p.with_page(a, |_| ()).unwrap(); // hit
        assert!((p.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn with_pages_matches_with_page_loop_counters() {
        let p = Pager::new(16);
        let ids: Vec<_> = (0..6).map(|_| p.alloc()).collect();
        p.reset_stats();
        p.with_pages(&ids, |_, _| ()).unwrap();
        let s = p.stats();
        assert_eq!(s.logical_reads, 6);
        assert_eq!(s.physical_reads, 6, "every cold page is still one physical read");
        // The 5 misses beyond the first shared the batch's single stall.
        assert_eq!(p.concurrency_stats().coalesced_misses, 5);
        // Re-batch in the same window: all hits, nothing coalesced.
        let mut seen = Vec::new();
        p.with_pages(&ids, |id, _| seen.push(id)).unwrap();
        assert_eq!(seen, ids, "pages visited in caller order");
        let s = p.stats();
        assert_eq!((s.logical_reads, s.physical_reads), (12, 6));
        assert_eq!(p.concurrency_stats().coalesced_misses, 5);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn with_pages_rejects_unsorted_ids() {
        let p = Pager::new(4);
        let a = p.alloc();
        let b = p.alloc();
        let _ = p.with_pages(&[b, a], |_, _| ());
    }

    /// A sink that records what it was fed.
    struct Recorder {
        pages: Vec<PageId>,
        fed: Vec<(PageId, u8)>,
    }

    impl PageSink for Recorder {
        fn pages(&self) -> &[PageId] {
            &self.pages
        }

        fn feed(&mut self, page: PageId, bytes: &[u8]) {
            self.fed.push((page, bytes[0]));
        }
    }

    /// Two sinks' overlapping page sets are read as their union, in one
    /// stalled batch, and each sink is fed exactly its own pages, in order;
    /// a warm re-read stalls nothing, and a failed one feeds no sink.
    #[test]
    fn read_into_feeds_each_sink_its_pages_in_one_stalled_batch() {
        let p = Pager::new(16);
        let ids: Vec<_> = (0..6u8)
            .map(|i| {
                let id = p.alloc();
                p.write(id, 0, &[i]);
                id
            })
            .collect();
        let sink =
            |at: &[usize]| Recorder { pages: at.iter().map(|&i| ids[i]).collect(), fed: vec![] };
        let (mut a, mut b) = (sink(&[0, 2, 3]), sink(&[1, 3, 5]));
        p.reset_stats();
        p.read_into(&mut [&mut a, &mut b]).unwrap();
        assert_eq!(a.fed, [(ids[0], 0), (ids[2], 2), (ids[3], 3)]);
        assert_eq!(b.fed, [(ids[1], 1), (ids[3], 3), (ids[5], 5)]);
        let s = p.stats();
        assert_eq!((s.logical_reads, s.physical_reads), (5, 5), "the shared page is read once");
        assert_eq!(p.stalled_batches(), 1);
        p.read_into(&mut [&mut a]).unwrap();
        assert_eq!(p.stalled_batches(), 1, "a warm batch pays no stall");
        p.with_page(ids[4], |_| ()).unwrap();
        assert_eq!(p.stalled_batches(), 2, "a with_page miss is a batch of its own");

        p.reset_stats();
        p.set_fault_injector(Some(FaultInjector::script().fail_page(
            ids[5].0,
            FaultKind::Permanent,
            None,
        )));
        let (mut a, mut b) = (sink(&[0, 2]), sink(&[5]));
        assert!(p.read_into(&mut [&mut a, &mut b]).is_err());
        assert!(a.fed.is_empty() && b.fed.is_empty(), "a failed batch feeds no sink");
    }

    #[test]
    fn read_stall_sleeps_on_miss_only() {
        use std::time::{Duration, Instant};
        let p = Pager::new(4);
        let a = p.alloc();
        p.reset_stats();
        p.set_read_stall(Duration::from_millis(20));
        let t = Instant::now();
        p.with_page(a, |_| ()).unwrap(); // miss: pays the stall
        assert!(t.elapsed() >= Duration::from_millis(20));
        let t = Instant::now();
        p.with_page(a, |_| ()).unwrap(); // hit: must not sleep
        assert!(t.elapsed() < Duration::from_millis(20));
    }

    /// The stall is slept with no pager lock held: a second thread must be
    /// able to get a hit while the first is mid-stall.
    #[test]
    fn read_stall_does_not_hold_the_lock() {
        use std::time::{Duration, Instant};
        let p = Pager::new(4);
        let a = p.alloc();
        let b = p.alloc();
        p.with_page(b, |_| ()).unwrap(); // b served to this window
        p.set_read_stall(Duration::from_millis(50));
        std::thread::scope(|s| {
            s.spawn(|| p.with_page(a, |_| ()).unwrap()); // miss: stalls 50 ms
            std::thread::sleep(Duration::from_millis(10)); // let it enter the stall
            let t = Instant::now();
            p.with_page(b, |_| ()).unwrap(); // hit on another page
            assert!(t.elapsed() < Duration::from_millis(40), "hit blocked behind a stalling miss");
        });
    }

    /// `len` deterministic pseudo-random bytes.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        (0..len as u64).map(|i| crate::fault::splitmix64(seed ^ i.wrapping_mul(P1)) as u8).collect()
    }

    #[test]
    fn checksum_detects_every_single_bit_flip_of_a_page() {
        let mut page = noise(PAGE_SIZE, 1);
        let sum = page_checksum(&page);
        for bit in 0..PAGE_SIZE * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(page_checksum(&page), sum, "flip of bit {bit} went undetected");
            page[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// Every value of a byte at the edges of words, stripes and halves.
    #[test]
    fn checksum_detects_every_byte_change_at_word_edges() {
        let mut page = noise(PAGE_SIZE, 2);
        let sum = page_checksum(&page);
        for off in [0, 7, 8, 31, 32, 4095, 8191] {
            let orig = page[off];
            for delta in 1..=255u8 {
                page[off] = orig ^ delta;
                assert_ne!(page_checksum(&page), sum, "byte {off} ^ {delta:#04x} went undetected");
            }
            page[off] = orig;
        }
    }

    /// WAL bodies are short and leave a byte tail: a change at any offset
    /// of any length up to 100 (stripes, whole tail words, padded tail).
    #[test]
    fn checksum_detects_byte_changes_in_short_inputs() {
        for len in 0..=100 {
            let mut input = noise(len, 3 + len as u64);
            let sum = page_checksum(&input);
            for off in 0..len {
                for delta in [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF] {
                    input[off] ^= delta;
                    assert_ne!(page_checksum(&input), sum, "len {len} off {off} ^ {delta:#04x}");
                    input[off] ^= delta;
                }
            }
        }
    }

    /// Swapped words, within one stripe, between lanes and along one lane.
    #[test]
    fn checksum_detects_swapped_words() {
        let page = noise(PAGE_SIZE, 4);
        let sum = page_checksum(&page);
        let words = PAGE_SIZE / 8;
        for (i, j) in (0..words).flat_map(|i| [(i, (i + 1) % words), (i, (i + 4) % words)]) {
            let (a, b) = (i.min(j) * 8, i.max(j) * 8);
            let mut swapped = page.clone();
            if swapped[a..a + 8] == swapped[b..b + 8] {
                continue;
            }
            let (lo, hi) = swapped.split_at_mut(b);
            lo[a..a + 8].swap_with_slice(&mut hi[..8]);
            assert_ne!(page_checksum(&swapped), sum, "swap of words {i} and {j} went undetected");
        }
    }

    /// Pins the kernel: any change to it — constants, lane order, tail
    /// rule — changes these values and must be deliberate.
    #[test]
    fn checksum_known_answers() {
        let page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 31 % 251) as u8).collect();
        assert_eq!(page_checksum(&[]), 0xc162_0d0a_2dca_a9d2);
        assert_eq!(page_checksum(&page), 0x3554_e1dd_7d4b_bf38);
        assert_eq!(page_checksum(b"surface k-NN"), 0xc589_6dfc_fae9_b51a);
    }

    #[test]
    fn checksum_tracks_writes() {
        let p = Pager::new(4);
        let a = p.alloc();
        p.write(a, 0, b"first");
        assert_eq!(&p.with_page(a, <[u8]>::to_vec).unwrap()[..5], b"first");
        p.write(a, 0, b"newer");
        p.reset_stats();
        // Re-verified on the cold read; the refreshed checksum matches.
        assert_eq!(&p.with_page(a, <[u8]>::to_vec).unwrap()[..5], b"newer");
    }

    #[test]
    fn latent_corruption_fails_cold_read_but_not_cached_hit() {
        let p = Pager::new(4);
        let a = p.alloc();
        p.write(a, 10, b"payload");
        p.with_page(a, |_| ()).unwrap(); // served to the window while healthy
        p.corrupt_byte(a, 11);
        // The window verified the page when it read it: hits still serve.
        p.with_page(a, |_| ()).unwrap();
        // A new window reads cold, re-verifies and refuses corrupt bytes.
        p.reset_stats();
        match p.with_page(a, |_| ()) {
            Err(StoreError::Checksum { page, stored, computed }) => {
                assert_eq!(page, a.0);
                assert_ne!(stored, computed);
            }
            other => panic!("expected checksum error, got {other:?}"),
        }
        // Failed attempts are not physical reads.
        p.reset_stats();
        let _ = p.with_page(a, |_| ());
        assert_eq!(p.stats().physical_reads, 0);
        assert_eq!(p.stats().logical_reads, 1);
    }
}
