//! The object set's write-ahead log — its only durable copy.
//!
//! The write path's durability contract: every mutation appends one
//! logical [`WalRecord::Op`] record and a [`WalRecord::Commit`], then
//! fsyncs; only a successful fsync may publish the mutation. Recovery is
//! redo-only: scan the durable log, collect the committed transactions,
//! and replay their `Op` records in LSN order ([`Wal::redo_plan`]). There
//! is no undo — a failed fsync withdraws the operation's pending records
//! ([`Wal::truncate_pending`]), and records a crash left durable without
//! their `Commit` are cut off when the log is reopened
//! ([`RedoPlan::committed_len`]), so an uncommitted transaction never
//! reaches a later incarnation.
//!
//! # Record framing
//!
//! ```text
//! [len u32][lsn u64][txn u64][kind u8][payload ...][crc u64]
//!          |<------------- body (len bytes) ----->|
//! ```
//!
//! `crc` is the store's one checksum, [`page_checksum`], over the body:
//! any change confined to one aligned 8-byte word of the body — so any
//! bit flip or single-byte change, the body's byte tail included — always
//! changes it (each step of the sum is a bijection in the word it takes).
//! The torn-tolerant scanner ([`Wal::scan`]) stops at the first record
//! whose frame is incomplete or whose checksum disagrees — a crash
//! mid-append tears only the tail, and the torn tail is exactly the part
//! that never committed.
//!
//! # Simulated disk
//!
//! Like the pager, the log is in memory: `durable` models bytes that have
//! survived an fsync, `pending` models bytes still in the OS write cache.
//! A simulated crash keeps `durable` and drops everything else. The
//! [`FaultInjector`] can fail an fsync (`decide_fsync`), forcing the
//! committing operation to abort and withdraw its pending records via
//! [`Wal::truncate_pending`].

use std::collections::HashSet;

use crate::error::{StoreError, StoreResult};
use crate::fault::FaultInjector;
use crate::pager::page_checksum;

/// Log sequence number. Strictly increasing from 1; `0` means "none".
pub type Lsn = u64;

/// Fixed framing overhead around a record body: `len` prefix + `crc`
/// suffix.
const FRAME: usize = 4 + 8;
/// Body bytes before the payload: `lsn` + `txn` + `kind`.
const BODY_HDR: usize = 8 + 8 + 1;

/// Logical content of one WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Logical description of the mutation (opaque to the log; the object
    /// store replays it to rebuild the object set in LSN order).
    Op {
        /// Encoded logical operation.
        payload: Vec<u8>,
    },
    /// The transaction's effects are complete; fsync-on-commit makes this
    /// record the transaction's durability point.
    Commit,
}

impl WalRecord {
    fn kind_byte(&self) -> u8 {
        match self {
            WalRecord::Op { .. } => 1,
            WalRecord::Commit => 2,
        }
    }

    /// Stable lower-case name (trace fields, test output).
    pub fn kind_name(&self) -> &'static str {
        match self {
            WalRecord::Op { .. } => "op",
            WalRecord::Commit => "commit",
        }
    }

    fn payload(&self) -> &[u8] {
        match self {
            WalRecord::Op { payload } => payload,
            WalRecord::Commit => &[],
        }
    }

    fn decode(kind: u8, payload: &[u8]) -> Option<Self> {
        match kind {
            1 => Some(WalRecord::Op { payload: payload.to_vec() }),
            2 if payload.is_empty() => Some(WalRecord::Commit),
            _ => None,
        }
    }
}

/// One decoded record from a log scan, with its frame position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// Transaction the record belongs to.
    pub txn: u64,
    /// The decoded record.
    pub record: WalRecord,
    /// Byte offset just past this record's frame — a valid truncation
    /// point for "crash exactly after this record became durable".
    pub end: usize,
}

/// Cumulative WAL counters (the `sknn_wal_*` metric families).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (pending or durable).
    pub appends: u64,
    /// Successful fsyncs.
    pub fsyncs: u64,
    /// Fsyncs failed by the fault injector.
    pub failed_fsyncs: u64,
    /// Records withdrawn by [`Wal::truncate_pending`] (aborted ops).
    pub truncated: u64,
}

/// A position in the pending buffer, taken before an operation starts so
/// an abort can withdraw exactly that operation's records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalMark {
    bytes: usize,
    lsn: Lsn,
    appends: u64,
}

/// The redo plan recovery executes: the valid prefix's entries, which
/// transactions committed, and where the committed log ends.
#[derive(Debug)]
pub struct RedoPlan {
    /// All entries decoded from the valid prefix, in LSN order.
    pub entries: Vec<WalEntry>,
    /// Transactions with a durable commit record.
    pub committed: HashSet<u64>,
    /// Bytes of the valid prefix (everything past it is a torn tail).
    pub valid_len: usize,
    /// Bytes up to the end of the last `Commit` record — the prefix a
    /// reopened log keeps. Whole records past it belong to a transaction
    /// whose commit never became durable; a log reopened with them would
    /// let the next commit, which reuses that transaction id, adopt them.
    pub committed_len: usize,
}

/// A crash image: everything a simulated crash preserves — the durable
/// WAL prefix. Recovery rebuilds a working store from this alone.
#[derive(Debug, Clone)]
pub struct CrashImage {
    /// The fsynced WAL bytes (possibly with a torn tail).
    pub wal: Vec<u8>,
}

/// The write-ahead log. See the module docs for the protocol.
#[derive(Debug, Default)]
pub struct Wal {
    /// Bytes that survived an fsync — what a crash preserves.
    durable: Vec<u8>,
    /// Appended but not yet fsynced — what a crash drops.
    pending: Vec<u8>,
    /// LSN the next appended record gets; `next_lsn - 1` is the highest
    /// LSN appended, pending or durable.
    next_lsn: Lsn,
    durable_lsn: Lsn,
    stats: WalStats,
}

impl Wal {
    /// Fresh, empty log. The first record gets LSN 1.
    pub fn new() -> Self {
        Self { next_lsn: 1, ..Self::default() }
    }

    /// Reopen a log from the bytes a crash preserved: the valid prefix
    /// becomes the durable buffer, a torn tail is discarded, and LSN
    /// assignment resumes after the last valid record.
    pub fn from_durable(bytes: &[u8]) -> Self {
        let (entries, valid_len) = Self::scan(bytes);
        let mut wal = Self::new();
        wal.durable = bytes[..valid_len].to_vec();
        wal.durable_lsn = entries.last().map_or(0, |e| e.lsn);
        wal.next_lsn = wal.durable_lsn + 1;
        wal
    }

    /// Append one record for transaction `txn` to the pending buffer and
    /// return its LSN. Not durable until [`sync`](Self::sync) succeeds.
    pub fn append(&mut self, txn: u64, rec: &WalRecord) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let payload = rec.payload();
        let body_len = BODY_HDR + payload.len();
        self.pending.reserve(FRAME + body_len);
        self.pending.extend_from_slice(&(body_len as u32).to_le_bytes());
        let body_start = self.pending.len();
        self.pending.extend_from_slice(&lsn.to_le_bytes());
        self.pending.extend_from_slice(&txn.to_le_bytes());
        self.pending.push(rec.kind_byte());
        self.pending.extend_from_slice(payload);
        let crc = page_checksum(&self.pending[body_start..]);
        self.pending.extend_from_slice(&crc.to_le_bytes());
        self.stats.appends += 1;
        lsn
    }

    /// Snapshot the pending position before an operation appends its
    /// records, so a failed commit can withdraw them exactly.
    pub fn mark(&self) -> WalMark {
        WalMark { bytes: self.pending.len(), lsn: self.next_lsn, appends: self.stats.appends }
    }

    /// Withdraw every record appended after `mark` (none of them was ever
    /// durable — [`sync`](Self::sync) either takes all pending bytes or
    /// none). Used when a commit's fsync fails: the operation aborts and
    /// its records must never become durable.
    pub fn truncate_pending(&mut self, mark: WalMark) {
        assert!(mark.bytes <= self.pending.len(), "mark does not address the pending buffer");
        self.stats.truncated += self.stats.appends - mark.appends;
        self.pending.truncate(mark.bytes);
        self.next_lsn = mark.lsn;
    }

    /// Fsync: promote every pending byte to durable. The fault injector
    /// may fail the fsync, in which case *nothing* becomes durable, the
    /// pending buffer is left for the caller to truncate, and the error
    /// names the LSN whose commit was lost.
    pub fn sync(&mut self, fault: Option<&FaultInjector>) -> StoreResult<Lsn> {
        if self.pending.is_empty() {
            return Ok(self.durable_lsn);
        }
        if let Some(inj) = fault {
            if inj.decide_fsync() {
                self.stats.failed_fsyncs += 1;
                return Err(StoreError::FsyncFailed { lsn: self.next_lsn - 1 });
            }
        }
        self.durable.append(&mut self.pending);
        self.durable_lsn = self.next_lsn - 1;
        self.stats.fsyncs += 1;
        if let Some(inj) = fault {
            inj.observe_lsn(self.durable_lsn);
        }
        Ok(self.durable_lsn)
    }

    /// The bytes a crash preserves (every fsynced record, nothing else).
    pub fn durable_bytes(&self) -> &[u8] {
        &self.durable
    }

    /// Highest durable LSN (0 = empty log).
    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn
    }

    /// LSN the next appended record will get.
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// Cumulative counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Torn-tolerant scan: decode records until the first incomplete
    /// frame, bad checksum, or malformed payload. Returns the decoded
    /// entries and the byte length of the valid prefix.
    pub fn scan(bytes: &[u8]) -> (Vec<WalEntry>, usize) {
        let mut entries = Vec::new();
        let mut off = 0usize;
        while off + 4 <= bytes.len() {
            let body_len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            let body_start = off + 4;
            let crc_start = body_start + body_len;
            if body_len < BODY_HDR || crc_start + 8 > bytes.len() {
                break; // torn tail
            }
            let body = &bytes[body_start..crc_start];
            let stored_crc =
                u64::from_le_bytes(bytes[crc_start..crc_start + 8].try_into().unwrap());
            if page_checksum(body) != stored_crc {
                break; // corrupt tail
            }
            let lsn = u64::from_le_bytes(body[0..8].try_into().unwrap());
            let txn = u64::from_le_bytes(body[8..16].try_into().unwrap());
            let Some(record) = WalRecord::decode(body[16], &body[BODY_HDR..]) else {
                break;
            };
            off = crc_start + 8;
            entries.push(WalEntry { lsn, txn, record, end: off });
        }
        (entries, off)
    }

    /// Build the redo plan for `bytes` (the durable log a crash
    /// preserved): decode the valid prefix, collect the committed
    /// transaction set, and find where the last commit ends. Redo = for
    /// every entry whose `txn` is in `committed`, replay its `Op` in
    /// order.
    pub fn redo_plan(bytes: &[u8]) -> RedoPlan {
        let (entries, valid_len) = Self::scan(bytes);
        let mut committed = HashSet::new();
        let mut committed_len = 0;
        for e in &entries {
            if e.record == WalRecord::Commit {
                committed.insert(e.txn);
                committed_len = e.end;
            }
        }
        RedoPlan { entries, committed, valid_len, committed_len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultInjector;

    fn sample_records() -> Vec<(u64, WalRecord)> {
        vec![
            (1, WalRecord::Op { payload: b"gen:0".to_vec() }),
            (1, WalRecord::Op { payload: b"gen:1".to_vec() }),
            (1, WalRecord::Commit),
            (2, WalRecord::Op { payload: b"ins:42".to_vec() }),
            (2, WalRecord::Commit),
            (3, WalRecord::Op { payload: vec![9; 64] }),
            (3, WalRecord::Op { payload: b"del:11".to_vec() }),
            (3, WalRecord::Commit),
        ]
    }

    #[test]
    fn append_sync_scan_roundtrip() {
        let mut wal = Wal::new();
        for (txn, rec) in sample_records() {
            wal.append(txn, &rec);
        }
        assert_eq!((wal.durable_lsn(), wal.next_lsn()), (0, 9), "eight records pending");
        assert_eq!(wal.durable_bytes().len(), 0, "nothing durable before sync");
        let lsn = wal.sync(None).unwrap();
        assert_eq!(lsn, 8);
        assert_eq!(wal.next_lsn(), wal.durable_lsn() + 1, "nothing pending");
        let (entries, consumed) = Wal::scan(wal.durable_bytes());
        assert_eq!(consumed, wal.durable_bytes().len());
        assert_eq!(entries.len(), 8);
        for (i, ((txn, rec), e)) in sample_records().iter().zip(&entries).enumerate() {
            assert_eq!(e.lsn, i as u64 + 1);
            assert_eq!(e.txn, *txn);
            assert_eq!(&e.record, rec);
        }
        // `end` offsets partition the log exactly.
        assert_eq!(entries.last().unwrap().end, consumed);
        assert_eq!(wal.durable_lsn(), 8);
        assert_eq!(wal.stats().appends, 8);
        assert_eq!(wal.stats().fsyncs, 1);
    }

    #[test]
    fn torn_and_corrupt_tails_are_dropped() {
        let mut wal = Wal::new();
        for (txn, rec) in sample_records() {
            wal.append(txn, &rec);
        }
        wal.sync(None).unwrap();
        let full = wal.durable_bytes().to_vec();
        let (entries, _) = Wal::scan(&full);

        // Truncating anywhere strictly inside a record drops that record
        // and everything after, but keeps every record before it.
        for cut in [entries[0].end + 1, entries[3].end - 1, full.len() - 1] {
            let (got, consumed) = Wal::scan(&full[..cut]);
            assert!(consumed <= cut);
            let expect = entries.iter().filter(|e| e.end <= cut).count();
            assert_eq!(got.len(), expect, "cut at {cut}");
        }

        // A flipped byte in a record's body invalidates it and the tail.
        let mut corrupt = full.clone();
        let mid = entries[4].end + 6; // inside record 6's frame
        corrupt[mid] ^= 0x40;
        let (got, consumed) = Wal::scan(&corrupt);
        assert_eq!(got.len(), 5);
        assert_eq!(consumed, entries[4].end);
    }

    #[test]
    fn reopen_resumes_lsns_after_valid_prefix() {
        let mut wal = Wal::new();
        for (txn, rec) in sample_records() {
            wal.append(txn, &rec);
        }
        wal.sync(None).unwrap();
        let full = wal.durable_bytes().to_vec();

        let reopened = Wal::from_durable(&full);
        assert_eq!(reopened.durable_lsn(), 8);
        assert_eq!(reopened.next_lsn(), 9);

        // A torn tail: reopen keeps only the valid prefix.
        let (entries, _) = Wal::scan(&full);
        let cut = entries[5].end + 3;
        let reopened = Wal::from_durable(&full[..cut]);
        assert_eq!(reopened.durable_lsn(), 6);
        assert_eq!(reopened.next_lsn(), 7);
        assert_eq!(reopened.durable_bytes(), &full[..entries[5].end]);
    }

    #[test]
    fn failed_fsync_keeps_log_clean_after_truncate() {
        let inj = FaultInjector::script().fail_nth_fsync(1);
        let mut wal = Wal::new();
        wal.append(1, &WalRecord::Op { payload: b"a".to_vec() });
        wal.sync(None).unwrap_or_else(|_| unreachable!());
        let before = wal.durable_bytes().to_vec();

        let mark = wal.mark();
        wal.append(2, &WalRecord::Op { payload: b"b".to_vec() });
        let commit_lsn = wal.append(2, &WalRecord::Commit);
        let err = wal.sync(Some(&inj)).unwrap_err();
        assert_eq!(err, StoreError::FsyncFailed { lsn: commit_lsn });
        assert_eq!(wal.durable_bytes(), &before[..], "failed fsync made nothing durable");

        wal.truncate_pending(mark);
        assert_eq!(wal.next_lsn(), wal.durable_lsn() + 1, "nothing pending");
        assert_eq!(wal.next_lsn(), mark.lsn, "aborted lsns are reused");
        assert_eq!(wal.stats().truncated, 2);

        // The next operation proceeds as if the aborted one never was.
        wal.append(3, &WalRecord::Op { payload: b"c".to_vec() });
        wal.append(3, &WalRecord::Commit);
        assert_eq!(wal.sync(Some(&inj)).unwrap(), 3, "lsns stay dense across the abort");
        let (entries, _) = Wal::scan(wal.durable_bytes());
        let txns: Vec<u64> = entries.iter().map(|e| e.txn).collect();
        assert_eq!(txns, vec![1, 3, 3], "txn 2 left no trace");
    }

    #[test]
    fn redo_plan_tracks_commits_and_where_they_end() {
        let mut wal = Wal::new();
        for (txn, rec) in sample_records() {
            wal.append(txn, &rec);
        }
        let committed_end = wal.pending.len();
        // An uncommitted trailing transaction: its records must be
        // scanned but never replayed, and a reopened log drops them.
        wal.append(4, &WalRecord::Op { payload: vec![1] });
        wal.sync(None).unwrap();

        let plan = Wal::redo_plan(wal.durable_bytes());
        assert_eq!(plan.entries.len(), 9);
        assert_eq!(plan.committed, HashSet::from([1, 2, 3]), "txn 4 never committed");
        assert_eq!(plan.valid_len, wal.durable_bytes().len());
        assert_eq!(plan.committed_len, committed_end);
        assert_eq!(Wal::redo_plan(&[]).committed_len, 0);
    }

    #[test]
    fn observe_lsn_reaches_injector_on_sync() {
        let inj = FaultInjector::script().kill_at_lsn(2);
        let mut wal = Wal::new();
        wal.append(1, &WalRecord::Op { payload: vec![] });
        wal.sync(Some(&inj)).unwrap();
        assert!(!inj.kill_requested(), "lsn 1 < kill point");
        wal.append(1, &WalRecord::Commit);
        wal.sync(Some(&inj)).unwrap();
        assert!(inj.kill_requested(), "lsn 2 reached the kill point");
    }
}
