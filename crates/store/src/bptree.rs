//! A clustering B+-tree over `u64` keys with variable-length values.
//!
//! The paper stores DMTM nodes in Oracle under "a clustering B+ tree index"
//! (§5.1). This implementation is bulk-built from key-sorted records into
//! ~90 %-full leaf pages. The index above the leaves — one `(min key, leaf
//! page)` pair per leaf, 16 bytes each — stays resident, like Direct
//! Mesh's directory: deciding *which* leaves a lookup needs reads no page.
//! Values larger than [`MAX_INLINE`] spill into a contiguous run of
//! overflow pages. Every leaf and overflow page a lookup touches is
//! charged through the [`Pager`]'s buffer pool, so payload reads show up
//! in the "pages accessed" metric exactly as they did in the paper's setup.

use crate::error::StoreResult;
use crate::page::codec::*;
use crate::page::{PageId, PAGE_SIZE};
use crate::pager::Pager;

const LEAF_TAG: u8 = 1;

// Leaf layout:  [tag u8][count u16][reserved u64] + entries
//   entry: key u64, flag u8 (0 inline, 1 overflow), len u32, payload
//          inline: payload = value bytes
//          overflow: payload = first overflow PageId u64
// Nothing reads the reserved word, but its 8 bytes fix how many entries a
// leaf takes, and with it every DMTM page count the figures report.
const LEAF_HDR: usize = 1 + 2 + 8;
// Overflow pages hold raw value bytes, `PAGE_SIZE` per page, in a run of
// consecutive page ids starting at the entry's head.

/// Maximum bytes of a value stored inline in a leaf.
pub const MAX_INLINE: usize = PAGE_SIZE / 4;

/// A read-only, bulk-built clustering B+-tree.
#[derive(Debug)]
pub struct BPlusTree {
    /// `(min key, page)` of every leaf in key order (page ids ascend with
    /// it): the resident index that replaces the inner levels.
    leaves: Vec<(u64, PageId)>,
    len: usize,
}

impl BPlusTree {
    /// Bulk-build from records sorted by strictly increasing key.
    ///
    /// # Panics
    /// Panics when keys are not strictly increasing.
    pub fn bulk_build(pager: &Pager, records: &[(u64, Vec<u8>)]) -> Self {
        for w in records.windows(2) {
            assert!(w[0].0 < w[1].0, "keys must be strictly increasing");
        }
        let mut leaves: Vec<(u64, PageId)> = Vec::new();
        let mut buf = vec![0u8; PAGE_SIZE];
        let mut used = LEAF_HDR;
        let mut count: u16 = 0;
        let mut min_key = 0u64;
        let target = PAGE_SIZE * 9 / 10;

        let mut flush = |buf: &mut Vec<u8>, used: &mut usize, count: &mut u16, min_key: u64| {
            if *count == 0 {
                return;
            }
            buf[0] = LEAF_TAG;
            put_u16(buf, 1, *count);
            let page = pager.alloc();
            pager.write(page, 0, &buf[..*used]);
            buf.iter_mut().for_each(|b| *b = 0);
            *used = LEAF_HDR;
            *count = 0;
            leaves.push((min_key, page));
        };

        for (key, value) in records {
            let (flag, payload_len) =
                if value.len() > MAX_INLINE { (1u8, 8usize) } else { (0u8, value.len()) };
            let entry_len = 8 + 1 + 4 + payload_len;
            if used + entry_len > target && count > 0 {
                flush(&mut buf, &mut used, &mut count, min_key);
            }
            if count == 0 {
                min_key = *key;
            }
            put_u64(&mut buf, used, *key);
            buf[used + 8] = flag;
            put_u32(&mut buf, used + 9, value.len() as u32);
            if flag == 0 {
                buf[used + 13..used + 13 + value.len()].copy_from_slice(value);
            } else {
                let head = write_overflow(pager, value);
                put_u64(&mut buf, used + 13, head.0);
            }
            used += entry_len;
            count += 1;
        }
        flush(&mut buf, &mut used, &mut count, min_key);
        Self { leaves, len: records.len() }
    }

    /// Number of contained items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether it holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fetch the value stored under `key`, charging page reads.
    ///
    /// A single-key [`BPlusTree::get_many`]: a cold lookup reads the one
    /// leaf that may hold `key`, plus the value's overflow pages if it
    /// spilled. Read failures surface as [`StoreError`](crate::StoreError).
    pub fn get(&self, pager: &Pager, key: u64) -> StoreResult<Option<Vec<u8>>> {
        let mut out = None;
        self.get_many(pager, std::slice::from_ref(&key), |_, v| out = Some(v))?;
        Ok(out)
    }

    /// Batched point lookups: fetch the values of `keys` (strictly
    /// increasing; asserted), handing each found `(key, value)` to
    /// `visit` in key order. Absent keys are skipped. Returns how many
    /// keys were found.
    ///
    /// The resident leaf index splits the keys into leaf runs without a
    /// page read. The run leaves are read as one [`Pager::with_pages`]
    /// batch, then the overflow pages of every found key as one more, so
    /// a cold batch pays at most two stalls. Every leaf and overflow
    /// page is still charged once per batch. On a read failure the error
    /// is returned before `visit` is called at all.
    pub fn get_many(
        &self,
        pager: &Pager,
        keys: &[u64],
        mut visit: impl FnMut(u64, Vec<u8>),
    ) -> StoreResult<usize> {
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "keys must be strictly increasing");
        }
        if keys.is_empty() || self.leaves.is_empty() {
            return Ok(0);
        }
        // Phase 1: leaf runs from the resident index. A key lives in the
        // last leaf whose min key is <= it (keys below the tree's minimum
        // land in the leftmost leaf and are absent), and so does every
        // following key below the next leaf's min key.
        let mut runs: Vec<(usize, usize)> = Vec::new(); // (start, end) into `keys`
        let mut leaf_ids: Vec<PageId> = Vec::new();
        let mut i = 0;
        while i < keys.len() {
            let leaf = self.leaves.partition_point(|&(min, _)| min <= keys[i]).saturating_sub(1);
            let end = match self.leaves.get(leaf + 1) {
                Some(&(next_min, _)) => i + keys[i..].partition_point(|&k| k < next_min),
                None => keys.len(),
            };
            runs.push((i, end));
            leaf_ids.push(self.leaves[leaf].1);
            i = end;
        }
        // Phase 2: batch-read the run leaves (distinct and ascending: the
        // runs are maximal and leaf pages ascend with their keys) and
        // collect each run's hits. A spilled value starts empty and is
        // filled from its overflow run in phase 3.
        let mut hits: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut spills: Vec<(usize, PageId, usize)> = Vec::new(); // (hit, head, len)
        let mut run = 0;
        pager.with_pages(&leaf_ids, |_, buf| {
            let (start, end) = runs[run];
            run += 1;
            collect_run_hits(buf, &keys[start..end], &mut hits, &mut spills);
        })?;
        // Phase 3: one batch over every spilled value's overflow run.
        // Overflow runs are allocated in key order, so concatenating them
        // in key order keeps the ids ascending and distinct.
        let overflow_ids: Vec<PageId> = spills
            .iter()
            .flat_map(|&(_, head, len)| {
                (0..len.div_ceil(PAGE_SIZE) as u64).map(move |p| PageId(head.0 + p))
            })
            .collect();
        if !overflow_ids.is_empty() {
            let mut spill = 0;
            pager.with_pages(&overflow_ids, |_, buf| {
                let (hit, _, len) = spills[spill];
                let value = &mut hits[hit].1;
                let take = (len - value.len()).min(PAGE_SIZE);
                value.extend_from_slice(&buf[..take]);
                if value.len() == len {
                    spill += 1;
                }
            })?;
        }
        let found = hits.len();
        for (k, v) in hits {
            visit(k, v);
        }
        Ok(found)
    }
}

/// Merge-walk a leaf's entries against a sorted run of wanted keys,
/// appending the found ones to `hits` — inline values whole, spilled ones
/// empty with their overflow run noted in `spills`. Wanted keys the leaf
/// skips past are absent from the tree (the run bound guarantees they
/// could only have lived here).
fn collect_run_hits(
    buf: &[u8],
    keys: &[u64],
    hits: &mut Vec<(u64, Vec<u8>)>,
    spills: &mut Vec<(usize, PageId, usize)>,
) {
    debug_assert_eq!(buf[0], LEAF_TAG);
    let count = get_u16(buf, 1) as usize;
    let mut off = LEAF_HDR;
    let mut ki = 0;
    for _ in 0..count {
        if ki >= keys.len() {
            break;
        }
        let k = get_u64(buf, off);
        let flag = buf[off + 8];
        let len = get_u32(buf, off + 9) as usize;
        let payload = off + 13;
        while ki < keys.len() && keys[ki] < k {
            ki += 1; // absent key
        }
        if ki < keys.len() && keys[ki] == k {
            if flag == 0 {
                hits.push((k, buf[payload..payload + len].to_vec()));
            } else {
                spills.push((hits.len(), PageId(get_u64(buf, payload)), len));
                hits.push((k, Vec::with_capacity(len)));
            }
            ki += 1;
        }
        off = payload + if flag == 0 { len } else { 8 };
    }
}

/// Write a spilled value into a fresh run of consecutive pages, returning
/// the run's first page.
fn write_overflow(pager: &Pager, value: &[u8]) -> PageId {
    let head = pager.alloc_run(value.len().div_ceil(PAGE_SIZE));
    for (p, part) in value.chunks(PAGE_SIZE).enumerate() {
        pager.write(PageId(head.0 + p as u64), 0, part);
    }
    head
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultInjector, FaultKind, StoreError};
    use std::time::Duration;

    fn records(n: u64, stride: u64) -> Vec<(u64, Vec<u8>)> {
        (0..n)
            .map(|i| {
                let k = i * stride;
                (k, format!("value-{k}").into_bytes())
            })
            .collect()
    }

    #[test]
    fn get_existing_and_missing() {
        let pager = Pager::new(64);
        let recs = records(5000, 3);
        let tree = BPlusTree::bulk_build(&pager, &recs);
        assert_eq!(tree.len(), 5000);
        assert_eq!(tree.get(&pager, 0).unwrap().unwrap(), b"value-0");
        assert_eq!(tree.get(&pager, 2997).unwrap().unwrap(), b"value-2997");
        assert_eq!(tree.get(&pager, 14997).unwrap().unwrap(), b"value-14997");
        assert!(tree.get(&pager, 1).unwrap().is_none());
        assert!(tree.get(&pager, 15000).unwrap().is_none());
    }

    #[test]
    fn overflow_values_roundtrip() {
        let pager = Pager::new(64);
        let big = vec![0xABu8; PAGE_SIZE * 3 + 17];
        let small = b"tiny".to_vec();
        let recs = vec![(1u64, small.clone()), (2, big.clone()), (3, small.clone())];
        let tree = BPlusTree::bulk_build(&pager, &recs);
        assert_eq!(tree.get(&pager, 2).unwrap().unwrap(), big);
        assert_eq!(tree.get(&pager, 3).unwrap().unwrap(), small);
        // The leaf, then the value's four overflow pages.
        pager.clear_pool();
        pager.reset_stats();
        let _ = tree.get(&pager, 2).unwrap();
        assert_eq!(pager.stats().physical_reads, 1 + 4);
    }

    #[test]
    fn empty_tree() {
        let pager = Pager::new(8);
        let tree = BPlusTree::bulk_build(&pager, &[]);
        assert!(tree.is_empty());
        assert_eq!(pager.num_pages(), 0);
        assert!(tree.get(&pager, 42).unwrap().is_none());
        assert_eq!(pager.stats().logical_reads, 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_keys() {
        let pager = Pager::new(8);
        BPlusTree::bulk_build(&pager, &[(2, vec![]), (1, vec![])]);
    }

    #[test]
    fn get_many_matches_gets_and_reads_fewer_pages() {
        let pager = Pager::new(4096);
        let recs = records(20000, 3);
        let tree = BPlusTree::bulk_build(&pager, &recs);
        // Mix of present keys (clustered and spread) and absent ones.
        let keys: Vec<u64> =
            vec![0, 3, 6, 7, 300, 303, 9000, 9003, 9004, 30000, 30003, 59994, 59997, 60001];

        pager.clear_pool();
        pager.reset_stats();
        let mut looped = Vec::new();
        for &k in &keys {
            if let Some(v) = tree.get(&pager, k).unwrap() {
                looped.push((k, v));
            }
        }
        let loop_stats = pager.stats();

        pager.clear_pool();
        pager.reset_stats();
        let mut batched = Vec::new();
        let found = tree.get_many(&pager, &keys, |k, v| batched.push((k, v))).unwrap();
        let batch_stats = pager.stats();

        assert_eq!(batched, looped);
        assert_eq!(found, batched.len());
        assert!(
            batch_stats.physical_reads <= loop_stats.physical_reads,
            "batched lookups must never read more pages ({} > {})",
            batch_stats.physical_reads,
            loop_stats.physical_reads
        );
        assert!(batch_stats.logical_reads < loop_stats.logical_reads);
    }

    #[test]
    fn get_many_of_every_key_walks_each_leaf_once() {
        let pager = Pager::new(4096);
        let recs = records(5000, 1);
        let tree = BPlusTree::bulk_build(&pager, &recs);
        let keys: Vec<u64> = recs.iter().map(|&(k, _)| k).collect();
        pager.clear_pool();
        pager.reset_stats();
        let mut n = 0;
        let found = tree
            .get_many(&pager, &keys, |k, v| {
                assert_eq!(v, format!("value-{k}").into_bytes());
                n += 1;
            })
            .unwrap();
        assert_eq!((n, found), (5000, 5000));
        // One read per leaf, and nothing else.
        assert_eq!(pager.stats().logical_reads, tree.leaves.len() as u64);
        assert_eq!(pager.stats().physical_reads, tree.leaves.len() as u64);
    }

    #[test]
    fn get_many_handles_keys_below_tree_minimum() {
        let pager = Pager::new(64);
        // Tree keys start at 10: everything below is absent and lands in
        // the leftmost leaf's run.
        let recs: Vec<(u64, Vec<u8>)> =
            (0..2000u64).map(|i| (10 + i * 10, format!("v{i}").into_bytes())).collect();
        let tree = BPlusTree::bulk_build(&pager, &recs);
        let keys = vec![0, 5, 10, 15, 20, 30, 19_990];
        let mut got = Vec::new();
        let found = tree.get_many(&pager, &keys, |k, v| got.push((k, v))).unwrap();
        assert_eq!(found, 4);
        assert_eq!(
            got,
            vec![
                (10, b"v0".to_vec()),
                (20, b"v1".to_vec()),
                (30, b"v2".to_vec()),
                (19_990, b"v1998".to_vec()),
            ]
        );
        // All-absent batches below the minimum work too, and so does the
        // largest key, which lands in the rightmost leaf's open run.
        let mut n = 0;
        assert_eq!(tree.get_many(&pager, &[1, 2, 3, u64::MAX], |_, _| n += 1).unwrap(), 0);
        assert_eq!(n, 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn get_many_rejects_unsorted_keys() {
        let pager = Pager::new(8);
        let tree = BPlusTree::bulk_build(&pager, &records(10, 1));
        let _ = tree.get_many(&pager, &[5, 3], |_, _| ());
    }

    #[test]
    fn a_cold_get_charges_its_leaf_plus_its_overflow_pages() {
        let pager = Pager::new(4096);
        let mut recs = records(20000, 1);
        recs[12346].1 = vec![7; PAGE_SIZE + 1];
        let tree = BPlusTree::bulk_build(&pager, &recs);
        pager.clear_pool();
        pager.reset_stats();
        let _ = tree.get(&pager, 12345).unwrap().unwrap();
        assert_eq!(pager.stats().physical_reads, 1);
        pager.clear_pool();
        pager.reset_stats();
        assert_eq!(tree.get(&pager, 12346).unwrap().unwrap(), vec![7; PAGE_SIZE + 1]);
        assert_eq!(pager.stats().physical_reads, 1 + 2);
    }

    /// The leaf index costs no read, so a cold batch pays one stall for
    /// its leaves and, if any found value spilled, one for the overflow
    /// pages. `with_pages` charges the configured stall, not measured
    /// time, so the count is exact.
    #[test]
    fn a_cold_get_many_pays_at_most_two_stalls() {
        const STALL: Duration = Duration::from_millis(1);
        let pager = Pager::new(4096);
        let recs: Vec<(u64, Vec<u8>)> = (0..20_000u64)
            .map(|k| {
                let len = if k % 1000 == 500 { MAX_INLINE + 1 + k as usize } else { 16 };
                (k, vec![(k & 0xff) as u8; len])
            })
            .collect();
        let tree = BPlusTree::bulk_build(&pager, &recs);
        pager.set_read_stall(STALL);
        // (stalls, leaves read) of one cold batch.
        let cold_batch = |keys: &[u64]| {
            pager.clear_pool();
            pager.reset_stats();
            let before = pager.stall_ns();
            let mut got = Vec::new();
            tree.get_many(&pager, keys, |k, v| got.push((k, v))).unwrap();
            let want: Vec<_> = keys.iter().map(|&k| recs[k as usize].clone()).collect();
            assert_eq!(got, want);
            let overflow: usize = want
                .iter()
                .filter(|(_, v)| v.len() > MAX_INLINE)
                .map(|(_, v)| v.len().div_ceil(PAGE_SIZE))
                .sum();
            let leaves = pager.stats().physical_reads - overflow as u64;
            ((pager.stall_ns() - before) / STALL.as_nanos() as u64, leaves)
        };

        let inline: Vec<u64> = (0..20_000).step_by(97).filter(|k| k % 1000 != 500).collect();
        let (stalls, leaves) = cold_batch(&inline);
        assert!(leaves >= 50, "the keys must span at least 50 leaves, not {leaves}");
        assert_eq!(stalls, 1, "no overflow hit: the leaf batch alone");

        let spilled: Vec<u64> = (0..20_000).step_by(50).collect();
        assert_eq!(spilled.iter().filter(|&&k| k % 1000 == 500).count(), 20);
        let (stalls, leaves) = cold_batch(&spilled);
        assert!(leaves >= 50, "the keys must span at least 50 leaves, not {leaves}");
        assert_eq!(stalls, 2, "overflow hits: one more batch for all of them");
    }

    /// A failed overflow read fails the whole lookup before any value is
    /// handed out: the inline hits ahead of it are not visited either.
    #[test]
    fn a_permanent_overflow_fault_visits_nothing() {
        let pager = Pager::new(64);
        let recs: Vec<(u64, Vec<u8>)> =
            vec![(1, b"inline".to_vec()), (2, vec![9; MAX_INLINE + 1]), (3, b"tail".to_vec())];
        let tree = BPlusTree::bulk_build(&pager, &recs);
        let (_, leaf) = tree.leaves[0];
        let overflow = PageId(leaf.0 - 1); // allocated just before its leaf
        pager.clear_pool();
        pager.set_fault_injector(Some(FaultInjector::script().fail_page(
            overflow.0,
            FaultKind::Permanent,
            None,
        )));
        let mut visited = 0;
        let err = tree.get_many(&pager, &[1, 2, 3], |_, _| visited += 1).unwrap_err();
        assert_eq!(err, StoreError::PermanentRead { page: overflow.0 });
        assert_eq!(visited, 0);
    }
}
