//! Model-based property tests: the paged structures must agree with their
//! obvious in-memory models under arbitrary workloads, and page accounting
//! must obey its own invariants.

use proptest::prelude::*;
use sknn_store::{HeapFile, Pager, PAGE_SIZE};
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Heap files return exactly what they were built from, in order, and
    /// every record is retrievable by its id, through one batched read of
    /// the file's pages walked by `HeapFile::records`.
    #[test]
    fn heapfile_agrees_with_vec(
        recs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..500),
            1..120,
        ),
    ) {
        let pager = Pager::new(32);
        let (hf, rids) = HeapFile::build(&pager, &recs);
        prop_assert_eq!(hf.len(), recs.len());
        let mut by_id = BTreeMap::new();
        let mut scanned = Vec::new();
        pager
            .with_pages(hf.pages(), |page, buf| {
                HeapFile::records(page, buf, |rid, bytes| {
                    by_id.insert(rid, bytes.to_vec());
                    scanned.push(bytes.to_vec());
                })
            })
            .unwrap();
        for (rid, want) in rids.iter().zip(&recs) {
            prop_assert_eq!(by_id.get(rid), Some(want));
        }
        prop_assert_eq!(scanned, recs);
    }

    /// The bulk build places every record where one-record-at-a-time
    /// greedy appending did — same (page, slot), same page count, same
    /// page bytes — and writes each page exactly once. The oracle is the
    /// append loop over the documented layout (`[count u16]`, then
    /// `[len u16][bytes]` per record).
    #[test]
    fn heapfile_build_matches_greedy_append(
        recs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..3000),
            0..40,
        ),
        allocated_before in 0usize..3,
    ) {
        let pager = Pager::new(8);
        for _ in 0..allocated_before {
            pager.alloc();
        }
        let writes = pager.lifetime_stats().writes;
        let (hf, rids) = HeapFile::build(&pager, &recs);

        let mut images: Vec<Vec<u8>> = Vec::new();
        let mut want = Vec::new();
        let mut used = PAGE_SIZE;
        for r in &recs {
            if images.is_empty() || used + 2 + r.len() > PAGE_SIZE {
                images.push(vec![0u8; PAGE_SIZE]);
                used = 2;
            }
            let page = images.last_mut().unwrap();
            let slot = u16::from_le_bytes([page[0], page[1]]);
            page[used..used + 2].copy_from_slice(&(r.len() as u16).to_le_bytes());
            page[used + 2..used + 2 + r.len()].copy_from_slice(r);
            page[..2].copy_from_slice(&(slot + 1).to_le_bytes());
            used += 2 + r.len();
            want.push((allocated_before + images.len() - 1, slot));
        }

        let got: Vec<(usize, u16)> = rids.iter().map(|r| (r.page.0 as usize, r.slot)).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(hf.num_pages(), images.len());
        prop_assert_eq!(pager.num_pages(), allocated_before + images.len());
        prop_assert_eq!(pager.lifetime_stats().writes - writes, images.len() as u64);
        for (&page, image) in hf.pages().iter().zip(&images) {
            prop_assert_eq!(&pager.with_page(page, <[u8]>::to_vec).unwrap(), image);
        }
    }

    /// Buffer-pool accounting: physical <= logical, hits + physical ==
    /// logical, and a pool large enough to hold everything makes repeated
    /// reads free.
    #[test]
    fn pool_accounting_invariants(
        n_pages in 1usize..30,
        accesses in proptest::collection::vec(0usize..30, 1..200),
        pool in 1usize..40,
    ) {
        let pager = Pager::new(pool);
        let ids: Vec<_> = (0..n_pages).map(|_| pager.alloc()).collect();
        pager.reset_stats();
        for &a in &accesses {
            pager.with_page(ids[a % n_pages], |_| ()).unwrap();
        }
        let s = pager.stats();
        prop_assert_eq!(s.logical_reads as usize, accesses.len());
        prop_assert!(s.physical_reads <= s.logical_reads);
        prop_assert_eq!(s.hits() + s.physical_reads, s.logical_reads);
        if pool >= n_pages {
            // Every page faults at most once.
            prop_assert!(s.physical_reads as usize <= n_pages);
        }
    }

    /// Writes never corrupt neighbouring bytes.
    #[test]
    fn page_writes_are_isolated(
        off1 in 0usize..PAGE_SIZE - 64,
        off2 in 0usize..PAGE_SIZE - 64,
        data1 in proptest::collection::vec(any::<u8>(), 1..64),
        data2 in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        prop_assume!(off1 + data1.len() <= off2 || off2 + data2.len() <= off1);
        let pager = Pager::new(4);
        let p = pager.alloc();
        pager.write(p, off1, &data1);
        pager.write(p, off2, &data2);
        let page = pager.with_page(p, <[u8]>::to_vec).unwrap();
        prop_assert_eq!(&page[off1..off1 + data1.len()], data1.as_slice());
        prop_assert_eq!(&page[off2..off2 + data2.len()], data2.as_slice());
    }
}
