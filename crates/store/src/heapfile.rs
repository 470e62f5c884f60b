//! Slotted-page heap files.
//!
//! SDN crossing-line segments and DMTM node payloads are stored in heap
//! files: a file is bulk-built from its records, which fill slotted pages
//! greedily in record order and are addressed by a stable [`RecordId`].
//! Consecutive records land on the same page, so data given in a
//! spatially coherent order (the SDN writes per plane, in line order; the
//! DMTM in Morton order) exhibits the locality the paper's
//! integrated-I/O-region optimisation exploits.
//!
//! Each page is allocated when the fill reaches it and written exactly
//! once, with its final bytes, so its checksum is computed once; a heap
//! file is read-only after [`HeapFile::build`].

use crate::page::codec::*;
use crate::page::{PageId, PAGE_SIZE};
use crate::pager::Pager;

// Page layout: [count u16] then per record: [len u16][bytes].
const HDR: usize = 2;

/// Stable address of a heap-file record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page the record lives on.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

/// A read-only, bulk-built slotted-page heap file.
#[derive(Debug)]
pub struct HeapFile {
    pages: Vec<PageId>,
    len: usize,
}

impl HeapFile {
    /// Bulk-build a file from `records`, returning it with each record's
    /// address, in record order. Records fill pages greedily: a record
    /// goes on the current page while it fits, else a new page is
    /// allocated. Each page is written once, with its final bytes, when
    /// the fill moves past it. No records ⇒ no pages.
    ///
    /// # Panics
    /// Panics when a record cannot fit in one page.
    pub fn build<R: AsRef<[u8]>>(
        pager: &Pager,
        records: impl IntoIterator<Item = R>,
    ) -> (Self, Vec<RecordId>) {
        let mut pages: Vec<PageId> = Vec::new();
        let mut rids = Vec::new();
        let mut buf = vec![0u8; PAGE_SIZE];
        let mut used = HDR;
        let mut count: u16 = 0;
        // Records overwrite every byte below `used`, so the buffer needs
        // no clearing between pages.
        let write = |page: PageId, buf: &mut [u8], used: usize, count: u16| {
            put_u16(buf, 0, count);
            pager.write(page, 0, &buf[..used]);
        };
        for record in records {
            let record = record.as_ref();
            let need = 2 + record.len();
            assert!(need + HDR <= PAGE_SIZE, "record larger than a page");
            if pages.is_empty() || used + need > PAGE_SIZE {
                if let Some(&full) = pages.last() {
                    write(full, &mut buf, used, count);
                }
                pages.push(pager.alloc());
                used = HDR;
                count = 0;
            }
            put_u16(&mut buf, used, record.len() as u16);
            buf[used + 2..used + need].copy_from_slice(record);
            used += need;
            rids.push(RecordId { page: *pages.last().expect("a page is open"), slot: count });
            count += 1;
        }
        if let Some(&last) = pages.last() {
            write(last, &mut buf, used, count);
        }
        (Self { pages, len: rids.len() }, rids)
    }

    /// Number of contained items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether it holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Num pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Visit the records of heap page `page`, given its bytes `buf`, in
    /// slot order: a batched read ([`Pager::with_pages`], or a
    /// [`PageSink`](crate::PageSink) of [`Pager::read_into`]) walks each
    /// page it is handed this way. Batch access is what the
    /// integrated-I/O-region optimisation buys: candidates whose regions
    /// merged read each shared page once.
    pub fn records(page: PageId, buf: &[u8], mut visit: impl FnMut(RecordId, &[u8])) {
        let count = get_u16(buf, 0);
        let mut off = HDR;
        for s in 0..count {
            let len = get_u16(buf, off) as usize;
            visit(RecordId { page, slot: s }, &buf[off + 2..off + 2 + len]);
            off += 2 + len;
        }
    }

    /// Pages backing this file, in order.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every record of `hf`, in record order, from one batched read of
    /// its pages.
    fn read_all(pager: &Pager, hf: &HeapFile) -> Vec<(RecordId, Vec<u8>)> {
        let mut out = Vec::new();
        pager
            .with_pages(hf.pages(), |page, buf| {
                HeapFile::records(page, buf, |rid, rec| out.push((rid, rec.to_vec())))
            })
            .unwrap();
        out
    }

    #[test]
    fn build_and_read_roundtrip() {
        let pager = Pager::new(16);
        let recs: Vec<String> =
            (0..1000u32).map(|i| format!("record-{i}-{}", "x".repeat((i % 50) as usize))).collect();
        let (hf, rids) = HeapFile::build(&pager, &recs);
        assert_eq!(hf.len(), 1000);
        assert!(hf.num_pages() > 1);
        let read = read_all(&pager, &hf);
        assert_eq!(read.len(), rids.len());
        for ((rid, want), (got_rid, got)) in rids.iter().zip(&recs).zip(&read) {
            assert_eq!((got_rid, &got[..]), (rid, want.as_bytes()));
        }
    }

    #[test]
    fn missing_slot_or_page_is_not_in_the_file() {
        let pager = Pager::new(4);
        let (hf, rids) = HeapFile::build(&pager, [b"a"]);
        let slots: Vec<u16> = read_all(&pager, &hf).iter().map(|(rid, _)| rid.slot).collect();
        assert_eq!(slots, [0], "slot 99 of the page holds no record");
        assert_eq!(hf.pages(), [rids[0].page]);
        assert!(!hf.pages().contains(&PageId(9999)));
    }

    /// A record that fills its page to the last byte stays on it.
    #[test]
    fn exact_fit_stays_on_its_page() {
        let pager = Pager::new(4);
        let recs = [vec![1u8; 4094], vec![2u8; PAGE_SIZE - HDR - 4096 - 2], vec![3u8]];
        let (hf, rids) = HeapFile::build(&pager, &recs);
        assert_eq!(rids.iter().map(|r| r.slot).collect::<Vec<_>>(), [0, 1, 0]);
        assert_eq!(hf.num_pages(), 2);
    }

    #[test]
    fn empty_build_allocates_nothing() {
        let pager = Pager::new(4);
        let (hf, rids) = HeapFile::build(&pager, std::iter::empty::<&[u8]>());
        assert!(hf.is_empty() && rids.is_empty());
        assert_eq!((hf.num_pages(), pager.num_pages()), (0, 0));
    }

    #[test]
    fn scan_order_matches_record_order() {
        let pager = Pager::new(16);
        let recs: Vec<[u8; 4]> = (0..500u32).map(u32::to_le_bytes).collect();
        let (hf, _) = HeapFile::build(&pager, &recs);
        let seen: Vec<u32> = read_all(&pager, &hf)
            .iter()
            .map(|(_, rec)| u32::from_le_bytes(rec[..].try_into().unwrap()))
            .collect();
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn batch_page_visit_charges_one_read() {
        let pager = Pager::new(16);
        let recs: Vec<[u8; 4]> = (0..100u32).map(u32::to_le_bytes).collect();
        let (_, rids) = HeapFile::build(&pager, &recs);
        pager.clear_pool();
        pager.reset_stats();
        let mut n = 0;
        let page = rids[0].page;
        pager.with_pages(&[page], |_, buf| HeapFile::records(page, buf, |_, _| n += 1)).unwrap();
        assert!(n > 1);
        assert_eq!(pager.stats().physical_reads, 1);
    }

    #[test]
    fn batched_records_match_per_page_visits() {
        let pager = Pager::new(64);
        let recs: Vec<[u8; 4]> = (0..800u32).map(u32::to_le_bytes).collect();
        let (hf, _) = HeapFile::build(&pager, &recs);
        let pages: Vec<_> = hf.pages().to_vec();
        pager.clear_pool();
        pager.reset_stats();
        let mut one_by_one = Vec::new();
        for &p in &pages {
            pager
                .with_page(p, |buf| {
                    HeapFile::records(p, buf, |rid, rec| one_by_one.push((rid, rec.to_vec())))
                })
                .unwrap();
        }
        let loop_stats = pager.stats();
        pager.clear_pool();
        pager.reset_stats();
        let mut batched = Vec::new();
        pager
            .with_pages(&pages, |page, buf| {
                HeapFile::records(page, buf, |rid, rec| batched.push((rid, rec.to_vec())))
            })
            .unwrap();
        let batch_stats = pager.stats();
        assert_eq!(batched, one_by_one);
        assert_eq!(batch_stats.logical_reads, loop_stats.logical_reads);
        assert_eq!(batch_stats.physical_reads, loop_stats.physical_reads);
    }

    #[test]
    #[should_panic(expected = "larger than a page")]
    fn oversized_record_panics() {
        let pager = Pager::new(4);
        HeapFile::build(&pager, &[vec![0u8; PAGE_SIZE]]);
    }
}
