//! Slotted-page heap files.
//!
//! SDN crossing-line segments are stored in heap files: records are
//! appended into slotted pages and addressed by a stable [`RecordId`].
//! Consecutive appends land on the same page, so data written in a
//! spatially coherent order (the SDN writes per plane, in line order)
//! exhibits the locality the paper's integrated-I/O-region optimisation
//! exploits.

use crate::error::StoreResult;
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

/// An append-only slotted-page heap file.
#[derive(Debug)]
pub struct HeapFile {
    pages: Vec<PageId>,
    /// Bytes used in the last page.
    tail_used: usize,
    tail_count: u16,
    len: usize,
    /// In-memory mirror of the tail page (flushed on every append; kept to
    /// avoid read-modify-write charging during builds).
    tail_buf: Vec<u8>,
}

impl HeapFile {
    /// Creates the value from its parts.
    pub fn new() -> Self {
        Self {
            pages: Vec::new(),
            tail_used: HDR,
            tail_count: 0,
            len: 0,
            tail_buf: vec![0u8; PAGE_SIZE],
        }
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

    /// Append a record; returns its address.
    ///
    /// # Panics
    /// Panics when the record cannot fit in one page.
    pub fn append(&mut self, pager: &Pager, record: &[u8]) -> RecordId {
        let need = 2 + record.len();
        assert!(need + HDR <= PAGE_SIZE, "record larger than a page");
        if self.pages.is_empty() || self.tail_used + need > PAGE_SIZE {
            self.pages.push(pager.alloc());
            self.tail_used = HDR;
            self.tail_count = 0;
            self.tail_buf.iter_mut().for_each(|b| *b = 0);
        }
        let page = *self.pages.last().unwrap();
        put_u16(&mut self.tail_buf, self.tail_used, record.len() as u16);
        self.tail_buf[self.tail_used + 2..self.tail_used + 2 + record.len()]
            .copy_from_slice(record);
        self.tail_used += need;
        self.tail_count += 1;
        put_u16(&mut self.tail_buf, 0, self.tail_count);
        pager.write(page, 0, &self.tail_buf[..self.tail_used]);
        self.len += 1;
        RecordId { page, slot: self.tail_count - 1 }
    }

    /// Fetch one record, charging the page read. Read failures surface as
    /// [`StoreError`](crate::StoreError).
    pub fn get(&self, pager: &Pager, rid: RecordId) -> StoreResult<Option<Vec<u8>>> {
        if !self.pages.contains(&rid.page) {
            return Ok(None);
        }
        pager.with_page(rid.page, |buf| {
            let count = get_u16(buf, 0);
            if rid.slot >= count {
                return None;
            }
            let mut off = HDR;
            for s in 0..count {
                let len = get_u16(buf, off) as usize;
                if s == rid.slot {
                    return Some(buf[off + 2..off + 2 + len].to_vec());
                }
                off += 2 + len;
            }
            None
        })
    }

    /// Visit every record on `page` with a single page read. Batch access
    /// is what the integrated-I/O-region optimisation buys: candidates whose
    /// regions merged read each shared page once.
    pub fn visit_page(
        &self,
        pager: &Pager,
        page: PageId,
        mut visit: impl FnMut(RecordId, &[u8]),
    ) -> StoreResult<()> {
        pager.with_page(page, |buf| {
            let count = get_u16(buf, 0);
            let mut off = HDR;
            for s in 0..count {
                let len = get_u16(buf, off) as usize;
                visit(RecordId { page, slot: s }, &buf[off + 2..off + 2 + len]);
                off += 2 + len;
            }
        })
    }

    /// Visit every record of a batch of pages (sorted ascending, no
    /// duplicates) through [`Pager::with_pages`]: each page is one
    /// logical read as with [`HeapFile::visit_page`], but the misses of
    /// the whole batch pay a single overlapped stall — the integrated
    /// I/O region read as one clustered disk request.
    pub fn visit_pages(
        &self,
        pager: &Pager,
        pages: &[PageId],
        mut visit: impl FnMut(RecordId, &[u8]),
    ) -> StoreResult<()> {
        pager.with_pages(pages, |page, buf| {
            let count = get_u16(buf, 0);
            let mut off = HDR;
            for s in 0..count {
                let len = get_u16(buf, off) as usize;
                visit(RecordId { page, slot: s }, &buf[off + 2..off + 2 + len]);
                off += 2 + len;
            }
        })
    }

    /// Visit every record in the file in append order.
    pub fn scan(&self, pager: &Pager, mut visit: impl FnMut(RecordId, &[u8])) -> StoreResult<()> {
        for &page in &self.pages {
            self.visit_page(pager, page, |rid, rec| visit(rid, rec))?;
        }
        Ok(())
    }

    /// Pages backing this file, in order.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }
}

impl Default for HeapFile {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_get_roundtrip() {
        let pager = Pager::new(16);
        let mut hf = HeapFile::new();
        let mut rids = Vec::new();
        for i in 0..1000u32 {
            let rec = format!("record-{i}-{}", "x".repeat((i % 50) as usize));
            rids.push((hf.append(&pager, rec.as_bytes()), rec));
        }
        assert_eq!(hf.len(), 1000);
        assert!(hf.num_pages() > 1);
        for (rid, want) in &rids {
            assert_eq!(hf.get(&pager, *rid).unwrap().unwrap(), want.as_bytes());
        }
    }

    #[test]
    fn get_missing_slot_or_page() {
        let pager = Pager::new(4);
        let mut hf = HeapFile::new();
        let rid = hf.append(&pager, b"a");
        assert!(hf.get(&pager, RecordId { page: rid.page, slot: 99 }).unwrap().is_none());
        assert!(hf.get(&pager, RecordId { page: PageId(9999), slot: 0 }).unwrap().is_none());
    }

    #[test]
    fn scan_order_matches_append_order() {
        let pager = Pager::new(16);
        let mut hf = HeapFile::new();
        for i in 0..500u32 {
            hf.append(&pager, &i.to_le_bytes());
        }
        let mut seen = Vec::new();
        hf.scan(&pager, |_, rec| {
            seen.push(u32::from_le_bytes(rec.try_into().unwrap()));
        })
        .unwrap();
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn batch_page_visit_charges_one_read() {
        let pager = Pager::new(16);
        let mut hf = HeapFile::new();
        let mut first_page = None;
        for i in 0..100u32 {
            let rid = hf.append(&pager, &i.to_le_bytes());
            first_page.get_or_insert(rid.page);
        }
        pager.clear_pool();
        pager.reset_stats();
        let mut n = 0;
        hf.visit_page(&pager, first_page.unwrap(), |_, _| n += 1).unwrap();
        assert!(n > 1);
        assert_eq!(pager.stats().physical_reads, 1);
    }

    #[test]
    fn visit_pages_matches_per_page_visits() {
        let pager = Pager::new(64);
        let mut hf = HeapFile::new();
        for i in 0..800u32 {
            hf.append(&pager, &i.to_le_bytes());
        }
        let pages: Vec<_> = hf.pages().to_vec();
        pager.clear_pool();
        pager.reset_stats();
        let mut one_by_one = Vec::new();
        for &p in &pages {
            hf.visit_page(&pager, p, |rid, rec| one_by_one.push((rid, rec.to_vec()))).unwrap();
        }
        let loop_stats = pager.stats();
        pager.clear_pool();
        pager.reset_stats();
        let mut batched = Vec::new();
        hf.visit_pages(&pager, &pages, |rid, rec| batched.push((rid, rec.to_vec()))).unwrap();
        let batch_stats = pager.stats();
        assert_eq!(batched, one_by_one);
        assert_eq!(batch_stats.logical_reads, loop_stats.logical_reads);
        assert_eq!(batch_stats.physical_reads, loop_stats.physical_reads);
    }

    #[test]
    #[should_panic(expected = "larger than a page")]
    fn oversized_record_panics() {
        let pager = Pager::new(4);
        let mut hf = HeapFile::new();
        hf.append(&pager, &vec![0u8; PAGE_SIZE]);
    }
}
