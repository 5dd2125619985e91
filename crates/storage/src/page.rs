//! Slotted-page layout for variable-length records.
//!
//! Layout of a page of `N` bytes:
//!
//! ```text
//! +--------+-------------------------+---------------------+
//! | header | record payloads (grow →)| ← slot directory    |
//! +--------+-------------------------+---------------------+
//! ```
//!
//! * header: `slot_count: u16`, `free_ptr: u16` (offset of the first free
//!   payload byte), `record_count: u16` (live records).
//! * slot directory grows downward from the end of the page; each slot is
//!   `(offset: u16, len: u16)`. A slot with `offset == u16::MAX` is
//!   deleted/free.
//!
//! Deleting a record frees its slot; `compact` (invoked automatically by
//! `insert` when fragmentation blocks an otherwise-fitting insert) squeezes
//! payloads together. Slot numbers are stable across compaction, so RIDs
//! remain valid, which the record files and B+-trees rely on.

use crate::error::StorageError;
use crate::Result;

const HEADER: usize = 6;
const SLOT: usize = 4;
const DELETED: u16 = u16::MAX;

/// A view over one page's bytes providing the slotted-record operations.
///
/// `SlottedPage` does not own the bytes; the buffer manager does. All
/// methods take the raw page slice so the same code serves fixed frames.
pub struct SlottedPage;

impl SlottedPage {
    /// Initializes an empty slotted page in `buf`.
    pub fn init(buf: &mut [u8]) {
        buf[..HEADER].fill(0);
        write_u16(buf, 2, HEADER as u16); // free_ptr starts after header
    }

    /// Number of slots in the directory (live + deleted).
    #[inline]
    pub fn slot_count(buf: &[u8]) -> u16 {
        read_u16(buf, 0)
    }

    /// Number of live records.
    #[inline]
    pub fn record_count(buf: &[u8]) -> u16 {
        read_u16(buf, 4)
    }

    /// Maximum payload a record may have on a page of `page_size` bytes.
    pub fn max_record(page_size: usize) -> usize {
        page_size - HEADER - SLOT
    }

    /// Contiguous free space currently available for one more record
    /// (including its slot-directory entry).
    pub fn free_space(buf: &[u8]) -> usize {
        let free_ptr = read_u16(buf, 2) as usize;
        let dir_start = buf.len() - Self::slot_count(buf) as usize * SLOT;
        dir_start.saturating_sub(free_ptr).saturating_sub(SLOT)
    }

    /// Whether a record of `len` bytes fits (possibly after compaction).
    pub fn fits(buf: &[u8], len: usize) -> bool {
        // Reusable deleted slots don't need a new directory entry; one
        // exists exactly when the directory is larger than the live count.
        let has_free_slot = Self::slot_count(buf) > Self::record_count(buf);
        let slot_cost = if has_free_slot { 0 } else { SLOT };
        // Fast path: the contiguous free region suffices. This is the
        // bulk-append case, and it must not scan the directory — appends
        // would otherwise cost O(records-per-page) each.
        if Self::contiguous_free(buf) >= len + slot_cost {
            return true;
        }
        // Slow path: sum live payloads to see whether compaction would
        // reclaim enough fragmented space.
        let live: usize = Self::iter_slots(buf)
            .filter_map(|(_, s)| s.map(|(_, l)| l as usize))
            .sum();
        let dir = Self::slot_count(buf) as usize * SLOT;
        buf.len() - HEADER - dir - live >= len + slot_cost
    }

    /// Inserts a record, returning its slot number.
    pub fn insert(buf: &mut [u8], record: &[u8]) -> Result<u16> {
        if record.len() > Self::max_record(buf.len()) {
            return Err(StorageError::RecordTooLarge {
                record: record.len(),
                max: Self::max_record(buf.len()),
            });
        }
        if !Self::fits(buf, record.len()) {
            return Err(StorageError::CorruptPage("insert on full page".into()));
        }
        // Reuse a deleted slot if one exists, else grow the directory.
        // Compaction must happen BEFORE the directory grows: the new
        // directory entry's bytes may currently hold live payload, and
        // compaction must not read an uninitialized entry. The directory
        // is scanned only when the counts prove a deleted slot exists,
        // keeping pure appends O(1).
        let free_slot = if Self::slot_count(buf) > Self::record_count(buf) {
            Self::iter_slots(buf)
                .find(|(_, s)| s.is_none())
                .map(|(i, _)| i)
        } else {
            None
        };
        let needed = record.len() + if free_slot.is_none() { SLOT } else { 0 };
        if Self::contiguous_free(buf) < needed {
            Self::compact(buf);
        }
        debug_assert!(
            Self::contiguous_free(buf) >= needed,
            "compaction must free space"
        );
        let slot = match free_slot {
            Some(i) => i,
            None => {
                let n = Self::slot_count(buf);
                write_u16(buf, 0, n + 1);
                // Initialize the fresh directory entry (its bytes are in
                // the now-contiguous free area).
                Self::write_slot(buf, n, DELETED, 0);
                n
            }
        };
        let needed = record.len();
        let free_ptr = read_u16(buf, 2) as usize;
        buf[free_ptr..free_ptr + needed].copy_from_slice(record);
        write_u16(buf, 2, (free_ptr + needed) as u16);
        Self::write_slot(buf, slot, free_ptr as u16, needed as u16);
        write_u16(buf, 4, Self::record_count(buf) + 1);
        Ok(slot)
    }

    /// Inserts as many of `records` — back-to-back records of `width`
    /// bytes — as fit, in order, and returns how many did: the page comes
    /// out byte for byte as from [`SlottedPage::insert`] of each while it
    /// [`SlottedPage::fits`]. Records that append — no deleted slot to
    /// reuse, room in the contiguous free region — are copied and given
    /// their slots in one loop, the header written once; the others go
    /// through `insert`.
    pub fn insert_run(buf: &mut [u8], records: &[u8], width: usize) -> usize {
        let total = records.len() / width;
        let mut done = 0;
        while done < total {
            let free_slot = Self::slot_count(buf) > Self::record_count(buf);
            let room = if free_slot {
                0
            } else {
                Self::contiguous_free(buf) / (width + SLOT)
            };
            let run = room.min(total - done);
            if run > 0 {
                let (slots, free_ptr) = (Self::slot_count(buf), read_u16(buf, 2) as usize);
                let payload = &records[done * width..][..run * width];
                buf[free_ptr..free_ptr + payload.len()].copy_from_slice(payload);
                for i in 0..run {
                    let at = (free_ptr + i * width) as u16;
                    Self::write_slot(buf, slots + i as u16, at, width as u16);
                }
                write_u16(buf, 0, slots + run as u16);
                write_u16(buf, 2, (free_ptr + payload.len()) as u16);
                write_u16(buf, 4, Self::record_count(buf) + run as u16);
                done += run;
            } else if Self::fits(buf, width) {
                // A deleted slot to reuse, or room only compaction frees.
                Self::insert(buf, &records[done * width..][..width]).expect("the record fits");
                done += 1;
            } else {
                break;
            }
        }
        done
    }

    /// Returns the record bytes at `slot`.
    #[inline]
    pub fn get(buf: &[u8], slot: u16) -> Option<&[u8]> {
        let (off, len) = Self::read_slot(buf, slot)?;
        if off == DELETED {
            return None;
        }
        Some(&buf[off as usize..off as usize + len as usize])
    }

    /// Deletes the record at `slot`. Returns whether a record was present.
    pub fn delete(buf: &mut [u8], slot: u16) -> bool {
        match Self::read_slot(buf, slot) {
            Some((off, _)) if off != DELETED => {
                Self::write_slot(buf, slot, DELETED, 0);
                write_u16(buf, 4, Self::record_count(buf) - 1);
                true
            }
            _ => false,
        }
    }

    /// The live records, in slot order, with their slots.
    pub fn records(buf: &[u8]) -> Records<'_> {
        Records {
            buf,
            next: 0,
            live: Self::record_count(buf) as usize,
        }
    }

    fn contiguous_free(buf: &[u8]) -> usize {
        let free_ptr = read_u16(buf, 2) as usize;
        let dir_start = buf.len() - Self::slot_count(buf) as usize * SLOT;
        dir_start.saturating_sub(free_ptr)
    }

    /// Squeezes live payloads to the front, preserving slot numbers.
    pub fn compact(buf: &mut [u8]) {
        let n = Self::slot_count(buf);
        let mut live: Vec<(u16, u16, u16)> = (0..n)
            .filter_map(|s| {
                let (off, len) = Self::read_slot(buf, s).expect("slot < count");
                (off != DELETED).then_some((s, off, len))
            })
            .collect();
        live.sort_by_key(|&(_, off, _)| off);
        let mut write_at = HEADER;
        for (slot, off, len) in live {
            let (off, len) = (off as usize, len as usize);
            if off != write_at {
                buf.copy_within(off..off + len, write_at);
                Self::write_slot(buf, slot, write_at as u16, len as u16);
            }
            write_at += len;
        }
        write_u16(buf, 2, write_at as u16);
    }

    fn iter_slots(buf: &[u8]) -> impl Iterator<Item = (u16, Option<(u16, u16)>)> + '_ {
        (0..Self::slot_count(buf)).map(move |s| {
            let entry = Self::read_slot(buf, s).filter(|(off, _)| *off != DELETED);
            (s, entry)
        })
    }

    #[inline]
    fn slot_pos(buf: &[u8], slot: u16) -> usize {
        buf.len() - (slot as usize + 1) * SLOT
    }

    #[inline]
    fn read_slot(buf: &[u8], slot: u16) -> Option<(u16, u16)> {
        if slot >= Self::slot_count(buf) {
            return None;
        }
        let p = Self::slot_pos(buf, slot);
        Some((read_u16(buf, p), read_u16(buf, p + 2)))
    }

    fn write_slot(buf: &mut [u8], slot: u16, off: u16, len: u16) {
        let p = Self::slot_pos(buf, slot);
        write_u16(buf, p, off);
        write_u16(buf, p + 2, len);
    }
}

/// A page's live records in slot order, as `(slot, record)` pairs: a page
/// handed over whole, which a consumer may walk more than once (it is
/// cheap to clone) and knows the length of.
#[derive(Clone)]
pub struct Records<'a> {
    buf: &'a [u8],
    next: u16,
    /// Live records not yet yielded.
    live: usize,
}

impl<'a> Iterator for Records<'a> {
    type Item = (u16, &'a [u8]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        while self.live > 0 && self.next < SlottedPage::slot_count(self.buf) {
            let slot = self.next;
            self.next += 1;
            if let Some(record) = SlottedPage::get(self.buf, slot) {
                self.live -= 1;
                return Some((slot, record));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.live, Some(self.live))
    }
}

impl ExactSizeIterator for Records<'_> {}

#[inline]
fn read_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

fn write_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: usize) -> Vec<u8> {
        let mut buf = vec![0u8; n];
        SlottedPage::init(&mut buf);
        buf
    }

    #[test]
    fn insert_and_get() {
        let mut p = page(256);
        let s0 = SlottedPage::insert(&mut p, b"hello").unwrap();
        let s1 = SlottedPage::insert(&mut p, b"world!").unwrap();
        assert_eq!(SlottedPage::get(&p, s0), Some(&b"hello"[..]));
        assert_eq!(SlottedPage::get(&p, s1), Some(&b"world!"[..]));
        assert_eq!(SlottedPage::record_count(&p), 2);
    }

    #[test]
    fn get_missing_slot_is_none() {
        let p = page(256);
        assert_eq!(SlottedPage::get(&p, 0), None);
        assert_eq!(SlottedPage::get(&p, 99), None);
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut p = page(256);
        let s0 = SlottedPage::insert(&mut p, b"aaaa").unwrap();
        let s1 = SlottedPage::insert(&mut p, b"bbbb").unwrap();
        assert!(SlottedPage::delete(&mut p, s0));
        assert!(!SlottedPage::delete(&mut p, s0)); // second delete is a no-op
        assert_eq!(SlottedPage::get(&p, s0), None);
        assert_eq!(SlottedPage::get(&p, s1), Some(&b"bbbb"[..]));
        let s2 = SlottedPage::insert(&mut p, b"cccc").unwrap();
        assert_eq!(s2, s0, "deleted slot is reused");
        assert_eq!(SlottedPage::record_count(&p), 2);
    }

    #[test]
    fn fill_page_to_capacity() {
        let mut p = page(128);
        let mut n = 0;
        while SlottedPage::fits(&p, 10) {
            SlottedPage::insert(&mut p, &[n as u8; 10]).unwrap();
            n += 1;
        }
        // 122 usable bytes, 14 per record (10 payload + 4 slot) => 8 records.
        assert_eq!(n, 8);
        assert!(SlottedPage::insert(&mut p, &[0u8; 10]).is_err());
        // All records intact.
        for (i, (_, r)) in SlottedPage::records(&p).enumerate() {
            assert_eq!(r, &[i as u8; 10]);
        }
    }

    #[test]
    fn compaction_reclaims_fragmented_space() {
        let mut p = page(128);
        // Fill with 8 x 10-byte records, delete every other one, then insert
        // a 30-byte record: only possible after compaction.
        let slots: Vec<u16> = (0..8)
            .map(|i| SlottedPage::insert(&mut p, &[i as u8; 10]).unwrap())
            .collect();
        for s in slots.iter().step_by(2) {
            SlottedPage::delete(&mut p, *s);
        }
        assert!(SlottedPage::fits(&p, 30));
        let s = SlottedPage::insert(&mut p, &[0xAB; 30]).unwrap();
        assert_eq!(SlottedPage::get(&p, s), Some(&[0xAB; 30][..]));
        // Survivors unharmed by compaction.
        for (i, slot) in slots.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(SlottedPage::get(&p, *slot), Some(&[i as u8; 10][..]));
            }
        }
    }

    #[test]
    fn record_too_large_is_rejected() {
        let mut p = page(128);
        let max = SlottedPage::max_record(128);
        assert!(SlottedPage::insert(&mut p, &vec![0u8; max + 1]).is_err());
        assert!(SlottedPage::insert(&mut p, &vec![0u8; max]).is_ok());
    }

    #[test]
    fn empty_records_are_allowed() {
        let mut p = page(128);
        let s = SlottedPage::insert(&mut p, b"").unwrap();
        assert_eq!(SlottedPage::get(&p, s), Some(&b""[..]));
        assert!(SlottedPage::delete(&mut p, s));
    }

    #[test]
    fn records_iterator_skips_deleted() {
        let mut p = page(256);
        let a = SlottedPage::insert(&mut p, b"a").unwrap();
        let _b = SlottedPage::insert(&mut p, b"b").unwrap();
        SlottedPage::delete(&mut p, a);
        let got: Vec<_> = SlottedPage::records(&p).map(|(_, r)| r.to_vec()).collect();
        assert_eq!(got, vec![b"b".to_vec()]);
    }
}
