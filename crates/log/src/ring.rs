//! The log ring: one Lamport single-producer/single-consumer circular log
//! per slice (§III-A), whose slots carry a torn bit that flips on every
//! pass (§III-B).
//!
//! Head and tail are monotonically increasing byte offsets. A slot's
//! physical place is its offset modulo the capacity, and its torn bit is
//! the [`pass_parity`] of the offset. A slot never straddles the wrap
//! point: an append skips to the next pass when the bytes left before the
//! wrap are fewer than `max(slot, reserve)`.
//!
//! Both logs step with this one ring, each with its own constant
//! [`Geometry`]: the byte engine with
//! [`BYTE_SLOTS`](crate::record::BYTE_SLOTS), the simulator with the
//! Fig. 7 array slots. The ring keeps one caller value per live slot;
//! what the slot's bytes or cells hold is the caller's business.
//!
//! # Example
//!
//! ```
//! use morlog_log::record::{RecordKind, BYTE_SLOTS};
//! use morlog_log::ring::Ring;
//!
//! let mut ring: Ring<u32> = Ring::new(BYTE_SLOTS, 4096);
//! let first = ring.append(RecordKind::UndoRedo, |_parity| 7).unwrap().offset;
//! let second = ring.append(RecordKind::Commit, |_parity| 8).unwrap().offset;
//! assert_eq!((first, second), (0, 48));
//! assert_eq!(ring.entries().count(), 2);
//! ring.truncate_to(second);
//! assert_eq!(ring.used_bytes(), 32);
//! ```

use std::collections::vec_deque::{Drain, VecDeque};

use crate::record::{pass_parity, RecordKind};

/// The slot sizes of one log layout, and how much room an append needs
/// before the wrap point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Bytes of an undo+redo slot.
    pub undo_redo: u64,
    /// Bytes of a redo-only slot.
    pub redo: u64,
    /// Bytes of a commit slot.
    pub commit: u64,
    /// Bytes that must remain before the wrap point for any slot to start
    /// there. With a reserve of at least the largest slot, where the next
    /// slot starts does not depend on its kind.
    pub reserve: u64,
}

impl Geometry {
    /// Bytes one slot of `kind` occupies.
    pub const fn slot_bytes(&self, kind: RecordKind) -> u64 {
        match kind {
            RecordKind::UndoRedo => self.undo_redo,
            RecordKind::Redo => self.redo,
            RecordKind::Commit => self.commit,
        }
    }
}

/// One live slot: where it starts, what it holds, and the caller's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<T> {
    /// Monotonic byte offset of the slot (`offset % capacity` is its
    /// physical place).
    pub offset: u64,
    /// The record kind, which sizes the slot.
    pub kind: RecordKind,
    /// The caller's value for this slot.
    pub value: T,
}

/// A circular log of fixed-size slots. See the module docs.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    geometry: Geometry,
    capacity: u64,
    head: u64,
    tail: u64,
    entries: VecDeque<Entry<T>>,
}

impl<T> Ring<T> {
    /// An empty ring of `capacity` bytes laid out by `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity cannot hold a single undo+redo slot.
    pub fn new(geometry: Geometry, capacity: u64) -> Self {
        assert!(
            capacity >= geometry.undo_redo,
            "log ring of {capacity} bytes cannot hold a single entry"
        );
        Ring {
            geometry,
            capacity,
            head: 0,
            tail: 0,
            entries: VecDeque::new(),
        }
    }

    /// The slot layout.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The head register (monotonic offset of the oldest live byte).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// The tail register (monotonic offset one past the newest slot).
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Bytes between head and tail.
    pub fn used_bytes(&self) -> u64 {
        self.tail - self.head
    }

    /// Bytes free for appends.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used_bytes()
    }

    /// Whether the ring holds no live slots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The pass-parity (torn) bit of the slot at monotonic `offset`.
    pub fn pass_parity(&self, offset: u64) -> bool {
        pass_parity(offset, self.capacity)
    }

    /// The physical place of monotonic `offset`.
    pub fn position(&self, offset: u64) -> u64 {
        offset % self.capacity
    }

    /// Where a `kind` slot appended at monotonic `pos` starts: `pos`
    /// itself, or the start of the next pass when fewer than
    /// `max(slot, reserve)` bytes remain before the wrap point.
    pub fn place(&self, pos: u64, kind: RecordKind) -> u64 {
        let remain = self.capacity - pos % self.capacity;
        if remain < self.geometry.slot_bytes(kind).max(self.geometry.reserve) {
            pos + remain
        } else {
            pos
        }
    }

    /// Appends a `kind` slot at the tail. `value` builds the slot's value
    /// from the slot's pass parity. Returns the new entry, or `None` when
    /// the slot (after any wrap skip) does not fit in the free space — the
    /// §III-A overflow case, which the caller resolves by truncating or
    /// growing.
    pub fn append(&mut self, kind: RecordKind, value: impl FnOnce(bool) -> T) -> Option<&Entry<T>> {
        let offset = self.place(self.tail, kind);
        let end = offset + self.geometry.slot_bytes(kind);
        if end - self.head > self.capacity {
            return None;
        }
        let value = value(self.pass_parity(offset));
        self.tail = end;
        self.entries.push_back(Entry {
            offset,
            kind,
            value,
        });
        self.entries.back()
    }

    /// Advances the head to `offset` (log truncation, §III-F) and returns
    /// the slots that start below it, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside `[head, tail]`.
    pub fn truncate_to(&mut self, offset: u64) -> Drain<'_, Entry<T>> {
        assert!(
            offset >= self.head && offset <= self.tail,
            "truncate offset {offset} outside [{}, {}]",
            self.head,
            self.tail
        );
        self.head = offset;
        let dropped = self.entries.partition_point(|e| e.offset < offset);
        self.entries.drain(..dropped)
    }

    /// Deletes every slot: the head moves to the tail.
    pub fn clear(&mut self) {
        self.truncate_to(self.tail);
    }

    /// Restarts the ring on a durable `[head, tail)` window read back from
    /// control state. The ring holds no entries for it: the caller scans
    /// the window's slots itself, then clears it.
    ///
    /// # Panics
    ///
    /// Panics if the window is inverted or larger than the capacity.
    pub fn reopen(&mut self, head: u64, tail: u64) {
        assert!(
            head <= tail && tail - head <= self.capacity,
            "window [{head}, {tail}) does not fit a {}-byte ring",
            self.capacity
        );
        self.head = head;
        self.tail = tail;
        self.entries.clear();
    }

    /// Extends the ring with a temporary overflow region (§III-A option 2:
    /// "allocating a temporary region when the current one is filled by an
    /// in-flight transaction"). The capacity grows by `extra` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `extra` is zero or not line-aligned.
    pub fn grow(&mut self, extra: u64) {
        assert!(
            extra > 0 && extra.is_multiple_of(64),
            "overflow region must be line-aligned"
        );
        self.capacity += extra;
    }

    /// The live window, oldest first (the recovery scan order).
    pub fn entries(&self) -> impl DoubleEndedIterator<Item = &Entry<T>> + ExactSizeIterator {
        self.entries.iter()
    }

    /// The live entry at `offset`, for in-place mutation (fault injection).
    pub fn entry_mut(&mut self, offset: u64) -> Option<&mut Entry<T>> {
        let i = self
            .entries
            .binary_search_by_key(&offset, |e| e.offset)
            .ok()?;
        self.entries.get_mut(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{BYTE_SLOTS, SLOT_MAX};

    /// The simulator's Fig. 7 array layout: 32/24/16-byte slots that skip
    /// the wrap only when the slot itself does not fit.
    const ARRAY: Geometry = Geometry {
        undo_redo: 32,
        redo: 24,
        commit: 16,
        reserve: 0,
    };

    /// A ring of exactly `slots` undo+redo slots, under each geometry.
    /// Slot values record the parity the ring handed to `append`.
    fn rings(slots: u64) -> [Ring<bool>; 2] {
        [ARRAY, BYTE_SLOTS].map(|g| Ring::new(g, slots * g.undo_redo))
    }

    /// Appends a `kind` slot, returning its offset.
    fn push(ring: &mut Ring<bool>, kind: RecordKind) -> Option<u64> {
        ring.append(kind, |parity| parity).map(|e| e.offset)
    }

    #[test]
    fn appends_pack_by_slot_size_in_append_order() {
        for mut ring in rings(64) {
            let mut end = 0;
            for kind in RecordKind::ALL.into_iter().cycle().take(12) {
                assert_eq!(push(&mut ring, kind), Some(end));
                end += ring.geometry().slot_bytes(kind);
            }
            assert_eq!(ring.tail(), end);
            let kinds: Vec<RecordKind> = ring.entries().map(|e| e.kind).collect();
            assert_eq!(kinds, RecordKind::ALL.repeat(4));
        }
    }

    #[test]
    fn full_free_accounting_and_truncation() {
        for mut ring in rings(4) {
            let slot = ring.geometry().undo_redo;
            for n in 0..4 {
                assert_eq!(push(&mut ring, RecordKind::UndoRedo), Some(n * slot));
            }
            assert_eq!(push(&mut ring, RecordKind::UndoRedo), None, "full");
            assert_eq!((ring.used_bytes(), ring.free_bytes()), (4 * slot, 0));
            ring.truncate_to(0);
            let third = ring.entries().nth(2).unwrap().offset;
            let dropped: Vec<u64> = ring.truncate_to(third).map(|e| e.offset).collect();
            assert_eq!(dropped, [0, slot], "truncation hands back the prefix");
            assert_eq!((ring.entries().count(), ring.free_bytes()), (2, 2 * slot));
            assert!(push(&mut ring, RecordKind::UndoRedo).is_some());
            assert!(push(&mut ring, RecordKind::UndoRedo).is_some());
            assert_eq!(push(&mut ring, RecordKind::UndoRedo), None);
            ring.clear();
            assert!(ring.is_empty());
            assert_eq!((ring.head(), ring.used_bytes()), (ring.tail(), 0));
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn truncate_past_tail_panics() {
        let mut ring: Ring<bool> = Ring::new(BYTE_SLOTS, 4096);
        ring.truncate_to(64);
    }

    #[test]
    fn parity_flips_per_pass_and_positions_wrap() {
        for mut ring in rings(4) {
            for _ in 0..4 {
                push(&mut ring, RecordKind::UndoRedo).unwrap();
            }
            ring.truncate_to(ring.tail());
            let second = push(&mut ring, RecordKind::UndoRedo).unwrap();
            assert_eq!(second, ring.capacity());
            assert_eq!(ring.position(second), 0, "wrapped to the physical start");
            let parities: Vec<bool> = ring.entries().map(|e| e.value).collect();
            assert_eq!(parities, [true], "the second pass flips the bit");
            assert!(ring.pass_parity(second) && !ring.pass_parity(0));
        }
    }

    #[test]
    fn wrap_skip_with_reserve_zero_uses_the_slot_size() {
        // 112 bytes = 3.5 array undo+redo slots: the fourth must skip the
        // 16 dangling bytes and wait for space on the next pass, while a
        // 16-byte commit slot would still fit in them.
        let mut ring = Ring::new(ARRAY, 112);
        for _ in 0..3 {
            push(&mut ring, RecordKind::UndoRedo).unwrap();
        }
        assert_eq!(ring.place(96, RecordKind::UndoRedo), 112);
        assert_eq!(ring.place(96, RecordKind::Commit), 96);
        assert_eq!(
            push(&mut ring, RecordKind::UndoRedo),
            None,
            "skip needs 16 + 32"
        );
        ring.truncate_to(64);
        assert_eq!(push(&mut ring, RecordKind::UndoRedo), Some(112));
        assert_eq!(ring.used_bytes(), 112 + 32 - 64, "skipped bytes stay used");
    }

    #[test]
    fn wrap_skip_with_slot_max_reserve_ignores_the_kind() {
        // 160 bytes: after three 48-byte slots 16 bytes remain. Even a
        // 32-byte commit slot would fit there, but the reserve skips it.
        let mut ring = Ring::new(BYTE_SLOTS, 160);
        for _ in 0..3 {
            push(&mut ring, RecordKind::UndoRedo).unwrap();
        }
        for kind in RecordKind::ALL {
            assert_eq!(ring.place(144, kind), 160, "{kind:?}");
            assert_eq!(ring.place(160 - SLOT_MAX, kind), 160 - SLOT_MAX);
        }
        assert_eq!(push(&mut ring, RecordKind::Commit), None);
        ring.truncate_to(48);
        assert_eq!(push(&mut ring, RecordKind::Commit), Some(160));
    }

    #[test]
    fn grow_extends_the_pass() {
        for mut ring in rings(4) {
            while push(&mut ring, RecordKind::UndoRedo).is_some() {}
            let cap = ring.capacity();
            ring.grow(cap.next_multiple_of(64));
            assert_eq!(push(&mut ring, RecordKind::UndoRedo), Some(cap));
            assert_eq!(ring.entries().filter(|e| !e.value).count(), 5, "same pass");
        }
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn grow_rejects_unaligned_regions() {
        Ring::<bool>::new(ARRAY, 128).grow(48);
    }

    #[test]
    fn reopen_adopts_a_window_and_entry_mut_finds_live_slots() {
        let mut ring = Ring::new(ARRAY, 128);
        for _ in 0..3 {
            push(&mut ring, RecordKind::UndoRedo).unwrap();
        }
        ring.entry_mut(32).unwrap().value = true;
        assert!(ring.entries().nth(1).unwrap().value);
        assert!(ring.entry_mut(40).is_none(), "no slot starts there");
        ring.reopen(96, 208);
        assert!(ring.is_empty() && ring.entry_mut(32).is_none());
        assert_eq!((ring.head(), ring.tail()), (96, 208));
        ring.clear();
        assert_eq!(push(&mut ring, RecordKind::UndoRedo), Some(208));
    }
}
