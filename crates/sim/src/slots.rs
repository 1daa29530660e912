//! A chunked slot table: where a value waits between the call that
//! schedules it and the calendar event that consumes it.
//!
//! The calendar carries `(key, token)` pairs, not values, so anything an
//! event needs beyond its token — a boxed closure, a frame in flight — is
//! parked here and the slot index becomes the token. Slots live in
//! fixed-size chunks of [`CHUNK`]; the lowest free slot is always taken,
//! so a steady state stays in the low chunks and a burst spills into
//! higher ones. A chunk other than chunk 0 is freed once it is empty,
//! unless the chunk below it is full — the one boundary a steady state
//! can oscillate across, where freeing would allocate again at the next
//! insert. The table therefore does not keep its burst high-water mark.

/// Slots per chunk (one bit each in the occupancy word).
const CHUNK: usize = 64;

struct Chunk<T> {
    /// Bit `i` set: `slots[i]` holds a value.
    used: u64,
    slots: [Option<T>; CHUNK],
}

pub(crate) struct Slots<T> {
    chunks: Vec<Option<Box<Chunk<T>>>>,
    /// Every chunk below this index is allocated and full.
    hint: usize,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            chunks: Vec::new(),
            hint: 0,
        }
    }
}

impl<T> Slots<T> {
    /// Parks `value` in the lowest free slot and returns the slot index.
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        let mut i = self.hint;
        loop {
            if i == self.chunks.len() {
                self.chunks.push(None);
            }
            let chunk = self.chunks[i].get_or_insert_with(|| {
                Box::new(Chunk {
                    used: 0,
                    slots: std::array::from_fn(|_| None),
                })
            });
            if chunk.used != u64::MAX {
                let bit = (!chunk.used).trailing_zeros() as usize;
                chunk.used |= 1 << bit;
                chunk.slots[bit] = Some(value);
                self.hint = i;
                return u32::try_from(i * CHUNK + bit).expect("slot index fits u32");
            }
            i += 1;
        }
    }

    /// Takes the value out of `slot`, freeing every chunk this leaves
    /// empty and not right above a full chunk.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds no value.
    pub(crate) fn remove(&mut self, slot: u32) -> T {
        let (i, bit) = (slot as usize / CHUNK, slot as usize % CHUNK);
        let chunk = self.chunks[i].as_mut().expect("slot's chunk is allocated");
        let value = chunk.slots[bit].take().expect("slot holds a value");
        let was_full = chunk.used == u64::MAX;
        chunk.used &= !(1 << bit);
        if chunk.used == 0 && i > 0 && self.used(i - 1) != Some(u64::MAX) {
            self.free(i);
        } else if was_full && self.used(i + 1) == Some(0) {
            self.free(i + 1);
        }
        self.hint = self.hint.min(i);
        value
    }

    /// Occupancy of chunk `i`, if allocated.
    fn used(&self, i: usize) -> Option<u64> {
        self.chunks.get(i)?.as_ref().map(|c| c.used)
    }

    fn free(&mut self, i: usize) {
        self.chunks[i] = None;
        while matches!(self.chunks.last(), Some(None)) {
            self.chunks.pop();
        }
    }

    /// Chunks currently allocated.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }

    /// Values currently parked.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.chunks
            .iter()
            .flatten()
            .map(|c| c.used.count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_free_slot_is_reused() {
        let mut s = Slots::default();
        let a = s.insert('a');
        let b = s.insert('b');
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.remove(a), 'a');
        assert_eq!(s.insert('c'), 0);
        assert_eq!(s.remove(b), 'b');
        assert_eq!(s.remove(0), 'c');
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn a_burst_spills_into_chunks_that_are_freed_as_they_empty() {
        let mut s = Slots::default();
        let slots: Vec<u32> = (0..1000u32).map(|v| s.insert(v)).collect();
        assert_eq!(s.chunks(), 1000usize.div_ceil(CHUNK));
        for (v, slot) in slots.into_iter().enumerate() {
            assert_eq!(s.remove(slot), v as u32);
        }
        assert_eq!((s.len(), s.chunks()), (0, 1), "only chunk 0 stays");
        assert!(s.chunks.len() <= 1, "no trailing empty entries");
    }

    #[test]
    fn a_chunk_right_above_a_full_one_is_kept_until_that_one_frees_a_slot() {
        let mut s = Slots::default();
        let resident: Vec<u32> = (0..CHUNK as u32).map(|v| s.insert(v)).collect();
        for _ in 0..3 {
            let slot = s.insert(99);
            assert_eq!(slot, CHUNK as u32, "spills into chunk 1");
            s.remove(slot);
            assert_eq!(s.chunks(), 2, "the boundary chunk is not freed");
        }
        s.remove(resident[5]);
        assert_eq!(s.chunks(), 1, "chunk 0 has room again: chunk 1 goes");
        // Emptied from the top down, every chunk goes as its lower
        // neighbour stops being full.
        let slots: Vec<u32> = (0..3 * CHUNK as u32).map(|v| s.insert(v)).collect();
        for &slot in slots.iter().rev() {
            s.remove(slot);
        }
        for &slot in resident.iter().filter(|&&r| r != resident[5]) {
            s.remove(slot);
        }
        assert_eq!((s.len(), s.chunks()), (0, 1));
    }
}
