//! A set of ROB positions as a bitmap, for the scheduler's Waiting and
//! armed sets.
//!
//! Position `i` is the `i`-th entry from the ROB head, so members come
//! out oldest first and retiring `k` entries shifts every position down
//! by `k`. Every operation is O(1) per machine word: a 224-entry ROB
//! needs four.

/// A set of ROB positions (offsets from the oldest un-retired entry).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(super) struct RobSet {
    words: Vec<u64>,
}

impl RobSet {
    /// An empty set for positions below `capacity`.
    pub(super) fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    pub(super) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(super) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub(super) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Empties the set, keeping its storage.
    pub(super) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The smallest member in `from..end`. Reads the words as it goes, so
    /// a member inserted past `from` since the last call is found.
    pub(super) fn next_in(&self, from: usize, end: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = self.words.get(w)? & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                return (i < end).then_some(i);
            }
            w += 1;
            word = *self.words.get(w)?;
        }
    }

    /// One past the `n`-th smallest member, or `usize::MAX` when the set
    /// has fewer than `n` members: positions below it hold exactly the
    /// first `n` members.
    pub(super) fn end_of_first(&self, n: usize) -> usize {
        debug_assert!(n > 0, "validation rejects a zero-entry window");
        let mut left = n;
        for (w, &word) in self.words.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if left <= ones {
                let mut word = word;
                for _ in 1..left {
                    word &= word - 1;
                }
                return w * 64 + word.trailing_zeros() as usize + 1;
            }
            left -= ones;
        }
        usize::MAX
    }

    /// Drops positions below `k` and moves every other member down by
    /// `k` (the ROB retired its `k` oldest entries).
    pub(super) fn pop_front(&mut self, k: usize) {
        let (skip, shift) = (k / 64, k % 64);
        for i in 0..self.words.len() {
            let lo = self.words.get(i + skip).copied().unwrap_or(0);
            let hi = self.words.get(i + skip + 1).copied().unwrap_or(0);
            self.words[i] = if shift == 0 {
                lo
            } else {
                lo >> shift | hi << (64 - shift)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(s: &RobSet) -> Vec<usize> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(i) = s.next_in(from, usize::MAX) {
            out.push(i);
            from = i + 1;
        }
        out
    }

    #[test]
    fn members_come_out_in_order_and_shift_on_pop_front() {
        let mut s = RobSet::new(224);
        for i in [0, 5, 63, 64, 130, 223] {
            s.insert(i);
        }
        s.remove(5);
        assert_eq!(members(&s), [0, 63, 64, 130, 223]);
        assert_eq!(s.next_in(1, 130), Some(63));
        assert_eq!(s.next_in(65, 130), None);
        assert_eq!(s.next_in(224, usize::MAX), None);
        assert_eq!(s.end_of_first(1), 1);
        assert_eq!(s.end_of_first(3), 65);
        assert_eq!(s.end_of_first(5), 224);
        assert_eq!(s.end_of_first(6), usize::MAX);
        s.pop_front(1);
        assert_eq!(members(&s), [62, 63, 129, 222]);
        s.pop_front(70);
        assert_eq!(members(&s), [59, 152]);
        assert!(s.contains(152) && !s.contains(151));
        s.clear();
        assert_eq!(members(&s), Vec::<usize>::new());
    }
}
