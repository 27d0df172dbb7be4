//! 128-bit fingerprints and a capped open-addressing table of them.
//!
//! Two parts of the checker decide "seen this before?" by hashing: the
//! enumerator's duplicate-state memo table ([`crate::exec`], under
//! [`crate::exec::Reduction::SleepSetMemo`]) and the race checker's set
//! of already-analyzed execution shapes ([`crate::checker`]). Both feed
//! `u64` words into a [`Fingerprint`], two SplitMix64-mixed lanes, and
//! keep the results in a [`FingerprintTable`] that starts small,
//! doubles at 3/4 load and stops admitting entries at a cap. Past the
//! cap, lookups of stored fingerprints still hit and new ones are
//! simply not remembered, so a caller that treats a miss as "do the
//! work" stays exact while its memory stays bounded.

/// SplitMix64 finalizer — the same mixer as the in-tree PRNG.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A 128-bit fingerprint under construction: every fed word is mixed
/// into two independent 64-bit lanes.
#[derive(Clone, Copy)]
pub(crate) struct Fingerprint {
    a: u64,
    b: u64,
}

impl Fingerprint {
    #[inline]
    pub(crate) fn new() -> Fingerprint {
        Fingerprint { a: 0x9E37_79B9_7F4A_7C15, b: 0x243F_6A88_85A3_08D3 }
    }

    #[inline]
    pub(crate) fn feed(&mut self, v: u64) {
        self.a = mix64(self.a ^ v);
        self.b = mix64(self.b.rotate_left(17) ^ v ^ 0xA076_1D64_78BD_642F);
    }

    /// The finished fingerprint, never 0 (a table's empty-slot mark).
    #[inline]
    pub(crate) fn finish(self) -> u128 {
        let fp = ((self.a as u128) << 64) | self.b as u128;
        if fp == 0 {
            1
        } else {
            fp
        }
    }
}

/// Open-addressing table from fingerprints to a small value, with
/// linear probing. Slot fingerprint 0 marks an empty slot.
pub(crate) struct FingerprintTable<T> {
    table: Vec<(u128, T)>,
    mask: usize,
    len: usize,
    max_slots: usize,
}

impl<T: Copy + Default> FingerprintTable<T> {
    /// A table of `init` slots that grows up to `max_slots`; both must
    /// be powers of two.
    pub(crate) fn new(init: usize, max_slots: usize) -> FingerprintTable<T> {
        debug_assert!(init.is_power_of_two() && max_slots.is_power_of_two() && init <= max_slots);
        FingerprintTable { table: vec![(0, T::default()); init], mask: init - 1, len: 0, max_slots }
    }

    /// Stored fingerprints.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes held by the slot array.
    pub(crate) fn bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<(u128, T)>()
    }

    /// Linear probe to the slot holding `fp`, or the first empty slot.
    fn slot(&self, fp: u128) -> usize {
        let mut i = (((fp as u64) ^ ((fp >> 64) as u64)) as usize) & self.mask;
        loop {
            let e = &self.table[i];
            if e.0 == fp || e.0 == 0 {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The value stored with `fp`, if it is present. Otherwise store
    /// `fp` with `value` (unless the table is at its cap) and return
    /// `None`.
    pub(crate) fn get_or_insert(&mut self, fp: u128, value: T) -> Option<&mut T> {
        debug_assert_ne!(fp, 0, "fingerprint 0 marks an empty slot");
        let i = self.slot(fp);
        if self.table[i].0 == fp {
            return Some(&mut self.table[i].1);
        }
        if (self.len + 1) * 4 > self.table.len() * 3 {
            if self.table.len() >= self.max_slots {
                return None;
            }
            self.grow();
        }
        let i = self.slot(fp);
        self.table[i] = (fp, value);
        self.len += 1;
        None
    }

    fn grow(&mut self) {
        let doubled = self.table.len() * 2;
        let old = std::mem::replace(&mut self.table, vec![(0, T::default()); doubled]);
        self.mask = doubled - 1;
        for e in old {
            if e.0 != 0 {
                let i = self.slot(e.0);
                self.table[i] = e;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_grows_to_its_cap_then_stops_admitting() {
        let mut t: FingerprintTable<u8> = FingerprintTable::new(4, 16);
        let fp = |i: u64| {
            let mut f = Fingerprint::new();
            f.feed(i);
            f.finish()
        };
        for i in 0..100 {
            assert!(t.get_or_insert(fp(i), i as u8).is_none());
        }
        // 3/4 of 16 slots: 12 stored, the rest forgotten.
        assert_eq!(t.len(), 12);
        for i in 0..12 {
            assert_eq!(t.get_or_insert(fp(i), 0).copied(), Some(i as u8));
        }
        assert!(t.get_or_insert(fp(12), 0).is_none());
        assert_eq!(t.len(), 12);
    }
}
