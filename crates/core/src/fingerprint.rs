//! 128-bit fingerprints and a capped open-addressing table of them.
//!
//! Two parts of the checker decide "seen this before?" by hashing: the
//! enumerator's duplicate-state memo table ([`crate::exec`], under
//! [`crate::exec::Reduction::SleepSetMemo`]) and the race checker's set
//! of already-analyzed execution shapes ([`crate::checker`]). Both feed
//! `u64` words into a [`Fingerprint`] and keep the results in a
//! [`FingerprintTable`] that starts small, doubles at 3/4 load and stops
//! admitting entries at a cap. Past the cap, lookups of stored
//! fingerprints still hit and new ones are simply not remembered, so a
//! caller that treats a miss as "do the work" stays exact while its
//! memory stays bounded.
//!
//! The mixer is two independent 64-bit lanes. Each fed word costs one
//! full-width 64×64→128 multiply per lane whose high and low halves are
//! xored together ([`fold`]); the lanes use distinct odd multipliers and
//! lane b sees the word rotated, so no word moves both lanes alike. The
//! SplitMix64 finalizer ([`mix64`]) runs once per lane, in
//! [`Fingerprint::finish`]. A wrong "seen" answer needs a 128-bit
//! collision, and the frozen enumeration and race-analysis digests pin
//! every explored, pruned and memo-pruned count the tables decide.

/// SplitMix64 finalizer — the same mixer as the in-tree PRNG.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Lane a's multiplier; also the multiplier of [`step`].
const FOLD_A: u64 = 0xA076_1D64_78BD_642F;
/// Lane b's multiplier.
const FOLD_B: u64 = 0xE703_7ED1_A0B4_28DB;
/// Lane b sees each fed word rotated left by this many bits.
const ROT_B: u32 = 32;

/// The 128-bit product of `x` and the odd `k`, its high and low halves
/// xored, so high bits of `x` reach the low bits of the result too.
#[inline]
fn fold(x: u64, k: u64) -> u64 {
    let p = x as u128 * k as u128;
    p as u64 ^ (p >> 64) as u64
}

/// One step of a 64-bit hash chain: `v` folded into `h`. A chain of
/// steps wants one [`mix64`] at its end when its value is summed.
#[inline]
pub(crate) fn step(h: u64, v: u64) -> u64 {
    fold(h ^ v, FOLD_A)
}

/// A 128-bit fingerprint under construction: every fed word is folded
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
        self.a = fold(self.a ^ v, FOLD_A);
        self.b = fold(self.b ^ v.rotate_left(ROT_B), FOLD_B);
    }

    /// The finished fingerprint, never 0 (a table's empty-slot mark).
    #[inline]
    pub(crate) fn finish(self) -> u128 {
        let fp = (mix64(self.a) as u128) << 64 | mix64(self.b) as u128;
        if fp == 0 {
            1
        } else {
            fp
        }
    }
}

/// One table slot: a fingerprint as two `u64` halves, so a `u64` value
/// packs into 24 bytes where a `u128` key would pad the slot to 32.
/// Halves `(0, 0)` mark an empty slot.
#[derive(Clone, Copy, Default)]
struct Slot<T> {
    hi: u64,
    lo: u64,
    value: T,
}

impl<T> Slot<T> {
    #[inline]
    fn holds(&self, hi: u64, lo: u64) -> bool {
        self.hi == hi && self.lo == lo
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.holds(0, 0)
    }
}

// The memo table's slot (fingerprint → sleep mask).
const _: () = assert!(std::mem::size_of::<Slot<u64>>() == 24);

/// Open-addressing table from fingerprints to a small value, with
/// linear probing.
pub(crate) struct FingerprintTable<T> {
    table: Vec<Slot<T>>,
    mask: usize,
    len: usize,
    max_slots: usize,
}

impl<T: Copy + Default> FingerprintTable<T> {
    /// A table of `init` slots that grows up to `max_slots`; both must
    /// be powers of two.
    pub(crate) fn new(init: usize, max_slots: usize) -> FingerprintTable<T> {
        debug_assert!(init.is_power_of_two() && max_slots.is_power_of_two() && init <= max_slots);
        FingerprintTable { table: vec![Slot::default(); init], mask: init - 1, len: 0, max_slots }
    }

    /// Stored fingerprints.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Linear probe to the slot holding `(hi, lo)`, or the first empty
    /// slot.
    fn slot(&self, hi: u64, lo: u64) -> usize {
        let mut i = (hi ^ lo) as usize & self.mask;
        loop {
            let e = &self.table[i];
            if e.holds(hi, lo) || e.is_empty() {
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
        let (hi, lo) = ((fp >> 64) as u64, fp as u64);
        let mut i = self.slot(hi, lo);
        if !self.table[i].is_empty() {
            return Some(&mut self.table[i].value);
        }
        if (self.len + 1) * 4 > self.table.len() * 3 {
            if self.table.len() >= self.max_slots {
                return None;
            }
            self.grow();
            i = self.slot(hi, lo);
        }
        self.table[i] = Slot { hi, lo, value };
        self.len += 1;
        None
    }

    fn grow(&mut self) {
        let doubled = self.table.len() * 2;
        let old = std::mem::replace(&mut self.table, vec![Slot::default(); doubled]);
        self.mask = doubled - 1;
        for e in old {
            if !e.is_empty() {
                let i = self.slot(e.hi, e.lo);
                self.table[i] = e;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Small values, the extremes, both lanes' initial constants (lane
    /// a's zeroes lane a when fed first) and both multipliers.
    fn alphabet() -> [u64; 9] {
        let init = Fingerprint::new();
        [0, 1, 2, u64::MAX, 1 << 63, init.a, init.b, FOLD_A, FOLD_B]
    }

    /// Every sequence of at most three words over [`alphabet`], the
    /// empty one included.
    fn sequences() -> Vec<Vec<u64>> {
        let mut all = vec![Vec::new()];
        let mut last = vec![Vec::new()];
        for _ in 0..3 {
            last = last
                .iter()
                .flat_map(|s: &Vec<u64>| {
                    alphabet().into_iter().map(move |w| [s.as_slice(), &[w]].concat())
                })
                .collect();
            all.extend(last.iter().cloned());
        }
        all
    }

    fn fed(words: &[u64]) -> Fingerprint {
        let mut f = Fingerprint::new();
        words.iter().for_each(|&w| f.feed(w));
        f
    }

    fn fp(words: &[u64]) -> u128 {
        fed(words).finish()
    }

    #[test]
    fn structured_inputs_have_distinct_fingerprints() {
        let seqs = sequences();
        assert_eq!(seqs.len(), 1 + 9 + 81 + 729);
        let mut seen: HashMap<u128, &[u64]> = HashMap::new();
        for s in &seqs {
            if let Some(other) = seen.insert(fp(s), s) {
                panic!("{s:x?} and {other:x?} share a fingerprint");
            }
        }
        for v in alphabet() {
            assert_ne!(fp(&[v]), fp(&[v, 0]), "{v:#x}");
            assert_ne!(fp(&[v, 0]), fp(&[v, 0, 0]), "{v:#x}");
            for w in alphabet().into_iter().filter(|&w| w != v) {
                assert_ne!(fp(&[v, w]), fp(&[w, v]), "{v:#x} {w:#x}");
            }
        }
    }

    /// A fed word equal to lane a's state zeroes lane a, and later
    /// words then see the lane as if nothing came before. Apart from
    /// that, each lane alone separates every checked sequence.
    #[test]
    fn each_lane_alone_separates_structured_inputs() {
        let seqs = sequences();
        let zeroes_a = Fingerprint::new().a;
        let mut lane_a = HashMap::new();
        let mut lane_b = HashMap::new();
        for s in &seqs {
            let f = fed(s);
            if s.first() != Some(&zeroes_a) {
                assert!(lane_a.insert(f.a, s).is_none(), "lane a: {s:x?}");
            }
            assert!(lane_b.insert(f.b, s).is_none(), "lane b: {s:x?}");
        }
    }

    #[test]
    fn no_word_zeroes_both_lanes() {
        for s in sequences() {
            let f = fed(&s);
            // The only words that cancel a lane's state before its fold.
            let (zero_a, zero_b) = (f.a, f.b.rotate_right(ROT_B));
            let mut g = f;
            g.feed(zero_a);
            assert_eq!(g.a, 0);
            assert_ne!(g.b, 0, "{s:x?}");
            let mut g = f;
            g.feed(zero_b);
            assert_eq!(g.b, 0);
            assert_ne!(g.a, 0, "{s:x?}");
        }
    }

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
