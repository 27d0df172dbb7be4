//! A small relation-algebra toolkit.
//!
//! Herd models (like the paper's Listing 7) are written as expressions
//! over binary relations on events: unions, intersections, differences,
//! sequential composition (`;`), transitive closure (`+`), inverses, and
//! restrictions to classes of events (`Paired * PairedR`, `at-least-one
//! W`...). [`Relation`] provides exactly those combinators over a dense
//! bit matrix, which is the right representation for litmus-sized
//! executions (tens of events).
//!
//! Rows are packed into `u64` words, so the set operations, sequential
//! composition and the O(n³) row-OR Floyd–Warshall closure all work on
//! 64 event pairs per instruction. The race detector in
//! [`crate::races`] does not use the general combinators on its hot
//! path: it fills rows directly through crate-internal row access and
//! closes `hb1` with `Relation::close_forward`, a single backward
//! pass that relies on every edge pointing forward in event-id order.
//!
//! Storage is one flat `Vec<u64>` of exactly `n * stride` words.
//! [`Relation::reset`] empties it in place, so the enumerator's
//! per-execution relations and the race detector's scratch analysis
//! reuse one buffer each and stop allocating once they have held
//! their largest carrier.

use std::fmt;

/// Bits per packed word.
const WORD: usize = 64;

/// A binary relation over event ids `0..n`.
///
/// ```
/// use drfrlx_core::relation::Relation;
///
/// let po = Relation::from_pairs(3, [(0, 1), (1, 2)]);
/// let hb = po.transitive_closure();
/// assert!(hb.contains(0, 2));
/// assert!(hb.is_acyclic());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    n: usize,
    /// Words per row (`ceil(n / 64)`).
    stride: usize,
    /// Row-major packed bits, exactly `n * stride` words; tail bits of
    /// each row beyond `n` are always zero (an invariant every operation
    /// preserves, so derived equality is exact).
    words: Vec<u64>,
}

impl Relation {
    /// The empty relation over `n` events.
    pub fn empty(n: usize) -> Relation {
        let stride = n.div_ceil(WORD);
        Relation { n, stride, words: vec![0; n * stride] }
    }

    /// Reset in place to the empty relation over `n`, reusing storage:
    /// once the buffer has held `n * ceil(n / 64)` words, resetting to
    /// any carrier up to that size does not allocate.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.stride = n.div_ceil(WORD);
        self.words.clear();
        self.words.resize(n * self.stride, 0);
    }

    /// Mask selecting the valid bits of a row's last word.
    fn tail_mask(&self) -> u64 {
        if self.n.is_multiple_of(WORD) {
            !0
        } else {
            (1u64 << (self.n % WORD)) - 1
        }
    }

    /// Zero the tail bits of every row (after a whole-word operation
    /// that may have set them).
    fn clear_tail(&mut self) {
        if self.stride == 0 {
            return;
        }
        let mask = self.tail_mask();
        let stride = self.stride;
        let words = &mut self.words;
        for row in 0..self.n {
            words[row * stride + stride - 1] &= mask;
        }
    }

    /// The full relation (every ordered pair, including reflexive ones).
    pub fn full(n: usize) -> Relation {
        let mut r = Relation::empty(n);
        r.words.fill(!0);
        r.clear_tail();
        r
    }

    /// The identity relation.
    pub fn identity(n: usize) -> Relation {
        let mut r = Relation::empty(n);
        for i in 0..n {
            r.insert(i, i);
        }
        r
    }

    /// Build from an explicit pair list.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (usize, usize)>) -> Relation {
        let mut r = Relation::empty(n);
        for (a, b) in pairs {
            r.insert(a, b);
        }
        r
    }

    /// The product `A × B` of two event sets, as a relation.
    pub fn product(n: usize, a: &[bool], b: &[bool]) -> Relation {
        debug_assert_eq!(a.len(), n);
        debug_assert_eq!(b.len(), n);
        let mut r = Relation::empty(n);
        // Pack B once, then copy it into every row of a member of A.
        let mut brow = vec![0u64; r.stride];
        for (j, &bj) in b.iter().enumerate() {
            if bj {
                brow[j / WORD] |= 1u64 << (j % WORD);
            }
        }
        let stride = r.stride;
        let words = &mut r.words;
        for (i, &ai) in a.iter().enumerate() {
            if ai {
                words[i * stride..(i + 1) * stride].copy_from_slice(&brow);
            }
        }
        r
    }

    /// Number of events in the carrier.
    pub fn carrier(&self) -> usize {
        self.n
    }

    /// Add a pair.
    pub fn insert(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n, "pair out of carrier");
        self.words[a * self.stride + b / WORD] |= 1u64 << (b % WORD);
    }

    /// Remove a pair (no-op if absent). The retract half of the
    /// streaming enumerator's push/pop dependency-edge maintenance.
    pub fn remove(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n, "pair out of carrier");
        self.words[a * self.stride + b / WORD] &= !(1u64 << (b % WORD));
    }

    /// Test membership.
    pub fn contains(&self, a: usize, b: usize) -> bool {
        self.words[a * self.stride + b / WORD] & (1u64 << (b % WORD)) != 0
    }

    /// The restriction of the relation to the carrier prefix `0..m`.
    ///
    /// The streaming enumerator maintains its dependency relations over
    /// a carrier sized for the whole program; a completed execution only uses the
    /// events actually performed, so its relations are the prefix
    /// restriction. Requires `m <= carrier()` and that no pair touches
    /// an event `>= m` (which holds by construction for the enumerator:
    /// events are appended and edges only reference existing events).
    pub fn restrict(&self, m: usize) -> Relation {
        let mut out = Relation::empty(m);
        self.restrict_into(m, &mut out);
        out
    }

    /// [`Relation::restrict`] into a caller-provided scratch relation,
    /// reusing its storage (the streaming enumerator's per-emit path).
    pub fn restrict_into(&self, m: usize, out: &mut Relation) {
        assert!(m <= self.n, "restriction larger than carrier");
        out.reset(m);
        let src_all = &self.words;
        let dst_stride = out.stride;
        let dst = &mut out.words;
        for row in 0..m {
            let src = &src_all[row * self.stride..row * self.stride + dst_stride];
            dst[row * dst_stride..(row + 1) * dst_stride].copy_from_slice(src);
        }
        out.clear_tail();
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate over pairs in row-major order without allocating.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let words = &self.words;
        (0..self.n).flat_map(move |row| {
            words[row * self.stride..(row + 1) * self.stride].iter().enumerate().flat_map(
                move |(wi, &w)| BitIter { word: w, base: wi * WORD }.map(move |col| (row, col)),
            )
        })
    }

    /// Iterate over pairs in row-major order (alias of
    /// [`Relation::iter_pairs`], kept for existing callers).
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.iter_pairs()
    }

    /// Collect into a pair vector (useful in tests).
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        self.iter_pairs().collect()
    }

    /// Union.
    pub fn union(&self, other: &Relation) -> Relation {
        self.zip(other, |a, b| a | b)
    }

    /// Intersection (`&` in Herd).
    pub fn intersect(&self, other: &Relation) -> Relation {
        self.zip(other, |a, b| a & b)
    }

    /// Set difference (`\` in Herd).
    pub fn minus(&self, other: &Relation) -> Relation {
        self.zip(other, |a, b| a & !b)
    }

    /// Word-parallel binary combinator. `f` must map (0, 0) to 0 so the
    /// tail-bit invariant is preserved (union/intersect/minus all do).
    fn zip(&self, other: &Relation, f: impl Fn(u64, u64) -> u64) -> Relation {
        assert_eq!(self.n, other.n, "relations over different carriers");
        let mut out = Relation::empty(self.n);
        let dst = &mut out.words;
        for ((d, &a), &b) in dst.iter_mut().zip(&self.words).zip(&other.words) {
            *d = f(a, b);
        }
        out
    }

    /// Sequential composition (`;` in Herd): `(a, c)` iff there is `b`
    /// with `self(a, b)` and `other(b, c)`. Row-OR: for every `b` in
    /// row `a` of `self`, OR `other`'s row `b` into the output row.
    pub fn seq(&self, other: &Relation) -> Relation {
        assert_eq!(self.n, other.n, "relations over different carriers");
        let mut out = Relation::empty(self.n);
        let stride = self.stride;
        let (mine, theirs, ws) = (&self.words, &other.words, &mut out.words);
        for a in 0..self.n {
            let row = &mine[a * stride..(a + 1) * stride];
            for (wi, &w) in row.iter().enumerate() {
                for b in (BitIter { word: w, base: wi * WORD }) {
                    let (dst, src) = (a * stride, b * stride);
                    for k in 0..stride {
                        ws[dst + k] |= theirs[src + k];
                    }
                }
            }
        }
        out
    }

    /// Inverse (`^-1` in Herd).
    pub fn inverse(&self) -> Relation {
        let mut out = Relation::empty(self.n);
        for (a, b) in self.iter_pairs() {
            out.insert(b, a);
        }
        out
    }

    /// Complement (`~` in Herd).
    pub fn complement(&self) -> Relation {
        let mut out = Relation::empty(self.n);
        for (d, &w) in out.words.iter_mut().zip(&self.words) {
            *d = !w;
        }
        out.clear_tail();
        out
    }

    /// Irreflexive transitive closure (`+` in Herd): row-OR
    /// Floyd–Warshall, 64 pairs per word operation.
    pub fn transitive_closure(&self) -> Relation {
        let mut r = self.clone();
        let stride = r.stride;
        for k in 0..r.n {
            for i in 0..r.n {
                if i == k || !r.contains(i, k) {
                    continue;
                }
                let (krow, irow) = (k * stride, i * stride);
                // Rows are disjoint slices of one buffer; split to OR
                // one into the other without cloning.
                let (lo, hi, dst_is_lo) =
                    if irow < krow { (irow, krow, true) } else { (krow, irow, false) };
                let (head, tail) = r.words.split_at_mut(hi);
                let (a, b) = (&mut head[lo..lo + stride], &mut tail[..stride]);
                let (dst, src) = if dst_is_lo { (a, b) } else { (b, a) };
                for w in 0..stride {
                    dst[w] |= src[w];
                }
            }
        }
        r
    }

    /// Every row's packed words, row after row.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Row `a`'s packed words (`ceil(n / 64)` of them).
    pub(crate) fn row(&self, a: usize) -> &[u64] {
        &self.words[a * self.stride..(a + 1) * self.stride]
    }

    /// Row `a`'s packed words, mutably. Callers keep the tail bits
    /// beyond `n` zero.
    pub(crate) fn row_mut(&mut self, a: usize) -> &mut [u64] {
        let stride = self.stride;
        &mut self.words[a * stride..(a + 1) * stride]
    }

    /// Transitive closure in place of a relation whose pairs all point
    /// forward (`a < b`), so ids are already a topological order: one
    /// backward pass ORs each successor's finished row into its
    /// predecessor's, 64 pairs per word operation.
    pub(crate) fn close_forward(&mut self) {
        let stride = self.stride;
        let words = &mut self.words;
        for a in (0..self.n).rev() {
            let (head, closed) = words.split_at_mut((a + 1) * stride);
            let row = &mut head[a * stride..];
            for wi in 0..stride {
                for b in (BitIter { word: row[wi], base: wi * WORD }) {
                    debug_assert!(b > a, "close_forward on a backward pair ({a}, {b})");
                    let src = &closed[(b - a - 1) * stride..(b - a) * stride];
                    row.iter_mut().zip(src).for_each(|(d, &s)| *d |= s);
                }
            }
        }
    }

    /// Add the inverse of every pair of a relation whose pairs all
    /// point forward (`a < b`), making it symmetric. Rows are visited
    /// from the last, so each still holds only its own forward pairs
    /// when it is read.
    pub(crate) fn mirror_forward(&mut self) {
        for a in (0..self.n).rev() {
            for wi in 0..self.stride {
                for b in (BitIter { word: self.row(a)[wi], base: wi * WORD }) {
                    debug_assert!(b > a, "mirror_forward on a backward pair ({a}, {b})");
                    self.insert(b, a);
                }
            }
        }
    }

    /// Keep only pairs `(a, b)` where `pred(a, b)`.
    pub fn filter(&self, pred: impl Fn(usize, usize) -> bool) -> Relation {
        let mut out = Relation::empty(self.n);
        for (a, b) in self.iter_pairs() {
            if pred(a, b) {
                out.insert(a, b);
            }
        }
        out
    }

    /// Is the relation acyclic (no event reaches itself through 1+ edges)?
    pub fn is_acyclic(&self) -> bool {
        let c = self.transitive_closure();
        (0..self.n).all(|i| !c.contains(i, i))
    }

    /// Remove reflexive pairs.
    pub fn irreflexive(&self) -> Relation {
        let mut out = self.clone();
        let stride = out.stride;
        let words = &mut out.words;
        for i in 0..out.n {
            words[i * stride + i / WORD] &= !(1u64 << (i % WORD));
        }
        out
    }
}

/// Iterator over the set bit positions of one word, offset by `base`.
struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation{{n={}, pairs={:?}}}", self.n, self.pairs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: usize, pairs: &[(usize, usize)]) -> Relation {
        Relation::from_pairs(n, pairs.iter().copied())
    }

    #[test]
    fn union_intersect_minus() {
        let a = r(3, &[(0, 1), (1, 2)]);
        let b = r(3, &[(1, 2), (2, 0)]);
        assert_eq!(a.union(&b).pairs(), vec![(0, 1), (1, 2), (2, 0)]);
        assert_eq!(a.intersect(&b).pairs(), vec![(1, 2)]);
        assert_eq!(a.minus(&b).pairs(), vec![(0, 1)]);
    }

    #[test]
    fn composition() {
        let a = r(4, &[(0, 1), (2, 3)]);
        let b = r(4, &[(1, 2), (3, 0)]);
        assert_eq!(a.seq(&b).pairs(), vec![(0, 2), (2, 0)]);
    }

    #[test]
    fn closure_is_transitive_and_minimal_superset() {
        let a = r(4, &[(0, 1), (1, 2), (2, 3)]);
        let c = a.transitive_closure();
        for (x, y) in c.pairs() {
            for (y2, z) in c.pairs() {
                if y == y2 {
                    assert!(c.contains(x, z), "closure not transitive at ({x},{y},{z})");
                }
            }
        }
        assert!(c.contains(0, 3));
        assert!(!c.contains(3, 0));
        assert!(!c.contains(0, 0));
    }

    #[test]
    fn acyclicity() {
        assert!(r(3, &[(0, 1), (1, 2)]).is_acyclic());
        assert!(!r(3, &[(0, 1), (1, 2), (2, 0)]).is_acyclic());
        // Self-loop is a cycle.
        assert!(!r(2, &[(0, 0)]).is_acyclic());
    }

    #[test]
    fn inverse_and_complement() {
        let a = r(2, &[(0, 1)]);
        assert_eq!(a.inverse().pairs(), vec![(1, 0)]);
        let comp = a.complement();
        assert!(comp.contains(1, 0) && comp.contains(0, 0) && !comp.contains(0, 1));
    }

    #[test]
    fn product_of_sets() {
        let writes = vec![true, false, true];
        let reads = vec![false, true, false];
        let p = Relation::product(3, &writes, &reads);
        assert_eq!(p.pairs(), vec![(0, 1), (2, 1)]);
    }

    #[test]
    fn identity_and_irreflexive() {
        let id = Relation::identity(3);
        assert_eq!(id.len(), 3);
        assert!(id.irreflexive().is_empty());
    }

    #[test]
    fn demorgan_like_laws() {
        // (A ∪ B) \ B ⊆ A ; (A ∩ B) ⊆ A ; closure idempotent.
        let a = r(4, &[(0, 1), (1, 3), (3, 2)]);
        let b = r(4, &[(1, 3), (2, 2)]);
        for (x, y) in a.union(&b).minus(&b).pairs() {
            assert!(a.contains(x, y));
        }
        for (x, y) in a.intersect(&b).pairs() {
            assert!(a.contains(x, y) && b.contains(x, y));
        }
        let c = a.transitive_closure();
        assert_eq!(c.transitive_closure(), c);
    }

    /// Cross-check the packed operations against a naive `Vec<bool>`
    /// model on carriers that straddle word boundaries.
    #[test]
    fn packed_ops_match_naive_model_across_word_boundaries() {
        // Deterministic pseudo-random pairs (SplitMix64 mixing).
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for n in [1usize, 7, 63, 64, 65] {
            let gen = |next: &mut dyn FnMut() -> u64, density: u64| -> Vec<Vec<bool>> {
                (0..n).map(|_| (0..n).map(|_| next() % 100 < density).collect()).collect()
            };
            let ma = gen(&mut next, 15);
            let mb = gen(&mut next, 15);
            let pack = |m: &Vec<Vec<bool>>| {
                Relation::from_pairs(
                    n,
                    m.iter().enumerate().flat_map(|(i, r)| {
                        r.iter().enumerate().filter(|(_, &b)| b).map(move |(j, _)| (i, j))
                    }),
                )
            };
            let (a, b) = (pack(&ma), pack(&mb));
            let (u, x_, m_, c_, s_) =
                (a.union(&b), a.intersect(&b), a.minus(&b), a.complement(), a.seq(&b));
            for x in 0..n {
                for y in 0..n {
                    assert_eq!(a.contains(x, y), ma[x][y]);
                    assert_eq!(u.contains(x, y), ma[x][y] || mb[x][y]);
                    assert_eq!(x_.contains(x, y), ma[x][y] && mb[x][y]);
                    assert_eq!(m_.contains(x, y), ma[x][y] && !mb[x][y]);
                    assert_eq!(c_.contains(x, y), !ma[x][y]);
                    let naive_seq = (0..n).any(|mid| ma[x][mid] && mb[mid][y]);
                    assert_eq!(s_.contains(x, y), naive_seq, "seq mismatch n={n}");
                }
            }
            // Naive boolean Floyd–Warshall closure.
            let mut cl = ma.clone();
            for k in 0..n {
                for i in 0..n {
                    if cl[i][k] {
                        let row_k = cl[k].clone();
                        cl[i].iter_mut().zip(&row_k).for_each(|(c, &r)| *c |= r);
                    }
                }
            }
            let packed = a.transitive_closure();
            for (x, row) in cl.iter().enumerate() {
                for (y, &bit) in row.iter().enumerate() {
                    assert_eq!(packed.contains(x, y), bit, "closure mismatch ({x},{y}) n={n}");
                }
            }
            assert_eq!(a.pairs().len(), a.len());
        }
    }

    /// The forward-only closure and mirror agree with the general
    /// Floyd–Warshall closure and `union(inverse)` on random forward
    /// relations, across word boundaries.
    #[test]
    fn forward_closure_and_mirror_match_the_general_operations() {
        let mut state = 0x0bad_cafe_f00d_1234u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for n in [0usize, 1, 7, 63, 64, 65, 130] {
            let mut a = Relation::empty(n);
            for x in 0..n {
                for y in x + 1..n {
                    if next() % 100 < 8 {
                        a.insert(x, y);
                    }
                }
            }
            let mut closed = a.clone();
            closed.close_forward();
            assert_eq!(closed, a.transitive_closure(), "closure n={n}");
            let mut mirrored = a.clone();
            mirrored.mirror_forward();
            assert_eq!(mirrored, a.union(&a.inverse()), "mirror n={n}");
        }
    }

    #[test]
    fn full_and_tail_bits_stay_clean() {
        for n in [1usize, 63, 64, 65, 100] {
            let f = Relation::full(n);
            assert_eq!(f.len(), n * n);
            assert_eq!(f.complement(), Relation::empty(n));
            assert_eq!(Relation::empty(n).complement(), f);
            assert_eq!(f.irreflexive().len(), n * n - n);
        }
    }

    #[test]
    #[should_panic(expected = "pair out of carrier")]
    fn out_of_carrier_insert_rejected() {
        let mut a = Relation::empty(3);
        a.insert(0, 3);
    }

    #[test]
    fn remove_undoes_insert_exactly() {
        for n in [3usize, 64, 65, 130] {
            let mut a = r(n, &[(0, 1), (1, 2), (2, 0)]);
            let before = a.clone();
            a.insert(0, n - 1);
            a.insert(n - 1, 1);
            assert_ne!(a, before);
            a.remove(0, n - 1);
            a.remove(n - 1, 1);
            assert_eq!(a, before);
            // Removing an absent pair is a no-op.
            a.remove(1, 0);
            assert_eq!(a, before);
        }
    }

    /// `reset`/`restrict_into` must agree with the allocating paths no
    /// matter what carrier the scratch previously held, growing or
    /// shrinking, across one-word and multi-word strides.
    #[test]
    fn reset_and_restrict_into_reuse_storage_exactly() {
        let mut scratch = Relation::empty(0);
        // Sizes chosen to bounce between one-word rows and 129-event
        // carriers (3 words per row) in both directions.
        for (n, m) in [(6usize, 3usize), (24, 24), (129, 65), (30, 7), (129, 129), (5, 0)] {
            let mut a = Relation::empty(n);
            for i in 0..n {
                for j in 0..n {
                    if (i * 11 + j * 5) % 4 == 0 {
                        a.insert(i, j);
                    }
                }
            }
            a.restrict_into(m, &mut scratch);
            assert_eq!(scratch, a.restrict(m), "n={n} m={m}");
            scratch.reset(m);
            assert_eq!(scratch, Relation::empty(m), "reset n={n} m={m}");
        }
    }

    #[test]
    fn restrict_keeps_the_carrier_prefix() {
        for (n, m) in [(6usize, 3usize), (100, 64), (130, 65), (70, 70), (5, 0)] {
            let mut a = Relation::empty(n);
            for i in 0..m {
                for j in 0..m {
                    if (i * 7 + j * 13) % 3 == 0 {
                        a.insert(i, j);
                    }
                }
            }
            let small = a.restrict(m);
            assert_eq!(small.carrier(), m);
            assert_eq!(small.len(), a.len());
            for i in 0..m {
                for j in 0..m {
                    assert_eq!(small.contains(i, j), a.contains(i, j), "({i},{j}) n={n} m={m}");
                }
            }
        }
    }
}
