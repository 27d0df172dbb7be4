//! Set-associative cache array with LRU replacement and pluggable
//! per-line state.

use crate::LineAddr;
use std::fmt::Debug;

/// Cache geometry.
#[derive(Debug, Clone)]
pub struct CacheParams {
    /// Number of sets (any positive count: a line maps to set
    /// `line % sets`).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheParams {
    /// Geometry for a cache of `bytes` capacity with `line_bytes` lines
    /// and the given associativity (paper Table 2: 32 KB 8-way L1s,
    /// 4 MB 16-bank L2).
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn with_capacity(bytes: usize, line_bytes: usize, ways: usize) -> CacheParams {
        let lines = bytes / line_bytes;
        assert!(lines.is_multiple_of(ways), "capacity must divide into sets");
        CacheParams { sets: lines / ways, ways }
    }
}

#[derive(Debug, Clone)]
struct Way<S> {
    tag: LineAddr,
    state: S,
    /// Higher = more recently used.
    lru: u64,
}

/// An evicted line returned to the caller (for writebacks).
#[derive(Debug, Clone)]
pub struct EvictedLine<S> {
    /// The line's address.
    pub line: LineAddr,
    /// Its state at eviction.
    pub state: S,
}

/// A set-associative array storing per-line state `S`.
///
/// The array is purely structural: protocols decide what states mean,
/// which lines are victims (`insert` evicts LRU) and what to do with
/// evicted state, and the memory system that drives it counts and
/// traces hits, misses and invalidations. The array keeps no
/// statistics.
///
/// The set table is allocated at the first insert, not in
/// [`Cache::new`], and [`Cache::reset`] empties it in place instead of
/// dropping it. One Table-2 machine has 5,120 sets across its L1s and
/// L2 banks, while a conformance job touches a few lines in a few of
/// them, so building and dropping the whole table per job would dominate
/// its cost; a machine reused across jobs keeps its table and the ways
/// its sets grew. Until the first insert every read-side call takes the
/// miss path.
///
/// A one-word occupancy summary lets flash invalidation skip empty
/// sets: bit `g` means "set group `g` may hold a line", where a group is
/// `⌈sets/64⌉` consecutive sets (one set per bit on a Table-2 L1).
/// [`Cache::insert_with_pin`] sets the bit; [`Cache::invalidate_where`]
/// and [`Cache::reset`] visit only groups whose bit is set, and the
/// former clears the bit of a group it empties. GPU coherence
/// self-invalidates the whole L1 at every acquire while the L1 typically
/// holds a line or two, so walking all 64 sets there would cost far more
/// than the lines dropped; for the same reason a reset costs what the
/// previous run touched.
///
/// ```
/// use hsim_mem::{Cache, CacheParams, LineAddr};
///
/// let mut l1: Cache<bool> = Cache::new(CacheParams::with_capacity(32 * 1024, 64, 8));
/// assert!(l1.lookup(LineAddr(7)).is_none());
/// l1.insert(LineAddr(7), true);
/// assert_eq!(l1.lookup(LineAddr(7)), Some(&mut true));
/// ```
#[derive(Debug, Clone)]
pub struct Cache<S> {
    params: CacheParams,
    sets: Vec<Va<S>>,
    /// Bit `g`: set group `g` may hold a line (see [`Cache`]).
    occupied: u64,
    clock: u64,
}

type Va<S> = Vec<Way<S>>;

impl<S: Clone + Debug> Cache<S> {
    /// Create an empty cache. Allocates nothing: the set table is built
    /// by the first insert (see [`Cache`]).
    pub fn new(params: CacheParams) -> Cache<S> {
        let mut cache = Cache { params: params.clone(), sets: Vec::new(), occupied: 0, clock: 0 };
        cache.reset(&params);
        cache
    }

    /// Return to the empty cache a fresh [`Cache::new`] with `params`
    /// builds: no lines, LRU clock zero. Clears only the
    /// set groups the occupancy summary marks and keeps their storage;
    /// a table longer than `params.sets` is cut to it, and a shorter one
    /// grows at the next insert.
    pub fn reset(&mut self, params: &CacheParams) {
        let group_sets = self.group_sets();
        let Cache { params: p, sets, occupied, clock } = self;
        while *occupied != 0 {
            let first = occupied.trailing_zeros() as usize * group_sets;
            *occupied &= *occupied - 1;
            let last = (first + group_sets).min(sets.len());
            sets[first..last].iter_mut().for_each(Vec::clear);
        }
        sets.truncate(params.sets);
        p.clone_from(params);
        *clock = 0;
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 as usize) % self.params.sets
    }

    /// Sets per bit of the occupancy summary.
    fn group_sets(&self) -> usize {
        self.params.sets.div_ceil(u64::BITS as usize)
    }

    /// Look up a line; hits bump LRU.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut S> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(line);
        let w = self.sets.get_mut(set)?.iter_mut().find(|w| w.tag == line)?;
        w.lru = clock;
        Some(&mut w.state)
    }

    /// Peek without touching LRU.
    pub fn peek(&self, line: LineAddr) -> Option<&S> {
        let set = self.set_of(line);
        self.sets.get(set)?.iter().find(|w| w.tag == line).map(|w| &w.state)
    }

    /// Insert (or overwrite) a line, evicting LRU if the set is full.
    /// Lines for which `pinned` returns true are never chosen as
    /// victims (DeNovo keeps registered lines until they are downgraded;
    /// see the coherence crate).
    pub fn insert_with_pin(
        &mut self,
        line: LineAddr,
        state: S,
        pinned: impl Fn(&S) -> bool,
    ) -> Option<EvictedLine<S>> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(line);
        if self.sets.len() < self.params.sets {
            self.sets.resize_with(self.params.sets, Vec::new);
        }
        self.occupied |= 1 << (set / self.group_sets());
        if let Some(w) = self.sets[set].iter_mut().find(|w| w.tag == line) {
            w.state = state;
            w.lru = clock;
            return None;
        }
        if self.sets[set].len() < self.params.ways {
            self.sets[set].push(Way { tag: line, state, lru: clock });
            return None;
        }
        // Choose LRU among unpinned ways; if all pinned, evict absolute
        // LRU anyway (structural necessity).
        let victim = self.sets[set]
            .iter()
            .enumerate()
            .filter(|(_, w)| !pinned(&w.state))
            .min_by_key(|(_, w)| w.lru)
            .map(|(i, _)| i)
            .unwrap_or_else(|| {
                self.sets[set]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.lru)
                    .map(|(i, _)| i)
                    .expect("set is full")
            });
        let old =
            std::mem::replace(&mut self.sets[set][victim], Way { tag: line, state, lru: clock });
        Some(EvictedLine { line: old.tag, state: old.state })
    }

    /// Insert with no pinning.
    pub fn insert(&mut self, line: LineAddr, state: S) -> Option<EvictedLine<S>> {
        self.insert_with_pin(line, state, |_| false)
    }

    /// Remove a specific line, returning its state.
    pub fn remove(&mut self, line: LineAddr) -> Option<S> {
        let set = self.set_of(line);
        let ways = self.sets.get_mut(set)?;
        let i = ways.iter().position(|w| w.tag == line)?;
        Some(ways.remove(i).state)
    }

    /// Invalidate every line for which `victim` returns true (flash /
    /// self-invalidation); returns how many were dropped. Visits only
    /// the set groups the occupancy summary marks (see [`Cache`]).
    pub fn invalidate_where(&mut self, victim: impl Fn(&LineAddr, &S) -> bool) -> u64 {
        let group_sets = self.group_sets();
        let mut n = 0;
        let mut groups = self.occupied;
        while groups != 0 {
            let g = groups.trailing_zeros() as usize;
            groups &= groups - 1;
            let first = g * group_sets;
            let last = (first + group_sets).min(self.sets.len());
            let mut empty = true;
            for set in &mut self.sets[first..last] {
                set.retain(|w| {
                    if victim(&w.tag, &w.state) {
                        n += 1;
                        false
                    } else {
                        true
                    }
                });
                empty &= set.is_empty();
            }
            if empty {
                self.occupied &= !(1 << g);
            }
        }
        n
    }

    /// Iterate over all resident lines.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &S)> + '_ {
        self.sets.iter().flatten().map(|w| (w.tag, &w.state))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache<u8> {
        // 2 sets x 2 ways.
        Cache::new(CacheParams { sets: 2, ways: 2 })
    }

    #[test]
    fn capacity_geometry() {
        let p = CacheParams::with_capacity(32 * 1024, 64, 8);
        assert_eq!(p.sets * p.ways * 64, 32 * 1024);
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        c.insert(LineAddr(4), 7);
        assert_eq!(c.lookup(LineAddr(4)), Some(&mut 7));
    }

    #[test]
    fn miss_on_absent() {
        let mut c = tiny();
        assert_eq!(c.lookup(LineAddr(4)), None);
    }

    #[test]
    fn untouched_cache_reads_as_empty() {
        let mut c = tiny();
        assert_eq!(c.lookup(LineAddr(4)), None);
        assert_eq!(c.peek(LineAddr(4)), None);
        assert_eq!(c.remove(LineAddr(4)), None);
        assert_eq!(c.invalidate_where(|_, _| true), 0);
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);

        // The first insert builds the table; replacement then behaves as
        // in `lru_eviction_order` and `pinned_lines_survive`.
        c.insert(LineAddr(0), 0);
        c.insert(LineAddr(2), 2);
        c.lookup(LineAddr(0));
        let ev = c.insert(LineAddr(4), 4).expect("eviction");
        assert_eq!(ev.line, LineAddr(2));
        assert!(c.peek(LineAddr(0)).is_some());

        let mut c = tiny();
        assert_eq!(c.lookup(LineAddr(0)), None);
        c.insert(LineAddr(0), 9);
        c.insert(LineAddr(2), 1);
        let ev = c.insert_with_pin(LineAddr(4), 5, |s| *s == 9).expect("eviction");
        assert_eq!(ev.line, LineAddr(2), "unpinned line must be the victim");
        assert!(c.peek(LineAddr(0)).is_some());
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0.
        c.insert(LineAddr(0), 0);
        c.insert(LineAddr(2), 2);
        c.lookup(LineAddr(0)); // 2 is now LRU
        let ev = c.insert(LineAddr(4), 4).expect("eviction");
        assert_eq!(ev.line, LineAddr(2));
        assert!(c.peek(LineAddr(0)).is_some());
    }

    #[test]
    fn pinned_lines_survive() {
        let mut c = tiny();
        c.insert(LineAddr(0), 9); // pinned (state 9)
        c.insert(LineAddr(2), 1);
        let ev = c.insert_with_pin(LineAddr(4), 5, |s| *s == 9).expect("eviction");
        assert_eq!(ev.line, LineAddr(2), "unpinned line must be the victim");
        assert!(c.peek(LineAddr(0)).is_some());
    }

    #[test]
    fn invalidate_where_is_selective() {
        let mut c = tiny();
        c.insert(LineAddr(0), 1);
        c.insert(LineAddr(1), 2);
        c.insert(LineAddr(2), 1);
        let n = c.invalidate_where(|_, s| *s == 1);
        assert_eq!(n, 2);
        assert_eq!(c.len(), 1);
        assert!(c.peek(LineAddr(1)).is_some());
    }

    #[test]
    fn remove_returns_state() {
        let mut c = tiny();
        c.insert(LineAddr(3), 8);
        assert_eq!(c.remove(LineAddr(3)), Some(8));
        assert_eq!(c.remove(LineAddr(3)), None);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = tiny();
        c.insert(LineAddr(0), 1);
        assert!(c.insert(LineAddr(0), 2).is_none());
        assert_eq!(c.peek(LineAddr(0)), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reset_matches_a_fresh_cache_of_any_geometry() {
        // 130 sets: groups of 3 sets per occupancy bit, the last partial.
        let mut c: Cache<u8> = Cache::new(CacheParams { sets: 130, ways: 2 });
        for line in [0, 1, 129, 259, 64] {
            c.insert(LineAddr(line), 1);
        }
        c.lookup(LineAddr(0));
        for params in [
            CacheParams { sets: 2, ways: 2 },
            CacheParams { sets: 130, ways: 1 },
            CacheParams { sets: 200, ways: 2 },
        ] {
            c.reset(&params);
            assert!(c.is_empty());
            let mut fresh: Cache<u8> = Cache::new(params.clone());
            for line in [0, 2, 4, 199, 0, 330] {
                assert_eq!(c.lookup(LineAddr(line)), fresh.lookup(LineAddr(line)));
                let (a, b) = (c.insert(LineAddr(line), 2), fresh.insert(LineAddr(line), 2));
                assert_eq!(a.map(|e| e.line), b.map(|e| e.line), "{params:?} line {line}");
            }
            let lines = |c: &Cache<u8>| c.iter().map(|(l, _)| l).collect::<Vec<_>>();
            assert_eq!(lines(&c), lines(&fresh), "{params:?}");
        }
    }
}
