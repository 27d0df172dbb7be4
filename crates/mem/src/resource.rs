//! Busy-until timelines for ports, banks and channels.

use crate::Cycle;

/// A unit-bandwidth resource: at most one operation in flight; later
/// requests queue. The standard way this simulator models structural
/// contention.
#[derive(Debug, Clone)]
pub struct Resource {
    next_free: Cycle,
}

impl Resource {
    /// A fresh, idle resource: the initial state is [`Resource::reset`]'s.
    pub fn new() -> Resource {
        let mut r = Resource { next_free: 0 };
        r.reset();
        r
    }

    /// Return to idle: free from cycle 0.
    pub fn reset(&mut self) {
        let Resource { next_free } = self;
        *next_free = 0;
    }

    /// Occupy the resource for `duration` cycles starting no earlier
    /// than `at`; returns the cycle service actually starts.
    pub fn acquire(&mut self, at: Cycle, duration: u64) -> Cycle {
        let start = at.max(self.next_free);
        self.next_free = start + duration;
        start
    }

    /// When the resource next becomes free.
    pub fn next_free(&self) -> Cycle {
        self.next_free
    }
}

impl Default for Resource {
    fn default() -> Resource {
        Resource::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_requests_serialize() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(10, 5), 10);
        assert_eq!(r.acquire(10, 5), 15);
        assert_eq!(r.acquire(30, 5), 30);
        assert_eq!(r.next_free(), 35);
    }

    #[test]
    fn reset_frees_the_timeline() {
        let mut r = Resource::new();
        r.acquire(10, 50);
        r.reset();
        assert_eq!(r.next_free(), 0);
        assert_eq!(r.acquire(0, 5), 0);
    }
}
