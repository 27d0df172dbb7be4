//! Main-memory timing: fixed access latency plus channel contention
//! (paper Table 2: 197–261 cycles — the spread comes from bank/channel
//! queueing and NUCA distance, both modelled by the caller + this
//! channel timeline).

use crate::{Addr, Cycle, Resource};

/// DRAM configuration.
#[derive(Debug, Clone)]
pub struct DramParams {
    /// Intrinsic access latency.
    pub latency: u64,
    /// Independent channels.
    pub channels: usize,
    /// Cycles a channel is occupied per access.
    pub occupancy: u64,
}

impl Default for DramParams {
    fn default() -> Self {
        DramParams { latency: 160, channels: 4, occupancy: 8 }
    }
}

/// DRAM with per-channel queueing.
#[derive(Debug, Clone)]
pub struct Dram {
    params: DramParams,
    channels: Vec<Resource>,
}

impl Dram {
    /// Create DRAM.
    ///
    /// # Panics
    ///
    /// Panics if there are no channels.
    pub fn new(params: DramParams) -> Dram {
        let mut dram = Dram { params: params.clone(), channels: Vec::new() };
        dram.reset(&params);
        dram
    }

    /// Return to the idle DRAM a fresh [`Dram::new`] with `params`
    /// builds: one idle channel per configured channel.
    ///
    /// # Panics
    ///
    /// Panics if there are no channels.
    pub fn reset(&mut self, params: &DramParams) {
        assert!(params.channels > 0, "DRAM needs channels");
        let Dram { params: p, channels } = self;
        p.clone_from(params);
        channels.clear();
        channels.resize_with(params.channels, Resource::new);
    }

    /// Access the line containing `addr` at `now`; returns completion.
    pub fn access(&mut self, now: Cycle, addr: Addr) -> Cycle {
        let ch = (addr as usize) % self.channels.len();
        let start = self.channels[ch].acquire(now, self.params.occupancy);
        start + self.params.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_access_is_base_latency() {
        let mut d = Dram::new(DramParams::default());
        assert_eq!(d.access(100, 0), 100 + 160);
    }

    #[test]
    fn same_channel_contends_different_channels_do_not() {
        let mut d = Dram::new(DramParams { latency: 100, channels: 2, occupancy: 10 });
        let a = d.access(0, 0);
        let b = d.access(0, 2); // same channel (even)
        let c = d.access(0, 1); // other channel
        assert_eq!(a, 100);
        assert_eq!(b, 110);
        assert_eq!(c, 100);
    }

    #[test]
    fn reset_takes_the_new_channel_count() {
        let mut d = Dram::new(DramParams::default());
        d.access(0, 0);
        d.access(0, 4);
        d.reset(&DramParams { latency: 100, channels: 2, occupancy: 10 });
        assert_eq!(d.access(0, 0), 100, "channel 0 is idle again");
        assert_eq!(d.access(0, 2), 110, "two channels: address 2 shares channel 0");
    }
}
