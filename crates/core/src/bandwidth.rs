use crate::Cycle;
use crate::SimError;

/// A serialising, bandwidth-limited channel.
///
/// The channel models a shared resource — the feature-memory DRAM interface
/// in GNNerator's case — that transfers `bytes_per_cycle` bytes per cycle and
/// services requests in arrival order. A request issued at cycle `t` for `b`
/// bytes completes at `max(t, busy_until) + ceil(b / bytes_per_cycle)`; the
/// channel remembers its own availability so concurrent requesters (the Dense
/// Engine and the Graph Engine) naturally contend for bandwidth.
#[derive(Debug)]
pub(crate) struct BandwidthChannel {
    bytes_per_cycle: f64,
    busy_until: Cycle,
}

impl BandwidthChannel {
    /// Creates a channel delivering `bytes_per_cycle` bytes per cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `bytes_per_cycle` is not
    /// positive and finite.
    pub(crate) fn new(bytes_per_cycle: f64) -> Result<Self, SimError> {
        if !(bytes_per_cycle.is_finite() && bytes_per_cycle > 0.0) {
            return Err(SimError::invalid(
                "bytes_per_cycle",
                format!("{bytes_per_cycle} must be positive and finite"),
            ));
        }
        Ok(Self {
            bytes_per_cycle,
            busy_until: 0,
        })
    }

    /// Number of cycles needed to move `bytes` in isolation.
    pub(crate) fn transfer_cycles(&self, bytes: u64) -> Cycle {
        if bytes == 0 {
            return 0;
        }
        (bytes as f64 / self.bytes_per_cycle).ceil() as Cycle
    }

    /// Issues a transfer of `bytes` no earlier than `earliest_start`,
    /// returning its completion cycle. The channel serialises requests in
    /// issue order.
    pub(crate) fn request(&mut self, earliest_start: Cycle, bytes: u64) -> Cycle {
        let start = earliest_start.max(self.busy_until);
        self.busy_until = start + self.transfer_cycles(bytes);
        self.busy_until
    }

    /// The cycle at which the channel next becomes free.
    pub(crate) fn busy_until(&self) -> Cycle {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_invalid_bandwidth() {
        assert!(BandwidthChannel::new(0.0).is_err());
        assert!(BandwidthChannel::new(-2.0).is_err());
        assert!(BandwidthChannel::new(f64::NAN).is_err());
    }

    #[test]
    fn transfer_time_rounds_up() {
        let chan = BandwidthChannel::new(100.0).unwrap();
        assert_eq!(chan.transfer_cycles(0), 0);
        assert_eq!(chan.transfer_cycles(1), 1);
        assert_eq!(chan.transfer_cycles(100), 1);
        assert_eq!(chan.transfer_cycles(101), 2);
    }

    #[test]
    fn requests_serialise() {
        let mut chan = BandwidthChannel::new(10.0).unwrap();
        assert_eq!(chan.request(0, 100), 10);
        assert_eq!(chan.request(0, 100), 20);
        // A later start pushes out completion.
        assert_eq!(chan.request(50, 100), 60);
        assert_eq!(chan.busy_until(), 60);
    }

    #[test]
    fn zero_byte_request_takes_no_time() {
        let mut chan = BandwidthChannel::new(10.0).unwrap();
        assert_eq!(chan.request(7, 0), 7);
    }

    proptest! {
        #[test]
        fn bandwidth_requests_never_overlap(byte_counts in proptest::collection::vec(1u64..10_000, 1..50)) {
            let mut chan = BandwidthChannel::new(64.0).unwrap();
            let mut last_end = 0u64;
            for bytes in byte_counts {
                let end = chan.request(0, bytes);
                prop_assert!(end >= last_end + chan.transfer_cycles(bytes));
                last_end = end;
            }
            prop_assert_eq!(chan.busy_until(), last_end);
        }

        #[test]
        fn bandwidth_total_time_bounded_by_sum(byte_counts in proptest::collection::vec(0u64..5_000, 1..40)) {
            let mut chan = BandwidthChannel::new(100.0).unwrap();
            let sum_cycles: u64 = byte_counts.iter().map(|&b| chan.transfer_cycles(b)).sum();
            let mut end = 0;
            for bytes in &byte_counts {
                end = chan.request(0, *bytes);
            }
            prop_assert_eq!(end, sum_cycles);
        }
    }
}
