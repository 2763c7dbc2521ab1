use crate::bandwidth::BandwidthChannel;
use crate::Cycle;
use crate::SimError;

/// Configuration of an off-chip DRAM interface.
///
/// Table IV gives GNNerator and HyGCN 256 GB/s of off-chip bandwidth and the
/// RTX 2080 Ti 616 GB/s; `access_latency` models the fixed DRAM access
/// latency added to every request on top of the bandwidth-limited transfer
/// time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Peak bandwidth in gigabytes per second.
    pub bandwidth_gb_s: f64,
    /// Core-clock frequency in GHz used to convert bandwidth to bytes/cycle.
    pub core_frequency_ghz: f64,
    /// Fixed access latency in core cycles charged once per request.
    pub access_latency: Cycle,
}

impl Default for DramConfig {
    /// GNNerator's off-chip memory configuration: 256 GB/s at a 1 GHz core
    /// clock with a 100-cycle access latency.
    fn default() -> Self {
        Self {
            bandwidth_gb_s: 256.0,
            core_frequency_ghz: 1.0,
            access_latency: 100,
        }
    }
}

impl DramConfig {
    /// Bytes transferred per core cycle at peak bandwidth.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bandwidth_gb_s * 1e9 / (self.core_frequency_ghz * 1e9)
    }
}

/// Read/write byte counters for a memory interface.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TrafficCounter {
    /// Bytes read.
    pub(crate) read_bytes: u64,
    /// Bytes written.
    pub(crate) write_bytes: u64,
}

impl TrafficCounter {
    /// Records a read of `bytes`.
    pub(crate) fn record_read(&mut self, bytes: u64) {
        self.read_bytes += bytes;
    }

    /// Records a write of `bytes`.
    pub(crate) fn record_write(&mut self, bytes: u64) {
        self.write_bytes += bytes;
    }
}

/// A bandwidth- and latency-limited DRAM channel with read/write accounting.
///
/// Both engines of GNNerator share the feature-memory DRAM; they contend on
/// the underlying [`BandwidthChannel`]. Reads and writes are tracked
/// separately so reports can break traffic down the way Table I does.
#[derive(Debug)]
pub(crate) struct DramModel {
    access_latency: Cycle,
    channel: BandwidthChannel,
    traffic: TrafficCounter,
}

impl DramModel {
    /// Creates a DRAM model from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the bandwidth or frequency is
    /// not positive and finite.
    pub(crate) fn new(config: DramConfig) -> Result<Self, SimError> {
        if !(config.core_frequency_ghz.is_finite() && config.core_frequency_ghz > 0.0) {
            return Err(SimError::invalid(
                "core_frequency_ghz",
                "must be positive and finite",
            ));
        }
        let channel = BandwidthChannel::new(config.bytes_per_cycle())?;
        Ok(Self {
            access_latency: config.access_latency,
            channel,
            traffic: TrafficCounter::default(),
        })
    }

    /// Issues a read of `bytes` no earlier than `earliest_start`; returns the
    /// completion cycle.
    pub(crate) fn read(&mut self, earliest_start: Cycle, bytes: u64) -> Cycle {
        self.traffic.record_read(bytes);
        self.transfer(earliest_start, bytes)
    }

    /// Issues a write of `bytes` no earlier than `earliest_start`; returns
    /// the completion cycle.
    pub(crate) fn write(&mut self, earliest_start: Cycle, bytes: u64) -> Cycle {
        self.traffic.record_write(bytes);
        self.transfer(earliest_start, bytes)
    }

    fn transfer(&mut self, earliest_start: Cycle, bytes: u64) -> Cycle {
        if bytes == 0 {
            return earliest_start;
        }
        self.channel.request(earliest_start, bytes) + self.access_latency
    }

    /// Read/write traffic accumulated so far.
    pub(crate) fn traffic(&self) -> &TrafficCounter {
        &self.traffic
    }

    /// Cycle at which the channel next becomes free.
    pub(crate) fn busy_until(&self) -> Cycle {
        self.channel.busy_until()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_table_iv() {
        let cfg = DramConfig::default();
        assert_eq!(cfg.bandwidth_gb_s, 256.0);
        assert!((cfg.bytes_per_cycle() - 256.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_zero_frequency() {
        let cfg = DramConfig {
            core_frequency_ghz: 0.0,
            ..DramConfig::default()
        };
        assert!(DramModel::new(cfg).is_err());
    }

    #[test]
    fn read_includes_latency_and_bandwidth() {
        let mut dram = DramModel::new(DramConfig {
            bandwidth_gb_s: 100.0,
            core_frequency_ghz: 1.0,
            access_latency: 50,
        })
        .unwrap();
        // 1000 bytes at 100 B/cycle = 10 cycles + 50 latency.
        assert_eq!(dram.read(0, 1000), 60);
        assert_eq!(dram.traffic().read_bytes, 1000);
        assert_eq!(dram.traffic().write_bytes, 0);
    }

    #[test]
    fn reads_and_writes_share_the_channel() {
        let mut dram = DramModel::new(DramConfig {
            bandwidth_gb_s: 10.0,
            core_frequency_ghz: 1.0,
            access_latency: 0,
        })
        .unwrap();
        let a = dram.read(0, 100); // 10 cycles
        let b = dram.write(0, 100); // queued behind the read
        assert_eq!(a, 10);
        assert_eq!(b, 20);
        assert_eq!(dram.traffic().read_bytes, 100);
        assert_eq!(dram.traffic().write_bytes, 100);
    }

    #[test]
    fn zero_byte_transfers_are_free() {
        let mut dram = DramModel::new(DramConfig::default()).unwrap();
        assert_eq!(dram.read(42, 0), 42);
        assert_eq!(dram.busy_until(), 0);
    }

    #[test]
    fn traffic_counter_accumulates() {
        let mut t = TrafficCounter::default();
        t.record_read(100);
        t.record_read(50);
        t.record_write(25);
        assert_eq!(t.read_bytes, 150);
        assert_eq!(t.write_bytes, 25);
    }
}
