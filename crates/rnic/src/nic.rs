//! Per-NIC hardware state: processing units and serialized engines.
//!
//! ConnectX NICs "assign compute resources on a per port basis" (§5.1.3),
//! so PUs, the managed-fetch engine, the atomic engine and the link
//! serializer are all per-port. The PCIe bus is shared by both ports —
//! which is exactly why the paper's Table 4 shows dual-port 64 KB lookups
//! hitting a PCIe ceiling rather than doubling.

use crate::config::NicConfig;
use crate::engine::{FifoResource, PoolResource};
use crate::time::Time;

/// One simulated RNIC.
pub(crate) struct Nic {
    /// Hardware configuration (timing model).
    pub(crate) config: NicConfig,
    /// Processing units, one pool per port.
    pub(crate) pus: Vec<PoolResource>,
    /// Serialized managed-WQE fetch engine, per port.
    pub(crate) fetch_engine: Vec<FifoResource>,
    /// Serialized atomic engine, per port (Table 3's 8.4 M ops/s).
    pub(crate) atomic_engine: Vec<FifoResource>,
    /// Egress link serializer, per port (~92 Gbps usable).
    pub(crate) link_tx: Vec<FifoResource>,
    /// Shared PCIe bus (sustained-throughput resource).
    pub(crate) pcie_bus: FifoResource,
    /// Round-robin cursor for PU assignment, per port.
    pub(crate) next_pu: Vec<usize>,
    /// Verbs executed (all ports).
    pub(crate) stat_verbs: u64,
    /// Managed fetches performed.
    pub(crate) stat_managed_fetches: u64,
    /// Bytes pushed to the wire.
    pub(crate) stat_tx_bytes: u64,
}

impl Nic {
    /// Build NIC state from a configuration.
    pub(crate) fn new(config: NicConfig) -> Nic {
        let ports = config.ports;
        Nic {
            pus: (0..ports)
                .map(|_| PoolResource::new(config.pus_per_port))
                .collect(),
            fetch_engine: (0..ports).map(|_| FifoResource::new()).collect(),
            atomic_engine: (0..ports).map(|_| FifoResource::new()).collect(),
            link_tx: (0..ports).map(|_| FifoResource::new()).collect(),
            pcie_bus: FifoResource::new(),
            next_pu: vec![0; ports],
            stat_verbs: 0,
            stat_managed_fetches: 0,
            stat_tx_bytes: 0,
            config,
        }
    }

    /// Assign a PU for a new work queue on `port`: explicit pin (which
    /// the caller has checked is below `pus_per_port`) or round-robin.
    pub(crate) fn assign_pu(&mut self, port: usize, pin: Option<usize>) -> usize {
        match pin {
            Some(pu) => pu,
            None => {
                let pu = self.next_pu[port];
                self.next_pu[port] = (pu + 1) % self.config.pus_per_port;
                pu
            }
        }
    }

    /// Occupy the shared PCIe bus for a payload of `bytes`; returns the
    /// finish time. Zero-byte transfers are free.
    pub(crate) fn pcie_occupy(&mut self, now: Time, bytes: u64) -> Time {
        if bytes == 0 {
            return now;
        }
        self.pcie_bus
            .acquire(now, Time::transfer(bytes, self.config.pcie_bw_gbps))
    }

    /// Occupy a port's egress link; returns the finish time.
    pub(crate) fn link_occupy(&mut self, port: usize, now: Time, bytes: u64) -> Time {
        if bytes == 0 {
            return now;
        }
        self.stat_tx_bytes += bytes;
        self.link_tx[port].acquire(now, Time::transfer(bytes, self.config.ib_gbps))
    }

    /// Store-and-forward latency of one PCIe stage for `bytes`.
    pub(crate) fn pcie_stage(&self, bytes: u64) -> Time {
        Time::transfer(bytes, self.config.pcie_lat_gbps)
    }

    /// Store-and-forward latency of the wire for `bytes`.
    pub(crate) fn wire_stage(&self, bytes: u64) -> Time {
        Time::transfer(bytes, self.config.ib_gbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_port_resources_match_config() {
        let nic = Nic::new(NicConfig::connectx5().dual_port());
        assert_eq!(nic.pus.len(), 2);
        assert_eq!(nic.pus[0].len(), 8);
        assert_eq!(nic.fetch_engine.len(), 2);
        assert_eq!(nic.atomic_engine.len(), 2);
    }

    #[test]
    fn round_robin_and_pinned_pu_assignment() {
        let mut nic = Nic::new(NicConfig::connectx5());
        assert_eq!(nic.assign_pu(0, None), 0);
        assert_eq!(nic.assign_pu(0, None), 1);
        assert_eq!(nic.assign_pu(0, Some(5)), 5);
        // Pinning does not disturb the round-robin cursor.
        assert_eq!(nic.assign_pu(0, None), 2);
    }

    #[test]
    fn zero_byte_transfers_are_free() {
        let mut nic = Nic::new(NicConfig::connectx5());
        let t = Time::from_us(3);
        assert_eq!(nic.pcie_occupy(t, 0), t);
        assert_eq!(nic.link_occupy(0, t, 0), t);
    }

    #[test]
    fn stage_latencies_scale_with_bytes() {
        let nic = Nic::new(NicConfig::connectx5());
        let small = nic.wire_stage(64);
        let big = nic.wire_stage(64 * 1024);
        assert!(big > small * 1000);
        // 64 KiB at 92 Gbps ≈ 5.7 us (Table 4's single-port ceiling).
        assert!((big.as_us_f64() - 5.7).abs() < 0.05);
        // 64 KiB over one PCIe 3.0 x16 stage ≈ 4.16 us.
        assert!((nic.pcie_stage(64 * 1024).as_us_f64() - 4.16).abs() < 0.05);
    }
}
