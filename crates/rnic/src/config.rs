//! Simulation configuration and the calibrated timing model.
//!
//! Every latency/throughput constant in [`NicConfig`] is calibrated against a
//! measurement published in the RedN paper (NSDI '22). The calibration
//! sources are:
//!
//! * **Fig 7** — per-verb latencies at 64 B IO: `WRITE` 1.6 µs,
//!   `READ`/`CAS`/`ADD`/`MAX` ≈ 1.8 µs; remote-vs-local NOOP delta
//!   ≈ 0.25 µs (network round trip for back-to-back links).
//! * **Fig 8** — ordering-mode marginals: first NOOP 1.21 µs, then
//!   +0.17 µs/WR under *WQ order*, +0.19 µs/WR under *completion order*,
//!   +0.54 µs/WR under *doorbell order*.
//! * **Table 1** — verb processing bandwidth by generation: ConnectX-3
//!   15 M verbs/s (2 PUs), ConnectX-5 63 M (8 PUs), ConnectX-6 112 M
//!   (16 PUs).
//! * **Table 3** — single-port CX5 throughput: READ 65 M, WRITE 63 M,
//!   MAX 63 M, CAS/ADD 8.4 M ops/s.
//! * **Table 4** — hash-lookup ceilings: NIC PU bound ≈ 500 K/s per port at
//!   small IO; single-port InfiniBand bandwidth ≈ 92 Gbps usable; dual-port
//!   bound by PCIe 3.0 ×16.
//!
//! The decomposition (doorbell, fetch, issue, data-path extras) is our own —
//! the paper does not publish one — but it is constructed so the published
//! aggregates emerge from the model. See `DESIGN.md` §1/§5.

use crate::time::Time;

/// Mellanox ConnectX generation presets (Table 1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Generation {
    /// ConnectX-3 (2014): 2 processing units per port, 15 M verbs/s.
    ConnectX3,
    /// ConnectX-5 (2016): 8 processing units per port, 63 M verbs/s.
    /// The paper's testbed NIC; the default everywhere in this repo.
    ConnectX5,
    /// ConnectX-6 (2017): 16 processing units per port, 112 M verbs/s.
    ConnectX6,
}

impl Generation {
    /// Number of processing units per port (Table 1).
    pub fn pus_per_port(self) -> usize {
        match self {
            Generation::ConnectX3 => 2,
            Generation::ConnectX5 => 8,
            Generation::ConnectX6 => 16,
        }
    }

    /// Per-PU issue time for *write-class* verbs, chosen so that
    /// `pus_per_port / t_issue_write` reproduces Table 1:
    /// 2/0.1333 µs = 15 M, 8/0.127 µs = 63 M, 16/0.1429 µs = 112 M.
    fn t_issue_write(self) -> Time {
        match self {
            Generation::ConnectX3 => Time::from_ps(133_333),
            Generation::ConnectX5 => Time::from_ps(126_984),
            Generation::ConnectX6 => Time::from_ps(142_857),
        }
    }

    /// Per-PU issue time for *read-class* verbs. Table 3 reports READ at
    /// 65 M ops/s on a CX5 port: 8 PUs / 0.12308 µs = 65 M.
    fn t_issue_read(self) -> Time {
        match self {
            Generation::ConnectX3 => Time::from_ps(130_000),
            Generation::ConnectX5 => Time::from_ps(123_077),
            Generation::ConnectX6 => Time::from_ps(140_000),
        }
    }

    /// Year the generation shipped (for pretty-printing Table 1).
    pub fn year(self) -> u32 {
        match self {
            Generation::ConnectX3 => 2014,
            Generation::ConnectX5 => 2016,
            Generation::ConnectX6 => 2017,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Generation::ConnectX3 => "ConnectX-3",
            Generation::ConnectX5 => "ConnectX-5",
            Generation::ConnectX6 => "ConnectX-6",
        }
    }
}

/// Configuration of one simulated RNIC.
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// Number of ports (the paper's CX5 testbed has dual-port NICs but
    /// most experiments use a single port; Table 4 sweeps both).
    pub ports: usize,
    /// Processing units per port. Each WQ is pinned to one PU; queues on
    /// different PUs execute in parallel (§3.5 "Parallelism").
    pub pus_per_port: usize,
    /// MMIO doorbell ring + NIC arm cost. Calibrated so a single NOOP
    /// completes in 1.21 µs (Fig 8): 0.67 + 0.35 (fetch) + 0.17 (issue)
    /// + 0.02 (CQE) = 1.21 µs.
    pub(crate) t_doorbell: Time,
    /// DMA latency of one *prefetch batch* WQE fetch on an unmanaged queue.
    pub(crate) t_fetch_batch: Time,
    /// WQEs fetched per prefetch DMA on unmanaged queues. Mellanox's
    /// prefetch depth is proprietary (§5.1.2 footnote); 16 keeps the fetch
    /// pipeline off the critical path as the paper's Fig 8 implies.
    pub(crate) prefetch_batch: usize,
    /// End-to-end latency of one *managed* (doorbell-ordered) WQE fetch —
    /// a serialized 64 B DMA round trip. A managed queue cannot overlap
    /// fetch with its own execution, so its per-WR marginal is
    /// `t_issue + t_managed_fetch` = 0.123 + 0.417 = the paper's 0.54 µs
    /// doorbell-order marginal (Fig 8). The engine behind it is shared per
    /// port and is the "NIC PU" bottleneck of Table 4.
    pub(crate) t_managed_fetch: Time,
    /// Outstanding managed fetches the per-port fetch engine pipelines.
    /// PCIe non-posted reads overlap (tag-level parallelism), so fetches
    /// of *independent* managed queues need not serialize at full DMA
    /// latency: each fetch occupies the engine for
    /// `t_managed_fetch / managed_fetch_pipeline` and completes after the
    /// full `t_managed_fetch` latency. A single queue still experiences
    /// the full per-WR latency (its own fetch/execute dependency — the
    /// Fig 8 doorbell-order marginal and the Table 4 single-offload
    /// ceilings are unchanged); only cross-queue contention is relieved.
    pub(crate) managed_fetch_pipeline: usize,
    /// Minimum start-to-start gap between consecutive WQEs of the *same*
    /// WQ (serial chain bookkeeping). This is the 0.17 µs WQ-order marginal
    /// of Fig 8; it exceeds the raw PU issue time because a single chain
    /// cannot overlap WQE boundaries the way independent queues can.
    pub(crate) t_chain_gap: Time,
    /// CQE generation/delivery cost. Completion ordering adds one of these
    /// per WR: 0.17 + 0.02 = the 0.19 µs marginal of Fig 8.
    pub(crate) t_cqe: Time,
    /// PU occupancy per write-class verb (WRITE/SEND/NOOP). See
    /// `Generation::t_issue_write`.
    pub(crate) t_issue_write: Time,
    /// PU occupancy per read-class verb (READ/atomics/calc). See
    /// `Generation::t_issue_read`.
    pub(crate) t_issue_read: Time,
    /// PU occupancy for WAIT/ENABLE control verbs.
    pub(crate) t_issue_ctrl: Time,
    /// Serialized atomic-engine occupancy per atomic verb. Table 3: CAS and
    /// ADD sustain 8.4 M ops/s per port → 0.119 µs each. PCIe atomics
    /// require memory synchronization across the bus (§5.1.3).
    pub(crate) t_atomic_engine: Time,
    /// Extra latency of the posted (one-way) data path: WRITE/SEND beyond a
    /// NOOP, net of the network round trip. Fig 7: 1.6 µs (WRITE) − 1.21 µs
    /// (NOOP) − 0.25 µs (back-to-back RTT) = 0.14 µs at 64 B.
    pub(crate) t_posted_extra: Time,
    /// Extra latency of the non-posted data path: READ/CAS/ADD/MAX wait for
    /// a PCIe completion at the responder. Fig 7: 1.8 − 1.21 − 0.25 =
    /// 0.34 µs at 64 B.
    pub(crate) t_nonposted_extra: Time,
    /// Usable InfiniBand bandwidth per port, Gbps. The paper reports
    /// "~92 Gbps" on 100 Gbps links (Table 4).
    pub(crate) ib_gbps: f64,
    /// Store-and-forward stage bandwidth of one PCIe transfer (latency
    /// model). PCIe 3.0 ×16 raw ≈ 126 Gbps. Calibrated against Fig 10's
    /// "Ideal" 64 KB READ ≈ 15–16 µs.
    pub(crate) pcie_lat_gbps: f64,
    /// Sustained PCIe bus throughput (resource model). Lower than the raw
    /// stage rate because of TLP overheads and bidirectional contention;
    /// calibrated against Table 4's dual-port 64 KB ceiling of 190 K ops/s
    /// (64 KiB / 100 Gbps ≈ 5.24 µs per op shared bus).
    pub(crate) pcie_bw_gbps: f64,
    /// Maximum scatter entries a RECV may carry. The paper relies on the
    /// ConnectX limit of 16 (§5.3).
    pub(crate) max_recv_sge: usize,
    /// Whether the NIC supports cross-channel WAIT/ENABLE (ConnectX-3 and
    /// later; Intel RNICs do not — §6 "Intel RNICs").
    pub supports_wait_enable: bool,
    /// Whether vendor calc verbs (MAX/MIN) are available (§3.5: "their
    /// availability is vendor-specific and currently only supported by
    /// ConnectX NICs").
    pub supports_calc: bool,
    /// Send/recv queue depth limit (WQE slots per queue).
    pub(crate) max_wq_depth: usize,
    /// Completion queue depth limit.
    pub(crate) max_cq_depth: usize,
}

impl NicConfig {
    /// Preset for the given generation with the paper's calibration.
    pub fn with_generation(generation: Generation) -> NicConfig {
        // ConnectX-6 ships on PCIe gen4 hosts; the older cards are gen3
        // (the gen3 x16 bus is what caps Table 4's dual-port row).
        let (pcie_lat, pcie_bw) = match generation {
            Generation::ConnectX6 => (252.0, 200.0),
            _ => (126.0, 100.0),
        };
        NicConfig {
            ports: 1,
            pus_per_port: generation.pus_per_port(),
            t_doorbell: Time::from_ps(670_000),
            t_fetch_batch: Time::from_ps(350_000),
            prefetch_batch: 16,
            t_managed_fetch: Time::from_ps(417_000),
            managed_fetch_pipeline: 4,
            t_chain_gap: Time::from_ps(170_000),
            t_cqe: Time::from_ps(20_000),
            t_issue_write: generation.t_issue_write(),
            t_issue_read: generation.t_issue_read(),
            t_issue_ctrl: Time::from_ps(60_000),
            t_atomic_engine: Time::from_ps(119_048),
            t_posted_extra: Time::from_ps(140_000),
            t_nonposted_extra: Time::from_ps(340_000),
            ib_gbps: 92.0,
            pcie_lat_gbps: pcie_lat,
            pcie_bw_gbps: pcie_bw,
            max_recv_sge: 16,
            supports_wait_enable: true,
            supports_calc: true,
            max_wq_depth: 4096,
            max_cq_depth: 16384,
        }
    }

    /// The paper's testbed NIC: 100 Gbps dual-port ConnectX-5 (single port
    /// enabled; call [`NicConfig::dual_port`] for Table 4's dual
    /// configuration).
    pub fn connectx5() -> NicConfig {
        NicConfig::with_generation(Generation::ConnectX5)
    }

    /// Enable the second port (doubles PUs and fetch engines, shares the
    /// PCIe bus — Table 4).
    pub fn dual_port(mut self) -> NicConfig {
        self.ports = 2;
        self
    }

    /// Fetch-engine occupancy of one managed WQE fetch: the serialized
    /// slot a fetch holds while its DMA is in flight. The remaining
    /// `t_managed_fetch - slot` of latency overlaps with other queues'
    /// fetches (see [`NicConfig::managed_fetch_pipeline`]).
    pub(crate) fn t_managed_fetch_slot(&self) -> Time {
        Time::from_ps(self.t_managed_fetch.as_ps() / self.managed_fetch_pipeline.max(1) as u64)
    }

    /// Issue time (PU occupancy) for one verb of the given class.
    pub(crate) fn t_issue(&self, read_class: bool) -> Time {
        if read_class {
            self.t_issue_read
        } else {
            self.t_issue_write
        }
    }

    /// Total PUs across all enabled ports.
    pub fn total_pus(&self) -> usize {
        self.pus_per_port * self.ports
    }
}

impl Default for NicConfig {
    fn default() -> NicConfig {
        NicConfig::connectx5()
    }
}

/// Configuration of one simulated host (CPU side).
///
/// These constants drive the two-sided baselines and the contention /
/// failure experiments (§5.4–§5.6). They model a dual-socket Haswell server
/// (the paper's testbed: 16 cores at 3.2 GHz, 128 GB DRAM, Ubuntu 18.04).
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// Number of CPU cores.
    pub cores: usize,
    /// DRAM capacity in bytes (bump-allocated by the simulator).
    pub dram_bytes: u64,
    /// Cost for a polling thread to notice and pick up a new CQE.
    pub(crate) t_poll_pickup: Time,
    /// Interrupt + scheduler wake latency for an event-driven (blocking)
    /// thread. Dominates the event-based curve in Fig 10 (3.8× worse than
    /// RedN).
    pub(crate) t_event_wake: Time,
    /// Context-switch cost once a core is multiplexed between threads.
    pub(crate) t_context_switch: Time,
    /// OS scheduling quantum: when runnable threads exceed cores, a thread
    /// may wait up to this long for a slice. Drives the tail blow-up in
    /// Fig 15.
    pub(crate) t_sched_quantum: Time,
    /// CPU time to execute a hash lookup in the two-sided RPC handler
    /// (hash, bucket walk, cache misses, response marshaling). Calibrated
    /// so the polling two-sided path sits above RedN at small IO (Fig 10).
    pub t_rpc_lookup: Time,
    /// CPU time to execute a `set` (allocation + insert) in the RPC
    /// handler.
    pub t_rpc_set: Time,
    /// Per-byte memcpy cost on the host (VMA socket stack pays this twice;
    /// §5.4: "VMA has to memcpy data from send and receive buffers").
    pub t_memcpy_per_byte: Time,
    /// Fixed per-packet cost of the VMA user-space network stack (both
    /// directions of UDP processing; §5.4: "VMA incurs extra overhead
    /// since it relies on a network stack to process packets"). Calibrated
    /// against Fig 14's ~2.6× gap at small values.
    pub t_vma_stack: Time,
    /// Client-side software cost between *dependent* verbs in a chained
    /// operation: detect the completion, parse the result, compose and
    /// post the next request. One-sided multi-RTT lookups pay this per
    /// hop — a key reason they trail RedN even though the wire time is
    /// similar (§5.2).
    pub t_client_op: Time,
    /// Time for the OS to detect a crashed process and restart it
    /// (Fig 16: "at least 1 second to bootstrap").
    pub t_restart: Time,
    /// Time for a restarted Memcached to rebuild metadata and hash tables
    /// (Fig 16: "1.25 additional seconds").
    pub t_rebuild: Time,
}

impl Default for HostConfig {
    fn default() -> HostConfig {
        HostConfig {
            cores: 16,
            dram_bytes: 1 << 30,
            t_poll_pickup: Time::from_ps(150_000),
            t_event_wake: Time::from_us_f64(14.0),
            t_context_switch: Time::from_us_f64(1.8),
            t_sched_quantum: Time::from_us_f64(200.0),
            t_rpc_lookup: Time::from_us_f64(2.2),
            t_rpc_set: Time::from_us_f64(3.0),
            t_memcpy_per_byte: Time::from_ps(25),
            t_vma_stack: Time::from_us_f64(6.5),
            t_client_op: Time::from_us_f64(2.0),
            t_restart: Time::from_ms(1000),
            t_rebuild: Time::from_ms(1250),
        }
    }
}

/// Configuration of one point-to-point link.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// One-way propagation + switching latency. The paper measures a
    /// 0.25 µs round trip between back-to-back nodes (Fig 7).
    pub(crate) one_way: Time,
}

impl LinkConfig {
    /// Back-to-back InfiniBand cable, as in the paper's testbed.
    pub fn back_to_back() -> LinkConfig {
        LinkConfig {
            one_way: Time::from_ps(125_000),
        }
    }
}

impl Default for LinkConfig {
    fn default() -> LinkConfig {
        LinkConfig::back_to_back()
    }
}

/// Global simulation options.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Record a full execution trace (every fetch, execution, completion).
    /// Useful for tests and debugging; costs memory on long runs.
    pub trace: bool,
    /// Hard cap on simulated events, to turn runaway self-modifying
    /// programs (which are, after all, Turing complete) into clean errors
    /// rather than hangs.
    pub max_events: u64,
    /// Ignored: the event queue is a single timing wheel. The field
    /// stays only because the standalone `benchmark/` package spells
    /// this struct out field by field.
    pub lanes: usize,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            trace: false,
            max_events: 500_000_000,
            lanes: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rates_emerge_from_presets() {
        // Table 1: 2 PUs → 15 M, 8 → 63 M, 16 → 112 M write verbs/s.
        for (generation, expect_mops) in [
            (Generation::ConnectX3, 15.0),
            (Generation::ConnectX5, 63.0),
            (Generation::ConnectX6, 112.0),
        ] {
            let cfg = NicConfig::with_generation(generation);
            let rate = cfg.pus_per_port as f64 / cfg.t_issue_write.as_us_f64();
            assert!(
                (rate / 1e6 * 1e6 - expect_mops).abs() / expect_mops < 0.01,
                "{generation:?}: {rate} vs {expect_mops}M"
            );
        }
    }

    #[test]
    fn fig8_marginals_are_consistent() {
        let cfg = NicConfig::connectx5();
        // First NOOP: doorbell + fetch + issue + cqe = 1.21 us.
        let first = cfg.t_doorbell + cfg.t_fetch_batch + cfg.t_chain_gap + cfg.t_cqe;
        assert!((first.as_us_f64() - 1.21).abs() < 0.005, "{first:?}");
        // Completion-order marginal: 0.17 + 0.02 = 0.19 us.
        let comp = cfg.t_chain_gap + cfg.t_cqe;
        assert!((comp.as_us_f64() - 0.19).abs() < 0.005);
        // Doorbell-order marginal: issue + serialized fetch =
        // 0.123 + 0.417 = 0.54 us.
        let db = cfg.t_managed_fetch + cfg.t_issue_read;
        assert!((db.as_us_f64() - 0.54).abs() < 0.005);
    }

    #[test]
    fn table3_read_write_rates() {
        let cfg = NicConfig::connectx5();
        // ops per microsecond == M ops/s.
        let read = cfg.pus_per_port as f64 / cfg.t_issue_read.as_us_f64();
        let write = cfg.pus_per_port as f64 / cfg.t_issue_write.as_us_f64();
        let cas = 1.0 / cfg.t_atomic_engine.as_us_f64();
        assert!((read - 65.0).abs() < 0.7, "read {read}M");
        assert!((write - 63.0).abs() < 0.7, "write {write}M");
        assert!((cas - 8.4).abs() < 0.1, "cas {cas}M");
    }

    #[test]
    fn dual_port_doubles_pus() {
        let cfg = NicConfig::connectx5().dual_port();
        assert_eq!(cfg.total_pus(), 16);
        assert_eq!(NicConfig::connectx5().total_pus(), 8);
    }

    #[test]
    fn fig7_verb_latencies() {
        // NOOP executes locally even on a remote-connected QP: 1.21 us.
        // WRITE adds the posted data path + network RTT: 1.6 us.
        // READ/CAS/ADD add the non-posted data path + RTT: 1.8 us.
        let cfg = NicConfig::connectx5();
        let link = LinkConfig::back_to_back();
        let noop = cfg.t_doorbell + cfg.t_fetch_batch + cfg.t_chain_gap + cfg.t_cqe;
        let rtt = link.one_way * 2;
        let write = noop + cfg.t_posted_extra + rtt;
        let read = noop + cfg.t_nonposted_extra + rtt;
        assert!((noop.as_us_f64() - 1.21).abs() < 0.005, "{noop:?}");
        assert!((write.as_us_f64() - 1.6).abs() < 0.005, "{write:?}");
        assert!((read.as_us_f64() - 1.8).abs() < 0.005, "{read:?}");
    }
}
