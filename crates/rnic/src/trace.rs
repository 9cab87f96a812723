//! Execution tracing.
//!
//! When [`crate::config::SimConfig::trace`] is on, the simulator records
//! every doorbell, fetch, execution, memory effect and completion. Tests
//! use the trace to assert ordering invariants (e.g. "a managed WQE is
//! never fetched before its ENABLE"), and the paper's §3.5 auditability
//! argument — servers can monitor what offloaded code actually did — is
//! demonstrated on top of it.

use crate::ids::{CqId, WqId};
use crate::time::Time;
use crate::verbs::Opcode;

/// One trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A doorbell rang for a queue.
    Doorbell {
        /// The queue.
        wq: WqId,
    },
    /// The NIC fetched (snapshotted) a WQE.
    Fetch {
        /// The queue.
        wq: WqId,
        /// Monotonic WQE index.
        idx: u64,
        /// Decoded opcode at fetch time.
        opcode: Opcode,
        /// Whether the fetch went through the serialized managed path.
        managed: bool,
    },
    /// A PU issued (began executing) a WQE.
    Issue {
        /// The queue.
        wq: WqId,
        /// Monotonic WQE index.
        idx: u64,
        /// Opcode that executed.
        opcode: Opcode,
    },
    /// A WAIT verb parked its queue.
    Park {
        /// The parked queue.
        wq: WqId,
        /// The CQ it waits on.
        cq: CqId,
        /// The threshold count.
        count: u64,
    },
    /// An ENABLE raised a queue's fetch limit.
    Enable {
        /// The enabled queue.
        wq: WqId,
        /// New (absolute) fetch limit.
        until: u64,
    },
    /// Bytes landed in host memory (RDMA write/atomic/scatter effect).
    MemWrite {
        /// Destination address.
        addr: u64,
        /// Length.
        len: u64,
    },
    /// A completion was generated.
    Cqe {
        /// The CQ.
        cq: CqId,
        /// Source queue.
        wq: WqId,
        /// WQE index.
        idx: u64,
    },
    /// A work queue faulted (key violation, bad WQE, ...).
    Fault {
        /// The queue.
        wq: WqId,
        /// Monotonic WQE index.
        idx: u64,
        /// Human-readable reason.
        reason: String,
    },
}

/// A time-stamped trace.
#[derive(Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<(Time, TraceEvent)>,
}

impl Trace {
    /// Create a trace; `enabled=false` makes all recording free no-ops.
    pub(crate) fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            events: Vec::new(),
        }
    }

    /// Whether recording is active.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event at `now`.
    #[inline]
    pub(crate) fn record(&mut self, now: Time, ev: TraceEvent) {
        if self.enabled {
            self.events.push((now, ev));
        }
    }

    /// All recorded events in time order.
    pub fn events(&self) -> &[(Time, TraceEvent)] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        t.record(Time::ZERO, TraceEvent::Doorbell { wq: WqId(0) });
        assert!(t.events().is_empty());
        assert!(!t.enabled());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::new(true);
        t.record(Time::from_us(1), TraceEvent::Doorbell { wq: WqId(0) });
        t.record(
            Time::from_us(2),
            TraceEvent::Issue {
                wq: WqId(0),
                idx: 0,
                opcode: Opcode::Noop,
            },
        );
        assert_eq!(t.events().len(), 2);
        assert!(matches!(t.events()[1], (_, TraceEvent::Issue { .. })));
        assert!(t.enabled());
    }
}
