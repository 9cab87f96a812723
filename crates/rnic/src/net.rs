//! The network fabric: in-flight messages between connected queue pairs.
//!
//! Transport is RC (reliable connection) — the only RDMA transport that
//! supports the WAIT/ENABLE synchronization verbs the paper uses ("we use
//! reliable connection (RC) RDMA transport, which supports the RDMA
//! synchronization features we use", §5 "NIC setup").
//!
//! Loopback QPs (peer on the same node) skip the wire entirely but still
//! cross PCIe; that matches the paper's local-vs-remote NOOP measurement
//! (Fig 7) and is the common case for RedN chains, which mostly operate on
//! the server's own memory.

use crate::cq::CqeStatus;
use crate::ids::{QpId, WqId};
use crate::verbs::Opcode;

/// What a request asks of the responder. The bytes a SEND / WRITE
/// carries are the in-flight record's [`InFlight::data`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Payload {
    /// Two-sided send: consumes a RECV, scatters the data.
    Send,
    /// One-sided write.
    Write {
        /// Responder-side destination.
        raddr: u64,
        /// Remote key presented.
        rkey: u32,
        /// Immediate data (WRITE_IMM) — also consumes a RECV.
        imm: Option<u32>,
    },
    /// One-sided read request.
    Read {
        /// Responder-side source.
        raddr: u64,
        /// Remote key presented.
        rkey: u32,
        /// Bytes requested.
        len: u32,
    },
    /// 8-byte atomic (CAS/FADD/MAX/MIN).
    Atomic {
        /// Which atomic verb.
        op: Opcode,
        /// Responder-side target (8-byte aligned).
        raddr: u64,
        /// Remote key presented.
        rkey: u32,
        /// CAS compare / ADD addend / MAX-MIN operand.
        operand: u64,
        /// CAS swap value.
        swap: u64,
    },
}

/// One in-flight message: created when a WQE's request leaves the
/// initiator, consulted at arrival (responder effects) and completion
/// (initiator bookkeeping). WQEs that complete without leaving the NIC
/// have none.
#[derive(Debug)]
pub(crate) struct InFlight {
    /// Initiating work queue.
    pub src_wq: WqId,
    /// Initiating QP.
    pub src_qp: QpId,
    /// Responder QP (peer of `src_qp`; equal node for loopback).
    pub dst_qp: QpId,
    /// Bytes moved, reported in the CQE.
    pub byte_len: u32,
    /// Monotonic WQE index at the initiator.
    pub src_idx: u64,
    /// The verb that executed (post-modification).
    pub opcode: Opcode,
    /// Whether the initiator requested a CQE.
    pub signaled: bool,
    /// Filled at the responder: outcome of the operation.
    pub status: CqeStatus,
    /// What the responder is asked to do.
    pub payload: Payload,
    /// The message's one byte buffer, since a message never has both: a
    /// SEND's / WRITE's request bytes until the responder places them,
    /// then, for a READ / atomic, the data / old value it returns.
    pub data: Vec<u8>,
    /// Initiator-side result sink for READ / atomic writeback
    /// (`(addr, lkey)`; addr 0 = discard, as RedN chains usually do).
    pub result_sink: (u64, u32),
    /// When set, `result_sink.0` is an SGE table address and
    /// `result_sink.1` its entry count: the READ response scatters across
    /// the table (RedN's Fig 9 uses this to land one bucket READ in two
    /// different WQE fields).
    pub result_sgl: bool,
    /// Filled at the responder when a SEND / WRITE_IMM consumes a RECV:
    /// the RECV's WQE index and the byte count its CQE reports. That CQE
    /// is pushed `t_cqe` later, from this record.
    pub recv: (u64, u32),
}
