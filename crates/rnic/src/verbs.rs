//! The RDMA verb set.
//!
//! The simulator implements the data-movement verbs of the RDMA
//! specification (READ/WRITE/SEND/RECV), the atomic extensions (CAS, ADD),
//! the Mellanox vendor *calc* verbs (MAX/MIN — §3.5 of the paper notes
//! inequality predicates need them), and the cross-channel synchronization
//! verbs WAIT and ENABLE that RedN builds its ordering modes from.

use crate::error::{Error, Result};

/// Verb opcodes as stored in the low 16 bits of a WQE's header word.
///
/// The numeric values matter: RedN conditionals CAS the entire 64-bit header
/// word (opcode + 48-bit id), so constructs compute expected/new words from
/// these encodings. `NOOP → WRITE` transmutation (Fig 4 of the paper) is a
/// CAS whose compare is `header(Noop, x)` and swap is `header(Write, x)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u16)]
pub enum Opcode {
    /// No operation. Completes locally; the workhorse placeholder that
    /// self-modifying chains transmute into real verbs.
    Noop = 0,
    /// Two-sided message send; consumes a RECV at the responder.
    Send = 1,
    /// Receive; posted on receive queues only, consumed by SEND/WRITE_IMM.
    Recv = 2,
    /// One-sided remote write.
    Write = 3,
    /// One-sided remote write that also delivers 32-bit immediate data and
    /// consumes a RECV at the responder.
    WriteImm = 4,
    /// One-sided remote read.
    Read = 5,
    /// 8-byte compare-and-swap at the responder.
    Cas = 6,
    /// 8-byte fetch-and-add at the responder.
    FetchAdd = 7,
    /// Vendor calc verb: 8-byte max(operand, memory) at the responder.
    Max = 8,
    /// Vendor calc verb: 8-byte min(operand, memory) at the responder.
    Min = 9,
    /// Cross-channel: stall this queue until a CQ reaches a completion
    /// count ("completion ordering", Fig 2a).
    Wait = 10,
    /// Cross-channel: raise another queue's fetch limit ("doorbell
    /// ordering", Fig 2b). Managed queues only fetch WQEs below their
    /// enable limit, which is what permits in-place WQE modification.
    Enable = 11,
}

impl Opcode {
    /// Decode from the low 16 bits of a header word.
    pub(crate) fn from_u16(v: u16) -> Result<Opcode> {
        Ok(match v {
            0 => Opcode::Noop,
            1 => Opcode::Send,
            2 => Opcode::Recv,
            3 => Opcode::Write,
            4 => Opcode::WriteImm,
            5 => Opcode::Read,
            6 => Opcode::Cas,
            7 => Opcode::FetchAdd,
            8 => Opcode::Max,
            9 => Opcode::Min,
            10 => Opcode::Wait,
            11 => Opcode::Enable,
            _ => return Err(Error::InvalidWr("unknown opcode")),
        })
    }

    /// Whether this is an atomic verb (serialized through the NIC's atomic
    /// engine — Table 3's 8.4 M ops/s ceiling).
    fn is_atomic(self) -> bool {
        matches!(
            self,
            Opcode::Cas | Opcode::FetchAdd | Opcode::Max | Opcode::Min
        )
    }

    /// Whether this is a vendor calc verb (requires
    /// [`crate::config::NicConfig::supports_calc`]).
    pub(crate) fn is_calc(self) -> bool {
        matches!(self, Opcode::Max | Opcode::Min)
    }

    /// Whether this verb uses the non-posted PCIe path (waits for a PCIe
    /// completion — the READ/atomic latency bump in Fig 7).
    fn is_nonposted(self) -> bool {
        matches!(self, Opcode::Read) || self.is_atomic()
    }

    /// Whether this is a cross-channel control verb.
    pub(crate) fn is_ctrl(self) -> bool {
        matches!(self, Opcode::Wait | Opcode::Enable)
    }

    /// Issue-cost class: read-class verbs (READ/atomics/calc) run at
    /// Table 3's READ rate, everything else at the WRITE rate.
    pub(crate) fn is_read_class(self) -> bool {
        self.is_nonposted()
    }
}

/// Table 2 accounting categories for RedN constructs:
/// `C` copy verbs, `A` atomic verbs, `E` WAIT/ENABLE verbs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VerbClass {
    /// Copy verbs: READ/WRITE/SEND/RECV/NOOP.
    Copy,
    /// Atomic verbs: CAS/ADD/MAX/MIN.
    Atomic,
    /// Ordering verbs: WAIT/ENABLE.
    Ordering,
}

impl Opcode {
    /// Classify for Table 2 accounting.
    pub fn class(self) -> VerbClass {
        if self.is_atomic() {
            VerbClass::Atomic
        } else if self.is_ctrl() {
            VerbClass::Ordering
        } else {
            VerbClass::Copy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All opcodes.
    const ALL: [Opcode; 12] = [
        Opcode::Noop,
        Opcode::Send,
        Opcode::Recv,
        Opcode::Write,
        Opcode::WriteImm,
        Opcode::Read,
        Opcode::Cas,
        Opcode::FetchAdd,
        Opcode::Max,
        Opcode::Min,
        Opcode::Wait,
        Opcode::Enable,
    ];

    #[test]
    fn opcode_round_trips() {
        for op in ALL {
            assert_eq!(Opcode::from_u16(op as u16).unwrap(), op);
        }
        assert!(Opcode::from_u16(999).is_err());
    }

    #[test]
    fn classifications_are_consistent() {
        assert!(Opcode::Cas.is_atomic());
        assert!(Opcode::Max.is_calc());
        assert!(!Opcode::Cas.is_calc());
        assert!(Opcode::Read.is_nonposted());
        assert!(!Opcode::Write.is_nonposted());
        assert!(Opcode::Wait.is_ctrl());
        assert_eq!(Opcode::Noop.class(), VerbClass::Copy);
        assert_eq!(Opcode::Read.class(), VerbClass::Copy);
        assert_eq!(Opcode::FetchAdd.class(), VerbClass::Atomic);
        assert_eq!(Opcode::Min.class(), VerbClass::Atomic);
        assert_eq!(Opcode::Enable.class(), VerbClass::Ordering);
        assert_eq!(Opcode::Wait.class(), VerbClass::Ordering);
    }

    #[test]
    fn atomic_verbs_are_read_class() {
        for op in ALL {
            if op.is_atomic() {
                assert!(op.is_read_class());
            }
        }
        assert!(!Opcode::Send.is_read_class());
        assert!(!Opcode::Noop.is_read_class());
    }
}
