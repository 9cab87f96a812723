//! Work-queue entry (WQE) format.
//!
//! WQEs are stored *serialized* in simulated host memory, 64 bytes each, and
//! the NIC decodes them at fetch time. The layout is the contract that makes
//! RedN's self-modifying programs possible: constructs compute the raw
//! addresses of individual WQE fields and aim verbs at them.
//!
//! ## Layout (64 bytes, little-endian)
//!
//! | offset | field | notes |
//! |---|---|---|
//! | 0  | `header: u64` | opcode in bits 0..16, 48-bit `id` in bits 16..64 |
//! | 8  | `flags: u32` + reserved `u32` | signaled, wait-prev fence, SGL |
//! | 16 | `local_addr: u64` | source/sink buffer, or SGE table if SGL |
//! | 24 | `lkey: u32`, `length: u32` | |
//! | 32 | `remote_addr: u64` | one-sided target |
//! | 40 | `rkey: u32`, `imm_or_target: u32` | immediate data, or WAIT/ENABLE target queue |
//! | 48 | `operand: u64` | CAS compare / ADD addend / MAX-MIN operand / WAIT-ENABLE count |
//! | 56 | `swap: u64` | CAS swap value |
//!
//! The header word is the key trick (paper §3.3, Fig 4): because the opcode
//! and the free-form `id` share one 64-bit word, a single CAS can
//! *simultaneously* compare a 48-bit operand stashed in `id` and, on
//! success, replace the opcode — that is RedN's conditional branch, and it
//! is why the paper's Table 2 lists a 48-bit operand limit.
//!
//! `operand` doubles as the WAIT/ENABLE count. It is a full 64-bit word so
//! the WQ-recycling fix-up (§3.4) — a fetch-and-add that bumps the
//! monotonically increasing `wqe_count` — lands on an 8-byte-aligned field,
//! as RDMA atomics require.

use crate::error::{Error, Result};
use crate::ids::{CqId, WqId};
use crate::verbs::Opcode;

/// Size of one serialized WQE in bytes.
pub const WQE_SIZE: u64 = 64;

/// Byte offset of the header word (opcode + id) within a WQE.
pub const OFF_HEADER: u64 = 0;
/// Byte offset of the flags word.
pub const OFF_FLAGS: u64 = 8;
/// Byte offset of the local address / SGE table pointer.
pub const OFF_LOCAL_ADDR: u64 = 16;
/// Byte offset of the local key.
pub const OFF_LKEY: u64 = 24;
/// Byte offset of the length / SGE count.
pub const OFF_LENGTH: u64 = 28;
/// Byte offset of the remote address.
pub const OFF_REMOTE_ADDR: u64 = 32;
/// Byte offset of the remote key.
pub const OFF_RKEY: u64 = 40;
/// Byte offset of the immediate / WAIT-ENABLE target field.
pub const OFF_IMM: u64 = 44;
/// Byte offset of the operand (CAS compare, ADD addend, WAIT/ENABLE count).
pub const OFF_OPERAND: u64 = 48;
/// Byte offset of the CAS swap value.
pub const OFF_SWAP: u64 = 56;

/// Flag: generate a CQE on this CQ when the WQE completes.
pub const FLAG_SIGNALED: u32 = 1 << 0;
/// Flag: do not start executing until the *previous* WQE in this queue has
/// completed — the paper's *completion ordering* (Fig 2a) within one queue.
pub const FLAG_WAIT_PREV: u32 = 1 << 1;
/// Flag: `local_addr` points to a scatter/gather table; `length` holds the
/// entry count (max [`crate::config::NicConfig::max_recv_sge`]).
const FLAG_SGL: u32 = 1 << 2;

/// Mask for the 48-bit id stored in the header word.
pub const ID_MASK: u64 = 0xFFFF_FFFF_FFFF;

/// Compose a header word from an opcode and a 48-bit id.
///
/// This is what RedN conditionals CAS against: `header(Noop, x)` as the
/// compare, `header(Write, x)` as the swap (Fig 4).
#[inline]
pub fn header_word(op: Opcode, id: u64) -> u64 {
    (op as u16 as u64) | ((id & ID_MASK) << 16)
}

/// Split a header word into opcode bits and id.
#[inline]
pub fn split_header(word: u64) -> (u16, u64) {
    (word as u16, word >> 16)
}

/// A decoded work-queue entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wqe {
    /// Verb to execute.
    pub opcode: Opcode,
    /// Free-form 48-bit field sharing the header word with the opcode.
    /// "This field can be manipulated freely without changing the behavior
    /// of the WR, allowing us to use it to store x" (§3.3).
    pub id: u64,
    /// Flag bits ([`FLAG_SIGNALED`], [`FLAG_WAIT_PREV`], `FLAG_SGL`).
    pub flags: u32,
    /// Local buffer (or SGE table address when `FLAG_SGL` is set).
    pub local_addr: u64,
    /// Local key authorizing `local_addr`.
    pub lkey: u32,
    /// Transfer length in bytes (or SGE entry count when SGL).
    pub length: u32,
    /// Remote address for one-sided verbs.
    pub remote_addr: u64,
    /// Remote key authorizing `remote_addr`.
    pub rkey: u32,
    /// Immediate data (WRITE_IMM) or target queue id (WAIT → CQ,
    /// ENABLE → WQ).
    pub imm_or_target: u32,
    /// CAS compare / ADD addend / MAX-MIN operand / WAIT-ENABLE count.
    pub operand: u64,
    /// CAS swap value.
    pub swap: u64,
}

impl Default for Wqe {
    fn default() -> Wqe {
        Wqe {
            opcode: Opcode::Noop,
            id: 0,
            flags: 0,
            local_addr: 0,
            lkey: 0,
            length: 0,
            remote_addr: 0,
            rkey: 0,
            imm_or_target: 0,
            operand: 0,
            swap: 0,
        }
    }
}

impl Wqe {
    /// Serialize to the 64-byte wire format.
    pub fn encode(&self) -> [u8; WQE_SIZE as usize] {
        let mut b = [0u8; WQE_SIZE as usize];
        b[0..8].copy_from_slice(&header_word(self.opcode, self.id).to_le_bytes());
        b[8..12].copy_from_slice(&self.flags.to_le_bytes());
        b[16..24].copy_from_slice(&self.local_addr.to_le_bytes());
        b[24..28].copy_from_slice(&self.lkey.to_le_bytes());
        b[28..32].copy_from_slice(&self.length.to_le_bytes());
        b[32..40].copy_from_slice(&self.remote_addr.to_le_bytes());
        b[40..44].copy_from_slice(&self.rkey.to_le_bytes());
        b[44..48].copy_from_slice(&self.imm_or_target.to_le_bytes());
        b[48..56].copy_from_slice(&self.operand.to_le_bytes());
        b[56..64].copy_from_slice(&self.swap.to_le_bytes());
        b
    }

    /// Decode from the 64-byte wire format. Fails on an unknown opcode —
    /// the simulated equivalent of the NIC raising a local protection
    /// fault on a corrupted WQE.
    pub fn decode(b: &[u8]) -> Result<Wqe> {
        if b.len() < WQE_SIZE as usize {
            return Err(Error::InvalidWr("short WQE buffer"));
        }
        let word = u64::from_le_bytes(b[0..8].try_into().unwrap());
        let (op, id) = split_header(word);
        Ok(Wqe {
            opcode: Opcode::from_u16(op)?,
            id,
            flags: u32::from_le_bytes(b[8..12].try_into().unwrap()),
            local_addr: u64::from_le_bytes(b[16..24].try_into().unwrap()),
            lkey: u32::from_le_bytes(b[24..28].try_into().unwrap()),
            length: u32::from_le_bytes(b[28..32].try_into().unwrap()),
            remote_addr: u64::from_le_bytes(b[32..40].try_into().unwrap()),
            rkey: u32::from_le_bytes(b[40..44].try_into().unwrap()),
            imm_or_target: u32::from_le_bytes(b[44..48].try_into().unwrap()),
            operand: u64::from_le_bytes(b[48..56].try_into().unwrap()),
            swap: u64::from_le_bytes(b[56..64].try_into().unwrap()),
        })
    }

    /// Whether the signaled flag is set.
    pub fn signaled(&self) -> bool {
        self.flags & FLAG_SIGNALED != 0
    }

    /// Whether the wait-prev (completion-ordering) flag is set.
    pub fn wait_prev(&self) -> bool {
        self.flags & FLAG_WAIT_PREV != 0
    }

    /// Whether the local buffer is a scatter/gather table.
    pub(crate) fn is_sgl(&self) -> bool {
        self.flags & FLAG_SGL != 0
    }
}

/// One scatter/gather entry: 16 bytes in memory
/// (`addr: u64, lkey: u32, len: u32`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sge {
    /// Target (scatter) or source (gather) address.
    pub addr: u64,
    /// Key authorizing the access.
    pub lkey: u32,
    /// Bytes to scatter/gather at this entry.
    pub len: u32,
}

/// Size of one serialized SGE.
pub const SGE_SIZE: u64 = 16;

impl Sge {
    /// Serialize to 16 bytes.
    pub fn encode(&self) -> [u8; SGE_SIZE as usize] {
        let mut b = [0u8; SGE_SIZE as usize];
        b[0..8].copy_from_slice(&self.addr.to_le_bytes());
        b[8..12].copy_from_slice(&self.lkey.to_le_bytes());
        b[12..16].copy_from_slice(&self.len.to_le_bytes());
        b
    }

    /// Decode from 16 bytes.
    pub(crate) fn decode(b: &[u8]) -> Result<Sge> {
        if b.len() < SGE_SIZE as usize {
            return Err(Error::InvalidWr("short SGE buffer"));
        }
        Ok(Sge {
            addr: u64::from_le_bytes(b[0..8].try_into().unwrap()),
            lkey: u32::from_le_bytes(b[8..12].try_into().unwrap()),
            len: u32::from_le_bytes(b[12..16].try_into().unwrap()),
        })
    }
}

/// A user-facing work request: a thin, ergonomic builder over [`Wqe`].
///
/// ```
/// use rnic_sim::wqe::WorkRequest;
/// let wr = WorkRequest::write(0x1000, 0x10, 64, 0x2000, 0x20)
///     .signaled()
///     .with_id(42);
/// assert_eq!(wr.wqe.id, 42);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkRequest {
    /// The WQE this request lowers to.
    pub wqe: Wqe,
}

impl WorkRequest {
    /// A NOOP — completes without side effects. The placeholder verb that
    /// conditionals transmute (Fig 4).
    pub fn noop() -> WorkRequest {
        WorkRequest {
            wqe: Wqe::default(),
        }
    }

    /// One-sided write of `len` bytes from `(laddr, lkey)` to
    /// `(raddr, rkey)` on the connected peer.
    pub fn write(laddr: u64, lkey: u32, len: u32, raddr: u64, rkey: u32) -> WorkRequest {
        WorkRequest {
            wqe: Wqe {
                opcode: Opcode::Write,
                local_addr: laddr,
                lkey,
                length: len,
                remote_addr: raddr,
                rkey,
                ..Wqe::default()
            },
        }
    }

    /// One-sided write carrying 32-bit immediate data; consumes a RECV at
    /// the responder and surfaces `imm` in its completion.
    pub fn write_imm(
        laddr: u64,
        lkey: u32,
        len: u32,
        raddr: u64,
        rkey: u32,
        imm: u32,
    ) -> WorkRequest {
        WorkRequest {
            wqe: Wqe {
                opcode: Opcode::WriteImm,
                local_addr: laddr,
                lkey,
                length: len,
                remote_addr: raddr,
                rkey,
                imm_or_target: imm,
                ..Wqe::default()
            },
        }
    }

    /// One-sided read of `len` bytes from `(raddr, rkey)` into
    /// `(laddr, lkey)`.
    pub fn read(laddr: u64, lkey: u32, len: u32, raddr: u64, rkey: u32) -> WorkRequest {
        WorkRequest {
            wqe: Wqe {
                opcode: Opcode::Read,
                local_addr: laddr,
                lkey,
                length: len,
                remote_addr: raddr,
                rkey,
                ..Wqe::default()
            },
        }
    }

    /// One-sided read scattering the response across an SGE table of
    /// `count` entries at `table_addr`. RedN's hash lookup (Fig 9) uses
    /// this to land one bucket READ in several WQE fields at once.
    pub fn read_sgl(table_addr: u64, count: u32, raddr: u64, rkey: u32) -> WorkRequest {
        WorkRequest {
            wqe: Wqe {
                opcode: Opcode::Read,
                flags: FLAG_SGL,
                local_addr: table_addr,
                length: count,
                remote_addr: raddr,
                rkey,
                ..Wqe::default()
            },
        }
    }

    /// Two-sided send of `len` bytes from `(laddr, lkey)`.
    pub fn send(laddr: u64, lkey: u32, len: u32) -> WorkRequest {
        WorkRequest {
            wqe: Wqe {
                opcode: Opcode::Send,
                local_addr: laddr,
                lkey,
                length: len,
                ..Wqe::default()
            },
        }
    }

    /// Receive into a single buffer.
    pub fn recv(laddr: u64, lkey: u32, len: u32) -> WorkRequest {
        WorkRequest {
            wqe: Wqe {
                opcode: Opcode::Recv,
                local_addr: laddr,
                lkey,
                length: len,
                ..Wqe::default()
            },
        }
    }

    /// Receive scattering into an SGE table of `count` entries at
    /// `table_addr`. This is how RedN injects client arguments directly
    /// into posted WQEs (Fig 3): scatter entries aim at WQE fields.
    pub fn recv_sgl(table_addr: u64, count: u32) -> WorkRequest {
        WorkRequest {
            wqe: Wqe {
                opcode: Opcode::Recv,
                flags: FLAG_SGL,
                local_addr: table_addr,
                length: count,
                ..Wqe::default()
            },
        }
    }

    /// Compare-and-swap 8 bytes at `(raddr, rkey)`. The old value is
    /// written back to `(result_addr, result_lkey)` unless `result_addr`
    /// is 0 (RedN chains usually discard it).
    pub fn cas(
        raddr: u64,
        rkey: u32,
        compare: u64,
        swap: u64,
        result_addr: u64,
        result_lkey: u32,
    ) -> WorkRequest {
        WorkRequest {
            wqe: Wqe {
                opcode: Opcode::Cas,
                local_addr: result_addr,
                lkey: result_lkey,
                length: 8,
                remote_addr: raddr,
                rkey,
                operand: compare,
                swap,
                ..Wqe::default()
            },
        }
    }

    /// Fetch-and-add 8 bytes at `(raddr, rkey)`.
    pub fn fetch_add(
        raddr: u64,
        rkey: u32,
        add: u64,
        result_addr: u64,
        result_lkey: u32,
    ) -> WorkRequest {
        WorkRequest {
            wqe: Wqe {
                opcode: Opcode::FetchAdd,
                local_addr: result_addr,
                lkey: result_lkey,
                length: 8,
                remote_addr: raddr,
                rkey,
                operand: add,
                ..Wqe::default()
            },
        }
    }

    /// Vendor calc: `mem = max(mem, operand)` at `(raddr, rkey)`.
    pub fn max(raddr: u64, rkey: u32, operand: u64) -> WorkRequest {
        WorkRequest {
            wqe: Wqe {
                opcode: Opcode::Max,
                length: 8,
                remote_addr: raddr,
                rkey,
                operand,
                ..Wqe::default()
            },
        }
    }

    /// Vendor calc: `mem = min(mem, operand)` at `(raddr, rkey)`.
    pub fn min(raddr: u64, rkey: u32, operand: u64) -> WorkRequest {
        WorkRequest {
            wqe: Wqe {
                opcode: Opcode::Min,
                length: 8,
                remote_addr: raddr,
                rkey,
                operand,
                ..Wqe::default()
            },
        }
    }

    /// Stall this queue until `cq` has generated at least `count`
    /// completions since creation (counts are monotonic — the wqe_count
    /// semantics of §3.4).
    pub fn wait(cq: CqId, count: u64) -> WorkRequest {
        WorkRequest {
            wqe: Wqe {
                opcode: Opcode::Wait,
                imm_or_target: cq.0,
                operand: count,
                ..Wqe::default()
            },
        }
    }

    /// Raise `wq`'s fetch limit to `count` WQEs (absolute, monotonic).
    pub fn enable(wq: WqId, count: u64) -> WorkRequest {
        WorkRequest {
            wqe: Wqe {
                opcode: Opcode::Enable,
                imm_or_target: wq.0,
                operand: count,
                ..Wqe::default()
            },
        }
    }

    /// Request a completion for this WQE.
    pub fn signaled(mut self) -> WorkRequest {
        self.wqe.flags |= FLAG_SIGNALED;
        self
    }

    /// Gate execution on the previous WQE's completion (completion
    /// ordering within a queue).
    pub fn wait_prev(mut self) -> WorkRequest {
        self.wqe.flags |= FLAG_WAIT_PREV;
        self
    }

    /// Set the free-form 48-bit id (conditional operand storage).
    pub fn with_id(mut self, id: u64) -> WorkRequest {
        self.wqe.id = id & ID_MASK;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_word_packs_opcode_and_id() {
        let w = header_word(Opcode::Write, 0xABCD);
        let (op, id) = split_header(w);
        assert_eq!(op, Opcode::Write as u16);
        assert_eq!(id, 0xABCD);
        // id is truncated to 48 bits.
        let w = header_word(Opcode::Noop, u64::MAX);
        let (_, id) = split_header(w);
        assert_eq!(id, ID_MASK);
    }

    #[test]
    fn conditional_transmutation_math() {
        // The Fig 4 trick: CAS(header(Noop, x) -> header(Write, x))
        // succeeds iff the stored id equals x.
        let x = 0x1234_5678_9ABC & ID_MASK;
        let stored = header_word(Opcode::Noop, x);
        let compare = header_word(Opcode::Noop, x);
        let swap = header_word(Opcode::Write, x);
        assert_eq!(stored, compare);
        let after = if stored == compare { swap } else { stored };
        let (op, id) = split_header(after);
        assert_eq!(op, Opcode::Write as u16);
        assert_eq!(id, x);
        // Mismatch leaves the NOOP in place.
        let stored2 = header_word(Opcode::Noop, x ^ 1);
        assert_ne!(stored2, compare);
    }

    #[test]
    fn encode_decode_round_trip() {
        let wqe = Wqe {
            opcode: Opcode::Cas,
            id: 0x7777,
            flags: FLAG_SIGNALED | FLAG_WAIT_PREV,
            local_addr: 0x1_2345,
            lkey: 9,
            length: 8,
            remote_addr: 0xDEAD_BEE0,
            rkey: 11,
            imm_or_target: 3,
            operand: 0xAAAA_BBBB_CCCC_DDDD,
            swap: 0x1111_2222_3333_4444,
        };
        let bytes = wqe.encode();
        assert_eq!(Wqe::decode(&bytes).unwrap(), wqe);
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut bytes = Wqe::default().encode();
        bytes[0] = 0xFF; // unknown opcode 0x..FF
        bytes[1] = 0xFF;
        assert!(Wqe::decode(&bytes).is_err());
        assert!(Wqe::decode(&bytes[..32]).is_err());
    }

    #[test]
    fn field_offsets_match_encoding() {
        let wqe = Wqe {
            opcode: Opcode::Read,
            id: 0x42,
            local_addr: 0x1111,
            length: 0x2222,
            remote_addr: 0x3333,
            rkey: 0x44,
            operand: 0x5555,
            swap: 0x6666,
            ..Wqe::default()
        };
        let b = wqe.encode();
        let at_u64 =
            |off: u64| u64::from_le_bytes(b[off as usize..off as usize + 8].try_into().unwrap());
        let at_u32 =
            |off: u64| u32::from_le_bytes(b[off as usize..off as usize + 4].try_into().unwrap());
        assert_eq!(at_u64(OFF_HEADER), header_word(Opcode::Read, 0x42));
        assert_eq!(at_u64(OFF_LOCAL_ADDR), 0x1111);
        assert_eq!(at_u32(OFF_LENGTH), 0x2222);
        assert_eq!(at_u64(OFF_REMOTE_ADDR), 0x3333);
        assert_eq!(at_u32(OFF_RKEY), 0x44);
        assert_eq!(at_u64(OFF_OPERAND), 0x5555);
        assert_eq!(at_u64(OFF_SWAP), 0x6666);
    }

    #[test]
    fn sge_round_trip() {
        let sge = Sge {
            addr: 0xABCD,
            lkey: 7,
            len: 128,
        };
        assert_eq!(Sge::decode(&sge.encode()).unwrap(), sge);
        assert!(Sge::decode(&[0u8; 8]).is_err());
    }

    #[test]
    fn builders_set_expected_fields() {
        let wr = WorkRequest::write(1, 2, 3, 4, 5);
        assert_eq!(wr.wqe.opcode, Opcode::Write);
        assert_eq!((wr.wqe.local_addr, wr.wqe.lkey, wr.wqe.length), (1, 2, 3));
        assert_eq!((wr.wqe.remote_addr, wr.wqe.rkey), (4, 5));

        let wr = WorkRequest::cas(8, 9, 10, 11, 0, 0).signaled();
        assert_eq!(wr.wqe.opcode, Opcode::Cas);
        assert_eq!((wr.wqe.operand, wr.wqe.swap), (10, 11));
        assert!(wr.wqe.signaled());

        let wr = WorkRequest::wait(CqId(5), 77);
        assert_eq!(wr.wqe.imm_or_target, 5);
        assert_eq!(wr.wqe.operand, 77);

        let wr = WorkRequest::enable(WqId(6), 88).wait_prev();
        assert_eq!(wr.wqe.imm_or_target, 6);
        assert!(wr.wqe.wait_prev());

        let wr = WorkRequest::recv_sgl(0x100, 4);
        assert!(wr.wqe.is_sgl());
        assert_eq!(wr.wqe.length, 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_opcode() -> impl Strategy<Value = Opcode> {
        (0u16..12).prop_map(|v| Opcode::from_u16(v).unwrap())
    }

    proptest! {
        #[test]
        fn wqe_encode_decode_round_trips(
            opcode in arb_opcode(),
            id in 0u64..=ID_MASK,
            flags in 0u32..8,
            local_addr in any::<u64>(),
            lkey in any::<u32>(),
            length in any::<u32>(),
            remote_addr in any::<u64>(),
            rkey in any::<u32>(),
            imm in any::<u32>(),
            operand in any::<u64>(),
            swap in any::<u64>(),
        ) {
            let wqe = Wqe {
                opcode, id, flags, local_addr, lkey, length,
                remote_addr, rkey, imm_or_target: imm, operand, swap,
            };
            let decoded = Wqe::decode(&wqe.encode()).unwrap();
            prop_assert_eq!(decoded, wqe);
        }

        #[test]
        fn header_word_is_bijective_on_48_bits(
            opcode in arb_opcode(),
            id in 0u64..=ID_MASK,
        ) {
            let w = header_word(opcode, id);
            let (op, got_id) = split_header(w);
            prop_assert_eq!(op, opcode as u16);
            prop_assert_eq!(got_id, id);
        }

        #[test]
        fn sge_encode_decode_round_trips(
            addr in any::<u64>(),
            lkey in any::<u32>(),
            len in any::<u32>(),
        ) {
            let sge = Sge { addr, lkey, len };
            prop_assert_eq!(Sge::decode(&sge.encode()).unwrap(), sge);
        }
    }
}
