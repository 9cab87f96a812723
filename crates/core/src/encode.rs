//! Operand encoding and WQE patch-point addressing.
//!
//! RedN constructs operate by aiming verbs at the *fields of other WQEs*.
//! This module names those fields, computes their addresses, and packages
//! the 48-bit operand encoding of §3.5: an operand lives in a WQE's `id`
//! bits (the high 48 bits of the header word), so a single 64-bit CAS on
//! the header simultaneously compares the operand and (on success) swaps
//! the opcode.

use rnic_sim::verbs::Opcode;
use rnic_sim::wqe::{
    header_word, ID_MASK, OFF_FLAGS, OFF_HEADER, OFF_IMM, OFF_LENGTH, OFF_LKEY, OFF_LOCAL_ADDR,
    OFF_OPERAND, OFF_REMOTE_ADDR, OFF_RKEY, OFF_SWAP,
};

/// Maximum operand width supported by a single conditional (Table 2).
pub(crate) const OPERAND_BITS: u32 = 48;

/// Byte offset of the `id` bits within a WQE: the header word's low 16
/// bits hold the opcode, so the 48-bit id starts at byte 2.
const OFF_ID_BYTES: u64 = OFF_HEADER + 2;

/// Named WQE fields, for readable patch-point arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WqeField {
    /// The full 64-bit header word (opcode + id) — the CAS target of
    /// conditionals.
    Header,
    /// The 48-bit id portion of the header (byte offset 2, length 6).
    /// Scatter client arguments here without touching the opcode.
    Id,
    /// Flag bits (signaled / wait-prev / SGL).
    Flags,
    /// Local buffer address (or SGE table pointer).
    LocalAddr,
    /// Local key.
    Lkey,
    /// Transfer length.
    Length,
    /// Remote address — patch this for indirect addressing (Appendix A).
    RemoteAddr,
    /// Remote key.
    Rkey,
    /// Immediate / WAIT-ENABLE target field.
    Imm,
    /// CAS compare / ADD addend / WAIT-ENABLE count.
    Operand,
    /// CAS swap value.
    Swap,
}

impl WqeField {
    /// Byte offset of the field within a WQE slot.
    pub(crate) fn offset(self) -> u64 {
        match self {
            WqeField::Header => OFF_HEADER,
            WqeField::Id => OFF_ID_BYTES,
            WqeField::Flags => OFF_FLAGS,
            WqeField::LocalAddr => OFF_LOCAL_ADDR,
            WqeField::Lkey => OFF_LKEY,
            WqeField::Length => OFF_LENGTH,
            WqeField::RemoteAddr => OFF_REMOTE_ADDR,
            WqeField::Rkey => OFF_RKEY,
            WqeField::Imm => OFF_IMM,
            WqeField::Operand => OFF_OPERAND,
            WqeField::Swap => OFF_SWAP,
        }
    }
}

/// Truncate a value to the 48-bit operand width.
#[inline]
pub(crate) fn operand48(v: u64) -> u64 {
    v & ID_MASK
}

/// The CAS `compare` value for the Fig 4 conditional: "the stored header
/// is still a NOOP carrying operand `y`".
#[inline]
pub fn cond_compare(y: u64) -> u64 {
    header_word(Opcode::Noop, y)
}

/// The CAS `swap` value for the Fig 4 conditional: "transmute into
/// `action` keeping the operand bits".
#[inline]
pub fn cond_swap(action: Opcode, y: u64) -> u64 {
    header_word(action, y)
}

/// Split a wide operand into 48-bit segments, least-significant first.
/// Conditionals wider than 48 bits chain one CAS per segment (§3.5:
/// "we can chain together multiple CAS operations to handle different
/// segments of a larger operand").
pub(crate) fn wide_segments(value: u128, bits: u32) -> Vec<u64> {
    assert!(bits > 0 && bits <= 128, "1..=128 bit operands");
    let nseg = bits.div_ceil(OPERAND_BITS);
    (0..nseg)
        .map(|i| ((value >> (i * OPERAND_BITS)) as u64) & ID_MASK)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::wqe::{Wqe, WQE_SIZE};

    /// Width of the id field in bytes.
    const ID_BYTES: u64 = 6;

    /// Width of a field in bytes.
    fn width(f: WqeField) -> u64 {
        match f {
            WqeField::Header | WqeField::LocalAddr | WqeField::RemoteAddr => 8,
            WqeField::Operand | WqeField::Swap => 8,
            WqeField::Id => ID_BYTES,
            WqeField::Flags | WqeField::Lkey | WqeField::Length => 4,
            WqeField::Rkey | WqeField::Imm => 4,
        }
    }

    #[test]
    fn field_offsets_are_in_bounds_and_distinct() {
        let fields = [
            WqeField::Header,
            WqeField::Id,
            WqeField::Flags,
            WqeField::LocalAddr,
            WqeField::Lkey,
            WqeField::Length,
            WqeField::RemoteAddr,
            WqeField::Rkey,
            WqeField::Imm,
            WqeField::Operand,
            WqeField::Swap,
        ];
        for f in fields {
            assert!(f.offset() + width(f) <= WQE_SIZE, "{f:?} out of bounds");
        }
    }

    #[test]
    fn id_bytes_overlay_header_correctly() {
        // Writing 6 bytes at OFF_ID_BYTES must change exactly the id.
        let wqe = Wqe {
            opcode: Opcode::Noop,
            id: 0,
            ..Wqe::default()
        };
        let mut bytes = wqe.encode();
        let x: u64 = 0xAABB_CCDD_EEFF; // 48 bits
        bytes[OFF_ID_BYTES as usize..(OFF_ID_BYTES + ID_BYTES) as usize]
            .copy_from_slice(&x.to_le_bytes()[..6]);
        let decoded = Wqe::decode(&bytes).unwrap();
        assert_eq!(decoded.opcode, Opcode::Noop); // opcode untouched
        assert_eq!(decoded.id, x);
    }

    #[test]
    fn cond_compare_swap_pair() {
        let y = operand48(0x1234_5678_9ABC);
        let cmp = cond_compare(y);
        let swp = cond_swap(Opcode::Write, y);
        // Same id bits, different opcode bits.
        assert_eq!(cmp >> 16, swp >> 16);
        assert_eq!(cmp as u16, Opcode::Noop as u16);
        assert_eq!(swp as u16, Opcode::Write as u16);
    }

    #[test]
    fn wide_segments_split_and_cover() {
        let v: u128 = 0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF;
        let segs = wide_segments(v, 128);
        assert_eq!(segs.len(), 3); // ceil(128/48)
                                   // Reassemble.
        let mut back: u128 = 0;
        for (i, s) in segs.iter().enumerate() {
            back |= (*s as u128) << (i as u32 * OPERAND_BITS);
        }
        // Only the low 128 bits (wrapping at 144) matter.
        assert_eq!(back, v);
        // A 48-bit value needs exactly one segment.
        assert_eq!(wide_segments(0xFFFF_FFFF_FFFF, 48).len(), 1);
        assert_eq!(wide_segments(1, 49).len(), 2);
    }

    #[test]
    #[should_panic(expected = "1..=128 bit operands")]
    fn wide_segments_reject_zero_bits() {
        wide_segments(1, 0);
    }
}
