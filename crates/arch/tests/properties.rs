//! Property-based tests for the architecture model.

use certify_arch::{ExceptionClass, Reg, RegisterFile, Syndrome};
use proptest::prelude::*;

fn any_reg() -> impl Strategy<Value = Reg> {
    (0usize..16).prop_map(|i| Reg::ALL[i])
}

proptest! {
    /// Flipping the same bit twice is the identity: the paper's
    /// transient single-bit-flip fault is an involution.
    #[test]
    fn bit_flip_is_involution(value in any::<u32>(), reg in any_reg(), bit in 0u8..32) {
        let mut rf = RegisterFile::new();
        rf.write(reg, value);
        rf.flip_bit(reg, bit);
        rf.flip_bit(reg, bit);
        prop_assert_eq!(rf.read(reg), value);
    }

    /// A single bit flip always changes the register value.
    #[test]
    fn bit_flip_changes_value(value in any::<u32>(), reg in any_reg(), bit in 0u8..32) {
        let mut rf = RegisterFile::new();
        rf.write(reg, value);
        let flipped = rf.flip_bit(reg, bit);
        prop_assert_ne!(flipped, value);
    }

    /// A flip in one register never disturbs any other register.
    #[test]
    fn bit_flip_is_local(values in proptest::array::uniform16(any::<u32>()),
                         target in 0usize..16, bit in 0u8..32) {
        let mut rf = RegisterFile::new();
        for (i, v) in values.iter().enumerate() {
            rf.write(Reg::ALL[i], *v);
        }
        rf.flip_bit(Reg::ALL[target], bit);
        for (i, v) in values.iter().enumerate() {
            if i != target {
                prop_assert_eq!(rf.read(Reg::ALL[i]), *v);
            }
        }
    }

    /// HSR decode is total and encode∘decode is idempotent on the
    /// modelled bits: decoding any raw value and re-encoding yields a
    /// fixed point.
    #[test]
    fn syndrome_decode_encode_fixed_point(raw in any::<u32>()) {
        let decoded = Syndrome::decode(raw);
        let reencoded = decoded.encode();
        prop_assert_eq!(Syndrome::decode(reencoded), decoded);
    }

    /// Exception-class codes survive a round trip for every 6-bit code.
    #[test]
    fn exception_class_round_trip(code in 0u8..64) {
        prop_assert_eq!(ExceptionClass::from_code(code).code(), code);
    }

    /// Register Display names are unique (log parsing relies on this).
    #[test]
    fn register_names_unique(a in 0usize..16, b in 0usize..16) {
        prop_assume!(a != b);
        prop_assert_ne!(
            Reg::ALL[a].to_string(),
            Reg::ALL[b].to_string()
        );
    }
}
