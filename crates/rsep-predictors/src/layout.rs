//! Compile-time checks of the packed table-entry words.
//!
//! Each packed layout lists its fields as `(shift, width)` pairs next to
//! its constants and asserts [`fields_fit`] in a `const _: () = assert!(…)`.
//! A field that overlaps another, or does not fit in the word, then fails
//! `cargo build` (error E0080) instead of silently corrupting a neighbour.

/// True when every `(shift, width)` field is non-empty, lies inside a
/// `word_bits`-bit word and overlaps no other field.
pub(crate) const fn fields_fit(word_bits: u32, fields: &[(u32, u32)]) -> bool {
    let mut used: u128 = 0;
    let mut i = 0;
    while i < fields.len() {
        let (shift, width) = fields[i];
        if width == 0 || shift + width > word_bits {
            return false;
        }
        let mask = ((1u128 << width) - 1) << shift;
        if used & mask != 0 {
            return false;
        }
        used |= mask;
        i += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::fields_fit;

    #[test]
    fn accepts_disjoint_in_word_fields() {
        assert!(fields_fit(32, &[(0, 16), (16, 3), (19, 2)]));
        assert!(fields_fit(64, &[(0, 32), (32, 16), (48, 7), (55, 1)]));
    }

    #[test]
    fn rejects_overlap_overflow_and_empty_fields() {
        assert!(!fields_fit(32, &[(0, 16), (16, 3), (17, 2)]));
        assert!(!fields_fit(32, &[(0, 16), (16, 17)]));
        assert!(!fields_fit(8, &[(0, 0)]));
    }
}
