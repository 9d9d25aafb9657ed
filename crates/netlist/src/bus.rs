//! Bus helpers: converting between integers and LSB-first bit vectors.

use crate::NetId;

/// An LSB-first group of nets treated as a binary word.
pub type Bus = Vec<NetId>;

/// Expands the low `width` bits of `value` into an LSB-first bit vector.
///
/// # Examples
///
/// ```
/// use aix_netlist::bus_from_u64;
///
/// assert_eq!(bus_from_u64(0b101, 4), vec![true, false, true, false]);
/// ```
///
/// # Panics
///
/// Panics if `width > 64`.
pub fn bus_from_u64(value: u64, width: usize) -> Vec<bool> {
    assert!(width <= 64, "bus wider than u64");
    (0..width).map(|i| value >> i & 1 == 1).collect()
}

/// Packs an LSB-first bit slice into a `u64`.
///
/// # Examples
///
/// ```
/// use aix_netlist::{bus_from_u64, bus_to_u64};
///
/// assert_eq!(bus_to_u64(&bus_from_u64(0xDEAD, 16)), 0xDEAD);
/// ```
///
/// # Panics
///
/// Panics if `bits` is longer than 64.
pub fn bus_to_u64(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64, "bus wider than u64");
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        for width in [1usize, 7, 8, 16, 32, 63, 64] {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            for value in [0u64, 1, 0x5555_5555_5555_5555, u64::MAX] {
                let v = value & mask;
                assert_eq!(bus_to_u64(&bus_from_u64(v, width)), v, "w={width} v={v:#x}");
            }
        }
    }

    #[test]
    fn lsb_first_ordering() {
        let bits = bus_from_u64(1, 3);
        assert_eq!(bits, vec![true, false, false]);
    }

    #[test]
    #[should_panic(expected = "wider than u64")]
    fn rejects_overwide() {
        let _ = bus_from_u64(0, 65);
    }
}
