//! Multiply-accumulate (MAC) generator: `out = a × b + acc` over a
//! fixed-width accumulator.

use crate::{
    add_into, multiply_into, AdderKind, Canonical, Component, ComponentSpec, MultiplierKind,
};
use aix_cells::Library;
use aix_netlist::{GateSink, NetId, Netlist, NetlistError};
use std::sync::Arc;

/// Instantiates a MAC over existing buses: `a × b + acc`, wrapping at the
/// accumulator width `a.len() + b.len()`.
///
/// # Errors
///
/// Propagates [`NetlistError`] from gate instantiation.
///
/// # Panics
///
/// Panics if `acc` is not exactly `a.len() + b.len()` bits wide.
pub fn mac_into(
    nl: &mut impl GateSink,
    mult: MultiplierKind,
    adder: AdderKind,
    a: &[NetId],
    b: &[NetId],
    acc: &[NetId],
) -> Result<Vec<NetId>, NetlistError> {
    assert_eq!(
        acc.len(),
        a.len() + b.len(),
        "accumulator must match product width"
    );
    let product = multiply_into(nl, mult, a, b)?;
    let (sum, _wrap) = add_into(nl, adder, &product, acc, None)?;
    Ok(sum)
}

/// Builds a complete MAC component: inputs `a`, `b` of
/// [`ComponentSpec::width`] bits and `acc` of `2 × width` bits; output
/// `out = a × b + acc` of `2 × width` bits (wrapping).
///
/// The multiplier core uses the carry-save array and the accumulate adder
/// the carry-select architecture — the combination whose delay responds
/// most strongly to precision reduction, mirroring the MAC behaviour the
/// paper reports in Fig. 7(a).
///
/// # Errors
///
/// Propagates [`NetlistError`] from construction.
pub fn build_mac(library: &Arc<Library>, spec: ComponentSpec) -> Result<Netlist, NetlistError> {
    Canonical::Mac(spec).build(library)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_netlist::{bus_from_u64, bus_to_u64};
    use aix_sim::oracle;

    fn lib() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    fn run_mac(nl: &Netlist, width: usize, a: u64, b: u64, acc: u64) -> u64 {
        let mut inputs = bus_from_u64(a, width);
        inputs.extend(bus_from_u64(b, width));
        inputs.extend(bus_from_u64(acc, 2 * width));
        bus_to_u64(&oracle::eval(nl, &inputs).unwrap())
    }

    #[test]
    fn exhaustive_three_bit_mac() {
        let lib = lib();
        let nl = build_mac(&lib, ComponentSpec::full(3)).unwrap();
        for a in 0u64..8 {
            for b in 0u64..8 {
                for acc in [0u64, 1, 31, 63] {
                    let expect = (a * b + acc) & 0x3F;
                    assert_eq!(run_mac(&nl, 3, a, b, acc), expect, "{a}*{b}+{acc}");
                }
            }
        }
    }

    #[test]
    fn random_16_bit_mac() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let lib = lib();
        let nl = build_mac(&lib, ComponentSpec::full(16)).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..50 {
            let a = u64::from(rng.gen::<u16>());
            let b = u64::from(rng.gen::<u16>());
            let acc = u64::from(rng.gen::<u32>());
            let expect = (a * b + acc) & 0xFFFF_FFFF;
            assert_eq!(run_mac(&nl, 16, a, b, acc), expect);
        }
    }

    #[test]
    fn accumulate_wraps_at_width() {
        let lib = lib();
        let nl = build_mac(&lib, ComponentSpec::full(4)).unwrap();
        // 15*15 + 255 = 480 = 0b1_1110_0000 wraps to 0xE0 in 8 bits.
        assert_eq!(run_mac(&nl, 4, 15, 15, 255), 480 & 0xFF);
    }

    #[test]
    fn truncation_masks_multiplier_operands_only() {
        let lib = lib();
        let spec = ComponentSpec::new(8, 6).unwrap();
        let nl = build_mac(&lib, spec).unwrap();
        let a = 0xFF;
        let b = 0x0F;
        let acc = 0x3;
        let expect = (spec.truncate(a) * spec.truncate(b) + acc) & 0xFFFF;
        assert_eq!(run_mac(&nl, 8, a, b, acc), expect);
    }
}
