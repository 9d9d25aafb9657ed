//! Gate-level timed execution of the DCT/IDCT datapath.
//!
//! Every multiply-accumulate of the transform schedule runs on a
//! synthesized 32-bit MAC netlist through timed simulation, clocked at the
//! *fresh* maximum frequency while the gates carry *aged* delays — the
//! exact setup of the paper's motivational study (Fig. 2): naive guardband
//! removal turns aging into nondeterministic timing errors that corrupt
//! the image.
//!
//! [`TimedStreams`] runs up to 64 blocks lane-parallel, each lane a
//! persistent stream of that block's MACs, and a step computes only the
//! MAC outputs latched at the clock edge. Each lane's MAC sequence is
//! exact per-vector timed simulation (a MAC's timing depends on the
//! *previous* MAC of the same block). Fresh runs are error-free and
//! therefore bit-identical to RTL.

use crate::{engine, CoefficientImage, Quantizer};
use aix_aging::{AgingModel, AgingScenario};
use aix_arith::{add_into, multiply_into, AdderKind, MultiplierKind};
use aix_cells::Library;
use aix_image::Image;
use aix_netlist::{bus_from_u64, Netlist, NetlistError};
use aix_sim::{golden_lane_word, TimedStreams, LANES};
use aix_sta::{analyze, ClockConstraint, NetDelays};
use aix_synth::{compile, Effort};
use std::sync::Arc;

/// Datapath operand width in bits.
const WIDTH: usize = 32;
/// Accumulator/output width in bits: wide enough for the guard-shifted
/// products of the transform engine (|coeff·2⁶ × sample·2⁶| < 2⁴¹) plus
/// accumulation headroom.
const ACC_WIDTH: usize = 48;

/// Margin added to the zero-guardband clock derived from the fresh
/// critical path. The timed engines sample edge-exclusively (an arrival
/// exactly at `t_clock` is a violation) on a femtosecond tick grid, so a
/// MAC input that exercises the exact critical path would flag the *fresh*
/// design without this one-picosecond allowance — far below any
/// aging-induced delay shift, so the motivational study is unaffected.
const CLOCK_EDGE_MARGIN_PS: f64 = 1.0;

/// Configuration of a gate-level pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateLevelConfig {
    /// Aging condition applied to every gate delay.
    pub scenario: AgingScenario,
    /// LSBs truncated from the MAC's multiplier operands (the netlist is
    /// re-synthesized accordingly, shortening its critical path).
    pub multiplier_truncation: u32,
    /// Explicit clock period override in ps; `None` clocks at the fresh
    /// full-precision critical path (zero guardband, plus the engine's
    /// one-picosecond edge margin).
    pub clock_ps: Option<f64>,
}

impl GateLevelConfig {
    /// Fresh circuit, exact datapath, zero-guardband clock.
    pub fn fresh() -> Self {
        Self::aged(AgingScenario::Fresh)
    }

    /// Aged circuit at the fresh clock (the naive guardband removal of the
    /// motivational study).
    pub fn aged(scenario: AgingScenario) -> Self {
        Self {
            scenario,
            multiplier_truncation: 0,
            clock_ps: None,
        }
    }
}

/// Statistics of a gate-level run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GateLevelStats {
    /// MAC operations executed.
    pub mac_ops: u64,
    /// MAC operations whose sampled output differed from the settled one.
    pub timing_errors: u64,
}

impl GateLevelStats {
    /// Fraction of MAC operations that latched a wrong value.
    pub fn error_rate(&self) -> f64 {
        if self.mac_ops == 0 {
            0.0
        } else {
            self.timing_errors as f64 / self.mac_ops as f64
        }
    }
}

/// A DCT/IDCT image pipeline whose every MAC executes on a timed gate-level
/// netlist.
///
/// # Examples
///
/// ```no_run
/// use aix_dct::{encode_image, FixedPointTransform, GateLevelConfig, GateLevelPipeline};
/// use aix_aging::{AgingScenario, Lifetime};
/// use aix_cells::Library;
/// use aix_image::Sequence;
/// use std::sync::Arc;
///
/// let lib = Arc::new(Library::nangate45_like());
/// let frame = Sequence::Akiyo.frame(64, 48, 0);
/// let coeffs = encode_image(&frame, &FixedPointTransform::exact());
/// let aged = GateLevelPipeline::new(
///     &lib,
///     GateLevelConfig::aged(AgingScenario::balanced(Lifetime::YEARS_10)),
/// )?;
/// let (decoded, stats) = aged.decode_image(&coeffs)?;
/// println!("{} MAC timing errors", stats.timing_errors);
/// # let _ = decoded;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct GateLevelPipeline {
    netlist: Netlist,
    delays: NetDelays,
    clock_ps: f64,
    fresh_cp_ps: f64,
}

impl GateLevelPipeline {
    /// Synthesizes the 32-bit MAC datapath and prepares aged delays.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction/STA errors; never fails for the
    /// built-in library.
    pub fn new(library: &Arc<Library>, config: GateLevelConfig) -> Result<Self, NetlistError> {
        let netlist = build_mac_netlist(library, config.multiplier_truncation)?;
        let model = AgingModel::calibrated();
        // The clock is fixed at design time from the *full-precision*
        // fresh netlist — the timing constraint the design must keep
        // meeting over its whole lifetime.
        let reference = if config.multiplier_truncation == 0 {
            netlist.clone()
        } else {
            build_mac_netlist(library, 0)?
        };
        let fresh_cp_ps = analyze(&reference, &NetDelays::fresh(&reference))?.max_delay_ps();
        let clock_ps = config
            .clock_ps
            .unwrap_or(fresh_cp_ps + CLOCK_EDGE_MARGIN_PS);
        let delays = NetDelays::aged(&netlist, &model, config.scenario);
        Ok(Self {
            netlist,
            delays,
            clock_ps,
            fresh_cp_ps,
        })
    }

    /// The clock period in picoseconds the pipeline samples at.
    pub fn clock(&self) -> ClockConstraint {
        ClockConstraint::from_period_ps(self.clock_ps)
    }

    /// Fresh critical-path delay of the full-precision MAC, in ps.
    pub fn fresh_critical_path_ps(&self) -> f64 {
        self.fresh_cp_ps
    }

    /// The synthesized MAC netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Decodes a coefficient image through the timed gate-level IDCT.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; never fails for pipelines built by
    /// [`GateLevelPipeline::new`].
    pub fn decode_image(
        &self,
        coefficients: &CoefficientImage,
    ) -> Result<(Image, GateLevelStats), NetlistError> {
        let mut stats = GateLevelStats::default();
        let (width, height) = coefficients.dimensions();
        let mut image = Image::filled(width, height, 0);
        let blocks_per_row = width.div_ceil(8);
        // One simulator per block group: the first step pins the lane
        // count, and the tail group may be narrower.
        for (group_index, group) in coefficients.blocks().chunks(LANES).enumerate() {
            let mut sim = self.streams()?;
            let pixels = {
                let mut mac = Self::batch_mac_closure(&mut sim, &mut stats);
                engine::inverse_block_batch(&mut mac, group)
            };
            for (offset, block) in pixels.iter().enumerate() {
                let index = group_index * LANES + offset;
                image.set_block8(index % blocks_per_row, index / blocks_per_row, block);
            }
        }
        Ok((image, stats))
    }

    /// Encodes and then decodes `image` entirely at gate level (both the
    /// DCT and the IDCT age), optionally passing each block through a
    /// codec quantizer between the transforms, and returns the
    /// reconstruction and statistics — the full Fig. 2 setup.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn roundtrip_image(
        &self,
        image: &Image,
        quantizer: Option<&Quantizer>,
    ) -> Result<(Image, GateLevelStats), NetlistError> {
        let mut stats = GateLevelStats::default();
        let (bw, bh) = image.block_counts();
        let mut out = Image::filled(image.width(), image.height(), 0);
        let coords: Vec<(usize, usize)> = (0..bh)
            .flat_map(|by| (0..bw).map(move |bx| (bx, by)))
            .collect();
        for group in coords.chunks(LANES) {
            let blocks: Vec<[u8; 64]> = group.iter().map(|&(bx, by)| image.block8(bx, by)).collect();
            let mut sim = self.streams()?;
            let pixels = {
                let mut mac = Self::batch_mac_closure(&mut sim, &mut stats);
                let mut coeffs = engine::forward_block_batch(&mut mac, &blocks);
                if let Some(q) = quantizer {
                    for block in &mut coeffs {
                        q.apply(block);
                    }
                }
                engine::inverse_block_batch(&mut mac, &coeffs)
            };
            for (&(bx, by), block) in group.iter().zip(&pixels) {
                out.set_block8(bx, by, block);
            }
        }
        Ok((out, stats))
    }

    /// A timed simulator of the MAC for one block group.
    fn streams(&self) -> Result<TimedStreams<'_>, NetlistError> {
        TimedStreams::new(&self.netlist, &self.delays, self.clock_ps)
    }

    /// Builds the lane-batched MAC closure driving `sim`: one lane per
    /// block, all lanes stepped together per MAC.
    fn batch_mac_closure<'a, 'nl: 'a>(
        sim: &'a mut TimedStreams<'nl>,
        stats: &'a mut GateLevelStats,
    ) -> impl FnMut(&mut [i64], i64, &[i64]) + use<'a, 'nl> {
        move |accs: &mut [i64], coeff: i64, samples: &[i64]| {
            let batch: Vec<Vec<bool>> = accs
                .iter()
                .zip(samples)
                .map(|(&acc, &sample)| mac_inputs(coeff, sample, acc))
                .collect();
            let error_lanes = sim
                .step(&batch)
                .expect("input width matches the synthesized MAC");
            stats.mac_ops += batch.len() as u64;
            stats.timing_errors += u64::from(error_lanes.count_ones());
            let sampled = sim.sampled_words();
            for (lane, acc) in accs.iter_mut().enumerate() {
                *acc = from_bus(golden_lane_word(sampled, lane));
            }
        }
    }
}

/// The MAC's input vector for `coeff × sample + acc`.
fn mac_inputs(coeff: i64, sample: i64, acc: i64) -> Vec<bool> {
    let mut inputs = bus_from_u64(to_operand(coeff), WIDTH);
    inputs.extend(bus_from_u64(to_operand(sample), WIDTH));
    inputs.extend(bus_from_u64(to_acc(acc), ACC_WIDTH));
    inputs
}

/// Two's-complement embedding of an `i64` into the 32-bit operand bus.
fn to_operand(value: i64) -> u64 {
    (value as u64) & 0xFFFF_FFFF
}

/// Two's-complement embedding of an `i64` into the 48-bit accumulator bus.
fn to_acc(value: i64) -> u64 {
    (value as u64) & 0xFFFF_FFFF_FFFF
}

/// Sign extension back from the 48-bit accumulator bus.
fn from_bus(raw: u64) -> i64 {
    let masked = raw & 0xFFFF_FFFF_FFFF;
    if masked & (1 << 47) != 0 {
        (masked | !0xFFFF_FFFF_FFFF) as i64
    } else {
        masked as i64
    }
}

/// Synthesizes the 32-bit MAC: Wallace multiplier core, carry-select
/// accumulate, output truncated to the low 32 bits (the datapath wraps at
/// the register width), then cleanup, timing-driven sizing and area
/// recovery — the "ultra compile" treatment.
fn build_mac_netlist(library: &Arc<Library>, mult_truncation: u32) -> Result<Netlist, NetlistError> {
    let mut nl = Netlist::new(
        format!("idct_mac_t{mult_truncation}"),
        Arc::clone(library),
    );
    let a = nl.add_input_bus("a", WIDTH);
    let b = nl.add_input_bus("b", WIDTH);
    let acc = nl.add_input_bus("acc", ACC_WIDTH);
    let zero = nl.constant(false);
    let mask = |nl: &mut Netlist, bus: &[aix_netlist::NetId]| -> Vec<aix_netlist::NetId> {
        let z = nl.constant(false);
        bus.iter()
            .enumerate()
            .map(|(i, &net)| if (i as u32) < mult_truncation { z } else { net })
            .collect()
    };
    let at = mask(&mut nl, &a);
    let bt = mask(&mut nl, &b);
    // Sign-extend the two's-complement operands to the accumulator width by
    // replicating the sign net (costs wiring, not gates), so the low
    // ACC_WIDTH product bits equal the signed product modulo 2^ACC_WIDTH.
    let extend = |bus: &[aix_netlist::NetId]| -> Vec<aix_netlist::NetId> {
        let mut wide = bus.to_vec();
        let sign = *bus.last().expect("non-empty operand bus");
        wide.extend(std::iter::repeat_n(sign, ACC_WIDTH - WIDTH));
        wide
    };
    let product = multiply_into(&mut nl, MultiplierKind::Wallace, &extend(&at), &extend(&bt))?;
    let _ = zero;
    let (sum, _overflow) =
        add_into(&mut nl, AdderKind::CarrySelect, &product[..ACC_WIDTH], &acc, None)?;
    for (i, &net) in sum.iter().take(ACC_WIDTH).enumerate() {
        nl.mark_output(format!("out[{i}]"), net);
    }
    compile(&nl, Effort::Ultra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_image, roundtrip_psnr, FixedPointTransform};
    use aix_aging::Lifetime;
    use aix_image::{psnr, Sequence};
    use aix_netlist::bus_to_u64;

    fn library() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    #[test]
    fn bus_embedding_roundtrips() {
        for v in [-4_000_000_000i64, -2_000_000, -1, 0, 1, 2_000_000, 1 << 42] {
            assert_eq!(from_bus(to_acc(v)), v);
        }
    }

    #[test]
    fn mac_netlist_computes_wrapped_mac() {
        let lib = library();
        let nl = build_mac_netlist(&lib, 0).unwrap();
        for (a, b, acc) in [
            (3i64, 5i64, 7i64),
            (-4, 100, -50),
            (4096, -4096, 123_456),
            (-1, -1, 0),
            (131_072, 120_000, -4_000_000_000),
        ] {
            let out = nl.eval(&mac_inputs(a, b, acc)).unwrap();
            let got = from_bus(bus_to_u64(&out));
            let expect = from_bus(to_acc(a.wrapping_mul(b).wrapping_add(acc)));
            assert_eq!(got, expect, "{a}*{b}+{acc}");
        }
    }

    #[test]
    fn fresh_pipeline_matches_rtl_model() {
        let lib = library();
        let frame = Sequence::Akiyo.frame(24, 16, 0);
        let exact = FixedPointTransform::exact();
        let coeffs = encode_image(&frame, &exact);
        let pipeline = GateLevelPipeline::new(&lib, GateLevelConfig::fresh()).unwrap();
        let (decoded, stats) = pipeline.decode_image(&coeffs).unwrap();
        assert_eq!(stats.timing_errors, 0, "fresh circuit at its own clock");
        let rtl = crate::decode_image(&coeffs, &exact);
        assert_eq!(decoded, rtl, "gate level must be bit-identical to RTL");
        assert!(stats.mac_ops > 0);
    }

    #[test]
    fn aged_pipeline_corrupts_images() {
        let lib = library();
        let frame = Sequence::Foreman.frame(24, 16, 0);
        let exact = FixedPointTransform::exact();
        let coeffs = encode_image(&frame, &exact);
        let clean = roundtrip_psnr(&frame, &exact, &exact);
        let aged = GateLevelPipeline::new(
            &lib,
            GateLevelConfig::aged(AgingScenario::worst_case(Lifetime::YEARS_10)),
        )
        .unwrap();
        let (decoded, stats) = aged.decode_image(&coeffs).unwrap();
        assert!(stats.timing_errors > 0, "10-year worst-case must err");
        let q = psnr(&frame, &decoded);
        assert!(q < clean - 5.0, "quality must collapse: {q} vs {clean}");
    }

    /// The Foreman frame's decode at a condition, as (timing errors, FNV-1a
    /// of the decoded pixels).
    fn foreman_decode(config: GateLevelConfig) -> (u64, u64) {
        let frame = Sequence::Foreman.frame(24, 16, 0);
        let coeffs = encode_image(&frame, &FixedPointTransform::exact());
        let pipeline = GateLevelPipeline::new(&library(), config).unwrap();
        let (decoded, stats) = pipeline.decode_image(&coeffs).unwrap();
        assert_eq!(stats.mac_ops, 6144);
        let hash = aix_obs::fnv1a(aix_obs::FNV_OFFSET, decoded.pixels());
        (stats.timing_errors, hash)
    }

    /// A fresh MAC clocked at `factor` × its fresh critical path.
    fn overclocked(factor: f64) -> GateLevelConfig {
        let fresh_cp = GateLevelPipeline::new(&library(), GateLevelConfig::fresh())
            .unwrap()
            .fresh_critical_path_ps();
        GateLevelConfig {
            clock_ps: Some(factor * fresh_cp),
            ..GateLevelConfig::fresh()
        }
    }

    #[test]
    fn error_rich_decodes_are_pinned() {
        // Recorded from the waveform simulator that computed these decodes
        // before the sampling program did: the same timing errors and the
        // same pixels, in conditions where many MACs latch wrong values.
        let worst = GateLevelConfig::aged(AgingScenario::worst_case(Lifetime::YEARS_10));
        assert_eq!(foreman_decode(worst), (73, 0x144f_1070_30f1_9695));
        assert_eq!(foreman_decode(overclocked(0.8)), (617, 0x831f_10ee_287c_540c));
        assert_eq!(foreman_decode(overclocked(0.6)), (3790, 0xaa46_2396_992e_0a2b));
    }

    #[test]
    fn overclocked_mac_streams_match_per_lane_scalars() {
        use aix_sim::TimedSimulator;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const LANES_USED: usize = 5;
        const STEPS: usize = 6;
        let pipeline = GateLevelPipeline::new(&library(), overclocked(0.6)).unwrap();
        let (netlist, delays) = (&pipeline.netlist, &pipeline.delays);
        let mut rng = StdRng::seed_from_u64(6);
        let mut streams = TimedStreams::new(netlist, delays, pipeline.clock_ps).unwrap();
        let mut scalars: Vec<TimedSimulator> = (0..LANES_USED)
            .map(|_| TimedSimulator::new(netlist, delays).unwrap())
            .collect();
        let mut errors = 0;
        for step in 0..STEPS {
            let batch: Vec<Vec<bool>> = (0..LANES_USED)
                .map(|_| mac_inputs(rng.gen(), rng.gen(), rng.gen()))
                .collect();
            let error_lanes = streams.step(&batch).unwrap();
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                let expected = scalar.step(&batch[lane], pipeline.clock_ps).unwrap();
                let bit = |word: &u64| (word >> lane) & 1 == 1;
                let sampled: Vec<bool> = streams.sampled_words().iter().map(bit).collect();
                let settled: Vec<bool> = streams.settled_words().iter().map(bit).collect();
                assert_eq!(sampled, expected.sampled, "step {step} lane {lane}");
                assert_eq!(settled, expected.settled, "step {step} lane {lane}");
                assert_eq!(bit(&error_lanes), expected.timing_error, "step {step} lane {lane}");
                errors += usize::from(expected.timing_error);
            }
        }
        assert!(errors > 0, "0.6x the fresh clock must err");
    }

    #[test]
    fn truncated_netlist_is_faster() {
        let lib = library();
        let full = build_mac_netlist(&lib, 0).unwrap();
        let cut = build_mac_netlist(&lib, 6).unwrap();
        let d_full = analyze(&full, &NetDelays::fresh(&full)).unwrap().max_delay_ps();
        let d_cut = analyze(&cut, &NetDelays::fresh(&cut)).unwrap().max_delay_ps();
        assert!(d_cut < d_full, "{d_cut} vs {d_full}");
        assert!(cut.stats().area_um2 < full.stats().area_um2);
    }
}
