//! Discrete cosine transform circuits: the error-tolerant multimedia
//! substrate the paper builds its case study on.
//!
//! Three levels of modelling, mirroring the paper's methodology:
//!
//! * [`FixedPointTransform`] — a bit-accurate *RTL model* of the 8×8
//!   row–column DCT/IDCT datapath with per-component precision reduction
//!   ([`DatapathPrecision`]). This is the "functional RTL simulation
//!   taking seconds" that replaces gate-level simulation once
//!   aging-induced errors have been converted into deterministic
//!   approximations.
//! * [`encode_image`] / [`decode_image`] / [`roundtrip_psnr`] — the image
//!   pipeline used for quality evaluation (Fig. 2, Fig. 8b, Fig. 9).
//! * [`GateLevelPipeline`] — the expensive counterpart: every MAC operation
//!   of the IDCT executes on a synthesized gate-level netlist through
//!   timed simulation sampled at the clock edge
//!   ([`aix_sim::TimedStreams`]), so *nondeterministic* aging-induced
//!   timing errors corrupt the image exactly as in the paper's
//!   motivational study.
//!
//! # Examples
//!
//! ```
//! use aix_dct::{roundtrip_psnr, DatapathPrecision, FixedPointTransform};
//! use aix_image::Sequence;
//!
//! let frame = Sequence::Akiyo.frame(64, 48, 0);
//! let exact = FixedPointTransform::exact();
//! let q = roundtrip_psnr(&frame, &exact, &exact);
//! assert!(q > 40.0, "exact round trip is near-transparent, got {q}");
//!
//! // Truncation beyond the datapath's guard bits degrades quality.
//! let cut = FixedPointTransform::new(DatapathPrecision::new(12, 0));
//! assert!(roundtrip_psnr(&frame, &exact, &cut) < q);
//! ```

mod coeffs;
mod engine;
mod fixed;
mod gatelevel;
mod pipeline;
mod precision;
mod quant;

pub use coeffs::{dct_coefficient, idct_coefficient, COEFF_FRACTION_BITS};
pub use engine::OPERAND_SHIFT;
pub use fixed::FixedPointTransform;
pub use gatelevel::{GateLevelConfig, GateLevelPipeline};
pub use pipeline::{
    decode_image, encode_image, encode_image_quantized, roundtrip_psnr, CoefficientImage,
};
pub use precision::DatapathPrecision;
pub use quant::Quantizer;
