//! Stimulus generators: operand streams for characterization and error
//! measurement.

use aix_netlist::bus_from_u64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A source of operand pairs `(a, b)` for two-input arithmetic components.
pub trait OperandSource {
    /// Operand bit width.
    fn width(&self) -> usize;

    /// The next operand pair.
    fn next_pair(&mut self) -> (u64, u64);

    /// Adapts the source into a stream of flattened input vectors
    /// (`a` bits then `b` bits, LSB first) of length `count`.
    fn vectors(self, count: usize) -> VectorStream<Self>
    where
        Self: Sized,
    {
        VectorStream {
            source: self,
            remaining: count,
            extra_bits: 0,
        }
    }

    /// Like [`vectors`](Self::vectors) but appends `extra_bits` constant-zero
    /// bits to each vector (e.g. a MAC's accumulator input).
    fn vectors_with_zeros(self, count: usize, extra_bits: usize) -> VectorStream<Self>
    where
        Self: Sized,
    {
        VectorStream {
            source: self,
            remaining: count,
            extra_bits,
        }
    }
}

/// Iterator adapter produced by [`OperandSource::vectors`].
#[derive(Debug)]
pub struct VectorStream<S> {
    source: S,
    remaining: usize,
    extra_bits: usize,
}

impl<S: OperandSource> Iterator for VectorStream<S> {
    type Item = Vec<bool>;

    fn next(&mut self) -> Option<Vec<bool>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (a, b) = self.source.next_pair();
        let width = self.source.width();
        let mut v = bus_from_u64(a, width);
        v.extend(bus_from_u64(b, width));
        v.extend(std::iter::repeat_n(false, self.extra_bits));
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Normally distributed operands — the paper's application-independent
/// stimulus ("10⁶ values following a normal distribution"), representative
/// of typical image-processing data.
///
/// Values are drawn from `N(mean, std_dev)` via the Box-Muller transform
/// and clamped into the operand range.
///
/// # Examples
///
/// ```
/// use aix_sim::{NormalOperands, OperandSource};
///
/// let mut src = NormalOperands::new(16, 7);
/// let (a, b) = src.next_pair();
/// assert!(a < 1 << 16 && b < 1 << 16);
/// ```
#[derive(Debug, Clone)]
pub struct NormalOperands {
    width: usize,
    mean: f64,
    std_dev: f64,
    rng: StdRng,
    cached: Option<f64>,
}

impl NormalOperands {
    /// A source centred at half range with a quarter-range spread.
    pub fn new(width: usize, seed: u64) -> Self {
        let half = (1u64 << (width - 1)) as f64;
        Self::with_parameters(width, half, half / 2.0, seed)
    }

    /// A source with explicit mean and standard deviation (in operand
    /// value units).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 63, or `std_dev` is negative.
    pub fn with_parameters(width: usize, mean: f64, std_dev: f64, seed: u64) -> Self {
        assert!((1..=63).contains(&width), "width must be in 1..=63");
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        Self {
            width,
            mean,
            std_dev,
            rng: StdRng::seed_from_u64(seed),
            cached: None,
        }
    }

    fn sample(&mut self) -> u64 {
        // Box-Muller: generate two normals per trip, cache one.
        let z = match self.cached.take() {
            Some(z) => z,
            None => {
                let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = self.rng.gen::<f64>();
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                self.cached = Some(r * theta.sin());
                r * theta.cos()
            }
        };
        let max = ((1u64 << self.width) - 1) as f64;
        (self.mean + self.std_dev * z).clamp(0.0, max) as u64
    }
}

impl OperandSource for NormalOperands {
    fn width(&self) -> usize {
        self.width
    }

    fn next_pair(&mut self) -> (u64, u64) {
        (self.sample(), self.sample())
    }
}

/// Zero-centred normally distributed *signed* operands, embedded in
/// two's complement — representative of image-processing data (DCT
/// coefficients and level-shifted samples are signed and concentrated
/// around zero).
///
/// # Examples
///
/// ```
/// use aix_sim::{OperandSource, SignedNormalOperands};
///
/// let mut src = SignedNormalOperands::new(16, 1024.0, 7);
/// let (a, b) = src.next_pair();
/// assert!(a < 1 << 16 && b < 1 << 16, "two's-complement embedding");
/// ```
#[derive(Debug, Clone)]
pub struct SignedNormalOperands {
    width: usize,
    std_dev: f64,
    rng: StdRng,
    cached: Option<f64>,
}

impl SignedNormalOperands {
    /// A zero-mean source with the given standard deviation (in value
    /// units) over `width`-bit two's complement.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 63, or `std_dev` is negative.
    pub fn new(width: usize, std_dev: f64, seed: u64) -> Self {
        assert!((1..=63).contains(&width), "width must be in 1..=63");
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        Self {
            width,
            std_dev,
            rng: StdRng::seed_from_u64(seed),
            cached: None,
        }
    }

    /// A source whose spread matches typical image-pipeline magnitudes for
    /// the width (σ = 2^(width/2 + 2)).
    pub fn for_width(width: usize, seed: u64) -> Self {
        let std_dev = 2f64.powi(width as i32 / 2 + 2);
        Self::new(width, std_dev, seed)
    }

    fn sample(&mut self) -> u64 {
        let z = match self.cached.take() {
            Some(z) => z,
            None => {
                let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = self.rng.gen::<f64>();
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                self.cached = Some(r * theta.sin());
                r * theta.cos()
            }
        };
        let limit = (1i64 << (self.width - 1)) - 1;
        let value = ((self.std_dev * z) as i64).clamp(-limit - 1, limit);
        (value as u64) & ((1u64 << self.width) - 1)
    }
}

impl OperandSource for SignedNormalOperands {
    fn width(&self) -> usize {
        self.width
    }

    fn next_pair(&mut self) -> (u64, u64) {
        (self.sample(), self.sample())
    }
}

/// Uniformly distributed operands over the full range.
#[derive(Debug, Clone)]
pub struct UniformOperands {
    width: usize,
    rng: StdRng,
}

impl UniformOperands {
    /// A uniform source over `[0, 2^width)`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 64.
    pub fn new(width: usize, seed: u64) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        Self {
            width,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl OperandSource for UniformOperands {
    fn width(&self) -> usize {
        self.width
    }

    fn next_pair(&mut self) -> (u64, u64) {
        let mask = if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        (self.rng.gen::<u64>() & mask, self.rng.gen::<u64>() & mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_operands_stay_in_range() {
        let mut src = NormalOperands::new(8, 1);
        for _ in 0..1000 {
            let (a, b) = src.next_pair();
            assert!(a < 256 && b < 256);
        }
    }

    #[test]
    fn normal_operands_cluster_at_mean() {
        let mut src = NormalOperands::new(8, 2);
        let n = 4000;
        let sum: f64 = (0..n).map(|_| src.next_pair().0 as f64).sum();
        let mean = sum / n as f64;
        assert!((mean - 128.0).abs() < 6.0, "sample mean {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<_> = NormalOperands::new(16, 9).vectors(5).collect();
        let b: Vec<_> = NormalOperands::new(16, 9).vectors(5).collect();
        let c: Vec<_> = NormalOperands::new(16, 10).vectors(5).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn vector_stream_shapes() {
        let vectors: Vec<_> = UniformOperands::new(8, 3).vectors(7).collect();
        assert_eq!(vectors.len(), 7);
        assert!(vectors.iter().all(|v| v.len() == 16));
        let with_acc: Vec<_> = UniformOperands::new(8, 3)
            .vectors_with_zeros(2, 16)
            .collect();
        assert!(with_acc.iter().all(|v| v.len() == 32));
        assert!(with_acc.iter().all(|v| v[16..].iter().all(|&b| !b)));
    }

    #[test]
    fn signed_normal_centres_on_zero() {
        let mut src = SignedNormalOperands::new(16, 500.0, 3);
        let n = 2000;
        let mut sum = 0i64;
        let mut signs = 0usize;
        for _ in 0..n {
            let (a, _) = src.next_pair();
            let v = ((a as u16) as i16) as i64;
            sum += v;
            if v < 0 {
                signs += 1;
            }
        }
        let mean = sum as f64 / n as f64;
        assert!(mean.abs() < 50.0, "sample mean {mean}");
        let frac = signs as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.06, "negative fraction {frac}");
    }

    #[test]
    fn uniform_covers_range() {
        let mut src = UniformOperands::new(4, 5);
        let mut seen = [false; 16];
        for _ in 0..500 {
            let (a, b) = src.next_pair();
            seen[a as usize] = true;
            seen[b as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 4-bit values should appear");
    }
}
