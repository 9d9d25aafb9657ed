//! Procedural stand-ins for the video trace library test sequences.
//!
//! Each generator is deterministic (pure integer hashing, no RNG state) and
//! mimics the *content character* of its namesake: smooth head-and-shoulders
//! scenes compress gently, while the calendar-and-toys `mobile` sequence is
//! saturated with high-frequency detail and is the hardest content — the
//! same ordering the paper's Fig. 8(b) exhibits.

use crate::Image;
use std::fmt;

/// The nine evaluation sequences of the paper's Fig. 8(b), plus QCIF frame
/// helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sequence {
    /// Newsreader against a static backdrop — very smooth.
    Akiyo,
    /// Head-and-shoulders in a moving car, window edges.
    Carphone,
    /// Construction-site foreman, strong facial and background edges.
    Foreman,
    /// "Grandmother": seated figure with patterned sofa.
    Grandmother,
    /// "Miss America": the smoothest portrait content.
    MissAmerica,
    /// Calendar, toy train and wallpaper — dense high-frequency texture.
    Mobile,
    /// Mother and daughter, smooth with some detail.
    Mother,
    /// Salesman at a desk with shelving.
    Salesman,
    /// "Suzie" on the phone, soft portrait.
    Suzie,
}

impl Sequence {
    /// All sequences in the order the paper plots them.
    pub const ALL: [Sequence; 9] = [
        Sequence::Akiyo,
        Sequence::Carphone,
        Sequence::Foreman,
        Sequence::Grandmother,
        Sequence::MissAmerica,
        Sequence::Mobile,
        Sequence::Mother,
        Sequence::Salesman,
        Sequence::Suzie,
    ];

    /// The short label the paper uses on its axes.
    pub fn label(self) -> &'static str {
        match self {
            Sequence::Akiyo => "akiyo",
            Sequence::Carphone => "carphone",
            Sequence::Foreman => "foreman",
            Sequence::Grandmother => "grand",
            Sequence::MissAmerica => "miss",
            Sequence::Mobile => "mobile",
            Sequence::Mother => "mother",
            Sequence::Salesman => "salesman",
            Sequence::Suzie => "suzie",
        }
    }

    /// Scene parameters: (texture frequency, texture amplitude, edge
    /// amplitude, noise amplitude). Larger amplitudes mean more
    /// high-frequency energy and lower PSNR under approximation.
    fn params(self) -> (f64, f64, f64, f64) {
        match self {
            Sequence::MissAmerica => (0.05, 4.0, 8.0, 1.0),
            Sequence::Akiyo => (0.06, 5.0, 10.0, 1.5),
            Sequence::Suzie => (0.08, 7.0, 12.0, 2.0),
            Sequence::Mother => (0.10, 9.0, 14.0, 2.5),
            Sequence::Grandmother => (0.14, 12.0, 16.0, 3.0),
            Sequence::Carphone => (0.16, 14.0, 22.0, 3.5),
            Sequence::Salesman => (0.20, 16.0, 26.0, 4.0),
            Sequence::Foreman => (0.24, 20.0, 34.0, 5.0),
            Sequence::Mobile => (0.45, 42.0, 48.0, 8.0),
        }
    }

    /// Generates frame `index` at the given resolution.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn frame(self, width: usize, height: usize, index: usize) -> Image {
        let (freq, tex_amp, edge_amp, noise_amp) = self.params();
        let w = width as f64;
        let h = height as f64;
        let phase = index as f64 * 0.35;
        Image::from_fn(width, height, |x, y| {
            let fx = x as f64;
            let fy = y as f64;
            // Smooth background gradient.
            let mut value = 90.0 + 70.0 * (fy / h) + 20.0 * (fx / w);
            // Head-and-shoulders ellipse (every sequence has a subject; for
            // `mobile` it reads as the toy ball).
            let cx = w * 0.5 + 4.0 * (phase).sin();
            let cy = h * 0.42;
            let dx = (fx - cx) / (w * 0.22);
            let dy = (fy - cy) / (h * 0.30);
            let r2 = dx * dx + dy * dy;
            if r2 < 1.0 {
                value += edge_amp * (1.0 - r2);
            }
            // Shoulders.
            if fy > h * 0.68 && ((fx - cx).abs() / (w * 0.38)) < 1.0 {
                value -= edge_amp * 0.6;
            }
            // Scene texture: two sinusoids at the sequence's detail level.
            value += tex_amp
                * ((fx * freq + phase).sin() * (fy * freq * 1.3).cos()
                    + 0.5 * (fx * freq * 2.7).sin() * (fy * freq * 2.1 + phase).sin());
            // Deterministic film grain.
            value += noise_amp * hash_noise(x as u64, y as u64, index as u64);
            value.clamp(0.0, 255.0) as u8
        })
    }

    /// Generates frame `index` at QCIF resolution (176×144), the format the
    /// video trace library sequences use.
    pub fn frame_qcif(self, index: usize) -> Image {
        self.frame(176, 144, index)
    }
}

impl fmt::Display for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// SplitMix64-style hash mapped to `[-1, 1]`.
fn hash_noise(x: u64, y: u64, frame: u64) -> f64 {
    let mut z = x
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(y.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(frame.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) * 2.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_deterministic() {
        for seq in Sequence::ALL {
            assert_eq!(seq.frame_qcif(3), seq.frame_qcif(3));
        }
    }

    #[test]
    fn frames_differ_across_sequences_and_indices() {
        assert_ne!(
            Sequence::Akiyo.frame_qcif(0),
            Sequence::Mobile.frame_qcif(0)
        );
        assert_ne!(Sequence::Akiyo.frame_qcif(0), Sequence::Akiyo.frame_qcif(1));
    }

    #[test]
    fn qcif_dimensions() {
        let f = Sequence::Suzie.frame_qcif(0);
        assert_eq!((f.width(), f.height()), (176, 144));
    }

    /// High-frequency energy (mean absolute horizontal gradient) must rank
    /// `mobile` hardest and the portrait sequences easiest — that ordering
    /// drives the PSNR spread in Fig. 8(b).
    #[test]
    fn mobile_has_most_detail_and_miss_least() {
        let energy = |seq: Sequence| -> f64 {
            let img = seq.frame_qcif(0);
            let mut sum = 0.0;
            for y in 0..img.height() {
                for x in 1..img.width() {
                    sum += (f64::from(img.pixel(x, y)) - f64::from(img.pixel(x - 1, y))).abs();
                }
            }
            sum / (img.width() * img.height()) as f64
        };
        let mobile = energy(Sequence::Mobile);
        let miss = energy(Sequence::MissAmerica);
        for seq in Sequence::ALL {
            let e = energy(seq);
            assert!(e <= mobile, "{seq} has more detail than mobile");
            assert!(e >= miss, "{seq} has less detail than miss");
        }
        assert!(mobile > 3.0 * miss, "spread should be wide");
    }

    #[test]
    fn labels_match_paper_axis() {
        let labels: Vec<_> = Sequence::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            [
                "akiyo", "carphone", "foreman", "grand", "miss", "mobile", "mother", "salesman",
                "suzie"
            ]
        );
    }

    #[test]
    fn pixels_span_a_reasonable_range() {
        for seq in Sequence::ALL {
            let img = seq.frame_qcif(0);
            let min = img.pixels().iter().copied().min().unwrap();
            let max = img.pixels().iter().copied().max().unwrap();
            assert!(max - min > 60, "{seq} should have contrast");
        }
    }
}
