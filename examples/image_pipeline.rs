//! Image pipeline: decode the test sequences with an approximated IDCT and
//! watch quality degrade gracefully — the deterministic alternative to
//! aging-induced timing errors.
//!
//! Run with `cargo run --release --example image_pipeline`.
//! Writes reconstructed frames to `out/example_*.pgm`.

use aix::dct::{decode_image, encode_image, DatapathPrecision, FixedPointTransform, OPERAND_SHIFT};
use aix::image::{psnr, write_pgm, Sequence};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all("out")?;
    let exact = FixedPointTransform::exact();

    println!(
        "datapath guard bits: {OPERAND_SHIFT} (the first {OPERAND_SHIFT} truncated LSBs are free)\n"
    );
    println!(
        "{:<12} PSNR [dB] at multiplier truncation of 0 / 8 / 10 / 12 / 14 bits",
        "sequence"
    );
    for sequence in Sequence::ALL {
        let frame = sequence.frame_qcif(0);
        let encoded = encode_image(&frame, &exact);
        let mut row = format!("{:<12}", sequence.label());
        for truncation in [0u32, 8, 10, 12, 14] {
            let decoder = FixedPointTransform::new(DatapathPrecision::new(truncation, 0));
            let decoded = decode_image(&encoded, &decoder);
            row.push_str(&format!(" {:>6.1}", psnr(&frame, &decoded)));
            if truncation == 12 {
                let path = format!("out/example_{}_t12.pgm", sequence.label());
                write_pgm(std::fs::File::create(&path)?, &decoded)?;
            }
        }
        println!("{row}");
    }
    println!("\nreconstructions at 12-bit truncation written to out/example_*_t12.pgm");
    println!("30 dB is the commonly accepted threshold for acceptable image quality.");
    Ok(())
}
