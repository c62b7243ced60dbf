//! Fig.9 reproduction: bit-rate increase for the approximate SAD variants
//! at 0/2/4/6 approximated LSBs inside the video encoder.
//!
//! The paper's findings: 2- and 4-LSB approximation costs a *marginal*
//! bit-rate increase, 6-LSB approximation a *large* one; and the 4-LSB
//! configuration always uses less power than the 2-LSB one — making
//! ApxSAD2/ApxSAD3 with 4 LSBs the recommended operating point.

use xlac_accel::sad::{SadAccelerator, SadVariant};
use xlac_bench::{check, header, row, section};
use xlac_video::encoder::{Encoder, EncoderConfig};
use xlac_video::sequence::{SequenceConfig, SyntheticSequence};

fn main() {
    let seq = SyntheticSequence::generate(&SequenceConfig::fig9()).expect("valid config");
    let frames = seq.frames();

    let exact_bits =
        Encoder::new(EncoderConfig::default(), SadAccelerator::accurate(64).expect("valid"))
            .expect("valid")
            .encode(frames)
            .expect("encodes")
            .total_bits as f64;
    println!("accurate baseline: {exact_bits:.0} bits over {} frames", frames.len());

    section("Fig.9 — bit-rate increase vs approximated LSBs");
    header(&[("variant", 9), ("0 LSBs", 8), ("2 LSBs", 8), ("4 LSBs", 8), ("6 LSBs", 8)]);

    let variants = [
        SadVariant::ApxSad1,
        SadVariant::ApxSad2,
        SadVariant::ApxSad3,
        SadVariant::ApxSad4,
        SadVariant::ApxSad5,
    ];
    // increase[variant][lsb-index] in percent.
    let mut increase = vec![[0.0f64; 4]; variants.len()];
    let mut power = vec![[0.0f64; 4]; variants.len()];
    for (vi, &variant) in variants.iter().enumerate() {
        let mut cells = vec![(format!("{variant}"), 9)];
        for (li, lsbs) in [0usize, 2, 4, 6].into_iter().enumerate() {
            let sad = SadAccelerator::new(64, variant, lsbs).expect("valid");
            power[vi][li] = sad.hw_cost().power_nw;
            let bits = Encoder::new(EncoderConfig::default(), sad)
                .expect("valid")
                .encode(frames)
                .expect("encodes")
                .total_bits as f64;
            increase[vi][li] = (bits / exact_bits - 1.0) * 100.0;
            cells.push((format!("{:+.2}%", increase[vi][li]), 8));
        }
        row(&cells);
    }

    section("accelerator power at each configuration [nW]");
    header(&[("variant", 9), ("0 LSBs", 9), ("2 LSBs", 9), ("4 LSBs", 9), ("6 LSBs", 9)]);
    for (vi, &variant) in variants.iter().enumerate() {
        let mut cells = vec![(format!("{variant}"), 9)];
        for value in &power[vi] {
            cells.push((format!("{value:.0}"), 9));
        }
        row(&cells);
    }

    section("shape checks vs the paper");
    let mut ok = true;
    ok &= check(
        "2-LSB approximation is marginal (< 10% bit-rate increase) for every variant",
        increase.iter().all(|r| r[1] < 10.0),
    );
    ok &= check(
        "6-LSB approximation out-costs 4-LSB for every variant",
        increase.iter().all(|r| r[3] > r[2]),
    );
    ok &= check(
        "6-LSB approximation is substantial (> 2x the 2-LSB overhead on average)",
        increase.iter().map(|r| r[3]).sum::<f64>()
            > 2.0 * increase.iter().map(|r| r[1]).sum::<f64>().max(0.5),
    );
    ok &= check(
        "4-LSB power is always below 2-LSB power (the paper's power claim)",
        power.iter().all(|r| r[2] < r[1]),
    );
    let sweet = increase[1][2].max(increase[2][2]); // ApxSAD2/3 at 4 LSBs
    ok &= check(
        "the recommended operating point (ApxSAD2/3 @ 4 LSBs) stays below 15% overhead",
        sweet < 15.0,
    );
    std::process::exit(i32::from(!ok));
}
