//! Extension: full rate-distortion curves and BD-rate for the approximate
//! SAD variants — the codec-standard generalization of Fig.9's single
//! operating point.

use xlac_accel::sad::{SadAccelerator, SadVariant};
use xlac_bench::{check, header, row, section};
use xlac_video::encoder::EncoderConfig;
use xlac_video::rd::{bd_rate, rd_curve};
use xlac_video::sequence::{SequenceConfig, SyntheticSequence};

fn main() {
    let seq = SyntheticSequence::generate(&SequenceConfig::fig9()).expect("valid");
    let frames = &seq.frames()[..12];
    let qsteps = [3.0f64, 6.0, 12.0, 24.0];

    section("RD curves (bits vs PSNR) per SAD configuration");
    let reference =
        rd_curve(frames, EncoderConfig::default(), &qsteps, || SadAccelerator::accurate(64))
            .expect("encodes");
    println!("accurate:");
    header(&[("qstep", 6), ("bits", 9), ("PSNR[dB]", 9)]);
    for (q, pt) in qsteps.iter().zip(&reference) {
        row(&[
            (q.to_string(), 6),
            (format!("{:.0}", pt.bits), 9),
            (format!("{:.2}", pt.psnr_db), 9),
        ]);
    }

    section("BD-rate vs accurate (positive = bits needed at equal quality)");
    header(&[("variant", 9), ("LSBs", 5), ("BD-rate", 9)]);
    let mut results = Vec::new();
    for (variant, lsbs) in [
        (SadVariant::ApxSad1, 2usize),
        (SadVariant::ApxSad1, 4),
        (SadVariant::ApxSad3, 2),
        (SadVariant::ApxSad3, 4),
        (SadVariant::ApxSad3, 6),
        (SadVariant::ApxSad5, 4),
        (SadVariant::ApxSad5, 6),
    ] {
        let curve = rd_curve(frames, EncoderConfig::default(), &qsteps, || {
            SadAccelerator::new(64, variant, lsbs)
        })
        .expect("encodes");
        let bd = bd_rate(&reference, &curve).expect("overlapping curves");
        results.push((variant, lsbs, bd));
        row(&[(format!("{variant}"), 9), (lsbs.to_string(), 5), (format!("{bd:+.2}%",), 9)]);
    }

    section("shape checks");
    let mut ok = true;
    ok &= check(
        "BD-rate is non-negative (approximate ME never wins at equal quality)",
        results.iter().all(|r| r.2 > -0.5),
    );
    ok &= check("BD-rate grows with approximated LSBs within each variant", {
        let s1: Vec<f64> =
            results.iter().filter(|r| r.0 == SadVariant::ApxSad3).map(|r| r.2).collect();
        s1.windows(2).all(|w| w[1] >= w[0] - 0.25)
    });
    ok &= check(
        "mild configurations stay below 2% BD-rate",
        results.iter().filter(|r| r.1 == 2).all(|r| r.2 < 2.0),
    );
    std::process::exit(i32::from(!ok));
}
