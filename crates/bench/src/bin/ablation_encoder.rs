//! Ablation: where in the encoder does approximation hurt?
//!
//! Two sweeps over the same sequence:
//!
//! 1. **Search range** — approximate SAD's bit-rate penalty as a function
//!    of the motion-search range (a wider search gives a broken ranking
//!    more chances to pick a bad vector *and* more chances to find a good
//!    one — measuring which effect wins).
//! 2. **Approximation site** — motion estimation only, transform only, or
//!    both: the cross-layer error-propagation question Fig.7's
//!    methodology raises (different datapath sites mask errors
//!    differently).

use xlac_accel::sad::{SadAccelerator, SadVariant};
use xlac_adders::FullAdderKind;
use xlac_bench::{check, header, row, section};
use xlac_video::encoder::{Encoder, EncoderConfig, TransformImpl};
use xlac_video::sequence::{SequenceConfig, SyntheticSequence};

fn main() {
    let seq = SyntheticSequence::generate(&SequenceConfig::fig9()).expect("valid");
    let frames = &seq.frames()[..12];

    // --- sweep 1: search range ---------------------------------------------
    section("sweep 1 — search range vs approximate-SAD penalty");
    header(&[("range", 6), ("exact bits", 11), ("approx bits", 12), ("penalty", 8)]);
    let mut penalties = Vec::new();
    for range in [2i32, 4, 6] {
        let cfg = EncoderConfig { search_range: range, ..EncoderConfig::default() };
        let exact = Encoder::new(cfg, SadAccelerator::accurate(64).expect("valid"))
            .expect("valid")
            .encode(frames)
            .expect("encodes")
            .total_bits;
        let approx =
            Encoder::new(cfg, SadAccelerator::new(64, SadVariant::ApxSad3, 4).expect("valid"))
                .expect("valid")
                .encode(frames)
                .expect("encodes")
                .total_bits;
        let penalty = approx as f64 / exact as f64 - 1.0;
        penalties.push((range, exact, approx, penalty));
        row(&[
            (range.to_string(), 6),
            (exact.to_string(), 11),
            (approx.to_string(), 12),
            (format!("{:+.2}%", penalty * 100.0), 8),
        ]);
    }

    // --- sweep 2: approximation site ----------------------------------------
    section("sweep 2 — approximation site (ME vs transform vs both)");
    header(&[("site", 22), ("bits", 10), ("PSNR[dB]", 10)]);
    let base = EncoderConfig::default();
    let me_apx = SadAccelerator::new(64, SadVariant::ApxSad3, 4).expect("valid");
    let dct_cfg = EncoderConfig {
        transform: TransformImpl::Accelerator { kind: FullAdderKind::Apx3, approx_lsbs: 3 },
        ..base
    };
    let runs: Vec<(&str, EncodeOutcome)> = vec![
        ("exact", run(base, SadAccelerator::accurate(64).expect("valid"), frames)),
        ("approx ME only", run(base, me_apx.clone(), frames)),
        ("approx DCT only", run(dct_cfg, SadAccelerator::accurate(64).expect("valid"), frames)),
        ("approx ME + DCT", run(dct_cfg, me_apx, frames)),
    ];
    for (name, outcome) in &runs {
        row(&[
            ((*name).to_string(), 22),
            (outcome.bits.to_string(), 10),
            (format!("{:.2}", outcome.psnr), 10),
        ]);
    }

    section("shape checks");
    let mut ok = true;
    ok &= check(
        "approximate SAD costs extra bits at every search range",
        penalties.iter().all(|p| p.3 > -0.01),
    );
    let get = |name: &str| runs.iter().find(|r| r.0 == name).expect("present");
    ok &= check(
        "approximate ME costs bits but keeps PSNR (quantizer still exact)",
        get("approx ME only").1.bits >= get("exact").1.bits
            && (get("approx ME only").1.psnr - get("exact").1.psnr).abs() < 1.5,
    );
    ok &= check(
        "approximate DCT costs PSNR (reconstruction error), unlike approximate ME",
        get("approx DCT only").1.psnr < get("exact").1.psnr - 0.5,
    );
    ok &= check(
        "combining both sites is no better than the worse site alone",
        get("approx ME + DCT").1.psnr <= get("approx DCT only").1.psnr + 0.5,
    );
    std::process::exit(i32::from(!ok));
}

struct EncodeOutcome {
    bits: u64,
    psnr: f64,
}

fn run(cfg: EncoderConfig, sad: SadAccelerator, frames: &[xlac_core::Grid<u64>]) -> EncodeOutcome {
    let stats = Encoder::new(cfg, sad).expect("valid").encode(frames).expect("encodes");
    EncodeOutcome { bits: stats.total_bits, psnr: stats.psnr_db }
}
