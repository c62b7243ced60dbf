//! Fig.8 reproduction: SAD error surfaces for the approximate SAD
//! accelerator variants across a motion-search window.
//!
//! The paper's observation: "the whole error surface for the approximate
//! case is shifted and roughly follows the same trend … the global minima
//! remains the same", so the motion vector is unchanged. This binary
//! measures, over every block of a synthetic frame pair: the mean upward
//! shift of the surface, its rank correlation with the accurate surface,
//! and the fraction of blocks whose argmin (motion vector) survives.

use xlac_accel::sad::{SadAccelerator, SadVariant};
use xlac_bench::{check, header, row, section};
use xlac_video::me::MotionEstimator;
use xlac_video::sequence::{SequenceConfig, SyntheticSequence};

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    cov / (vx.sqrt() * vy.sqrt())
}

fn main() {
    let seq = SyntheticSequence::generate(&SequenceConfig::fig9()).expect("valid config");
    let frames = seq.frames();
    let (cur, reff) = (&frames[3], &frames[2]);
    let range = 4i32;

    let exact_me =
        MotionEstimator::new(SadAccelerator::accurate(64).expect("valid"), range).expect("valid");
    let exact_field = exact_me.estimate(cur, reff).expect("aligned frames");
    let blocks_r = exact_field.vectors.rows();
    let blocks_c = exact_field.vectors.cols();

    section("Fig.8 — SAD error surfaces (approximate vs accurate)");
    header(&[("variant", 9), ("LSBs", 5), ("mean shift", 11), ("corr", 7), ("MV survival", 12)]);

    let mut survival_at_mild = 0.0f64;
    let mut ok = true;
    for variant in [
        SadVariant::ApxSad1,
        SadVariant::ApxSad2,
        SadVariant::ApxSad3,
        SadVariant::ApxSad4,
        SadVariant::ApxSad5,
    ] {
        for lsbs in [2usize, 4] {
            let me =
                MotionEstimator::new(SadAccelerator::new(64, variant, lsbs).expect("valid"), range)
                    .expect("valid");
            let field = me.estimate(cur, reff).expect("aligned");

            // Surface statistics over a sample of blocks.
            let mut shifts = Vec::new();
            let mut corrs = Vec::new();
            for br in (0..blocks_r).step_by(3) {
                for bc in (0..blocks_c).step_by(3) {
                    let se = exact_me.sad_surface(cur, reff, br, bc).expect("in range");
                    let sa = me.sad_surface(cur, reff, br, bc).expect("in range");
                    let pairs: Vec<(f64, f64)> = se
                        .iter()
                        .zip(sa.iter())
                        .filter(|(&a, &b)| a != u64::MAX && b != u64::MAX)
                        .map(|(&a, &b)| (a as f64, b as f64))
                        .collect();
                    let (xs, ys): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
                    shifts.push(
                        ys.iter().sum::<f64>() / ys.len() as f64
                            - xs.iter().sum::<f64>() / xs.len() as f64,
                    );
                    corrs.push(pearson(&xs, &ys));
                }
            }
            let mean_shift = shifts.iter().sum::<f64>() / shifts.len() as f64;
            let mean_corr = corrs.iter().sum::<f64>() / corrs.len() as f64;
            let same = exact_field
                .vectors
                .iter()
                .zip(field.vectors.iter())
                .filter(|(a, b)| a == b)
                .count();
            let survival = same as f64 / exact_field.vectors.len() as f64;
            if lsbs == 2 {
                survival_at_mild = survival_at_mild.max(survival);
            }
            row(&[
                (format!("{variant}"), 9),
                (lsbs.to_string(), 5),
                (format!("{mean_shift:+.1}"), 11),
                (format!("{mean_corr:.3}"), 7),
                (format!("{:.1}%", survival * 100.0), 12),
            ]);
            if lsbs == 2 {
                ok &= mean_corr > 0.85;
            }
        }
    }

    section("shape checks vs the paper");
    ok &= check("surfaces stay strongly correlated at 2 LSBs (trend preserved)", ok);
    ok &= check("most motion vectors survive mild approximation", survival_at_mild > 0.85);
    std::process::exit(i32::from(!ok));
}
