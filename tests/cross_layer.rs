//! Cross-layer integration tests: the paper's whole point is that a choice
//! at the logic layer (which full-adder cell, how many approximate LSBs)
//! has a measurable, controlled effect at the application layer (bit-rate,
//! SSIM). These tests exercise the full stack end to end.

use xlac::accel::sad::{SadAccelerator, SadVariant};
use xlac::adders::{FullAdderKind, GeArAdder, RippleCarryAdder};
use xlac::imaging::images::TestImage;
use xlac::imaging::resilience::{resilience_study, StudyConfig};
use xlac::multipliers::{Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode};
use xlac::video::encoder::{Encoder, EncoderConfig};
use xlac::video::me::MotionEstimator;
use xlac::video::sequence::{SequenceConfig, SyntheticSequence};

/// Logic layer → architecture layer: swapping the FA cell inside a
/// multiplier's summation tree changes its error profile in the direction
/// the cell's own error count predicts.
#[test]
fn cell_choice_propagates_into_multiplier_quality() {
    let stats_for = |kind: FullAdderKind| {
        let m = RecursiveMultiplier::new(
            8,
            Mul2x2Kind::Accurate,
            SumMode::ApproxLsbs { kind, lsbs: 4 },
        )
        .unwrap();
        xlac::core::metrics::exhaustive_binary(8, 8, |a, b| a * b, |a, b| m.mul(a, b))
    };
    let apx1 = stats_for(FullAdderKind::Apx1); // 2 error cases / 8 rows
    let apx5 = stats_for(FullAdderKind::Apx5); // 4 error cases / 8 rows
    assert!(
        apx5.mean_error_distance > apx1.mean_error_distance,
        "the sloppier cell must hurt more: {} !> {}",
        apx5.mean_error_distance,
        apx1.mean_error_distance
    );
}

/// Logic layer → application layer: the encoder's bit-rate responds to the
/// number of approximated LSBs the way Fig.9 shows (2/4 marginal, 6 bad).
#[test]
fn lsb_count_controls_bitrate_overhead() {
    let seq = SyntheticSequence::generate(&SequenceConfig::small_test()).unwrap();
    let bits = |lsbs: usize| {
        let sad = SadAccelerator::new(64, SadVariant::ApxSad4, lsbs).unwrap();
        Encoder::new(EncoderConfig::default(), sad)
            .unwrap()
            .encode(seq.frames())
            .unwrap()
            .total_bits as f64
    };
    let exact = bits(0);
    let two = bits(2) / exact - 1.0;
    let six = bits(6) / exact - 1.0;
    assert!(two < 0.10, "2 approximate LSBs must stay marginal: {:.1}%", two * 100.0);
    assert!(six > two, "6 LSBs ({six:.3}) must out-cost 2 LSBs ({two:.3})");
}

/// GeAr with full correction enabled is a drop-in exact adder inside a
/// larger datapath (the configurable-accuracy promise).
#[test]
fn corrected_gear_is_a_drop_in_exact_adder() {
    let gear = GeArAdder::new(16, 4, 4).unwrap();
    for a in (0u64..65536).step_by(1021) {
        for b in (0u64..65536).step_by(977) {
            let fixed = gear.add_with_correction(a, b, usize::MAX);
            assert_eq!(fixed.value, a + b);
        }
    }
}

/// The accurate SAD accelerator plugged into the motion estimator finds
/// the same motion field as a pure-software search.
#[test]
fn hardware_sad_equals_software_sad_when_accurate() {
    let seq = SyntheticSequence::generate(&SequenceConfig::small_test()).unwrap();
    let me = MotionEstimator::new(SadAccelerator::accurate(64).unwrap(), 3).unwrap();
    let field = me.estimate(&seq.frames()[1], &seq.frames()[0]).unwrap();
    // Re-derive the field in plain software.
    let (cur, reff) = (&seq.frames()[1], &seq.frames()[0]);
    for br in 0..field.vectors.rows() {
        for bc in 0..field.vectors.cols() {
            let (top, left) = (br * 8, bc * 8);
            let mut best = (u64::MAX, i32::MAX, (0i32, 0i32));
            for dy in -3i32..=3 {
                for dx in -3i32..=3 {
                    let (ty, tx) = (top as i64 + dy as i64, left as i64 + dx as i64);
                    if ty < 0 || tx < 0 || ty + 8 > 64 || tx + 8 > 64 {
                        continue;
                    }
                    let mut sad = 0u64;
                    for r in 0..8 {
                        for c in 0..8 {
                            sad += cur[(top + r, left + c)]
                                .abs_diff(reff[((ty as usize) + r, (tx as usize) + c)]);
                        }
                    }
                    let mag = dy.abs() + dx.abs();
                    if sad < best.0 || (sad == best.0 && mag < best.1) {
                        best = (sad, mag, (dy, dx));
                    }
                }
            }
            assert_eq!(field.vectors[(br, bc)], best.2, "block ({br},{bc})");
            assert_eq!(field.costs[(br, bc)], best.0, "block ({br},{bc})");
        }
    }
}

/// Filter accelerator built from ripple adders equals an independent
/// software convolution when configured accurate — and the SSIM study
/// runs end-to-end across imaging + quality + accel + adders.
#[test]
fn resilience_study_runs_end_to_end() {
    let rows = resilience_study(
        &TestImage::ALL,
        StudyConfig { size: 32, kind: FullAdderKind::Apx3, approx_lsbs: 4 },
    )
    .unwrap();
    assert_eq!(rows.len(), 7);
    for row in &rows {
        assert!(row.ssim > 0.5, "{}: SSIM {} collapsed", row.image, row.ssim);
        assert!(row.ssim <= 1.0 + 1e-12);
    }
}

/// Hardware-cost accounting is consistent across the composition layers:
/// a SAD accelerator costs more than the sum of one subtractor and its
/// tree adders individually scaled, and approximating strictly reduces
/// every layer's figure.
#[test]
fn cost_model_is_monotone_through_composition() {
    let exact = SadAccelerator::accurate(16).unwrap().hw_cost();
    let approx = SadAccelerator::new(16, SadVariant::ApxSad5, 6).unwrap().hw_cost();
    assert!(approx.area_ge < exact.area_ge);
    assert!(approx.power_nw < exact.power_nw);

    // The exact SAD accelerator must cost at least its 16 subtractors.
    let sub = xlac::adders::Subtractor::new(RippleCarryAdder::accurate(8)).hw_cost();
    assert!(exact.area_ge > sub.area_ge * 16.0);
}

/// The adder trait objects compose across crates: a GeAr, a CLA and an
/// approximate ripple adder can all drive the same dataflow accelerator.
#[test]
fn heterogeneous_adder_bank_in_one_dataflow() {
    use xlac::accel::dataflow::Dataflow;
    let mut g = Dataflow::new(3, 8);
    let gear = g.register_adder(Box::new(GeArAdder::new(9, 3, 3).unwrap()));
    let cla = g.register_adder(Box::new(xlac::adders::CarryLookaheadAdder::new(10)));
    let rca = g.register_adder(Box::new(
        RippleCarryAdder::with_approx_lsbs(10, FullAdderKind::Apx2, 2).unwrap(),
    ));
    let s0 = g.add(gear, g.input(0), g.input(1)).unwrap();
    let s1 = g.add(cla, s0, g.input(2)).unwrap();
    let s2 = g.add(rca, s1, g.input(0)).unwrap();
    g.mark_output(s2);
    let approx = g.eval(&[100, 120, 30]).unwrap()[0];
    let exact = g.eval_exact(&[100, 120, 30]).unwrap()[0];
    assert_eq!(exact, 100 + 120 + 30 + 100);
    assert!(approx.abs_diff(exact) < 64, "approximation stays bounded");
}
