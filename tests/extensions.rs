//! Integration tests for the post-reproduction extensions: HDL export,
//! netlist optimization, elaboration, adaptive control, the divider and
//! the Sobel kernel — exercised across crate boundaries.

use xlac::adders::hw::{gear_detector_netlist, gear_netlist, pack_operands, ripple_netlist};
use xlac::adders::{Adder, ArrayDivider, FullAdderKind, GeArAdder, LoaAdder, RippleCarryAdder};
use xlac::imaging::images::TestImage;
use xlac::imaging::SobelAccelerator;
use xlac::logic::opt::optimize;
use xlac::logic::verilog::to_verilog;

/// Elaborate → optimize → export: the full mini-EDA pipeline stays
/// functionally equivalent at every stage.
#[test]
fn elaborate_optimize_export_pipeline() {
    let rca = RippleCarryAdder::with_approx_lsbs(6, FullAdderKind::Apx2, 3).unwrap();
    let raw = ripple_netlist(&rca);
    let opt = optimize(&raw);
    assert!(opt.gate_count() <= raw.gate_count());
    for a in 0u64..64 {
        for b in 0u64..64 {
            let packed = pack_operands(a, b, 6);
            assert_eq!(raw.eval(packed), rca.add(a, b), "raw {a}+{b}");
            assert_eq!(opt.eval(packed), rca.add(a, b), "optimized {a}+{b}");
        }
    }
    let v = to_verilog(&opt);
    assert!(v.contains("module RCA_N_6_3xApxFA2_"));
    assert!(v.contains("endmodule"));
}

/// The optimizer recovers the constant-carry savings of the first FA in
/// an elaborated chain: a measurable area improvement.
#[test]
fn optimizer_shrinks_elaborated_adders() {
    let rca = RippleCarryAdder::accurate(8);
    let raw = ripple_netlist(&rca);
    let opt = optimize(&raw);
    assert!(opt.area_ge() < raw.area_ge(), "optimized {} vs raw {}", opt.area_ge(), raw.area_ge());
    // Functional check against arithmetic.
    for (a, b) in [(255u64, 255u64), (0, 0), (170, 85), (200, 57)] {
        assert_eq!(opt.eval(pack_operands(a, b, 8)), a + b);
    }
}

/// GeAr netlist + detector netlist together reproduce `add_flagged`
/// entirely in gates.
#[test]
fn gear_hardware_reproduces_behavioural_flags() {
    let gear = GeArAdder::new(10, 2, 2).unwrap();
    let value_nl = optimize(&gear_netlist(&gear));
    let det_nl = optimize(&gear_detector_netlist(&gear));
    for a in (0u64..1024).step_by(11) {
        for b in (0u64..1024).step_by(13) {
            let (out, offsets) = gear.add_flagged(a, b);
            let packed = pack_operands(a, b, 10);
            assert_eq!(value_nl.eval(packed), out.value);
            let hw_flags = det_nl.eval(packed);
            assert_eq!(hw_flags.count_ones() as usize, offsets.len(), "a={a} b={b}");
        }
    }
}

/// The divider composes with the rest of the stack: approximate-divider
/// quotients drive a dataflow graph.
#[test]
fn divider_inside_a_datapath() {
    let div = ArrayDivider::new(8, FullAdderKind::Apx1, 1).unwrap();
    // A per-pixel "brightness normalizer": out = pixel / gain.
    let img = TestImage::Gradient.render(16);
    let gain = 3u64;
    let normalized = img.map(|&p| div.divide(p, gain).unwrap().0);
    let exact = img.map(|&p| p / gain);
    let mean_err: f64 =
        normalized.iter().zip(exact.iter()).map(|(&a, &b)| a.abs_diff(b) as f64).sum::<f64>()
            / exact.len() as f64;
    // Dividers amplify LSB noise through the quotient-bit decisions (the
    // point of the divider's sensitivity test); even 1 approximate LSB
    // costs a few quotient units on average.
    assert!(mean_err > 0.0 && mean_err < 16.0, "mean quotient error {mean_err}");
}

/// Sobel on approximate hardware preserves edge structure across image
/// content (resilience extends beyond low-pass filtering).
#[test]
fn sobel_resilience_across_images() {
    let approx = SobelAccelerator::new(FullAdderKind::Apx2, 3).unwrap();
    for image in TestImage::ALL {
        let img = image.render(32);
        let exact = SobelAccelerator::apply_exact(&img).unwrap();
        let out = approx.apply(&img).unwrap();
        let agree =
            exact.iter().zip(out.iter()).filter(|(&e, &a)| (e >= 128) == (a >= 128)).count();
        assert!(agree * 100 >= exact.len() * 90, "{image}: edge agreement {agree}/{}", exact.len());
    }
}

/// Adaptive control end to end: the controller meets a tight SAD error
/// budget by climbing toward accuracy, and a loose budget by holding an
/// approximate mode — measured on the same content.
#[test]
fn adaptive_controller_responds_to_the_budget() {
    use xlac::accel::config::ApproxMode;
    use xlac::video::adaptive::{AdaptiveEncoder, AdaptivePolicy};
    use xlac::video::sequence::{SequenceConfig, SyntheticSequence};
    let seq = SyntheticSequence::generate(&SequenceConfig::small_test()).unwrap();

    let tight = AdaptivePolicy {
        sad_error_tolerance: 0.25,
        sample_every: 1,
        initial_mode: ApproxMode::Aggressive,
        ..AdaptivePolicy::default()
    };
    let tight_out = AdaptiveEncoder::new(tight).unwrap().encode(seq.frames()).unwrap();

    let loose = AdaptivePolicy {
        sad_error_tolerance: 1e9,
        sample_every: 1,
        initial_mode: ApproxMode::Aggressive,
        ..AdaptivePolicy::default()
    };
    let loose_out = AdaptiveEncoder::new(loose).unwrap().encode(seq.frames()).unwrap();

    assert!(
        tight_out.mean_power_nw > loose_out.mean_power_nw,
        "tight budget must spend more power: {} vs {}",
        tight_out.mean_power_nw,
        loose_out.mean_power_nw
    );
}

/// LOA from the extension set drives the SAD-style datapath via the Adder
/// trait like every other family.
#[test]
fn loa_in_a_subtractor_datapath() {
    use xlac::adders::Subtractor;
    let sub = Subtractor::new(LoaAdder::new(8, 3).unwrap());
    let mut total_err = 0u64;
    for a in (0u64..256).step_by(7) {
        for b in (0u64..256).step_by(11) {
            total_err += sub.abs_diff(a, b).abs_diff(a.abs_diff(b));
        }
    }
    let samples = (256 / 7 + 1) * (256 / 11 + 1);
    assert!((total_err as f64 / samples as f64) < 8.0);
}
