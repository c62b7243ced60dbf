//! Integer sweep statistics pinned per unit, seed and trial count.
//!
//! A timed repetition must reproduce these exactly, so a change to the RNG
//! stream, the operand distributions or a unit's arithmetic fails the run
//! instead of silently measuring different work. Regenerate the table with
//! `cargo run --release --manifest-path benchmark/Cargo.toml -- pins` when
//! such a change is intended; that makes it a benchmark change.

/// The exactly reproducible part of a sweep's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntStats {
    /// Trials evaluated.
    pub samples: u64,
    /// Trials with a nonzero error.
    pub error_count: u64,
    /// Worst-case error distance.
    pub max_error_distance: u64,
    /// Distinct nonzero error magnitudes seen.
    pub distinct: u64,
    /// GeAr correction passes (0 for multipliers).
    pub correction_iterations: u64,
}

struct Pin {
    unit: &'static str,
    seed: u64,
    trials: u64,
    stats: [u64; 5],
}

const fn pin(unit: &'static str, seed: u64, trials: u64, stats: [u64; 5]) -> Pin {
    Pin {
        unit,
        seed,
        trials,
        stats,
    }
}

/// The pinned statistics of `unit` at `seed` and `trials`, if recorded.
#[must_use]
pub fn lookup(unit: &str, seed: u64, trials: u64) -> Option<IntStats> {
    PINS.iter()
        .find(|p| p.unit == unit && p.seed == seed && p.trials == trials)
        .map(|p| {
            let [samples, error_count, max_error_distance, distinct, correction_iterations] =
                p.stats;
            IntStats {
                samples,
                error_count,
                max_error_distance,
                distinct,
                correction_iterations,
            }
        })
}

/// One table row in the syntax of [`PINS`].
#[must_use]
pub fn format_row(unit: &str, seed: u64, trials: u64, s: &IntStats) -> String {
    format!(
        "    pin(\"{unit}\", {seed}, {trials}, [{}, {}, {}, {}, {}]),",
        s.samples, s.error_count, s.max_error_distance, s.distinct, s.correction_iterations
    )
}

/// `[samples, error_count, max_error_distance, distinct, correction_iterations]`.
#[rustfmt::skip]
const PINS: &[Pin] = &[
    pin("wallace8_apx4_c8/uniform", 2016, 65536, [65536, 64222, 1008, 407, 0]),
    pin("wallace8_apx4_c8/uniform", 2016, 8388608, [8388608, 8216680, 1008, 420, 0]),
    pin("wallace8_apx4_c8/uniform", 90001, 8388608, [8388608, 8216965, 1008, 420, 0]),
    pin("recursive8_apxsoa/uniform", 2016, 65536, [65536, 30656, 14280, 94, 0]),
    pin("recursive8_apxsoa/uniform", 2016, 8388608, [8388608, 3919692, 14450, 95, 0]),
    pin("recursive8_apxsoa/uniform", 90001, 8388608, [8388608, 3918866, 14450, 95, 0]),
    pin("wallace16_apx2_c8/sparse_peaked", 2016, 65536, [65536, 65519, 694, 313, 0]),
    pin("wallace16_apx2_c8/sparse_peaked", 2016, 4194304, [4194304, 4193313, 724, 346, 0]),
    pin("wallace16_apx2_c8/sparse_peaked", 90001, 4194304, [4194304, 4193230, 724, 346, 0]),
    pin("gear16_r4_p4_edc/sparse_peaked", 2016, 65536, [65536, 0, 0, 0, 261]),
    pin("gear16_r4_p4_edc/sparse_peaked", 2016, 4194304, [4194304, 0, 0, 0, 15619]),
    pin("gear16_r4_p4_edc/sparse_peaked", 90001, 4194304, [4194304, 0, 0, 0, 16006]),
    pin("wallace16_apx2_c8/exponential_decay", 2016, 65536, [65536, 65290, 724, 346, 0]),
    pin("wallace16_apx2_c8/exponential_decay", 2016, 4194304, [4194304, 4177919, 724, 346, 0]),
    pin("wallace16_apx2_c8/exponential_decay", 90001, 4194304, [4194304, 4177812, 724, 346, 0]),
    pin("gear16_r4_p4_edc/exponential_decay", 2016, 65536, [65536, 0, 0, 0, 3900]),
    pin("gear16_r4_p4_edc/exponential_decay", 2016, 4194304, [4194304, 0, 0, 0, 253336]),
    pin("gear16_r4_p4_edc/exponential_decay", 90001, 4194304, [4194304, 0, 0, 0, 253898]),
];
