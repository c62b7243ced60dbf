//! Per-kernel configuration ladders with certified error bounds.
//!
//! Each servable kernel owns a **ladder**: a short list of hardware
//! configurations ordered from exact (index 0) to most aggressive, each
//! characterized by
//!
//! * a certified/structural **MED bound** (`E[|approx − exact|]` upper
//!   bound from `xlac-analysis`, in the kernel's output units) — the
//!   quality axis the manager selects on, and the per-item cost the
//!   tenant budget accounting charges;
//! * a **power** figure from the hardware cost model — the objective the
//!   manager minimizes.
//!
//! Selection goes through [`ApproximationManager::select_min_power`]
//! (the paper's §6 management unit): the ladder is presented as an
//! [`AppRequest`] whose options carry `(power_nw, med_bound)` and the
//! request's `max_med` as the quality constraint. Index 0 has a MED
//! bound of exactly `0.0`, so every non-negative target is feasible and
//! the manager can never fail. The chosen option is mapped back to its
//! ladder index (entries are constructed with strictly decreasing power,
//! asserted at build time, so the mapping is unambiguous).
//!
//! Every entry pairs its scalar golden model with the compiled netlist
//! the engine runs. [`Ladders::build`] compiles the multiplier and SAD
//! programs. The FIR tap windows ([`FirEntry::windows`]) and the DCT
//! butterfly ([`DctEntry::prog`]) compile the first time a batch needs
//! them: there are 25 FIR windows per rung, most of which a given load
//! never touches, and compiling all of them up front would cost the
//! server's start-up an order of magnitude.

use std::sync::OnceLock;

use xlac_accel::config::ApproxMode;
use xlac_accel::dct::DctAccelerator;
use xlac_accel::fir::FirAccelerator;
use xlac_accel::manager::{AcceleratorOption, AppRequest, ApproximationManager};
use xlac_accel::sad::{SadAccelerator, SadVariant};
use xlac_adders::{Adder, FullAdderKind, RippleCarryAdder};
use xlac_analysis::components::certified_wallace_bound;
use xlac_analysis::{fir_bound, ripple_adder_bound, sad_bound};
use xlac_multipliers::{Multiplier, WallaceMultiplier};
use xlac_sim::{CompiledProgram, FirWindows};

use crate::proto::Kernel;

/// Operand width of the served multiplier.
pub const MUL_WIDTH: usize = 8;

/// Pixel lanes of the served SAD unit (matches
/// [`crate::proto::SAD_PIXELS`]).
pub const SAD_LANES: usize = 16;

/// Tap coefficients of the served FIR low-pass filter (symmetric 9-tap,
/// all magnitudes ≤ 127 as the dual-rail datapath requires).
pub const FIR_COEFFS: [i64; 9] = [-1, 2, 5, 9, 11, 9, 5, 2, -1];

/// Characterization shared by every ladder entry.
#[derive(Debug, Clone)]
pub struct EntryInfo {
    /// Representative approximation mode (informational).
    pub mode: ApproxMode,
    /// Human-readable configuration name.
    pub label: String,
    /// Certified/structural upper bound on the mean error distance per
    /// item, in the kernel's output units. Exactly `0.0` at index 0.
    pub med_bound: f64,
    /// Modeled average power draw of the configuration.
    pub power_nw: f64,
}

/// One multiplier configuration: the golden model plus its compiled
/// bit-plane program (the batched fast path).
pub struct MulEntry {
    /// Shared characterization.
    pub info: EntryInfo,
    /// The scalar golden model.
    pub mul: WallaceMultiplier,
    /// The JIT-compiled netlist, bit-identical to `mul` on every lane.
    pub prog: CompiledProgram,
}

/// One SAD configuration: the golden model plus its compiled datapath
/// (the batched fast path).
pub struct SadEntry {
    /// Shared characterization.
    pub info: EntryInfo,
    /// The scalar golden model.
    pub sad: SadAccelerator,
    /// The JIT-compiled `sad_netlist`, bit-identical to `sad` on every
    /// lane.
    pub prog: CompiledProgram,
}

/// One FIR configuration: the golden model plus its tap-window programs
/// (the batched fast path), each compiled on first use.
pub struct FirEntry {
    /// Shared characterization.
    pub info: EntryInfo,
    /// The scalar golden model.
    pub fir: FirAccelerator,
    /// The `fir_netlist` window programs, bit-identical to `fir` on every
    /// lane. [`Ladders::build`] compiles none of them.
    pub windows: FirWindows,
}

/// One DCT configuration: the golden model plus its butterfly program
/// (the batched fast path), compiled on first use.
pub struct DctEntry {
    /// Shared characterization.
    pub info: EntryInfo,
    /// The scalar golden model.
    pub dct: DctAccelerator,
    /// The JIT-compiled `dct_butterfly_netlist`, run once per row pass and
    /// once per column pass. Empty until the first batch.
    pub prog: OnceLock<CompiledProgram>,
}

/// All four kernel ladders, built once at server start.
pub struct Ladders {
    /// Multiplier ladder (index 0 exact).
    pub mul: Vec<MulEntry>,
    /// SAD ladder (index 0 exact).
    pub sad: Vec<SadEntry>,
    /// FIR ladder (index 0 exact).
    pub fir: Vec<FirEntry>,
    /// DCT ladder (index 0 exact).
    pub dct: Vec<DctEntry>,
}

fn wallace_power(m: &WallaceMultiplier) -> f64 {
    let cells: f64 = m.cell_placements().iter().map(|p| p.kind.hw_cost().power_nw).sum();
    cells + RippleCarryAdder::accurate(2 * MUL_WIDTH).hw_cost().power_nw
}

/// A conservative structural MED bound for the DCT ladder: at most 50
/// add/sub operations of the row+column butterfly network influence one
/// output coefficient (4 shared intermediates + 6 output ops per
/// butterfly, two passes), each contributing at most the configured
/// adder's worst-case error. This is loose — it treats every operation
/// as simultaneously worst-case — but it is a sound upper bound, and
/// index 0 still characterizes as exactly `0.0`.
const DCT_OPS_PER_OUTPUT: f64 = 50.0;

fn dct_med_bound(kind: FullAdderKind, approx_lsbs: usize) -> f64 {
    if approx_lsbs == 0 {
        return 0.0;
    }
    let adder = RippleCarryAdder::with_approx_lsbs(DctAccelerator::WORD_BITS, kind, approx_lsbs)
        .expect("ladder adder widths are static and valid");
    DCT_OPS_PER_OUTPUT * ripple_adder_bound(&adder).wce() as f64
}

fn assert_strictly_cheaper(kernel: Kernel, infos: &[&EntryInfo]) {
    for pair in infos.windows(2) {
        assert!(
            pair[1].power_nw < pair[0].power_nw,
            "{} ladder power must strictly decrease ({} !< {})",
            kernel.name(),
            pair[1].power_nw,
            pair[0].power_nw,
        );
        assert!(
            pair[1].med_bound > pair[0].med_bound,
            "{} ladder MED bound must strictly increase",
            kernel.name(),
        );
    }
    assert!(infos[0].med_bound == 0.0, "{} ladder entry 0 must be exact", kernel.name());
}

impl Ladders {
    /// Builds all four ladders, certifying every entry's MED bound from
    /// `xlac-analysis`.
    ///
    /// # Panics
    ///
    /// Panics if any static ladder configuration fails to construct or
    /// violates the strict power/quality ordering (both would be bugs in
    /// the table below, not runtime conditions).
    #[must_use]
    pub fn build() -> Self {
        let mul: Vec<MulEntry> = [
            (FullAdderKind::Accurate, 0usize, ApproxMode::Accurate),
            (FullAdderKind::Apx1, 2, ApproxMode::Mild),
            (FullAdderKind::Apx1, 4, ApproxMode::Mild),
            (FullAdderKind::Apx2, 5, ApproxMode::Medium),
            (FullAdderKind::Apx5, 6, ApproxMode::Aggressive),
        ]
        .into_iter()
        .map(|(kind, cols, mode)| {
            let m = WallaceMultiplier::new(MUL_WIDTH, kind, cols)
                .expect("static multiplier configs are valid");
            let bound = certified_wallace_bound(&m);
            MulEntry {
                info: EntryInfo {
                    mode,
                    label: m.name(),
                    med_bound: bound.mean_abs,
                    power_nw: wallace_power(&m),
                },
                prog: CompiledProgram::compile(&xlac_multipliers::hw::wallace_netlist(&m)),
                mul: m,
            }
        })
        .collect();

        let sad: Vec<SadEntry> = [
            (SadVariant::Accurate, 0usize, ApproxMode::Accurate),
            (SadVariant::ApxSad1, 3, ApproxMode::Mild),
            (SadVariant::ApxSad4, 4, ApproxMode::Medium),
            (SadVariant::ApxSad5, 6, ApproxMode::Aggressive),
        ]
        .into_iter()
        .map(|(variant, lsbs, mode)| {
            let s = SadAccelerator::new(SAD_LANES, variant, lsbs)
                .expect("static SAD configs are valid");
            SadEntry {
                info: EntryInfo {
                    mode,
                    label: s.name(),
                    med_bound: sad_bound(&s).mean_abs,
                    power_nw: s.hw_cost().power_nw,
                },
                prog: CompiledProgram::compile(&xlac_accel::hw::sad_netlist(&s)),
                sad: s,
            }
        })
        .collect();

        let fir: Vec<FirEntry> = ApproxMode::ALL
            .into_iter()
            .map(|mode| {
                let f =
                    FirAccelerator::new(&FIR_COEFFS, mode).expect("static FIR configs are valid");
                FirEntry {
                    info: EntryInfo {
                        mode,
                        label: f.name(),
                        med_bound: fir_bound(&f).mean_abs,
                        power_nw: f.hw_cost().power_nw,
                    },
                    windows: FirWindows::new(&f),
                    fir: f,
                }
            })
            .collect();

        let dct: Vec<DctEntry> = [
            (FullAdderKind::Accurate, 0usize, ApproxMode::Accurate),
            (FullAdderKind::Apx1, 2, ApproxMode::Mild),
            (FullAdderKind::Apx4, 4, ApproxMode::Medium),
            (FullAdderKind::Apx5, 6, ApproxMode::Aggressive),
        ]
        .into_iter()
        .map(|(kind, lsbs, mode)| {
            let d = DctAccelerator::new(kind, lsbs).expect("static DCT configs are valid");
            DctEntry {
                info: EntryInfo {
                    mode,
                    label: d.name(),
                    med_bound: dct_med_bound(kind, lsbs),
                    power_nw: d.hw_cost().power_nw,
                },
                dct: d,
                prog: OnceLock::new(),
            }
        })
        .collect();

        let ladders = Ladders { mul, sad, fir, dct };
        for kernel in Kernel::ALL {
            assert_strictly_cheaper(kernel, &ladders.infos(kernel));
        }
        ladders
    }

    /// The entry characterizations for one kernel, ladder order.
    #[must_use]
    pub fn infos(&self, kernel: Kernel) -> Vec<&EntryInfo> {
        match kernel {
            Kernel::Mul => self.mul.iter().map(|e| &e.info).collect(),
            Kernel::Sad => self.sad.iter().map(|e| &e.info).collect(),
            Kernel::Fir => self.fir.iter().map(|e| &e.info).collect(),
            Kernel::Dct => self.dct.iter().map(|e| &e.info).collect(),
        }
    }

    /// Ladder length for one kernel.
    #[must_use]
    pub fn len_of(&self, kernel: Kernel) -> usize {
        match kernel {
            Kernel::Mul => self.mul.len(),
            Kernel::Sad => self.sad.len(),
            Kernel::Fir => self.fir.len(),
            Kernel::Dct => self.dct.len(),
        }
    }

    /// The certified per-item MED bound of `kernel`'s ladder entry `idx`.
    #[must_use]
    pub fn med_bound(&self, kernel: Kernel, idx: usize) -> f64 {
        self.infos(kernel)[idx].med_bound
    }

    /// Picks the minimum-power ladder index whose certified MED bound
    /// respects `max_med`, by presenting the ladder to the §6
    /// approximation management unit.
    ///
    /// Always succeeds for finite non-negative `max_med` (index 0 is
    /// exact). The returned index is recovered from the manager's chosen
    /// option by its unique `(power, quality)` pair — ladder construction
    /// asserts strict power ordering, so the match cannot be ambiguous.
    #[must_use]
    pub fn select(&self, kernel: Kernel, max_med: f64) -> usize {
        let infos = self.infos(kernel);
        let req = AppRequest {
            app: kernel.name().to_string(),
            max_quality_loss: max_med,
            options: infos
                .iter()
                .map(|i| AcceleratorOption {
                    mode: i.mode,
                    power_nw: i.power_nw,
                    quality_loss: i.med_bound,
                })
                .collect(),
        };
        let picks = ApproximationManager::select_min_power(std::slice::from_ref(&req))
            .expect("index 0 is exact, so every non-negative target is feasible");
        let chosen = picks[0].option;
        infos
            .iter()
            .position(|i| i.power_nw == chosen.power_nw && i.med_bound == chosen.quality_loss)
            .expect("the chosen option came from this ladder")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_build_and_order() {
        let l = Ladders::build();
        assert_eq!(l.mul.len(), 5);
        assert_eq!(l.sad.len(), 4);
        assert_eq!(l.fir.len(), 4);
        assert_eq!(l.dct.len(), 4);
        // Entry 0 of every ladder is bit-exact on a spot check.
        assert_eq!(l.mul[0].mul.mul(173, 201), 173 * 201);
        let cur = [200u64; 16];
        let refb = [13u64; 16];
        assert_eq!(l.sad[0].sad.sad(&cur, &refb).unwrap(), SadAccelerator::sad_exact(&cur, &refb));
    }

    #[test]
    fn selection_tracks_the_quality_target() {
        let l = Ladders::build();
        for kernel in Kernel::ALL {
            let infos = l.infos(kernel);
            // A zero target always lands on the exact entry.
            assert_eq!(l.select(kernel, 0.0), 0, "{}", kernel.name());
            // An unbounded target lands on the cheapest = last entry.
            assert_eq!(l.select(kernel, f64::MAX), infos.len() - 1, "{}", kernel.name());
            // A target exactly at an entry's bound admits that entry.
            for (i, info) in infos.iter().enumerate() {
                assert_eq!(l.select(kernel, info.med_bound), i, "{} idx {i}", kernel.name());
            }
        }
    }

    #[test]
    fn mul_entries_match_their_compiled_programs() {
        let l = Ladders::build();
        for e in &l.mul {
            let pairs: Vec<(u64, u64)> = (0..512u64).map(|i| (i & 0xFF, (i * 31) & 0xFF)).collect();
            let expect: Vec<u64> = pairs.iter().map(|&(a, b)| e.mul.mul(a, b)).collect();
            assert_eq!(
                xlac_sim::eval_pairs_auto(&e.prog, MUL_WIDTH, &pairs),
                expect,
                "{}",
                e.info.label
            );
        }
    }
}
