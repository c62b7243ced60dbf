//! Per-family static bound derivations.
//!
//! Each function here seeds an [`ErrorBound`] from the *exhaustive truth
//! table* of the elementary approximate cell (a Table III full adder or a
//! Fig.5 2×2 multiplier block) and then propagates it compositionally
//! through the structure of the larger component — ripple chains, GeAr
//! sub-adder windows, recursive multiplier trees, Wallace reduction
//! columns, SAD trees and FIR MAC rails. No simulation is involved; every
//! returned bound is a sound over-approximation (see DESIGN.md §9 for the
//! per-family soundness arguments).

use crate::bound::ErrorBound;
use xlac_accel::fir::FirAccelerator;
use xlac_accel::sad::SadAccelerator;
use xlac_adders::{Adder, FullAdderKind, GeArAdder, GearErrorModel, RippleCarryAdder, Subtractor};
use xlac_core::characterization::HwCost;
use xlac_core::error::Result;
use xlac_multipliers::{
    Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode, TruncatedMultiplier, WallaceMultiplier,
};

/// The deviation profile of one full-adder cell position, extracted from
/// its exhaustive truth table.
///
/// For a cell computing `(sum, cout)` from `(a, b, cin)`, the deviation is
/// `d = (sum + 2·cout) − (a + b + cin)`; an accurate cell has `d = 0` on
/// all eight rows. The aggregate fields below are taken as the worst case
/// over the reachable `cin` values, so they stay sound however the carry
/// arrives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellDeviation {
    /// Maximum deviation over all truth-table rows (≥ 0).
    pub d_max: i64,
    /// Minimum deviation over all truth-table rows (≤ 0).
    pub d_min: i64,
    /// `max_cin P_{a,b}[d ≠ 0]` with `a, b` uniform.
    pub nonzero_rate: f64,
    /// `max_cin E_{a,b}|d|` with `a, b` uniform.
    pub mean_abs: f64,
}

/// Computes the deviation profile of `kind`, optionally restricted to the
/// half-adder rows (`cin = 0`), as used in Wallace reduction trees.
#[must_use]
pub fn cell_deviation(kind: FullAdderKind, half_adder: bool) -> CellDeviation {
    let cins: &[u64] = if half_adder { &[0] } else { &[0, 1] };
    let mut d_max = 0i64;
    let mut d_min = 0i64;
    let mut nonzero_rate = 0.0f64;
    let mut mean_abs = 0.0f64;
    for &cin in cins {
        let mut nonzero = 0usize;
        let mut abs_sum = 0i64;
        for a in 0..2u64 {
            for b in 0..2u64 {
                let (s, c) = kind.eval(a, b, cin);
                let d = (s + 2 * c) as i64 - (a + b + cin) as i64;
                d_max = d_max.max(d);
                d_min = d_min.min(d);
                if d != 0 {
                    nonzero += 1;
                }
                abs_sum += d.abs();
            }
        }
        nonzero_rate = nonzero_rate.max(nonzero as f64 / 4.0);
        mean_abs = mean_abs.max(abs_sum as f64 / 4.0);
    }
    CellDeviation { d_max, d_min, nonzero_rate, mean_abs }
}

/// Static bound for a ripple-carry adder (including its carry-out bit).
///
/// The chain decomposes affinely: `result = a + b + Σ_i 2^i·d_i` exactly,
/// where `d_i` is cell `i`'s truth-table deviation. Summing each cell's
/// extreme deviation with its column weight bounds both directions; the
/// rate union-bounds the per-cell `d ≠ 0` probabilities (each cell's
/// `a_i, b_i` are uniform and independent of its incoming carry).
#[must_use]
pub fn ripple_adder_bound(adder: &RippleCarryAdder) -> ErrorBound {
    let mut over = 0u128;
    let mut under = 0u128;
    let mut rate = 0.0f64;
    let mut mean = 0.0f64;
    for (i, &cell) in adder.cells().iter().enumerate() {
        let d = cell_deviation(cell, false);
        if d.d_max > 0 {
            over += (d.d_max as u128) << i;
        }
        if d.d_min < 0 {
            under += (-d.d_min as u128) << i;
        }
        rate += d.nonzero_rate;
        mean += d.mean_abs * (i as f64).exp2();
    }
    ErrorBound { over, under, mean_abs: mean, error_rate_bound: rate.min(1.0) }
}

/// Static bound for a GeAr adder.
///
/// GeAr only ever *under*-approximates (a missed carry between sub-adder
/// windows drops value), and the classic worst-case formula
/// `Σ_{s≥1} 2^{sR+P}` is a sound ceiling — attained exactly when `P = 0`,
/// an over-estimate when previous-window prediction bits wrap (the
/// analytical error model supplies the uniform-input rate and mean).
#[must_use]
pub fn gear_adder_bound(gear: &GeArAdder) -> ErrorBound {
    let model = GearErrorModel::for_adder(gear);
    ErrorBound {
        over: 0,
        under: gear.worst_case_error() as u128,
        mean_abs: model.mean_error_distance(),
        error_rate_bound: model.union_bound(),
    }
}

/// `true` when the adder chain can produce the all-ones-with-carry output
/// `2^{w+1} − 1` — the raw pattern whose `+1` in a two's-complement
/// subtractor wraps to `(0, borrow-free)`.
///
/// Forward reachability over carry states: starting from `cin = 0`, a
/// carry value is reachable at position `i+1` iff some reachable `cin` at
/// position `i` admits an `(a, b)` row with `sum = 1` producing it. An
/// accurate chain never reaches `cout = 1` while keeping every sum bit
/// high (sum `= 1` with `cin = 0` forces `a + b = 1`, hence `cout = 0`),
/// so the hazard is a genuinely approximate-only phenomenon.
fn all_ones_with_carry_reachable(cells: &[FullAdderKind]) -> bool {
    let mut reach = [true, false];
    for &cell in cells {
        let mut next = [false, false];
        for cin in 0..2u64 {
            if !reach[cin as usize] {
                continue;
            }
            for a in 0..2u64 {
                for b in 0..2u64 {
                    let (s, c) = cell.eval(a, b, cin);
                    if s == 1 {
                        next[c as usize] = true;
                    }
                }
            }
        }
        reach = next;
        if !reach[0] && !reach[1] {
            return false;
        }
    }
    reach[1]
}

/// Static bound for a two's-complement subtractor built on an approximate
/// ripple adder, as used in the SAD datapath.
///
/// `sub(a, b)` computes `adder.add(a, !b) + 1`; in the borrow-free and
/// borrowing branches the output error equals the adder deviation up to
/// sign, so both directions are bounded by `max(over, under)` of the
/// underlying adder. One extra corner exists: if the adder can emit the
/// all-ones-with-carry raw value, the `+1` wraps the low word to zero and
/// the unit reports `(0, borrow-free)` where the true difference may be as
/// large as `2^w − 1` — an under-direction hazard included only when the
/// static carry-reachability pass proves it possible.
#[must_use]
pub fn subtractor_bound(sub: &Subtractor<RippleCarryAdder>) -> ErrorBound {
    let adder = sub.adder();
    let base = ripple_adder_bound(adder);
    let w = sub.width();
    let mag = base.over.max(base.under);
    let under =
        if all_ones_with_carry_reachable(adder.cells()) { mag.max((1u128 << w) - 1) } else { mag };
    // Any output error implies at least one cell deviated, so the adder's
    // rate bound carries over (`a` and `!b` are uniform when `a, b` are);
    // the mean is then bounded by wce·rate.
    let rate = base.error_rate_bound;
    ErrorBound {
        over: mag,
        under,
        mean_abs: (mag.max(under) as f64) * rate,
        error_rate_bound: rate,
    }
}

/// Static bound for a 2×2 elementary multiplier block, by exhaustion of
/// its 16-entry truth table. Exact under uniform inputs.
#[must_use]
pub fn mul2x2_bound(kind: Mul2x2Kind) -> ErrorBound {
    let mut over = 0u128;
    let mut under = 0u128;
    let mut errors = 0usize;
    let mut abs_sum = 0u128;
    for a in 0..4u64 {
        for b in 0..4u64 {
            let exact = a * b;
            let approx = kind.mul(a, b);
            if approx > exact {
                over = over.max((approx - exact) as u128);
            } else {
                under = under.max((exact - approx) as u128);
            }
            if approx != exact {
                errors += 1;
                abs_sum += exact.abs_diff(approx) as u128;
            }
        }
    }
    ErrorBound {
        over,
        under,
        mean_abs: abs_sum as f64 / 16.0,
        error_rate_bound: errors as f64 / 16.0,
    }
}

/// Largest value a 2×2 block can emit, for the recursion's overlap gate.
fn mul2x2_max_value(kind: Mul2x2Kind) -> u128 {
    (0..4u64).flat_map(|a| (0..4u64).map(move |b| kind.mul(a, b))).max().unwrap_or(0) as u128
}

/// Distribution-free fallback for one recursion level of width `w`:
/// the raw level output is at most `2^{2w+1} − 1` (top adder carry
/// included) and the exact product at most `(2^w − 1)^2`.
fn recursive_trivial(w: usize) -> (ErrorBound, u128) {
    let max_val = (1u128 << (2 * w + 1)) - 1;
    let over = max_val;
    let under = ((1u128 << w) - 1) * ((1u128 << w) - 1);
    let bound = ErrorBound { over, under, mean_abs: over.max(under) as f64, error_rate_bound: 1.0 };
    (bound, max_val)
}

fn sum_mode_adder(width: usize, sum: SumMode) -> Result<RippleCarryAdder> {
    match sum {
        SumMode::Accurate => Ok(RippleCarryAdder::accurate(width)),
        SumMode::ApproxLsbs { kind, lsbs } => {
            RippleCarryAdder::with_approx_lsbs(width, kind, lsbs.min(width))
        }
    }
}

fn adder_presence_flag(bound: &ErrorBound) -> f64 {
    if bound.is_exact() {
        0.0
    } else {
        1.0
    }
}

/// One recursion level: returns `(bound, max_output_value)` for a
/// width-`w` sub-multiplier built from `block` and `sum`.
fn recursive_level(w: usize, block: Mul2x2Kind, sum: SumMode) -> (ErrorBound, u128) {
    if w == 2 {
        return (mul2x2_bound(block), mul2x2_max_value(block));
    }
    let h = w / 2;
    let (sub, m_h) = recursive_level(h, block, sum);
    // The level concatenates p_ll | p_hh << w and feeds sub-products into
    // w- and 2w-bit adders. That decomposition is only affine when every
    // sub-product fits in w bits (no overlap, no operand truncation at
    // either adder); otherwise fall back to the distribution-free level
    // bound.
    if m_h >= 1u128 << w {
        return recursive_trivial(w);
    }
    let adder_w = sum_mode_adder(w, sum).expect("recursion widths are valid adder widths");
    let adder_2w = sum_mode_adder(2 * w, sum).expect("recursion widths are valid adder widths");
    let bw = ripple_adder_bound(&adder_w);
    let b2w = ripple_adder_bound(&adder_2w);

    // error = e_ll + 2^w·e_hh + 2^h·(e_lh + e_hl + dev_w) + dev_2w
    let scale = 1u128 + (1u128 << w) + 2 * (1u128 << h);
    let over = sub.over * scale + (bw.over << h) + b2w.over;
    let under = sub.under * scale + (bw.under << h) + b2w.under;
    // Sub-multiplier operands are digit fields of uniform primary inputs,
    // hence themselves uniform: the sub rate/mean apply at all four sites.
    // The internal adders sit on non-uniform signals → distribution-free.
    let rate = (4.0 * sub.error_rate_bound + adder_presence_flag(&bw) + adder_presence_flag(&b2w))
        .min(1.0);
    let mean = sub.mean_abs * scale as f64 + (bw.wce() << h) as f64 + b2w.wce() as f64;

    let mid_max = ((1u128 << (w + 1)) - 1).min(2 * m_h + bw.over);
    let max_val =
        ((1u128 << (2 * w + 1)) - 1).min(m_h * (1 + (1u128 << w)) + (mid_max << h) + b2w.over);
    (ErrorBound { over, under, mean_abs: mean, error_rate_bound: rate }, max_val)
}

/// Static bound for a recursively composed multiplier.
///
/// Propagates the 2×2 block's exhaustive bound through each recursion
/// level, tracking the maximum representable level output to gate the
/// affine decomposition, and accounts for the final truncation to `2w`
/// bits when a raw carry can survive to the top.
#[must_use]
pub fn recursive_multiplier_bound(mul: &RecursiveMultiplier) -> ErrorBound {
    let w = mul.width();
    let (mut bound, max_val) = recursive_level(w, mul.block(), mul.sum_mode());
    // `mul()` truncates the raw result to 2w bits; if the raw value can
    // reach 2^{2w}, wrap turns a large value into a small one — an extra
    // under-direction term of one full wrap.
    if max_val >= 1u128 << (2 * w) {
        bound.under += 1u128 << (2 * w);
        bound.mean_abs = bound.wce() as f64;
    }
    bound
}

/// Static bound for a Wallace-tree multiplier with approximate reduction
/// columns.
///
/// The reduction is a sum of cell deviations at column weights: the raw
/// (pre-truncation) value equals `exact + Σ 2^col·d_cell`, with half-adder
/// placements restricted to their `cin = 0` truth-table rows. The final
/// result is that value mod `2^{2w}` (weight-`2^{2w}` bits dropped during
/// reduction and final truncation compose to a plain wrap), so an extra
/// wrap term enters `under` only when `over` can push past `2^{2w} − 1`.
#[must_use]
pub fn wallace_bound(mul: &WallaceMultiplier) -> ErrorBound {
    let w = mul.width();
    let mut over = 0u128;
    let mut under = 0u128;
    let mut any = false;
    for placement in mul.cell_placements() {
        let d = cell_deviation(placement.kind, placement.half_adder);
        if d.d_max > 0 {
            over += (d.d_max as u128) << placement.column;
        }
        if d.d_min < 0 {
            under += (-d.d_min as u128) << placement.column;
        }
        if d.nonzero_rate > 0.0 {
            any = true;
        }
    }
    let exact_max = ((1u128 << w) - 1) * ((1u128 << w) - 1);
    if exact_max + over >= 1u128 << (2 * w) {
        under += 1u128 << (2 * w);
    }
    // Reduction cells sit on partial-product columns (non-uniform) →
    // distribution-free mean and rate.
    ErrorBound {
        over,
        under,
        mean_abs: over.max(under) as f64,
        error_rate_bound: if any { 1.0 } else { 0.0 },
    }
}

/// [`wallace_bound`] sharpened by the compositional error calculus.
///
/// The structural bound sums every cell's worst deviation as if all could
/// fire at once, which overshoots the true worst case by well over an
/// order of magnitude. The calculus instead enumerates the deviation
/// over the approximate cone, certifying the exact distribution at every
/// shipped width; its envelope intersects the structural one fieldwise
/// (both are sound for the same quantity). A budget of `2^18` cone
/// assignments bounds the enumeration — past it the structural bound
/// stands alone.
#[must_use]
pub fn certified_wallace_bound(mul: &WallaceMultiplier) -> ErrorBound {
    let structural = wallace_bound(mul);
    let certified = crate::symbolic::calculus::wallace_calculus(mul, Some(1 << 18));
    structural.tightened(&certified.to_error_bound())
}

/// Number of partial products in column `c` of a `w × w` array.
fn column_population(c: usize, w: usize) -> u128 {
    (c + 1).min(w).min(2 * w - 1 - c) as u128
}

/// Static bound for a truncated multiplier with constant compensation.
///
/// The error is exactly `comp − D(a, b)` where `D` sums the dropped
/// partial products — a function of only the low `k = min(dropped, w)`
/// bits of each operand. For small `k` the bound is computed by exhausting
/// those `4^k` pairs, making over/under/rate/mean *exact* under uniform
/// inputs; beyond `k = 8` a closed-form distribution-free ceiling is used.
#[must_use]
pub fn truncated_bound(mul: &TruncatedMultiplier) -> ErrorBound {
    let w = mul.width();
    let dropped = mul.dropped_columns();
    let comp = mul.compensation() as u128;
    let k = dropped.min(w);
    let max_dropped: u128 = (0..dropped.min(2 * w - 1)).map(|c| column_population(c, w) << c).sum();
    let mut bound = if k <= 8 {
        let mut over = 0u128;
        let mut under = 0u128;
        let mut errors = 0u128;
        let mut abs_sum = 0u128;
        for a in 0..1u64 << k {
            for b in 0..1u64 << k {
                let mut d = 0u128;
                for i in 0..k {
                    for j in 0..k {
                        if i + j < dropped && (a >> i) & 1 == 1 && (b >> j) & 1 == 1 {
                            d += 1u128 << (i + j);
                        }
                    }
                }
                if comp >= d {
                    over = over.max(comp - d);
                } else {
                    under = under.max(d - comp);
                }
                if comp != d {
                    errors += 1;
                    abs_sum += comp.abs_diff(d);
                }
            }
        }
        let pairs = 1u128 << (2 * k);
        ErrorBound {
            over,
            under,
            mean_abs: abs_sum as f64 / pairs as f64,
            error_rate_bound: errors as f64 / pairs as f64,
        }
    } else {
        ErrorBound {
            over: comp,
            under: max_dropped,
            mean_abs: comp.max(max_dropped) as f64,
            error_rate_bound: 1.0,
        }
    };
    // The retained sum plus compensation is truncated to 2w bits; wrap is
    // only possible if the constant can push past the range ceiling.
    let exact_max = ((1u128 << w) - 1) * ((1u128 << w) - 1);
    if exact_max + comp >= 1u128 << (2 * w) {
        bound.under += 1u128 << (2 * w);
        bound.mean_abs = bound.wce() as f64;
    }
    bound
}

/// Static bound for a SAD accelerator output.
///
/// One subtractor bound per lane plus one adder bound per tree node. The
/// tree needs no truncation terms: a level-`ℓ` node sums two values below
/// `2^{9+ℓ}` into a `(9+ℓ+1)`-bit adder whose result (carry included)
/// the next level's width always absorbs.
#[must_use]
pub fn sad_bound(sad: &SadAccelerator) -> ErrorBound {
    let lane = subtractor_bound(sad.subtractor());
    let mut bound = lane.replicated(sad.lanes());
    let mut count = sad.lanes() / 2;
    for adder in sad.tree_adders() {
        // Tree adders see partial sums, not uniform inputs →
        // distribution-free fields.
        let node = ripple_adder_bound(adder).distribution_free();
        bound = bound.plus(&node.replicated(count));
        count /= 2;
    }
    bound
}

/// Per-rail bound for the FIR accumulation tree.
///
/// `coefs` holds the rail's coefficient magnitudes. Each tap product obeys
/// the 8×8 multiplier bound (and is capped at `2^16 − 1` by product
/// truncation); the `count − 1` tree adds each contribute one accumulator
/// deviation. The rail is only affine while every intermediate stays below
/// the `2^22` accumulator range — gated statically from the coefficients;
/// otherwise the rail collapses to the full-range fallback.
fn fir_rail_bound(coefs: &[u64], mul_bound: &ErrorBound, acc_bound: &ErrorBound) -> ErrorBound {
    let count = coefs.len() as u128;
    if count == 0 {
        return ErrorBound::EXACT;
    }
    let cap = 1u128 << FirAccelerator::accumulator_bits();
    let max_products: u128 =
        coefs.iter().map(|&c| ((1u128 << 16) - 1).min(255 * c as u128 + mul_bound.over)).sum();
    let rail_max = max_products + (count - 1) * acc_bound.over;
    if rail_max >= cap {
        return ErrorBound { over: cap, under: cap, mean_abs: cap as f64, error_rate_bound: 1.0 };
    }
    let over = count * mul_bound.over + (count - 1) * acc_bound.over;
    let under = count * mul_bound.under + (count - 1) * acc_bound.under;
    ErrorBound {
        over,
        under,
        mean_abs: over.max(under) as f64,
        error_rate_bound: if over == 0 && under == 0 { 0.0 } else { 1.0 },
    }
}

/// Static bound for a FIR accelerator output sample.
///
/// The datapath is dual-rail: positive- and negative-coefficient tap
/// products accumulate separately and meet in one exact signed subtract,
/// so the output's over-error combines the positive rail's over with the
/// negative rail's under (and vice versa). Boundary samples use subsets of
/// the taps, which only shrinks every term, so the full-rail bound covers
/// all output positions. Coefficients are fixed constants (non-uniform
/// multiplier inputs) → mean and rate stay distribution-free.
#[must_use]
pub fn fir_bound(fir: &FirAccelerator) -> ErrorBound {
    let mul_bound = recursive_multiplier_bound(fir.multiplier()).distribution_free();
    let acc_bound = ripple_adder_bound(fir.accumulator()).distribution_free();
    let pos: Vec<u64> = fir.coefficients().iter().filter(|&&h| h > 0).map(|&h| h as u64).collect();
    let neg: Vec<u64> =
        fir.coefficients().iter().filter(|&&h| h < 0).map(|&h| h.unsigned_abs()).collect();
    let pos_rail = fir_rail_bound(&pos, &mul_bound, &acc_bound);
    let neg_rail = fir_rail_bound(&neg, &mul_bound, &acc_bound);
    let over = pos_rail.over + neg_rail.under;
    let under = pos_rail.under + neg_rail.over;
    ErrorBound {
        over,
        under,
        mean_abs: over.max(under) as f64,
        error_rate_bound: (pos_rail.error_rate_bound + neg_rail.error_rate_bound).min(1.0),
    }
}

/// A named component with its static bound and hardware cost — the static
/// analogue of `xlac_core::ComponentProfile`.
#[derive(Debug, Clone)]
pub struct StaticProfile {
    /// Component instance name.
    pub name: String,
    /// Static error bound.
    pub bound: ErrorBound,
    /// Hardware cost under the workspace cost model.
    pub cost: HwCost,
}

/// Static profiles for every built-in configuration the workspace ships:
/// the `hdl/` GeAr and RCA designs, the Fig.5 multiplier families, and the
/// SAD/FIR accelerator modes.
///
/// # Errors
///
/// Propagates component-construction errors (none occur for the built-in
/// parameter sets).
pub fn builtin_profiles() -> Result<Vec<StaticProfile>> {
    let mut profiles = Vec::new();

    for (n, r, p) in [(8, 2, 2), (11, 1, 9), (12, 4, 4), (16, 2, 6)] {
        let gear = GeArAdder::new(n, r, p)?;
        profiles.push(StaticProfile {
            name: gear.name(),
            bound: gear_adder_bound(&gear),
            cost: gear.hw_cost(),
        });
    }

    for kind in FullAdderKind::APPROXIMATE {
        let adder = RippleCarryAdder::with_approx_lsbs(8, kind, 4)?;
        profiles.push(StaticProfile {
            name: adder.name(),
            bound: ripple_adder_bound(&adder),
            cost: adder.hw_cost(),
        });
        let sub = Subtractor::new(RippleCarryAdder::with_approx_lsbs(8, kind, 4)?);
        profiles.push(StaticProfile {
            name: sub.name(),
            bound: subtractor_bound(&sub),
            cost: sub.hw_cost(),
        });
    }

    for block in Mul2x2Kind::ALL {
        for sum in [SumMode::Accurate, SumMode::ApproxLsbs { kind: FullAdderKind::Apx2, lsbs: 2 }] {
            let mul = RecursiveMultiplier::new(8, block, sum)?;
            profiles.push(StaticProfile {
                name: mul.name(),
                bound: recursive_multiplier_bound(&mul),
                cost: mul.hw_cost(),
            });
        }
    }
    for (kind, cols) in
        [(FullAdderKind::Apx2, 4), (FullAdderKind::Apx4, 8), (FullAdderKind::Apx5, 8)]
    {
        let mul = WallaceMultiplier::new(8, kind, cols)?;
        profiles.push(StaticProfile {
            name: mul.name(),
            bound: certified_wallace_bound(&mul),
            cost: mul.hw_cost(),
        });
    }
    for (dropped, compensated) in [(2, false), (4, true), (6, true)] {
        let mul = TruncatedMultiplier::new(8, dropped, compensated)?;
        profiles.push(StaticProfile {
            name: mul.name(),
            bound: truncated_bound(&mul),
            cost: mul.hw_cost(),
        });
    }

    for variant in xlac_accel::SadVariant::ALL {
        let sad = SadAccelerator::new(16, variant, 4)?;
        profiles.push(StaticProfile {
            name: sad.name(),
            bound: sad_bound(&sad),
            cost: sad.hw_cost(),
        });
    }
    for mode in xlac_accel::ApproxMode::ALL {
        let fir = FirAccelerator::new(&[1, 4, 6, 4, 1], mode)?;
        profiles.push(StaticProfile {
            name: fir.name(),
            bound: fir_bound(&fir),
            cost: fir.hw_cost(),
        });
    }

    Ok(profiles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accurate_cells_have_zero_deviation() {
        for half in [false, true] {
            let d = cell_deviation(FullAdderKind::Accurate, half);
            assert_eq!((d.d_max, d.d_min), (0, 0));
            assert_eq!(d.nonzero_rate, 0.0);
        }
    }

    #[test]
    fn exact_components_get_exact_bounds() {
        assert!(ripple_adder_bound(&RippleCarryAdder::accurate(8)).is_exact());
        assert!(mul2x2_bound(Mul2x2Kind::Accurate).is_exact());
        let mul = RecursiveMultiplier::new(8, Mul2x2Kind::Accurate, SumMode::Accurate).unwrap();
        assert!(recursive_multiplier_bound(&mul).is_exact());
        let wal = WallaceMultiplier::new(8, FullAdderKind::Accurate, 0).unwrap();
        assert!(wallace_bound(&wal).is_exact());
        let sad = SadAccelerator::accurate(16).unwrap();
        assert!(sad_bound(&sad).is_exact());
    }

    #[test]
    fn gear_bound_matches_the_classic_formula() {
        let gear = GeArAdder::new(8, 2, 2).unwrap();
        let b = gear_adder_bound(&gear);
        assert_eq!(b.over, 0);
        assert_eq!(b.under, gear.worst_case_error() as u128);
        assert!(b.error_rate_bound > 0.0 && b.error_rate_bound <= 1.0);
    }

    #[test]
    fn subtractor_hazard_requires_approximate_cells() {
        let accurate = Subtractor::new(RippleCarryAdder::accurate(8));
        assert!(subtractor_bound(&accurate).is_exact());
        // ApxFA5 forwards `a` into the carry chain, so the all-ones raw
        // pattern with a final carry is reachable; the static pass must
        // include the wrap hazard.
        let hazard =
            Subtractor::new(RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx5, 4).unwrap());
        let b = subtractor_bound(&hazard);
        assert!(b.under >= (1 << 8) - 1, "wrap hazard missing: {b:?}");
        // The hazard witness itself: 0xF8 − 0 reports (0, borrow-free).
        assert_eq!(hazard.sub(0xF8, 0), (0, true));
    }

    #[test]
    fn certified_wallace_bound_sharpens_the_structural_one() {
        // The structural per-cell sum overshoots the true worst case by
        // well over an order of magnitude; the calculus envelope is the
        // exact distribution, so the tightening must bite hard.
        let mul = WallaceMultiplier::new(8, FullAdderKind::Apx2, 8).unwrap();
        let structural = wallace_bound(&mul);
        let certified = certified_wallace_bound(&mul);
        assert!(certified.wce() > 0);
        assert!(
            certified.wce() * 10 <= structural.wce(),
            "certified {} vs structural {}: expected >10x sharpening",
            certified.wce(),
            structural.wce()
        );
        assert!(certified.mean_abs <= structural.mean_abs);
        assert!(certified.error_rate_bound <= structural.error_rate_bound);
    }

    #[test]
    fn builtin_profiles_cover_every_family() {
        let profiles = builtin_profiles().unwrap();
        assert!(profiles.len() >= 20);
        for p in &profiles {
            assert!(p.cost.area_ge > 0.0, "{}", p.name);
        }
        for needle in ["GeAr", "RCA", "Sub", "RecMul", "Wallace", "TruncMul", "SAD", "FIR"] {
            assert!(profiles.iter().any(|p| p.name.contains(needle)), "no profile for {needle}");
        }
    }
}
