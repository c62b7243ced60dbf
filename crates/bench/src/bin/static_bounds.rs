//! Static error-bound report: the `xlac-analysis` bounds next to the
//! exact errors they must dominate.
//!
//! Two tables:
//!
//! 1. the built-in component profiles (static WCE / mean / rate bounds
//!    plus the synthesis-flow area), and
//! 2. the bound audit (`symbolic::audit_bounds`) — for every audited
//!    configuration the static WCE next to the exact WCE from exhaustive
//!    enumeration; every field of the bound must dominate its exact
//!    counterpart (`DESIGN.md` §9).

use xlac_analysis::components::builtin_profiles;
use xlac_analysis::symbolic::audit_bounds;
use xlac_bench::{check, header, row, section};

fn main() {
    section("static profiles (built-in component library)");
    header(&[("component", 26), ("wce", 12), ("mean<=", 12), ("rate<=", 8), ("area[GE]", 10)]);
    let profiles = builtin_profiles().expect("built-in configs construct");
    for p in &profiles {
        row(&[
            (p.name.clone(), 26),
            (format!("{}", p.bound.wce()), 12),
            (format!("{:.2}", p.bound.mean_abs), 12),
            (format!("{:.3}", p.bound.error_rate_bound), 8),
            (format!("{:.1}", p.cost.area_ge), 10),
        ]);
    }

    section("bound audit (exhaustive enumeration)");
    header(&[("configuration", 42), ("wce bound", 12), ("exact", 12), ("slack", 12), ("sound", 6)]);
    let audits = audit_bounds();
    for a in &audits {
        row(&[
            (a.name.clone(), 42),
            (format!("{}", a.bound_wce), 12),
            (format!("{}", a.exact_wce), 12),
            (format!("{}", a.wce_slack), 12),
            (if a.sound { "yes" } else { "NO" }.to_string(), 6),
        ]);
    }

    section("shape checks");
    let mut ok = true;
    ok &= check("every static bound dominates its exact error", audits.iter().all(|a| a.sound));
    ok &= check(
        "the profile library spans all component families",
        ["GeAr", "RCA", "Sub", "RecMul", "Wallace", "TruncMul", "SAD", "FIR"]
            .iter()
            .all(|needle| profiles.iter().any(|p| p.name.contains(needle))),
    );
    ok &= check(
        "exact configurations get exact bounds",
        audits.iter().filter(|a| a.exact_wce == 0).all(|a| a.bound_wce == 0),
    );
    std::process::exit(i32::from(!ok));
}
