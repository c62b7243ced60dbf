//! The report gate: the shipped rule file `scripts/gates.jsonl` checked
//! against report fixtures copied from a CI run (`tests/fixtures/gates/`
//! mirrors the repo root), every emitter the spec reads parsed back
//! through `xlac_obs::json`, and the reader and the spec loader under
//! seeded mutation fuzzing.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use xlac::analysis::symbolic::audit::{audits_to_json, BoundAudit};
use xlac::core::check::{check, DefaultRng, Rng};
use xlac::obs::gate::{self, Problem, Rule, SpecError};
use xlac::obs::json::{self, Object, Value};
use xlac::server::{CapacityReport, LoadReport};
use xlac_bench::BenchResult;
use xlac_core::prop_assert;

const SPEC: &str = include_str!("../scripts/gates.jsonl");
const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/gates");
const REPORTS: [&str; 7] = [
    "BENCH_jit.json",
    "BENCH_explore.json",
    "BENCH_symbolic.json",
    "BENCH_server.json",
    "BENCH_obs.json",
    "BENCH_bitslice.json",
    "target/LINT_exact.json",
];

fn rules() -> Vec<Rule> {
    gate::parse_spec(SPEC).expect("the shipped spec loads")
}

/// Writes one object back as a JSON line the reader accepts.
fn to_line(obj: &Object) -> String {
    let quote = |s: &str| {
        let escaped = s
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
            .replace('\r', "\\r")
            .replace('\t', "\\t");
        format!("\"{escaped}\"")
    };
    let fields: Vec<String> = obj
        .iter()
        .map(|(key, value)| {
            let value = match value {
                Value::Num(v) => format!("{v:?}"),
                Value::Str(s) => quote(s),
                Value::Bool(b) => b.to_string(),
                Value::Arr(a) => {
                    let items: Vec<String> = a.iter().map(|v| format!("{v:?}")).collect();
                    format!("[{}]", items.join(","))
                }
                Value::Null => "null".into(),
            };
            format!("{}:{value}", quote(key))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// How one scenario changes a copy of the fixtures.
enum Change<'a> {
    /// Deletes one report.
    RemoveFile(&'a str),
    /// Rewrites every flat object of one report; `false` drops the line.
    Edit(&'a str, &'a dyn Fn(&mut Object) -> bool),
}

/// Copies the fixtures into a scratch root, applies `change`, checks the
/// shipped spec there and returns the ids of the failing rules.
fn failing_after(case: &str, change: Change) -> BTreeSet<String> {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("gate_spec").join(case);
    let _ = std::fs::remove_dir_all(&root);
    for report in REPORTS {
        let mut text = std::fs::read_to_string(Path::new(FIXTURES).join(report)).unwrap();
        match change {
            Change::RemoveFile(file) if file == report => continue,
            Change::Edit(file, edit) if file == report => {
                text = text
                    .lines()
                    .filter_map(|line| match json::parse_object(line) {
                        Some(mut obj) => edit(&mut obj).then(|| to_line(&obj)),
                        None => Some(line.to_string()),
                    })
                    .map(|line| line + "\n")
                    .collect();
            }
            _ => {}
        }
        let path = root.join(report);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }
    gate::check(&rules(), &root)
        .into_iter()
        .filter(|v| v.outcome.is_err())
        .map(|v| v.rule)
        .collect()
}

/// Sets `field` of the `series` record to `value`.
fn failing_with(file: &str, series: &str, field: &str, value: f64) -> BTreeSet<String> {
    let found = std::cell::Cell::new(false);
    let edit = |obj: &mut Object| {
        if json::name(obj) == Some(series) {
            found.set(obj.insert(field.to_string(), Value::Num(value)).is_some());
        }
        true
    };
    let case = format!("{series}-{field}-{value}").replace(['/', ' '], "_");
    let failing = failing_after(&case, Change::Edit(file, &edit));
    assert!(found.get(), "{file} has no {series} with {field}");
    failing
}

fn set(ids: &[&str]) -> BTreeSet<String> {
    ids.iter().map(|s| s.to_string()).collect()
}

#[test]
fn shipped_spec_passes_on_the_fixtures() {
    let rules = rules();
    let ids: Vec<&str> = rules.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(ids.len(), 27, "{ids:?}");
    for report in rules.iter().flat_map(|r| std::iter::once(&r.file).chain(&r.ref_file)) {
        assert!(REPORTS.contains(&report.as_str()), "no fixture for {report}");
    }
    let verdicts = gate::check(&rules, Path::new(FIXTURES));
    for v in &verdicts {
        assert!(v.outcome.is_ok(), "{} failed: {:?}", v.rule, v.outcome);
    }
    assert!(failing_after("unchanged", Change::Edit("BENCH_jit.json", &|_| true)).is_empty());
}

/// Each push moves one value past a bound; exactly the rules that read
/// that value fail. Together the pushes fail every rule of the spec.
#[test]
fn each_pushed_value_fails_exactly_its_readers() {
    let jit = "BENCH_jit.json";
    let sym = "BENCH_symbolic.json";
    let srv = "BENCH_server.json";
    let lint = "target/LINT_exact.json";
    let slice = "bitslice_mul8x8_wallace_sweep_65536/sliced_1thread";
    let pushes: &[(&str, &str, &str, f64, &[&str])] = &[
        (jit, "jit_rca8_eval_65536/compiled_u64", "median_ns", 1e12, &["jit.rca8.eval"]),
        (jit, "jit_rca8_eval_65536/interpreted", "median_ns", 1.0, &["jit.rca8.eval"]),
        (jit, "jit_rca8_sweep_65536/compiled_x8", "median_ns", 1e12, &["jit.rca8.sweep"]),
        (
            jit,
            "jit_wallace8x8_eval_65536/compiled_u64",
            "median_ns",
            1e12,
            &["jit.wallace8x8.eval"],
        ),
        (
            jit,
            "jit_wallace8x8_eval_65536/interpreted",
            "median_ns",
            1.0,
            &["jit.wallace8x8.eval", "jit.wallace8x8.eval_x8"],
        ),
        (
            jit,
            "jit_wallace8x8_eval_65536/compiled_x8",
            "median_ns",
            1e12,
            &["jit.wallace8x8.eval_x8"],
        ),
        (
            jit,
            "jit_wallace8x8_sweep_65536/interpreted",
            "median_ns",
            1.0,
            &["jit.wallace8x8.sweep"],
        ),
        (jit, "metrics_accumulate_65536/push", "median_ns", 1.0, &["metrics.accumulate.batched"]),
        (
            jit,
            "metrics_accumulate_65536/push_lanes",
            "median_ns",
            1e12,
            &["metrics.accumulate.batched"],
        ),
        (
            jit,
            "server_engine_dct_64blocks/compiled",
            "median_ns",
            1e12,
            &["server.engine.dct.compiled"],
        ),
        (
            jit,
            "server_engine_dct_64blocks/scalar",
            "median_ns",
            1.0,
            &["server.engine.dct.compiled"],
        ),
        (
            jit,
            "server_engine_fir_64x8/compiled",
            "median_ns",
            1e12,
            &["server.engine.fir.compiled"],
        ),
        (jit, "server_engine_fir_64x8/scalar", "median_ns", 1.0, &["server.engine.fir.compiled"]),
        (
            sym,
            "symbolic_calculus/wallace16x16_apx2_cols8",
            "median_ns",
            100_000_001.0,
            &["symbolic.calculus.wallace16x16"],
        ),
        (
            sym,
            "symbolic_rca8_apx3_metrics/compiled_exhaustive_65536",
            "median_ns",
            1e12,
            &["symbolic.exhaustive.rca8"],
        ),
        (
            sym,
            "symbolic_rca8_apx3_metrics/exhaustive_65536",
            "median_ns",
            1.0,
            &["symbolic.exhaustive.rca8"],
        ),
        (
            sym,
            "symbolic_mul8_wallace_metrics/compiled_exhaustive_65536",
            "median_ns",
            10_000_001.0,
            &["symbolic.exhaustive.wallace8x8"],
        ),
        (sym, "scalar_oracle/truncated8x8_d4", "median_ns", 24.1, &["scalar_oracle.truncated8x8"]),
        (sym, "scalar_oracle/gear16_r2_p6", "median_ns", 48.5, &["scalar_oracle.gear16"]),
        (srv, "server/mul_smoke", "replies", 199_999.0, &["server.mul_smoke.replies"]),
        (srv, "server/mul_smoke", "requests", 200_001.0, &["server.mul_smoke.replies"]),
        (srv, "server/mul_smoke", "errors", 1.0, &["server.mul_smoke.errors"]),
        (srv, "server/mul_smoke", "mismatches", 1.0, &["server.mul_smoke.mismatches"]),
        (srv, "server/mul_smoke", "rps", 99_999.9, &["server.mul_smoke.rps"]),
        (srv, "server/mul_smoke", "p99_ns", 50_000_001.0, &["server.mul_smoke.p99"]),
        (srv, "server/mixed_smoke", "replies", 31_999.0, &["server.mixed_smoke.replies"]),
        (srv, "server/mixed_smoke", "errors", 1.0, &["server.mixed_smoke.errors"]),
        (srv, "server/mixed_smoke", "mismatches", 1.0, &["server.mixed_smoke.mismatches"]),
        (srv, "server/capacity", "ratio", 0.499, &["capacity.ratio"]),
        (srv, "server/capacity", "ratio", 2.001, &["capacity.ratio"]),
        (srv, "server/capacity", "mismatches", 1.0, &["capacity.mismatches"]),
        // TCAA: exact_wce 2, so the ceiling is 16; a zero exact worst case
        // forces a zero bound.
        (lint, "absint:cell/TCAA", "bound_wce", 17.0, &["absint.tightness"]),
        (lint, "absint:cell/TCAA", "exact_wce", 0.0, &["absint.tightness"]),
        (lint, "absint:Wallace(N=8,8cols ApxFA4)", "bound_wce", -1.0, &["absint.entries"]),
        ("BENCH_obs.json", slice, "min_ns", 1e12, &["obs.overhead"]),
        ("BENCH_bitslice.json", slice, "min_ns", 1.0, &["obs.overhead"]),
        (
            "BENCH_explore.json",
            "explore_dist_fronts_w8/sparse_peaked",
            "configs",
            11.0,
            &["explore.fronts.coverage"],
        ),
    ];
    let mut covered = BTreeSet::new();
    for &(file, series, field, value, expected) in pushes {
        let failing = failing_with(file, series, field, value);
        assert_eq!(failing, set(expected), "{file} {series} {field} = {value}");
        covered.extend(failing);
    }
    let all: BTreeSet<String> = rules().into_iter().map(|r| r.id).collect();
    assert_eq!(covered, all, "a rule no push reaches");
}

/// The bounds keep the strictness of the thresholds they replace: each
/// value on its bound passes, and the Wallace trees stay exempt from the
/// tightness ceiling.
#[test]
fn values_on_the_bound_pass() {
    let srv = "BENCH_server.json";
    let edges: &[(&str, &str, &str, f64)] = &[
        ("BENCH_jit.json", "metrics_accumulate_65536/push", "median_ns", 616_824.0),
        ("BENCH_symbolic.json", "symbolic_calculus/wallace16x16_apx2_cols8", "median_ns", 1e8),
        // 5 × the fixture's compiled rca8 median of 180 882 ns.
        (
            "BENCH_symbolic.json",
            "symbolic_rca8_apx3_metrics/exhaustive_65536",
            "median_ns",
            904_410.0,
        ),
        (
            "BENCH_symbolic.json",
            "symbolic_mul8_wallace_metrics/compiled_exhaustive_65536",
            "median_ns",
            1e7,
        ),
        ("BENCH_symbolic.json", "scalar_oracle/truncated8x8_d4", "median_ns", 24.0),
        ("BENCH_symbolic.json", "scalar_oracle/gear16_r2_p6", "median_ns", 48.4),
        (srv, "server/mul_smoke", "rps", 100_000.0),
        (srv, "server/mul_smoke", "p99_ns", 50_000_000.0),
        (srv, "server/capacity", "ratio", 0.5),
        (srv, "server/capacity", "ratio", 2.0),
        ("target/LINT_exact.json", "absint:cell/TCAA", "bound_wce", 16.0),
        ("target/LINT_exact.json", "absint:Wallace(N=8,8cols ApxFA4)", "bound_wce", 1e9),
        ("target/LINT_exact.json", "RCA(N=8,4xApxFA1)", "bound_wce", 1e9),
        ("BENCH_explore.json", "explore_dist_fronts_w8/uniform", "configs", 12.0),
    ];
    for &(file, series, field, value) in edges {
        assert!(failing_with(file, series, field, value).is_empty(), "{series} {field} = {value}");
    }
}

#[test]
fn missing_files_series_and_fields_fail_their_rules() {
    let jit = set(&[
        "jit.rca8.eval",
        "jit.rca8.sweep",
        "jit.wallace8x8.eval",
        "jit.wallace8x8.sweep",
        "jit.wallace8x8.eval_x8",
        "metrics.accumulate.batched",
        "server.engine.dct.compiled",
        "server.engine.fir.compiled",
    ]);
    assert_eq!(failing_after("no-jit", Change::RemoveFile("BENCH_jit.json")), jit);
    let absint = set(&["absint.entries", "absint.tightness"]);
    assert_eq!(failing_after("no-lint", Change::RemoveFile("target/LINT_exact.json")), absint);
    let obs = set(&["obs.overhead"]);
    assert_eq!(failing_after("no-ref-file", Change::RemoveFile("BENCH_bitslice.json")), obs);
    let coverage = set(&["explore.fronts.coverage"]);
    assert_eq!(failing_after("no-explore", Change::RemoveFile("BENCH_explore.json")), coverage);

    let drop_series =
        |series: &'static str| move |obj: &mut Object| json::name(obj) != Some(series);
    let capacity = set(&["capacity.ratio", "capacity.mismatches"]);
    let edit = drop_series("server/capacity");
    assert_eq!(failing_after("no-capacity", Change::Edit("BENCH_server.json", &edit)), capacity);
    // Three distribution fronts of the four.
    let edit = drop_series("explore_dist_fronts_w8/exponential_decay");
    let fronts = failing_after("3-fronts", Change::Edit("BENCH_explore.json", &edit));
    assert_eq!(fronts, coverage);
    let edit = drop_series("jit_wallace8x8_eval_65536/compiled_x8");
    let x8 = set(&["jit.wallace8x8.eval_x8"]);
    assert_eq!(failing_after("no-ref-series", Change::Edit("BENCH_jit.json", &edit)), x8);

    let drop_field = |series: &'static str, field: &'static str| {
        move |obj: &mut Object| {
            if json::name(obj) == Some(series) {
                assert!(obj.remove(field).is_some(), "{series} has no {field}");
            }
            true
        }
    };
    let edit = drop_field("server/mul_smoke", "p99_ns");
    let p99 = set(&["server.mul_smoke.p99"]);
    assert_eq!(failing_after("no-p99", Change::Edit("BENCH_server.json", &edit)), p99);
    let edit = drop_field("absint:cell/TCAA", "exact_wce");
    let tight = set(&["absint.tightness"]);
    assert_eq!(failing_after("no-exact-wce", Change::Edit("target/LINT_exact.json", &edit)), tight);
    let edit = drop_field("jit_rca8_eval_65536/compiled_u64", "median_ns");
    let rca = set(&["jit.rca8.eval"]);
    assert_eq!(failing_after("no-ref-field", Change::Edit("BENCH_jit.json", &edit)), rca);

    // Fewer than 20 audit entries, and no bench shared by the two
    // bitslice reports.
    let kept = std::cell::Cell::new(0);
    let edit = |obj: &mut Object| {
        let audit = json::name(obj).is_some_and(|n| n.starts_with("absint:"));
        kept.set(kept.get() + usize::from(audit));
        !audit || kept.get() <= 19
    };
    let entries = set(&["absint.entries"]);
    assert_eq!(failing_after("19-entries", Change::Edit("target/LINT_exact.json", &edit)), entries);
    let edit = |obj: &mut Object| {
        let renamed = format!("renamed/{}", json::name(obj).unwrap_or_default());
        obj.insert("name".into(), Value::Str(renamed));
        true
    };
    assert_eq!(failing_after("nothing-shared", Change::Edit("BENCH_obs.json", &edit)), obs);
}

/// Every emitter the spec reads writes lines that parse back with the
/// fields its rules name: renaming one fails here, not silently in CI.
#[test]
fn emitters_round_trip_with_the_fields_the_spec_names() {
    let bench = |name: &str| {
        BenchResult {
            name: name.into(),
            samples: 7,
            iters_per_sample: 3,
            median_ns: 101.5,
            mean_ns: 102.0,
            min_ns: 99.0,
            max_ns: 110.0,
        }
        .json_line()
    };
    let load = |name: &str| {
        LoadReport {
            name: name.into(),
            requests: 10,
            replies: 10,
            overloaded: 0,
            errors: 0,
            mismatches: 0,
            elapsed_ns: 1_000,
            rps: 1e7,
            p50_ns: 10,
            p99_ns: 20,
            p999_ns: 30,
        }
        .json_line()
    };
    let capacity = |name: &str| {
        CapacityReport {
            name: name.into(),
            per_eval_ns: 1.5,
            per_eval_source: "BENCH_jit.json".into(),
            base_ns: 15_000.0,
            wire_ns: 57.5,
            calibrated_rps: 65_000.0,
            items: 4096,
            predicted_rps: 3_884.2,
            measured_rps: 3_817.4,
            ratio: 0.983,
            mismatches: 0,
        }
        .json_line()
    };
    let audit = |name: &str| {
        let audits = [BoundAudit {
            name: name.into(),
            n_inputs: 3,
            bound_wce: 2,
            exact_wce: 2,
            wce_slack: 0,
            bound_over: 2,
            exact_over: 2,
            bound_under: 2,
            exact_under: 2,
            bound_error_rate: 0.25,
            exact_error_rate: 0.25,
            bound_mean_abs: 0.5,
            exact_med: 0.5,
            sound: true,
        }];
        audits_to_json(&audits)
    };
    let mut checked = 0;
    for rule in rules() {
        // The front lines are printed by `library_gate` itself; the
        // fixture tests above cover their format.
        if rule.file == "BENCH_explore.json" {
            continue;
        }
        let name = rule.series.replace('*', "x");
        let emitted = match (rule.file.as_str(), name.as_str()) {
            ("BENCH_server.json", "server/capacity") => capacity(&name),
            ("BENCH_server.json", _) => load(&name),
            ("target/LINT_exact.json", _) => audit(&name),
            _ => bench(&name),
        };
        let objs: Vec<Object> = json::objects(&emitted).collect();
        assert_eq!(objs.len(), 1, "{}: {emitted}", rule.id);
        assert_eq!(json::name(&objs[0]), Some(name.as_str()), "{}", rule.id);
        for field in std::iter::once(&rule.field).chain(&rule.ref_field) {
            let value = objs[0].get(field).and_then(Value::as_num);
            assert!(value.is_some(), "{}: the emitter writes no number '{field}'", rule.id);
        }
        checked += 1;
    }
    assert_eq!(checked, 26);
}

#[test]
fn loader_names_the_offending_line() {
    let ok = r#"{"rule":"a","file":"f","series":"s","field":"x","max":1}"#;
    let cases: &[(&str, Problem)] = &[
        (
            r#"{"rule":"b","file":"f","series":"s","field":"x","max":1,"maxx":2}"#,
            Problem::UnknownKey("maxx".into()),
        ),
        (ok, Problem::DuplicateRule("a".into())),
        (
            r#"{"rule":"b","file":"f","series":"s","field":"x","min":2,"max":1}"#,
            Problem::MinAboveMax,
        ),
        (r#"{"rule":"b","file":"f","series":"s","field":"x"}"#, Problem::NoBound),
        (r#"{"rule":"b","file":"f","series":"s","max":1}"#, Problem::MissingKey("field")),
        (r#"{"rule":"b","file":"f","series":"s","field":"x","max":"1"}"#, Problem::BadValue("max")),
        (
            r#"{"rule":"b","file":"f","series":"s","field":"x","max":1,"min_count":0}"#,
            Problem::BadValue("min_count"),
        ),
        (
            r#"{"rule":"b","file":"f","series":"s","field":"x","max":1,"max":2}"#,
            Problem::NotAnObject,
        ),
        (r#"{"rule":"b","file":"f","series":"s","field":"x","max":NaN}"#, Problem::NotAnObject),
    ];
    for (bad, problem) in cases {
        let text = format!("{ok}\n\n{bad}\n");
        let err = gate::parse_spec(&text).expect_err(bad);
        assert_eq!(err, SpecError { line: 3, problem: problem.clone() }, "{bad}");
        assert!(err.to_string().starts_with("spec line 3: "), "{err}");
    }
}

/// Corpus lines for the mutation fuzzers: real report lines of every
/// shape the reader meets, nested lint lines included.
fn corpus() -> Vec<String> {
    let mut lines: Vec<String> = SPEC.lines().map(str::to_string).collect();
    for report in REPORTS {
        let text = std::fs::read_to_string(Path::new(FIXTURES).join(report)).unwrap();
        lines.extend(text.lines().step_by(7).take(12).map(str::to_string));
    }
    lines.push(
        r#"  {"name": "absint:cell/AXA3", "bound_wce": 1, "exact_wce": 1, "sound": true},"#.into(),
    );
    lines.push(r#"{"name":"hist/sim.x","count":2,"buckets":[0,1,1],"value":null}"#.into());
    lines
}

/// One to four seeded mutations of `line`: truncation, byte flip, byte
/// insertion, a duplicated key, a poisoned number, or a splice.
fn mutate(line: &str, other: &str, rng: &mut DefaultRng) -> Vec<u8> {
    const POISON: [&str; 8] = ["NaN", "1e999", "-1e999", "-", "1e-999", "Infinity", "--1", "1.2.3"];
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=4u32) {
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..7u32) {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            2 => {
                let noise = b"{}[]\",:\\ \xc3\xd7e-0";
                bytes.insert(at, noise[rng.gen_range(0..noise.len())]);
            }
            3 => {
                // Repeats the first `"key":value,` pair.
                if let (Some(open), Some(comma)) =
                    (bytes.iter().position(|&b| b == b'{'), bytes.iter().position(|&b| b == b','))
                {
                    if open < comma {
                        let pair = bytes[open + 1..=comma].to_vec();
                        bytes.splice(open + 1..open + 1, pair);
                    }
                }
            }
            4 => {
                // Replaces the value after some ':' with a poisoned or
                // overlong number.
                if let Some(colon) = bytes[at..].iter().position(|&b| b == b':').map(|p| p + at) {
                    let end = bytes[colon..]
                        .iter()
                        .position(|&b| b == b',' || b == b'}')
                        .map_or(bytes.len(), |p| p + colon);
                    let poison = match rng.gen_range(0..3u32) {
                        0 => "9".repeat(rng.gen_range(300..2000usize)),
                        1 => format!("0.{}e-5", "1".repeat(rng.gen_range(300..2000usize))),
                        _ => POISON[rng.gen_range(0..POISON.len())].to_string(),
                    };
                    bytes.splice(colon + 1..end, poison.into_bytes());
                }
            }
            5 => {
                let from = rng.gen_range(0..=other.len());
                bytes.splice(at..at, other.as_bytes()[from..].iter().copied());
            }
            _ => bytes.truncate(at.saturating_sub(1)),
        }
    }
    bytes
}

/// The reader never panics; what it accepts is a flat object that
/// round-trips, with only finite numbers.
#[test]
fn fuzz_reader_never_panics_and_round_trips() {
    let corpus = corpus();
    let gen = |rng: &mut DefaultRng| {
        let line = &corpus[rng.gen_range(0..corpus.len())];
        let other = &corpus[rng.gen_range(0..corpus.len())];
        mutate(line, other, rng)
    };
    check("json reader on mutated report lines", gen, |bytes| {
        let line = String::from_utf8_lossy(bytes);
        let parsed = std::panic::catch_unwind(|| json::parse_object(&line))
            .map_err(|_| format!("parse_object panicked on {line:?}"))?;
        if let Some(obj) = parsed {
            let finite = obj.values().all(|v| match v {
                Value::Num(x) => x.is_finite(),
                Value::Arr(a) => a.iter().all(|x| x.is_finite()),
                _ => true,
            });
            prop_assert!(finite, "non-finite number accepted from {line:?}");
            let again = json::parse_object(&to_line(&obj));
            prop_assert!(again.as_ref() == Some(&obj), "{line:?} does not round-trip");
        }
        Ok(())
    });
}

/// The loader never panics on a mutated spec; an error names a line of
/// the text, and an accepted spec holds the loader's invariants.
#[test]
fn fuzz_spec_loader_never_panics() {
    let gen = |rng: &mut DefaultRng| {
        let mut lines: Vec<String> = SPEC.lines().map(str::to_string).collect();
        let at = rng.gen_range(0..lines.len());
        let other = lines[rng.gen_range(0..lines.len())].clone();
        lines[at] = String::from_utf8_lossy(&mutate(&lines[at], &other, rng)).into_owned();
        if rng.gen_bool(0.2) {
            // A whole duplicated rule line.
            lines.insert(rng.gen_range(0..=lines.len()), other);
        }
        lines.join("\n").into_bytes()
    };
    check("spec loader on mutated gates.jsonl", gen, |bytes| {
        let text = String::from_utf8_lossy(bytes);
        let loaded = std::panic::catch_unwind(|| gate::parse_spec(&text))
            .map_err(|_| format!("parse_spec panicked on {text:?}"))?;
        match loaded {
            Err(e) => prop_assert!(e.line >= 1 && e.line <= text.lines().count(), "{e}"),
            Ok(rules) => {
                let ids: BTreeSet<&str> = rules.iter().map(|r| r.id.as_str()).collect();
                prop_assert!(ids.len() == rules.len(), "duplicate rule ids accepted");
                for r in &rules {
                    prop_assert!(r.min.is_some() || r.max.is_some(), "{} has no bound", r.id);
                    prop_assert!(r.min.zip(r.max).is_none_or(|(lo, hi)| lo <= hi), "{}", r.id);
                    prop_assert!(r.min_count >= 1, "{}", r.id);
                }
            }
        }
        Ok(())
    });
}
