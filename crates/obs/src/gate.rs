//! Spec-driven checks over the workspace's JSON reports.
//!
//! `scripts/gates.jsonl` holds every floor and ceiling CI enforces on a
//! report, one rule per line. Each rule is a flat JSON object read by
//! [`crate::json`], so the spec has no grammar of its own. The keys are:
//!
//! * `rule` — a unique id, printed in the verdict;
//! * `file` — the report to read, relative to the check root;
//! * `series` — the record name; a trailing `*` selects every record with
//!   that prefix, `except` drops records whose name contains a substring,
//!   and `min_count` (default 1) sets how many records must be checked;
//! * `field` — the number to check;
//! * `ref_file` / `ref_series` / `ref_field` — an optional reference;
//! * `min` and/or `max` — the bounds.
//!
//! A rule checks `min·ref ≤ value ≤ max·ref` on each selected record, or
//! `min ≤ value ≤ max` without a reference. It multiplies instead of
//! dividing, so a zero reference under `max` still forces a zero value.
//! Each unset reference key defaults to the checked record's own: with
//! only `ref_field` the rule compares two fields of one record; with
//! `ref_file` and no `ref_series` it compares each record with the record
//! of the same name there, and records the reference file lacks are not
//! counted. A missing file, series or field fails its rule, and so does
//! checking fewer than `min_count` records.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::json::{self, Object, Value};

/// The keys a rule line may carry.
const KEYS: [&str; 11] = [
    "rule",
    "file",
    "series",
    "except",
    "min_count",
    "field",
    "ref_file",
    "ref_series",
    "ref_field",
    "min",
    "max",
];

/// One rule of the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Unique id.
    pub id: String,
    /// Report file, relative to the check root.
    pub file: String,
    /// Record name, or a prefix followed by `*`.
    pub series: String,
    /// Drops selected records whose name contains this.
    pub except: Option<String>,
    /// Records that must be checked.
    pub min_count: usize,
    /// The checked number.
    pub field: String,
    /// Reference report (default: `file`).
    pub ref_file: Option<String>,
    /// Reference record (default: the checked record's name).
    pub ref_series: Option<String>,
    /// Reference number (default: `field`).
    pub ref_field: Option<String>,
    /// Lower bound, scaled by the reference.
    pub min: Option<f64>,
    /// Upper bound, scaled by the reference.
    pub max: Option<f64>,
}

/// An invalid rule line: its 1-based number and what is wrong with it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// The line number.
    pub line: usize,
    /// The problem.
    pub problem: Problem,
}

/// What is wrong with one rule line.
#[derive(Debug, Clone, PartialEq)]
pub enum Problem {
    /// The line is not a flat JSON object (this includes duplicate keys).
    NotAnObject,
    /// A key the spec does not define.
    UnknownKey(String),
    /// A required key is absent.
    MissingKey(&'static str),
    /// A key has the wrong type, or `min_count` is not a whole number ≥ 1.
    BadValue(&'static str),
    /// The `rule` id is used by an earlier line.
    DuplicateRule(String),
    /// `min` is above `max`.
    MinAboveMax,
    /// Neither `min` nor `max` is set.
    NoBound,
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Problem::NotAnObject => write!(f, "not a flat JSON object"),
            Problem::UnknownKey(key) => write!(f, "unknown key '{key}'"),
            Problem::MissingKey(key) => write!(f, "missing key '{key}'"),
            Problem::BadValue(key) => write!(f, "key '{key}' has the wrong type or value"),
            Problem::DuplicateRule(id) => write!(f, "rule id '{id}' is already used"),
            Problem::MinAboveMax => write!(f, "min is above max"),
            Problem::NoBound => write!(f, "rule has neither min nor max"),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec line {}: {}", self.line, self.problem)
    }
}

impl std::error::Error for SpecError {}

/// Parses a spec; blank lines are skipped.
///
/// # Errors
///
/// Returns the first invalid line and what is wrong with it.
pub fn parse_spec(text: &str) -> Result<Vec<Rule>, SpecError> {
    let mut rules: Vec<Rule> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |problem| SpecError { line: i + 1, problem };
        let obj = json::parse_object(line).ok_or_else(|| at(Problem::NotAnObject))?;
        let rule = Rule::from_object(&obj).map_err(at)?;
        if rules.iter().any(|r| r.id == rule.id) {
            return Err(at(Problem::DuplicateRule(rule.id)));
        }
        rules.push(rule);
    }
    Ok(rules)
}

/// Reads and parses a spec file.
///
/// # Errors
///
/// Returns the read error or the [`SpecError`], as text.
pub fn load_spec(path: &Path) -> Result<Vec<Rule>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read spec {}: {e}", path.display()))?;
    parse_spec(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The outcome of one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The rule id.
    pub rule: String,
    /// `Ok` with the bound and tightest reading when the rule holds, `Err`
    /// with the offending readings or the missing input when it fails.
    pub outcome: Result<String, String>,
}

/// Checks every rule against the reports under `root`; each report file
/// is read once.
#[must_use]
pub fn check(rules: &[Rule], root: &Path) -> Vec<Verdict> {
    let mut reports = Reports::new();
    for file in rules.iter().flat_map(|r| std::iter::once(&r.file).chain(&r.ref_file)) {
        reports.entry(file.as_str()).or_insert_with(|| {
            json::read_objects(&root.join(file)).map_err(|e| format!("cannot read {file}: {e}"))
        });
    }
    rules
        .iter()
        .map(|rule| Verdict { rule: rule.id.clone(), outcome: rule.evaluate(&reports) })
        .collect()
}

/// Report file → its records, or why it could not be read.
type Reports<'a> = BTreeMap<&'a str, Result<Vec<Object>, String>>;

impl Rule {
    fn from_object(obj: &Object) -> Result<Rule, Problem> {
        if let Some(key) = obj.keys().find(|k| !KEYS.contains(&k.as_str())) {
            return Err(Problem::UnknownKey(key.clone()));
        }
        let text = |key: &'static str| match obj.get(key) {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s.clone())),
            Some(_) => Err(Problem::BadValue(key)),
        };
        let required = |key: &'static str| text(key)?.ok_or(Problem::MissingKey(key));
        let number = |key: &'static str| match obj.get(key) {
            None => Ok(None),
            Some(Value::Num(v)) => Ok(Some(*v)),
            Some(_) => Err(Problem::BadValue(key)),
        };
        let min_count = match number("min_count")? {
            None => 1,
            Some(n) if n >= 1.0 && n.fract() == 0.0 && n <= f64::from(u32::MAX) => n as usize,
            Some(_) => return Err(Problem::BadValue("min_count")),
        };
        let (min, max) = (number("min")?, number("max")?);
        match (min, max) {
            (None, None) => return Err(Problem::NoBound),
            (Some(lo), Some(hi)) if lo > hi => return Err(Problem::MinAboveMax),
            _ => {}
        }
        Ok(Rule {
            id: required("rule")?,
            file: required("file")?,
            series: required("series")?,
            except: text("except")?,
            min_count,
            field: required("field")?,
            ref_file: text("ref_file")?,
            ref_series: text("ref_series")?,
            ref_field: text("ref_field")?,
            min,
            max,
        })
    }

    fn selects(&self, name: &str) -> bool {
        let hit = match self.series.strip_suffix('*') {
            Some(prefix) => name.starts_with(prefix),
            None => name == self.series,
        };
        hit && !self.except.as_ref().is_some_and(|e| name.contains(e.as_str()))
    }

    fn has_ref(&self) -> bool {
        self.ref_file.is_some() || self.ref_series.is_some() || self.ref_field.is_some()
    }

    fn bounds(&self) -> String {
        let scale = if self.has_ref() { " x ref" } else { "" };
        match (self.min, self.max) {
            (Some(lo), Some(hi)) => format!("in [{lo}, {hi}]{scale}"),
            (Some(lo), None) => format!(">= {lo}{scale}"),
            (None, Some(hi)) => format!("<= {hi}{scale}"),
            (None, None) => "unbounded".into(),
        }
    }

    fn evaluate(&self, reports: &Reports) -> Result<String, String> {
        let report = |file: &str| reports[file].as_deref().map_err(String::clone);
        let values = report(&self.file)?;
        let refs = match &self.ref_file {
            Some(file) => report(file)?,
            None => values,
        };
        // (reading, value / reference) per checked record.
        let mut readings: Vec<(String, f64)> = Vec::new();
        let mut failures = Vec::new();
        for obj in values {
            let Some(name) = json::name(obj).filter(|n| self.selects(n)) else { continue };
            let reference = if self.has_ref() {
                let (ref_obj, ref_name) = match (&self.ref_series, &self.ref_file) {
                    (None, None) => (obj, name),
                    (None, Some(_)) => match find(refs, name) {
                        Some(o) => (o, name),
                        None => continue,
                    },
                    (Some(series), _) => (
                        find(refs, series)
                            .ok_or_else(|| format!("reference series {series} missing"))?,
                        series.as_str(),
                    ),
                };
                Some(number(ref_obj, self.ref_field.as_deref().unwrap_or(&self.field), ref_name)?)
            } else {
                None
            };
            let value = number(obj, &self.field, name)?;
            let r = reference.unwrap_or(1.0);
            let ok = self.min.is_none_or(|lo| value >= lo * r)
                && self.max.is_none_or(|hi| value <= hi * r);
            let reading = match reference {
                Some(r) => (format!("{name}: {value} / {r} = {:.3}", value / r), value / r),
                None => (format!("{name}: {} = {value}", self.field), value),
            };
            if !ok {
                failures.push(reading.0.clone());
            }
            readings.push(reading);
        }
        let bounds = self.bounds();
        if !failures.is_empty() {
            return Err(format!("{bounds}; outside: {}", failures.join("; ")));
        }
        let n = readings.len();
        if n < self.min_count {
            return Err(format!("{n} record(s) match '{}', need {}", self.series, self.min_count));
        }
        let tightest = readings
            .iter()
            .filter(|(_, q)| !q.is_nan())
            .max_by(|a, b| {
                let order = a.1.total_cmp(&b.1);
                if self.max.is_some() {
                    order
                } else {
                    order.reverse()
                }
            })
            .or(readings.first())
            .map_or("", |(text, _)| text);
        Ok(format!("{bounds}; {n} record(s); tightest {tightest}"))
    }
}

fn find<'o>(records: &'o [Object], name: &str) -> Option<&'o Object> {
    records.iter().find(|o| json::name(o) == Some(name))
}

fn number(obj: &Object, key: &str, name: &str) -> Result<f64, String> {
    obj.get(key).and_then(Value::as_num).ok_or_else(|| format!("{name} has no number '{key}'"))
}
