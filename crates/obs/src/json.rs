//! The workspace's one JSON reader.
//!
//! Every report the workspace writes — `BENCH_*.json`, the
//! [`crate::export_json_lines`] profile, the `xlac-loadgen` lines, the
//! `absint:` entries of `xlac-lint --exact --json` — and the gate rules in
//! `scripts/gates.jsonl` are flat JSON objects, one per line. A flat
//! object maps keys to strings, finite numbers, `true`/`false`, `null` or
//! arrays of numbers; its line may be indented and end in one `,`.
//! Anything else — nested values, arrays of strings, duplicate keys,
//! `NaN` or `1e999`, trailing text — makes [`parse_object`] return `None`,
//! and [`objects`] skips that line. The reader is built with or without
//! the `obs` feature and never panics.

use std::collections::BTreeMap;
use std::path::Path;

/// A value in one flat object.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A finite number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// `true` or `false`.
    Bool(bool),
    /// An array of finite numbers.
    Arr(Vec<f64>),
    /// `null`.
    Null,
}

impl Value {
    /// The number, if this is one.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }
}

/// One parsed line: key → value, keys sorted.
pub type Object = BTreeMap<String, Value>;

/// The `"name"` string of a record, the key every report lines up by.
#[must_use]
pub fn name(obj: &Object) -> Option<&str> {
    match obj.get("name")? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Parses one flat object line; `None` when the line is anything else.
#[must_use]
pub fn parse_object(line: &str) -> Option<Object> {
    let mut c = Cursor { s: line, i: 0 };
    if !c.eat(b'{') {
        return None;
    }
    let mut obj = Object::new();
    if !c.eat(b'}') {
        loop {
            let key = c.string()?;
            if !c.eat(b':') {
                return None;
            }
            let value = c.value()?;
            if obj.insert(key, value).is_some() {
                return None;
            }
            if c.eat(b'}') {
                break;
            }
            if !c.eat(b',') {
                return None;
            }
        }
    }
    c.eat(b',');
    c.skip_ws();
    (c.i == line.len()).then_some(obj)
}

/// Every flat object line of `text`, in order; other lines are skipped.
pub fn objects(text: &str) -> impl Iterator<Item = Object> + '_ {
    text.lines().filter_map(parse_object)
}

/// Reads a report file and returns its flat object lines.
///
/// # Errors
///
/// Returns the I/O error when the file cannot be read as UTF-8 text.
pub fn read_objects(path: &Path) -> std::io::Result<Vec<Object>> {
    Ok(objects(&std::fs::read_to_string(path)?).collect())
}

/// A byte cursor over one line. `i` only ever moves past ASCII bytes or
/// whole string runs, so it always sits on a `char` boundary.
struct Cursor<'a> {
    s: &'a str,
    i: usize,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    /// Skips whitespace, then consumes `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(b);
        self.i += usize::from(hit);
        hit
    }

    /// A string literal; its contents stay UTF-8.
    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            let rest = self.s.get(self.i..)?;
            let stop = rest.find(['"', '\\'])?;
            out.push_str(&rest[..stop]);
            self.i += stop + 1;
            if rest.as_bytes()[stop] == b'"' {
                return Some(out);
            }
            out.push(match self.peek()? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                _ => return None,
            });
            self.i += 1;
        }
    }

    fn number(&mut self) -> Option<f64> {
        self.skip_ws();
        let rest = self.s.get(self.i..)?;
        let len = rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(rest.len());
        let v: f64 = rest[..len].parse().ok()?;
        self.i += len;
        v.is_finite().then_some(v)
    }

    fn value(&mut self) -> Option<Value> {
        self.skip_ws();
        let rest = self.s.get(self.i..)?;
        for (word, v) in
            [("null", Value::Null), ("true", Value::Bool(true)), ("false", Value::Bool(false))]
        {
            if rest.starts_with(word) {
                self.i += word.len();
                return Some(v);
            }
        }
        match self.peek()? {
            b'"' => self.string().map(Value::Str),
            b'[' => {
                self.i += 1;
                let mut arr = Vec::new();
                if !self.eat(b']') {
                    loop {
                        arr.push(self.number()?);
                        if self.eat(b']') {
                            break;
                        }
                        if !self.eat(b',') {
                            return None;
                        }
                    }
                }
                Some(Value::Arr(arr))
            }
            _ => self.number().map(Value::Num),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(line: &str, key: &str) -> Option<f64> {
        parse_object(line)?.get(key)?.as_num()
    }

    #[test]
    fn reads_the_bench_harness_line() {
        let line = r#"{"name":"jit_rca8_eval_65536/interpreted","samples":7,"iters_per_sample":6,"median_ns":278170.0,"mean_ns":280000.0,"min_ns":270000.0,"max_ns":290000.0}"#;
        let obj = parse_object(line).unwrap();
        assert_eq!(name(&obj), Some("jit_rca8_eval_65536/interpreted"));
        assert_eq!(num(line, "median_ns"), Some(278_170.0));
        assert_eq!(num(line, "min_ns"), Some(270_000.0));
    }

    #[test]
    fn reads_the_sift_and_timing_lines() {
        let sift = r#"{"name":"symbolic_sift/wallace8x8_miter","unsifted_nodes":31895,"sifted_nodes":15154,"reduction":2.10,"rounds":3,"swaps":900}"#;
        assert_eq!(num(sift, "unsifted_nodes"), Some(31_895.0));
        assert_eq!(num(sift, "sifted_nodes"), Some(15_154.0));
        let timing = r#"{"name":"symbolic_calculus/wallace16x16_apx2_cols8","samples":3,"iters_per_sample":1,"median_ns":140464724.0,"mean_ns":1.0,"min_ns":1.0,"max_ns":1.0}"#;
        assert_eq!(num(timing, "median_ns"), Some(140_464_724.0));
    }

    #[test]
    fn reads_an_indented_audit_line_with_a_trailing_comma() {
        let line = r#"  {"name": "absint:cell/AXA3", "n_inputs": 3, "bound_wce": 4, "exact_wce": 4, "wce_slack": 0, "bound_error_rate": 0.500000000, "sound": true},"#;
        let obj = parse_object(line).unwrap();
        assert_eq!(name(&obj), Some("absint:cell/AXA3"));
        assert_eq!(num(line, "bound_wce"), Some(4.0));
        assert_eq!(num(line, "exact_wce"), Some(4.0));
        assert_eq!(obj.get("sound"), Some(&Value::Bool(true)));
        let unsound = line.replace("\"sound\": true", "\"sound\": false");
        assert_eq!(parse_object(&unsound).unwrap().get("sound"), Some(&Value::Bool(false)));
        // One trailing comma, not two, and nothing after it.
        assert!(parse_object(&format!("{line},")).is_none());
        assert!(parse_object(&format!("{line} x")).is_none());
    }

    #[test]
    fn reads_exporter_lines() {
        let hist = r#"{"name":"hist/sim.x","count":2,"sum":3,"min":1,"max":2,"buckets":[0,1,1]}"#;
        let obj = parse_object(hist).unwrap();
        assert_eq!(obj.get("buckets"), Some(&Value::Arr(vec![0.0, 1.0, 1.0])));
        let gauge = r#"{"name":"gauge/analysis.rate","value":null}"#;
        assert_eq!(parse_object(gauge).unwrap().get("value"), Some(&Value::Null));
        assert_eq!(parse_object(r#"{"a":[]}"#).unwrap().get("a"), Some(&Value::Arr(vec![])));
    }

    #[test]
    fn strings_decode_as_utf8_with_escapes() {
        let obj = parse_object(r#"{"name":"Wallace 8×8 \"apx\" a\\b\/c"}"#).unwrap();
        assert_eq!(name(&obj), Some("Wallace 8×8 \"apx\" a\\b/c"));
        assert!(parse_object(r#"{"name":"a\qb"}"#).is_none());
    }

    #[test]
    fn rejects_everything_that_is_not_one_flat_object() {
        for bad in [
            "",
            "not json",
            "[1,2]",
            r#"{"name":"x""#,
            r#"{"name":"x",}"#,
            r#"{"a":1,"a":2}"#,
            r#"{"a":NaN}"#,
            r#"{"a":1e999}"#,
            r#"{"a":-}"#,
            r#"{"a":nul}"#,
            r#"{"a":truex}"#,
            r#"{"a":{"b":1}}"#,
            r#"{"nets": ["w14", "w9"]}"#,
            r#"{"module": "AccuFA", "diagnostics": ["#,
        ] {
            assert!(parse_object(bad).is_none(), "accepted {bad:?}");
        }
        assert_eq!(parse_object(" { } "), Some(Object::new()));
    }

    #[test]
    fn objects_skip_nested_lines() {
        let text = "{\n\"lint\": [\n  {\"module\": \"A\", \"diagnostics\": [\n    \
                    {\"severity\": \"warning\", \"nets\": [\"w1\"]}\n  ]},\n],\n\
                    \"bound_audit\": [\n  {\"name\": \"absint:x\", \"bound_wce\": 1},\n  \
                    {\"name\": \"absint:y\", \"bound_wce\": 2}\n]\n}\n";
        let names: Vec<String> =
            objects(text).filter_map(|o| name(&o).map(str::to_string)).collect();
        assert_eq!(names, ["absint:x", "absint:y"]);
    }
}
