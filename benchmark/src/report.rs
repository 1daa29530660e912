//! The benchmark's one report type: [`Samples`] (the spread of repeated
//! measurements) and [`Json`] (a small value tree with an escaping writer
//! and a strict reader, so result files need no external crate).

use std::fmt::Write as _;

/// Five-number summary of repeated measurements of one quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Samples {
    /// Number of measurements.
    pub n: usize,
    /// Smallest.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest.
    pub max: f64,
}

impl Samples {
    /// Summarises `values`; `None` when empty or any value is not finite.
    ///
    /// Quartiles follow Python's `statistics.quantiles(values, n=4)`
    /// (the exclusive method), so spreads computed here and by tooling
    /// around the benchmark agree. A single value is its own quartiles.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Samples> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let quartile = |i: usize| {
            if n == 1 {
                return sorted[0];
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            // May be negative or exceed 4 at the clamped ends, where the
            // exclusive method extrapolates; hence floats.
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Some(Samples {
            n,
            min: sorted[0],
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
            max: sorted[n - 1],
        })
    }

    /// The summary as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object([
            ("n", Json::from(self.n as u64)),
            ("min", Json::from(self.min)),
            ("q1", Json::from(self.q1)),
            ("median", Json::from(self.median)),
            ("q3", Json::from(self.q3)),
            ("max", Json::from(self.max)),
        ])
    }
}

/// A JSON value. Objects keep insertion order, so files diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what a non-finite number is written as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact count.
    Uint(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Uint(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member `key` of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member `key` of an object, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Object(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The members of an object (empty for any other value).
    #[must_use]
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Object(fields) => fields,
            _ => &[],
        }
    }

    /// The elements of an array (empty for any other value).
    #[must_use]
    pub fn elements(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            _ => &[],
        }
    }

    /// The value as a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Uint(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value on one line.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// The value indented two spaces per level, with a trailing newline.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * depth));
            }
        };
        // `[` or `{`, the items each on a line of its own when indenting,
        // and the closing bracket.
        let sequence = |out: &mut String,
                        (open, close): (char, char),
                        len: usize,
                        item: &mut dyn FnMut(&mut String, usize)| {
            out.push(open);
            for i in 0..len {
                if i > 0 {
                    out.push(',');
                    if indent.is_none() {
                        out.push(' ');
                    }
                }
                newline(out, depth + 1);
                item(out, i);
            }
            if len > 0 {
                newline(out, depth);
            }
            out.push(close);
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Json::Uint(v) => {
                let _ = write!(out, "{v}");
            }
            // `{:?}` prints the shortest digits that read back as the same
            // f64 — every digit measured, none invented — and keeps a
            // `.0` on whole numbers, so a float reads back as a float.
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => sequence(out, ('[', ']'), items.len(), &mut |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Object(fields) => sequence(out, ('{', '}'), fields.len(), &mut |out, i| {
                let (key, value) = &fields[i];
                write_string(out, key);
                out.push_str(": ");
                value.write(out, indent, depth + 1);
            }),
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns the byte offset and reason of the first syntax error;
    /// trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value(0)?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting beyond this is refused, so a hostile file cannot overflow the
/// parser's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON error at byte {}: {what}", self.at)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(literal.as_bytes());
        if hit {
            self.at += literal.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nested too deeply"));
        }
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => Err(self.error("unexpected end")),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Array(items));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected ',' or ']'"));
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.at) != Some(&b'"') {
                        return Err(self.error("expected a member name"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.error("expected ':'"));
                    }
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Object(fields));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected ',' or '}'"));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while matches!(
            self.bytes.get(self.at),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII digits");
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::Uint(v));
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => {
                self.at = start;
                Err(self.error("malformed number"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.at += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.at;
            while !matches!(self.bytes.get(self.at), None | Some(b'"' | b'\\')) {
                self.at += 1;
            }
            // The input is a `&str` and the run ends at an ASCII byte, so
            // it is valid UTF-8 on its own.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.at]).expect("UTF-8 run"));
            match self.bytes.get(self.at) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.at += 1;
                    let escape = self.bytes.get(self.at).copied();
                    self.at += 1;
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.at += 4;
                            out.push(hex);
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dear_observe::is_valid_json;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Samples::of(&ten).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
        let s = Samples::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
        let s = Samples::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(Samples::of(&[]), None);
        assert_eq!(Samples::of(&[1.0, f64::NAN]), None);
        let one = Samples::of(&[7.5]).unwrap();
        assert_eq!((one.n, one.q1, one.median, one.q3), (1, 7.5, 7.5, 7.5));
    }

    #[test]
    fn writer_escapes_and_output_is_valid_json() {
        let doc = Json::object([
            ("plain", Json::from("brake_diet")),
            (
                "nasty",
                Json::from("quote \" slash \\ newline \n tab \t bell \u{7} é"),
            ),
            ("count", Json::from(u64::MAX)),
            ("ratio", Json::from(75.990_005)),
            ("nan", Json::from(f64::NAN)),
            ("flag", Json::from(true)),
            ("none", Json::Null),
            ("empty", Json::Array(vec![])),
            ("samples", Samples::of(&[1.0, 2.0, 4.0]).unwrap().to_json()),
            (
                "list",
                Json::Array(vec![
                    Json::from(1u64),
                    Json::object([("k", Json::from(0.5))]),
                ]),
            ),
        ]);
        for text in [doc.to_line(), doc.to_pretty()] {
            assert!(is_valid_json(&text), "{text}");
        }
        assert!(doc
            .to_line()
            .contains(r#""quote \" slash \\ newline \n tab \t bell \u0007 é""#));
        assert!(!doc.to_line().contains('\n'));
        assert!(doc.to_line().contains("\"nan\": null"));
    }

    #[test]
    fn reader_round_trips_the_writer() {
        let doc = Json::object([
            ("s", Json::from("a\"b\\c\n\u{1}é")),
            ("u", Json::from(42u64)),
            ("f", Json::from(-1.25e-7)),
            ("a", Json::Array(vec![Json::Null, Json::from(false)])),
            ("o", Json::object([("inner", Json::from(3.5))])),
        ]);
        assert_eq!(Json::parse(&doc.to_line()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
        assert_eq!(doc.get("u").and_then(Json::as_f64), Some(42.0));
        assert_eq!(doc.get("o").unwrap().members().len(), 1);
        assert_eq!(doc.get("a").unwrap().elements().len(), 2);
        assert_eq!(doc.get("s").unwrap().as_str(), Some("a\"b\\c\n\u{1}é"));
        assert_eq!(Json::parse(r#""\u00e9\/""#).unwrap(), Json::from("é/"));
    }

    #[test]
    fn reader_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{a: 1}",
            "\"open",
            "\"\\x\"",
            "\"\\u12\"",
            "1 2",
            "--1",
            "tru",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
    }
}
