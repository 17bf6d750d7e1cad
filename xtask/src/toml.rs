//! A dependency-free parser for the TOML subset `xtask.toml` uses.
//!
//! Supported: `[table]` headers, bare and quoted keys, string / integer /
//! float / boolean values, and (nested, multi-line) arrays. Unsupported on
//! purpose: dotted keys, arrays of tables, datetimes, multi-line strings.
//! The goal is a config file humans edit, not TOML conformance; anything
//! outside the subset is a parse error, never a silent misread.

use std::collections::BTreeMap;

/// How deeply arrays may nest. Each level is one recursive call, so the
/// cap keeps a hostile input from overflowing the stack; the config
/// itself nests two deep.
const MAX_ARRAY_DEPTH: usize = 64;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array of values (possibly nested).
    Array(Vec<Value>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric payload, accepting either float or integer syntax.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// A document: table name → (key → value). Keys defined before any
/// `[table]` header land in the `""` table.
pub type Document = BTreeMap<String, BTreeMap<String, Value>>;

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("xtask.toml:{}: {msg}", self.line)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    /// Skips whitespace, newlines and `#` comments.
    fn skip_trivia(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'#' => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    /// Skips spaces and tabs only (not newlines).
    fn skip_inline(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.bump();
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.bump(); // opening quote
                     // Bytes, not chars: a multi-byte UTF-8 character arrives one byte
                     // at a time and is decoded once the string closes.
        let mut out = Vec::new();
        loop {
            // Peek before bumping so the reported line is the one the
            // string started on, not the line after the stray newline.
            match self.peek() {
                None | Some(b'\n') => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.bump();
                    return String::from_utf8(out).map_err(|_| self.err("string is not UTF-8"));
                }
                Some(b'\\') => {
                    self.bump();
                    match self.bump() {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        _ => return Err(self.err("unsupported escape in string")),
                    }
                }
                Some(b) => {
                    self.bump();
                    out.push(b);
                }
            }
        }
    }

    fn parse_bare(&mut self) -> String {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b'+') {
                self.bump();
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn parse_key(&mut self) -> Result<String, String> {
        if self.peek() == Some(b'"') {
            self.parse_string()
        } else {
            let key = self.parse_bare();
            if key.is_empty() {
                Err(self.err("expected a key"))
            } else {
                Ok(key)
            }
        }
    }

    /// Parses one value; `depth` counts the arrays it sits inside.
    fn parse_value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                if depth == MAX_ARRAY_DEPTH {
                    return Err(
                        self.err(&format!("arrays nest deeper than {MAX_ARRAY_DEPTH} levels"))
                    );
                }
                self.bump();
                let mut items = Vec::new();
                loop {
                    self.skip_trivia();
                    if self.peek() == Some(b']') {
                        self.bump();
                        return Ok(Value::Array(items));
                    }
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_trivia();
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                        }
                        Some(b']') => {}
                        _ => return Err(self.err("expected `,` or `]` in array")),
                    }
                }
            }
            Some(_) => {
                let tok = self.parse_bare();
                if tok == "true" {
                    Ok(Value::Bool(true))
                } else if tok == "false" {
                    Ok(Value::Bool(false))
                } else if let Ok(i) = tok.replace('_', "").parse::<i64>() {
                    Ok(Value::Int(i))
                } else if let Ok(f) = tok.parse::<f64>() {
                    Ok(Value::Float(f))
                } else {
                    Err(self.err(&format!("unrecognized value `{tok}`")))
                }
            }
            None => Err(self.err("expected a value")),
        }
    }

    fn parse_document(&mut self) -> Result<Document, String> {
        let mut doc: Document = BTreeMap::new();
        let mut table = String::new();
        loop {
            self.skip_trivia();
            match self.peek() {
                None => return Ok(doc),
                Some(b'[') => {
                    self.bump();
                    self.skip_inline();
                    table = self.parse_key()?;
                    self.skip_inline();
                    if self.bump() != Some(b']') {
                        return Err(self.err("expected `]` after table name"));
                    }
                    doc.entry(table.clone()).or_default();
                }
                Some(_) => {
                    let key = self.parse_key()?;
                    self.skip_inline();
                    if self.bump() != Some(b'=') {
                        return Err(self.err(&format!("expected `=` after key `{key}`")));
                    }
                    self.skip_inline();
                    let value = self.parse_value(0)?;
                    let entries = doc.entry(table.clone()).or_default();
                    if entries.insert(key.clone(), value).is_some() {
                        return Err(self.err(&format!("duplicate key `{key}` in `[{table}]`")));
                    }
                }
            }
        }
    }
}

/// Parses a document; errors carry a `xtask.toml:<line>` prefix.
pub fn parse(src: &str) -> Result<Document, String> {
    Parser::new(src).parse_document()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_keys_and_scalars() {
        let doc =
            parse("top = 1\n[levels]\nfoo-bar = \"warn\"\nn = 3\nf = 2.5\nok = true\n# comment\n")
                .expect("parses");
        assert_eq!(doc[""]["top"], Value::Int(1));
        assert_eq!(doc["levels"]["foo-bar"].as_str(), Some("warn"));
        assert_eq!(doc["levels"]["f"].as_float(), Some(2.5));
        assert_eq!(doc["levels"]["ok"], Value::Bool(true));
    }

    #[test]
    fn quoted_keys_hold_paths() {
        let doc = parse("[budget]\n\"crates/soc/src/board.rs\" = 6\n").expect("parses");
        assert_eq!(doc["budget"]["crates/soc/src/board.rs"].as_int(), Some(6));
    }

    #[test]
    fn nested_multiline_arrays() {
        let doc = parse("[layering]\nlayers = [\n  [\"a\", \"b\"], # layer 0\n  [\"c\"],\n]\n")
            .expect("parses");
        let layers = doc["layering"]["layers"].as_array().expect("array");
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].as_array().expect("inner")[1].as_str(), Some("b"));
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = parse("a = 1\na = 2\n").expect_err("duplicate");
        assert!(err.contains("duplicate key `a`"), "{err}");
    }

    #[test]
    fn non_ascii_strings_read_back_unchanged() {
        let doc = parse("[t]\na = \"é → ∑ 🦀\"\n\"clé\" = 1\n").expect("parses");
        assert_eq!(doc["t"]["a"].as_str(), Some("é → ∑ 🦀"));
        assert_eq!(doc["t"]["clé"].as_int(), Some(1));
    }

    #[test]
    fn array_nesting_is_capped_without_recursing_past_the_cap() {
        let nested = |depth: usize| format!("a = {}{}\n", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_ARRAY_DEPTH)).is_ok());
        let err = parse(&nested(MAX_ARRAY_DEPTH + 1)).expect_err("too deep");
        assert!(err.contains("arrays nest deeper than 64 levels"), "{err}");
        // Unbounded recursion overflowed a 2 MiB test thread's stack here.
        let err = parse(&format!("a = {}", "[".repeat(100_000))).expect_err("too deep");
        assert!(err.starts_with("xtask.toml:1:"), "{err}");
    }

    #[test]
    fn unterminated_string_is_an_error_with_line() {
        let err = parse("a = \"oops\n").expect_err("unterminated");
        assert!(err.starts_with("xtask.toml:1:"), "{err}");
    }
}
