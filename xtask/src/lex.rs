//! A dependency-free Rust lexer for the lint passes.
//!
//! Produces a complete token stream over raw source text: every byte of
//! the input is covered by exactly one token, so reconstructing the file
//! from token spans is byte-identical by construction (pinned for the
//! whole tree by `xtask/tests/lex_roundtrip.rs`). The lexer understands
//! the constructs the old line-oriented scans could not: raw strings
//! (`r#"…"#`), char/byte literals (`'\''`, `b'x'`), nested block
//! comments, lifetimes vs. char literals, and int/float literals with
//! suffixes (`1_000e-6f32`).
//!
//! Passes consume the stream through [`code_tokens`] (trivia and literal
//! *contents* filtered out by kind, so a `// TODO: panic!` comment or a
//! `"HashMap"` string can never produce a finding).

use std::fmt;

/// What one token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Spaces, tabs, newlines.
    Whitespace,
    /// `// …` to end of line (including `///` and `//!` doc comments).
    LineComment,
    /// `/* … */`, nesting handled.
    BlockComment,
    /// Identifier or keyword, including raw identifiers (`r#type`).
    Ident,
    /// `'a` / `'_` lifetime (no closing quote).
    Lifetime,
    /// `'x'` char literal, escapes handled.
    Char,
    /// `b'x'` byte literal.
    Byte,
    /// `"…"` string literal, escapes handled.
    Str,
    /// `b"…"` byte-string literal.
    ByteStr,
    /// `r"…"` / `r#"…"#` raw string literal.
    RawStr,
    /// `br"…"` / `br#"…"#` raw byte-string literal.
    RawByteStr,
    /// Integer literal, prefix and suffix included (`0xff_u32`).
    Int,
    /// Float literal, suffix included (`1_000e-6f32`).
    Float,
    /// One punctuation character (`::` is two `Punct` tokens).
    Punct,
    /// An unterminated literal or other byte the lexer could not place.
    /// The whole-tree round-trip test asserts none exist in the repo.
    Unknown,
}

impl TokenKind {
    /// Whether the token is whitespace or a comment.
    pub fn is_trivia(self) -> bool {
        matches!(
            self,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    }

    /// Whether the token is a string/char-like literal whose *contents*
    /// must never match a lint needle.
    pub fn is_textual_literal(self) -> bool {
        matches!(
            self,
            TokenKind::Char
                | TokenKind::Byte
                | TokenKind::Str
                | TokenKind::ByteStr
                | TokenKind::RawStr
                | TokenKind::RawByteStr
        )
    }
}

/// One token: a kind plus the `[lo, hi)` byte span in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Start byte offset (inclusive).
    pub lo: usize,
    /// End byte offset (exclusive).
    pub hi: usize,
}

impl Token {
    /// The token's text, sliced from the source it was lexed from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.lo..self.hi]
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{}..{}", self.kind, self.lo, self.hi)
    }
}

/// Maps byte offsets to 1-based `(line, column)` pairs.
///
/// Columns are 1-based byte offsets within the line, matching the spans
/// the line-oriented passes have always reported.
#[derive(Debug, Clone, Default)]
pub struct LineIndex {
    starts: Vec<usize>,
}

impl LineIndex {
    /// Builds the index for one source text.
    pub fn new(src: &str) -> Self {
        let mut starts = vec![0];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// The 1-based `(line, column)` of a byte offset.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = match self.starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line + 1, offset - self.starts[line] + 1)
    }

    /// The 1-based line of a byte offset.
    pub fn line(&self, offset: usize) -> usize {
        self.line_col(offset).0
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek_at(&self, n: usize) -> Option<char> {
        self.src[self.pos..].chars().nth(n)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn eat_while(&mut self, f: impl Fn(char) -> bool) {
        while let Some(c) = self.peek() {
            if f(c) {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    fn line_comment(&mut self) -> TokenKind {
        self.eat_while(|c| c != '\n');
        TokenKind::LineComment
    }

    fn block_comment(&mut self) -> TokenKind {
        // `/*` already consumed; nest until the matching `*/`.
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                Some('/') if self.peek() == Some('*') => {
                    self.bump();
                    depth += 1;
                }
                Some('*') if self.peek() == Some('/') => {
                    self.bump();
                    depth -= 1;
                }
                Some(_) => {}
                None => return TokenKind::Unknown,
            }
        }
        TokenKind::BlockComment
    }

    /// A `"…"` body; the opening quote is already consumed.
    fn double_quoted(&mut self) -> bool {
        while let Some(c) = self.bump() {
            match c {
                '"' => return true,
                '\\' => {
                    self.bump();
                }
                _ => {}
            }
        }
        false
    }

    /// A raw-string body starting at `r`'s hashes: `r##"…"##`.
    fn raw_string(&mut self) -> bool {
        let mut hashes = 0usize;
        while self.peek() == Some('#') {
            self.bump();
            hashes += 1;
        }
        if self.peek() != Some('"') {
            return false;
        }
        self.bump();
        loop {
            match self.bump() {
                Some('"') => {
                    let mut seen = 0usize;
                    while seen < hashes && self.peek() == Some('#') {
                        self.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        return true;
                    }
                }
                Some(_) => {}
                None => return false,
            }
        }
    }

    /// A `'…'` char/byte-literal body; the opening quote is consumed.
    fn single_quoted(&mut self) -> bool {
        // First char of the body (escape or plain), then scan to the
        // closing quote. A newline before the close means unterminated.
        loop {
            match self.peek() {
                Some('\'') => {
                    self.bump();
                    return true;
                }
                Some('\n') | None => return false,
                Some('\\') => {
                    self.bump();
                    self.bump();
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
    }

    /// `'` at `self.pos - 1`: lifetime or char literal.
    fn lifetime_or_char(&mut self) -> TokenKind {
        match (self.peek(), self.peek_at(1)) {
            // `'a'` is a char; `'a` (not followed by `'`) is a lifetime.
            (Some(c0), next) if is_ident_start(c0) && next != Some('\'') => {
                self.bump();
                self.eat_while(is_ident_continue);
                // `'ab'`-style (invalid but lexable) closes as a char.
                if self.peek() == Some('\'') {
                    self.bump();
                    TokenKind::Char
                } else {
                    TokenKind::Lifetime
                }
            }
            _ => {
                if self.single_quoted() {
                    TokenKind::Char
                } else {
                    TokenKind::Unknown
                }
            }
        }
    }

    fn number(&mut self, first: char) -> TokenKind {
        if first == '0' {
            if let Some(radix) = self.peek() {
                if matches!(radix, 'x' | 'o' | 'b') {
                    self.bump();
                    self.eat_while(|c| c.is_ascii_hexdigit() || c == '_');
                    self.eat_while(is_ident_continue); // suffix
                    return TokenKind::Int;
                }
            }
        }
        self.eat_while(|c| c.is_ascii_digit() || c == '_');
        let mut is_float = false;
        // A fractional part: `.` followed by a digit, or a trailing `1.`
        // (not `1..2`, not `1.max(2)`, not a tuple index context — those
        // leave the dot for the next token).
        if self.peek() == Some('.') {
            match self.peek_at(1) {
                Some(c) if c.is_ascii_digit() => {
                    self.bump();
                    self.eat_while(|c| c.is_ascii_digit() || c == '_');
                    is_float = true;
                }
                Some(c) if c == '.' || is_ident_start(c) => {}
                _ => {
                    self.bump();
                    is_float = true;
                }
            }
        }
        // An exponent: `e`/`E` with optional sign and at least one digit.
        if matches!(self.peek(), Some('e' | 'E')) {
            let sign = usize::from(matches!(self.peek_at(1), Some('+' | '-')));
            if self.peek_at(1 + sign).is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
                if sign == 1 {
                    self.bump();
                }
                self.eat_while(|c| c.is_ascii_digit() || c == '_');
                is_float = true;
            }
        }
        // Suffix (`u32`, `f64`, …): a float suffix forces Float.
        let suffix_start = self.pos;
        if self.peek().is_some_and(is_ident_start) {
            self.eat_while(is_ident_continue);
        }
        let suffix = &self.src[suffix_start..self.pos];
        if suffix == "f32" || suffix == "f64" {
            is_float = true;
        }
        if is_float {
            TokenKind::Float
        } else {
            TokenKind::Int
        }
    }

    fn next_kind(&mut self) -> TokenKind {
        let c = match self.bump() {
            Some(c) => c,
            None => return TokenKind::Unknown,
        };
        match c {
            c if c.is_whitespace() => {
                self.eat_while(char::is_whitespace);
                TokenKind::Whitespace
            }
            '/' => match self.peek() {
                Some('/') => self.line_comment(),
                Some('*') => {
                    self.bump();
                    self.block_comment()
                }
                _ => TokenKind::Punct,
            },
            'r' => match (self.peek(), self.peek_at(1)) {
                (Some('"'), _) | (Some('#'), Some('"' | '#')) => {
                    if self.raw_string() {
                        TokenKind::RawStr
                    } else {
                        TokenKind::Unknown
                    }
                }
                (Some('#'), Some(c1)) if is_ident_start(c1) => {
                    // Raw identifier `r#type`.
                    self.bump();
                    self.eat_while(is_ident_continue);
                    TokenKind::Ident
                }
                _ => {
                    self.eat_while(is_ident_continue);
                    TokenKind::Ident
                }
            },
            'b' => match (self.peek(), self.peek_at(1)) {
                (Some('\''), _) => {
                    self.bump();
                    if self.single_quoted() {
                        TokenKind::Byte
                    } else {
                        TokenKind::Unknown
                    }
                }
                (Some('"'), _) => {
                    self.bump();
                    if self.double_quoted() {
                        TokenKind::ByteStr
                    } else {
                        TokenKind::Unknown
                    }
                }
                (Some('r'), Some('"' | '#')) => {
                    self.bump();
                    if self.raw_string() {
                        TokenKind::RawByteStr
                    } else {
                        TokenKind::Unknown
                    }
                }
                _ => {
                    self.eat_while(is_ident_continue);
                    TokenKind::Ident
                }
            },
            '"' => {
                if self.double_quoted() {
                    TokenKind::Str
                } else {
                    TokenKind::Unknown
                }
            }
            '\'' => self.lifetime_or_char(),
            c if c.is_ascii_digit() => self.number(c),
            c if is_ident_start(c) => {
                self.eat_while(is_ident_continue);
                TokenKind::Ident
            }
            _ => TokenKind::Punct,
        }
    }
}

/// Lexes a whole source text into a complete token stream.
///
/// Every byte of `src` belongs to exactly one token; concatenating
/// `token.text(src)` over the result reproduces `src` byte-for-byte.
pub fn lex(src: &str) -> Vec<Token> {
    let mut lexer = Lexer { src, pos: 0 };
    let mut out = Vec::new();
    while lexer.pos < src.len() {
        let lo = lexer.pos;
        let kind = lexer.next_kind();
        debug_assert!(lexer.pos > lo, "lexer must make progress");
        out.push(Token {
            kind,
            lo,
            hi: lexer.pos,
        });
    }
    out
}

/// Indexes (into `tokens`) of the non-trivia tokens, in order.
///
/// This is the stream the pattern helpers walk: comments and whitespace
/// are gone, but string/char literals remain as opaque single tokens so
/// their *kind* can be checked without their contents ever matching.
pub fn code_tokens(tokens: &[Token]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.kind.is_trivia())
        .map(|(i, _)| i)
        .collect()
}

/// Parses the numeric value of an [`TokenKind::Int`] or
/// [`TokenKind::Float`] token's text (underscores and suffix stripped).
pub fn literal_value(text: &str) -> Option<f64> {
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    let cleaned = cleaned
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches("usize")
        .trim_end_matches("isize");
    let cleaned = match cleaned.find(['u', 'i']) {
        // `10u32` / `3i64`-style integer suffixes (not hex digits: hex
        // literals carry an `0x` prefix and no `u`/`i` in their digits).
        Some(pos) if pos > 0 && !cleaned.starts_with("0x") && !cleaned.starts_with("0o") => {
            &cleaned[..pos]
        }
        _ => cleaned,
    };
    if let Some(hex) = cleaned.strip_prefix("0x") {
        return u64::from_str_radix(hex, 16).ok().map(|v| v as f64);
    }
    if let Some(oct) = cleaned.strip_prefix("0o") {
        return u64::from_str_radix(oct, 8).ok().map(|v| v as f64);
    }
    if let Some(bin) = cleaned.strip_prefix("0b") {
        return u64::from_str_radix(bin, 2).ok().map(|v| v as f64);
    }
    cleaned.parse::<f64>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src)
            .into_iter()
            .filter(|t| !t.kind.is_trivia())
            .map(|t| t.kind)
            .collect()
    }

    fn texts(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| !t.kind.is_trivia())
            .map(|t| t.text(src).to_string())
            .collect()
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let src = "fn f() -> f64 { r#\"raw // not comment\"# ; '\\'' }\n";
        let tokens = lex(src);
        let rebuilt: String = tokens.iter().map(|t| t.text(src)).collect();
        assert_eq!(rebuilt, src);
        assert!(tokens.iter().all(|t| t.kind != TokenKind::Unknown));
    }

    #[test]
    fn raw_strings_and_hashes() {
        assert_eq!(kinds("r\"a\""), vec![TokenKind::RawStr]);
        assert_eq!(kinds("r#\"a \"quoted\" b\"#"), vec![TokenKind::RawStr]);
        assert_eq!(kinds("r##\"nested \"# inside\"##"), vec![TokenKind::RawStr]);
        assert_eq!(kinds("br#\"bytes\"#"), vec![TokenKind::RawByteStr]);
        // Raw identifiers are idents, and a plain `r` stays an ident.
        assert_eq!(kinds("r#type"), vec![TokenKind::Ident]);
        assert_eq!(kinds("r"), vec![TokenKind::Ident]);
        assert_eq!(kinds("rate"), vec![TokenKind::Ident]);
    }

    #[test]
    fn chars_bytes_and_lifetimes() {
        assert_eq!(kinds("'a'"), vec![TokenKind::Char]);
        assert_eq!(kinds("'\\''"), vec![TokenKind::Char]);
        assert_eq!(kinds("'\\u{1F600}'"), vec![TokenKind::Char]);
        assert_eq!(kinds("b'x'"), vec![TokenKind::Byte]);
        assert_eq!(
            kinds("&'a str"),
            vec![TokenKind::Punct, TokenKind::Lifetime, TokenKind::Ident]
        );
        assert_eq!(kinds("'static"), vec![TokenKind::Lifetime]);
        // A `'a'` directly after a lifetime-looking prefix is a char.
        assert_eq!(texts("'a' + 'b'"), vec!["'a'", "+", "'b'"]);
    }

    #[test]
    fn comments_nest_and_strings_hide_comment_markers() {
        assert_eq!(kinds("/* a /* b */ c */ x"), vec![TokenKind::Ident]);
        let src = "let u = \"https://example.com\"; done";
        let toks = lex(src);
        assert!(toks.iter().all(|t| t.kind != TokenKind::LineComment));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Str && t.text(src).contains("//")));
    }

    #[test]
    fn numbers_with_suffixes_and_exponents() {
        assert_eq!(kinds("1_000e-6f32"), vec![TokenKind::Float]);
        assert_eq!(kinds("0.30e-9"), vec![TokenKind::Float]);
        assert_eq!(kinds("1f64"), vec![TokenKind::Float]);
        assert_eq!(kinds("42u32"), vec![TokenKind::Int]);
        assert_eq!(kinds("0xff_u8"), vec![TokenKind::Int]);
        assert_eq!(kinds("1_000_000"), vec![TokenKind::Int]);
        // `x.0` is a dot + int (tuple index), `1..2` is int, dots, int,
        // `1.max(2)` keeps the dot for the method call.
        assert_eq!(
            kinds("x.0"),
            vec![TokenKind::Ident, TokenKind::Punct, TokenKind::Int]
        );
        assert_eq!(texts("1..2"), vec!["1", ".", ".", "2"]);
        assert_eq!(texts("1.max(2)")[0], "1");
        assert_eq!(texts("1. + 2.")[0], "1.");
    }

    #[test]
    fn literal_values_parse() {
        assert_eq!(literal_value("1_000e-6f32"), Some(1_000e-6));
        assert_eq!(literal_value("0.30e-9"), Some(0.30e-9));
        assert_eq!(literal_value("0xff"), Some(255.0));
        assert_eq!(literal_value("42u32"), Some(42.0));
        assert_eq!(literal_value("12"), Some(12.0));
    }

    #[test]
    fn line_index_maps_offsets() {
        let idx = LineIndex::new("ab\ncd\n");
        assert_eq!(idx.line_col(0), (1, 1));
        assert_eq!(idx.line_col(1), (1, 2));
        assert_eq!(idx.line_col(3), (2, 1));
        assert_eq!(idx.line_col(5), (2, 3));
    }
}
