//! Source-file loading and the lexer-backed stripped views shared by the
//! passes.
//!
//! Every [`SourceFile`] carries its [`crate::lex`] token stream and
//! [`crate::items`] item tree, computed once at load. The stripped view
//! ([`library_code`]) is reconstructed from token spans, so string
//! literals, char literals, raw strings, and nested block comments are
//! all handled exactly — a `//` inside a string literal no longer
//! truncates the line. Blanking replaces bytes with spaces, preserving
//! both line numbers *and* columns, so reported spans stay true.

use crate::items::ItemSet;
use crate::lex::{lex, Token, TokenKind};

/// One library source file loaded into the lint [`crate::Context`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path, `/`-separated.
    pub rel: String,
    /// Raw file contents.
    pub text: String,
    /// Token stream of `text` (byte-complete: concatenating token spans
    /// reconstructs the file).
    pub tokens: Vec<Token>,
    /// Item tree extracted from the tokens.
    pub items: ItemSet,
    /// [`library_code`] view: comments and `#[cfg(test)]` items blanked.
    pub stripped: String,
}

impl SourceFile {
    /// Builds a file from its path and contents, computing the token
    /// stream, item tree, and stripped view.
    pub fn new(rel: impl Into<String>, text: impl Into<String>) -> Self {
        let rel = rel.into();
        let text = text.into();
        let tokens = lex(&text);
        let items = crate::items::parse_items(&rel, &text, &tokens);
        let stripped = strip_with(&text, &tokens, &items.cfg_test_spans);
        SourceFile {
            rel,
            text,
            tokens,
            items,
            stripped,
        }
    }

    /// The crate directory key this file belongs to: `crates/<name>/…` →
    /// `<name>`, `xtask/…` → `xtask`, the root `src/` → `dora-repro`.
    pub fn crate_key(&self) -> &str {
        if let Some(rest) = self.rel.strip_prefix("crates/") {
            rest.split('/').next().unwrap_or(rest)
        } else if self.rel.starts_with("xtask/") {
            "xtask"
        } else {
            "dora-repro"
        }
    }
}

/// Blanks `spans` (byte ranges) of `source` with spaces, preserving
/// newlines so line numbers and columns survive.
fn blank_spans(source: &str, spans: &[(usize, usize)]) -> String {
    let mut bytes = source.as_bytes().to_vec();
    for &(lo, hi) in spans {
        for b in bytes.iter_mut().take(hi.min(source.len())).skip(lo) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }
    // Only whole spans of non-newline bytes were replaced, so the result
    // is still valid UTF-8.
    String::from_utf8(bytes).unwrap_or_else(|_| source.to_string())
}

fn strip_with(source: &str, tokens: &[Token], cfg_test_spans: &[(usize, usize)]) -> String {
    let mut spans: Vec<(usize, usize)> = tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .map(|t| (t.lo, t.hi))
        .collect();
    spans.extend_from_slice(cfg_test_spans);
    blank_spans(source, &spans)
}

/// Returns `source` with comments and `#[cfg(test)]` items blanked out
/// (spaces, newlines kept), so line numbers *and* columns stay true.
///
/// Lexer-backed: a `//` inside a string literal is part of the string,
/// not a comment — the former line scanner's truncation bug is fixed.
pub fn library_code(source: &str) -> String {
    let tokens = lex(source);
    let items = crate::items::parse_items("", source, &tokens);
    strip_with(source, &tokens, &items.cfg_test_spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE_UNWRAP: &str = r#"
pub fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn in_tests_is_fine() {
        let x: Option<u8> = None;
        x.unwrap();
    }
}
"#;

    #[test]
    fn test_modules_are_blanked_but_lines_preserved() {
        let stripped = library_code(FIXTURE_UNWRAP);
        assert_eq!(stripped.lines().count(), FIXTURE_UNWRAP.lines().count());
        assert!(stripped.contains("read_to_string"));
        assert!(!stripped.contains("in_tests_is_fine"));
    }

    #[test]
    fn comments_are_blanked() {
        let stripped = library_code("/// Call `.unwrap()` at your peril.\nfn ok() {}\n");
        assert!(!stripped.contains("unwrap"));
        assert!(stripped.contains("fn ok"));
    }

    #[test]
    fn stripping_preserves_columns() {
        let src = "fn f() { /* note */ g(); }\n";
        let stripped = library_code(src);
        assert_eq!(stripped.len(), src.len());
        assert_eq!(src.find("g()"), stripped.find("g()"));
    }

    // Regression: the line-oriented scanner treated a `//` inside a
    // string literal as a comment and truncated the rest of the line.
    #[test]
    fn slashes_inside_strings_do_not_truncate() {
        let src = "let url = \"http://example.com\"; after_the_string();\n";
        let stripped = library_code(src);
        assert!(stripped.contains("after_the_string()"));
        assert!(stripped.contains("http://example.com"));
    }

    #[test]
    fn crate_key_maps_paths() {
        assert_eq!(
            SourceFile::new("crates/soc/src/dvfs.rs", "").crate_key(),
            "soc"
        );
        assert_eq!(
            SourceFile::new("xtask/src/main.rs", "").crate_key(),
            "xtask"
        );
        assert_eq!(SourceFile::new("src/lib.rs", "").crate_key(), "dora-repro");
    }
}
