//! The config boundary never panics: `toml::parse` and
//! `Config::from_toml` return `Ok` or `Err` on any text, both on
//! arbitrary strings and on soups of the characters the mini-TOML
//! grammar gives meaning to.

use proptest::prelude::*;
use xtask::{toml, Config};

/// The grammar's structural characters, plus letters and digits so
/// keys, tables and scalars form.
const SOUP: &[char] = &[
    '[', ']', '=', '"', ',', '#', '\\', '\n', ' ', 'a', 'z', 'e', '0', '7', '-', '.',
];

/// Both entry points return, and a config that parses is a document that
/// parses.
fn check(src: &str) -> Result<(), TestCaseError> {
    let doc = toml::parse(src);
    let config = Config::from_toml(src);
    prop_assert!(
        config.is_err() || doc.is_ok(),
        "config parsed where the document did not: {src:?}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary Unicode, including multi-byte characters.
    #[test]
    fn arbitrary_strings_never_panic(points in prop::collection::vec(0u32..0x2_0000, 0..64)) {
        let src: String = points
            .iter()
            .map(|&p| char::from_u32(p).unwrap_or('\u{fffd}'))
            .collect();
        check(&src)?;
    }

    /// Token soup: tables, keys, strings, escapes and arrays in any order.
    #[test]
    fn token_soups_never_panic(picks in prop::collection::vec(0usize..SOUP.len(), 0..96)) {
        let src: String = picks.iter().map(|&i| SOUP[i]).collect();
        check(&src)?;
    }
}
