//! Justification-comment detection.
//!
//! A pass that honors an escape comment (today only `probe-purity`'s
//! `// alloc:`) uses this scanner: a `// <marker> <reason>` comment
//! either trailing on the flagged line or anywhere in the contiguous
//! comment/attribute block immediately above it. The marker is a
//! parameter, so a justification silences only the pass that asks for
//! its marker.

/// Whether the 1-based `line` of `text` carries a `// <marker>`
/// justification — trailing on the line itself, or in the contiguous
/// `//`-comment / `#[…]`-attribute block directly above it.
pub fn justified(text: &str, line: usize, marker: &str) -> bool {
    let lines: Vec<&str> = text.lines().collect();
    let i = line.saturating_sub(1);
    if lines
        .get(i)
        .and_then(|l| l.find("//").map(|idx| &l[idx..]))
        .is_some_and(|c| c.contains(marker))
    {
        return true;
    }
    let mut i = i;
    while i > 0 {
        let above = lines.get(i - 1).map_or("", |l| l.trim_start());
        if above.starts_with("//") || above.starts_with("#[") {
            if above.contains(marker) {
                return true;
            }
            i -= 1;
        } else {
            break;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::justified;

    #[test]
    fn trailing_marker_on_the_line_counts() {
        let text = "let a = 1;\nlet v = vec![0; n]; // alloc: one-time construction\n";
        assert!(justified(text, 2, "alloc:"));
        assert!(!justified(text, 1, "alloc:"));
    }

    #[test]
    fn comment_block_above_counts_through_attributes() {
        let text = "// alloc: built once per board\n#[allow(dead_code)]\nlet v = vec![0; n];\n";
        assert!(justified(text, 3, "alloc:"));
    }

    #[test]
    fn non_contiguous_comment_does_not_count() {
        let text = "// alloc: for the other line\n\nlet v = vec![0; n];\n";
        assert!(!justified(text, 3, "alloc:"));
    }

    #[test]
    fn markers_are_namespaced() {
        let text = "let v = vec![0; n]; // alloc: not a paper citation\n";
        assert!(justified(text, 1, "alloc:"));
        assert!(!justified(text, 1, "paper:"));
    }
}
