//! Shared justification-comment detection.
//!
//! Every pass that honors an escape comment uses this one scanner: a
//! `// <marker> <reason>` comment either trailing on the flagged line
//! or anywhere in the contiguous comment/attribute block immediately
//! above it. Markers are namespaced per lint (`units:`, `merge:`,
//! `alloc:`) so a justification silences exactly one pass.

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
        let text = "let a = 1;\nlet b = t.value() * p.value(); // units: intentional\n";
        assert!(justified(text, 2, "units:"));
        assert!(!justified(text, 1, "units:"));
    }

    #[test]
    fn comment_block_above_counts_through_attributes() {
        let text =
            "// units: raw product feeds the CSV column\n#[allow(dead_code)]\nlet b = t * p;\n";
        assert!(justified(text, 3, "units:"));
    }

    #[test]
    fn non_contiguous_comment_does_not_count() {
        let text = "// units: for the other line\n\nlet b = t * p;\n";
        assert!(!justified(text, 3, "units:"));
    }

    #[test]
    fn markers_are_namespaced() {
        let text = "let b = t * p; // units: not a merge escape\n";
        assert!(justified(text, 1, "units:"));
        assert!(!justified(text, 1, "merge:"));
    }
}
