//! Workspace-graph extraction from `Cargo.toml` manifests.
//!
//! A line-oriented scan, not a full TOML parse: the workspace's manifests
//! are rustfmt-simple (`name = "…"` under `[package]`, one dependency per
//! line under `[dependencies]` / `[dev-dependencies]`), and keeping the
//! scan dumb keeps line numbers attached to every dependency edge so the
//! layering pass can point at the offending line. The same scan records
//! whether the package inherits the workspace lints.

/// One dependency edge as written in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEntry {
    /// The dependency's package name (the table key).
    pub name: String,
    /// 1-based line in the manifest where the edge is declared.
    pub line: usize,
    /// Whether the edge is a `[dev-dependencies]` entry.
    pub dev: bool,
}

/// One workspace member's manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Package name (`[package] name`).
    pub name: String,
    /// Repo-relative path of the `Cargo.toml`, `/`-separated.
    pub path: String,
    /// Declared dependencies, in file order.
    pub deps: Vec<DepEntry>,
    /// Whether the manifest has `workspace = true` under `[lints]`.
    pub workspace_lints: bool,
}

impl Manifest {
    /// Normal (non-dev) dependency names.
    pub fn normal_deps(&self) -> impl Iterator<Item = &DepEntry> {
        self.deps.iter().filter(|d| !d.dev)
    }
}

/// Parses one manifest. Returns `None` when the file declares no
/// `[package]` (e.g. a virtual manifest).
pub fn parse_manifest(path: &str, text: &str) -> Option<Manifest> {
    #[derive(PartialEq)]
    enum Section {
        Package,
        Deps,
        DevDeps,
        Lints,
        Other,
    }
    let mut section = Section::Other;
    let mut name: Option<String> = None;
    let mut deps = Vec::new();
    let mut workspace_lints = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = match line {
                "[package]" => Section::Package,
                "[dependencies]" => Section::Deps,
                "[dev-dependencies]" => Section::DevDeps,
                "[lints]" => Section::Lints,
                _ => Section::Other,
            };
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match section {
            Section::Package => {
                if let Some(rest) = line.strip_prefix("name") {
                    let rest = rest.trim_start();
                    if let Some(v) = rest.strip_prefix('=') {
                        name = Some(v.trim().trim_matches('"').to_string());
                    }
                }
            }
            Section::Deps | Section::DevDeps => {
                // `dora-soc.workspace = true`, `foo = { path = ".." }`,
                // `foo = "1"` — the key ends at the first `.`, space or `=`.
                let key: String = line
                    .chars()
                    .take_while(|c| !matches!(c, '.' | ' ' | '=' | '\t'))
                    .collect();
                let key = key.trim_matches('"').to_string();
                if !key.is_empty() {
                    deps.push(DepEntry {
                        name: key,
                        line: i + 1,
                        dev: section == Section::DevDeps,
                    });
                }
            }
            Section::Lints => {
                let compact: String = line.chars().filter(|c| !c.is_whitespace()).collect();
                workspace_lints |= compact == "workspace=true";
            }
            Section::Other => {}
        }
    }
    Some(Manifest {
        name: name?,
        path: path.to_string(),
        deps,
        workspace_lints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
[package]
name = "dora-governors"
version.workspace = true

[dependencies]
dora-sim-core.workspace = true
dora-soc = { path = "../soc" }

[dev-dependencies]
proptest.workspace = true

[lints]
workspace = true
"#;

    #[test]
    fn package_and_edges_with_lines() {
        let m = parse_manifest("crates/governors/Cargo.toml", SAMPLE).expect("package");
        assert_eq!(m.name, "dora-governors");
        assert_eq!(m.deps.len(), 3);
        assert_eq!(m.deps[0].name, "dora-sim-core");
        assert_eq!(m.deps[0].line, 7);
        assert!(!m.deps[0].dev);
        assert_eq!(m.deps[1].name, "dora-soc");
        assert!(m.deps[2].dev);
        assert_eq!(m.normal_deps().count(), 2);
        assert!(m.workspace_lints);
        let bare = SAMPLE.replace("[lints]\nworkspace = true\n", "");
        assert!(
            !parse_manifest("crates/governors/Cargo.toml", &bare)
                .expect("package")
                .workspace_lints
        );
    }

    #[test]
    fn virtual_manifest_is_none() {
        assert!(parse_manifest("Cargo.toml", "[workspace]\nmembers = []\n").is_none());
    }
}
