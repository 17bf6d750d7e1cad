//! A name-resolution-lite intra-workspace call graph over the
//! [`crate::items`] item tree.
//!
//! Resolution is deliberately conservative (an *under*-approximation):
//! an edge is added only when a call site resolves unambiguously —
//! same-module names, `use`-imported paths, explicit `crate::` /
//! `self::` / `super::` / workspace-crate paths, `Self::` and
//! `Type::assoc` lookups, and method calls whose bare name is unique
//! across the workspace *and* whose defining crate is a dependency of
//! the caller's crate (the manifest graph filters junk edges).
//! Unresolved calls simply add no edge, which the reachability passes
//! treat as "unknown", never as proof of absence.
//!
//! Everything is ordered by file-load order, so traversals and reported
//! paths are deterministic.

use crate::items::FnItem;
use crate::lex::TokenKind;
use crate::Context;
use std::collections::BTreeMap;

/// One function in the workspace-wide graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the file in `Context::files`.
    pub file: usize,
    /// Repo-relative path of that file.
    pub rel: String,
    /// The crate directory key (`soc`, `xtask`, …).
    pub crate_key: String,
    /// The extracted item.
    pub item: FnItem,
}

/// Forward/backward reachability with parent links for path reporting.
#[derive(Debug)]
pub struct Reach {
    visited: Vec<bool>,
    parent: Vec<usize>,
}

impl Reach {
    /// Whether `node` was reached.
    pub fn contains(&self, node: usize) -> bool {
        self.visited.get(node).copied().unwrap_or(false)
    }

    /// The path from a start node to `node` (inclusive), following
    /// parent links; `None` if unreached.
    pub fn path_to(&self, node: usize) -> Option<Vec<usize>> {
        if !self.contains(node) {
            return None;
        }
        let mut path = vec![node];
        let mut cur = node;
        while self.parent[cur] != cur {
            cur = self.parent[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// The call graph: nodes plus forward (`callees`) and reverse
/// (`callers`) adjacency, both sorted and deduplicated.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All functions, in file-load then declaration order.
    pub nodes: Vec<FnNode>,
    /// `callees[i]` — indices of functions `i`'s body calls.
    pub callees: Vec<Vec<usize>>,
    /// `callers[i]` — indices of functions whose bodies call `i`.
    pub callers: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph for a loaded [`Context`].
    pub fn build(cx: &Context) -> CallGraph {
        Builder::new(cx).build()
    }

    /// Breadth-first forward reachability (caller → callee) from
    /// `starts`.
    pub fn forward(&self, starts: &[usize]) -> Reach {
        self.bfs(starts, &self.callees)
    }

    /// Breadth-first reverse reachability (callee → caller) from
    /// `starts`.
    pub fn backward(&self, starts: &[usize]) -> Reach {
        self.bfs(starts, &self.callers)
    }

    fn bfs(&self, starts: &[usize], adj: &[Vec<usize>]) -> Reach {
        let mut reach = Reach {
            visited: vec![false; self.nodes.len()],
            parent: (0..self.nodes.len()).collect(),
        };
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &s in starts {
            if s < self.nodes.len() && !reach.visited[s] {
                reach.visited[s] = true;
                queue.push_back(s);
            }
        }
        while let Some(cur) = queue.pop_front() {
            for &next in &adj[cur] {
                if !reach.visited[next] {
                    reach.visited[next] = true;
                    reach.parent[next] = cur;
                    queue.push_back(next);
                }
            }
        }
        reach
    }

    /// Renders a node path as `a::b -> c::d`.
    pub fn render_path(&self, path: &[usize]) -> String {
        path.iter()
            .map(|&i| self.nodes[i].item.qual.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

struct Builder<'a> {
    cx: &'a Context,
    nodes: Vec<FnNode>,
    /// bare name → node indices (non-test only).
    by_name: BTreeMap<String, Vec<usize>>,
    /// (self type, name) → node indices.
    by_assoc: BTreeMap<(String, String), Vec<usize>>,
    /// (crate key, module path, name) → node indices (free fns).
    by_module: BTreeMap<(String, String, String), Vec<usize>>,
    /// (file index, alias) → full use path.
    use_map: BTreeMap<(usize, String), Vec<String>>,
    /// (struct name, field name) → `(crate key, rendered field type)`
    /// candidates, for typed receiver resolution of `self.field.method()`.
    field_types: BTreeMap<(String, String), Vec<(String, String)>>,
    /// crate ident (`dora_soc`) → crate key (`soc`).
    crate_idents: BTreeMap<String, String>,
    /// crate key → dependency crate keys (including itself).
    deps: BTreeMap<String, Vec<String>>,
}

fn manifest_key(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or(rest).to_string()
    } else if path.starts_with("xtask/") {
        "xtask".to_string()
    } else {
        "dora-repro".to_string()
    }
}

impl<'a> Builder<'a> {
    fn new(cx: &'a Context) -> Self {
        Builder {
            cx,
            nodes: Vec::new(),
            by_name: BTreeMap::new(),
            by_assoc: BTreeMap::new(),
            by_module: BTreeMap::new(),
            use_map: BTreeMap::new(),
            field_types: BTreeMap::new(),
            crate_idents: BTreeMap::new(),
            deps: BTreeMap::new(),
        }
    }

    fn build(mut self) -> CallGraph {
        // Manifest-derived crate identity and dependency filter.
        let mut pkg_to_key: BTreeMap<&str, String> = BTreeMap::new();
        for m in &self.cx.manifests {
            pkg_to_key.insert(m.name.as_str(), manifest_key(&m.path));
        }
        for m in &self.cx.manifests {
            let key = manifest_key(&m.path);
            self.crate_idents
                .insert(m.name.replace('-', "_"), key.clone());
            let mut dep_keys = vec![key.clone()];
            for d in &m.deps {
                if let Some(k) = pkg_to_key.get(d.name.as_str()) {
                    dep_keys.push(k.clone());
                }
            }
            dep_keys.sort();
            dep_keys.dedup();
            self.deps.insert(key, dep_keys);
        }

        // Nodes and lookup maps.
        for (file_idx, file) in self.cx.files.iter().enumerate() {
            let crate_key = file.crate_key().to_string();
            for item in &file.items.fns {
                let idx = self.nodes.len();
                if !item.in_test {
                    self.by_name.entry(item.name.clone()).or_default().push(idx);
                    if let Some(ty) = &item.self_ty {
                        self.by_assoc
                            .entry((ty.clone(), item.name.clone()))
                            .or_default()
                            .push(idx);
                    } else {
                        // Module path is everything in the qual between
                        // the crate key and the name.
                        let module = qual_module(&item.qual);
                        self.by_module
                            .entry((crate_key.clone(), module, item.name.clone()))
                            .or_default()
                            .push(idx);
                    }
                }
                self.nodes.push(FnNode {
                    file: file_idx,
                    rel: file.rel.clone(),
                    crate_key: crate_key.clone(),
                    item: item.clone(),
                });
            }
            for u in &file.items.uses {
                self.use_map
                    .insert((file_idx, u.alias.clone()), u.path.clone());
            }
            for s in &file.items.structs {
                if s.in_test {
                    continue;
                }
                for f in &s.fields {
                    self.field_types
                        .entry((s.name.clone(), f.name.clone()))
                        .or_default()
                        .push((crate_key.clone(), f.ty.clone()));
                }
            }
        }

        // Edges.
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (caller, callee_list) in callees.iter_mut().enumerate() {
            for callee in self.scan_body(caller) {
                callee_list.push(callee);
                callers[callee].push(caller);
            }
        }
        for list in callees.iter_mut().chain(callers.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }
        CallGraph {
            nodes: self.nodes,
            callees,
            callers,
        }
    }

    /// Extracts resolved call edges from one function body.
    fn scan_body(&self, caller: usize) -> Vec<usize> {
        let node = &self.nodes[caller];
        let Some((body_lo, body_hi)) = node.item.body else {
            return Vec::new();
        };
        let file = &self.cx.files[node.file];
        let src = file.text.as_str();
        let code: Vec<usize> = (body_lo..body_hi.min(file.tokens.len()))
            .filter(|&i| !file.tokens[i].kind.is_trivia())
            .collect();
        let text = |p: usize| -> &str { code.get(p).map_or("", |&i| file.tokens[i].text(src)) };
        let kind = |p: usize| -> Option<TokenKind> { code.get(p).map(|&i| file.tokens[i].kind) };
        let is_p = |p: usize, s: &str| kind(p) == Some(TokenKind::Punct) && text(p) == s;

        let mut out = Vec::new();
        let mut j = 0;
        while j < code.len() {
            if kind(j) != Some(TokenKind::Ident) {
                j += 1;
                continue;
            }
            // Macro invocation: `name!(…)` — no edge, skip the bang.
            if is_p(j + 1, "!") {
                j += 2;
                continue;
            }
            let is_method = j > 0 && is_p(j - 1, ".");
            // Collect `seg(::seg)*`.
            let mut segs = vec![text(j).to_string()];
            let mut k = j;
            loop {
                if is_p(k + 1, ":") && is_p(k + 2, ":") {
                    if kind(k + 3) == Some(TokenKind::Ident) {
                        segs.push(text(k + 3).to_string());
                        k += 3;
                        continue;
                    }
                    // Turbofish `::<…>` — segments end here.
                    if is_p(k + 3, "<") {
                        let mut depth = 0i64;
                        let mut q = k + 3;
                        while q < code.len() {
                            match text(q) {
                                "<" => depth += 1,
                                ">" => depth -= 1,
                                _ => {}
                            }
                            q += 1;
                            if depth <= 0 {
                                break;
                            }
                        }
                        k = q - 1;
                    }
                }
                break;
            }
            // A call site is a path followed by `(`.
            if is_p(k + 1, "(") {
                // For bare method calls, try to type the receiver from
                // the tokens just before the dot: `self.m(…)` uses the
                // impl self type, `self.field.m(…)` the field's declared
                // type, `param.m(…)` the parameter's type. Chains through
                // locals or call results stay untyped (`None`).
                let recv_ty: Option<String> = if is_method && segs.len() == 1 {
                    let ident_at = |p: usize| p < j && kind(p) == Some(TokenKind::Ident);
                    if j >= 2 && ident_at(j - 2) && text(j - 2) == "self" {
                        node.item.self_ty.clone()
                    } else if j >= 4
                        && ident_at(j - 2)
                        && is_p(j - 3, ".")
                        && ident_at(j - 4)
                        && text(j - 4) == "self"
                        && !(j >= 5 && is_p(j - 5, "."))
                    {
                        node.item
                            .self_ty
                            .as_deref()
                            .and_then(|st| self.field_type(node, st, text(j - 2)))
                    } else if j >= 2
                        && ident_at(j - 2)
                        && !(j >= 3 && (is_p(j - 3, ".") || is_p(j - 3, ":")))
                    {
                        let name = text(j - 2);
                        node.item
                            .params
                            .iter()
                            .find(|(n, _)| n == name)
                            .map(|(_, ty)| ty.clone())
                    } else {
                        None
                    }
                } else {
                    None
                };
                if let Some(callee) = self.resolve(
                    caller,
                    &segs,
                    is_method && segs.len() == 1,
                    recv_ty.as_deref(),
                ) {
                    out.push(callee);
                }
            }
            j = k + 1;
        }
        out
    }

    fn allowed(&self, caller_key: &str, callee_key: &str) -> bool {
        match self.deps.get(caller_key) {
            Some(keys) => keys.iter().any(|k| k == callee_key),
            // Synthetic fixture contexts carry no manifests: permissive.
            None => true,
        }
    }

    fn resolve(
        &self,
        caller: usize,
        segs: &[String],
        is_method: bool,
        recv_ty: Option<&str>,
    ) -> Option<usize> {
        let node = &self.nodes[caller];
        if is_method {
            // Typed receiver: look the method up on the receiver type's
            // impls directly, which disambiguates names like `merge`
            // that several sketch types share.
            if let Some(head) = recv_ty.and_then(type_head) {
                if let Some(found) = self.resolve_assoc(node, &head, &segs[0]) {
                    return Some(found);
                }
            }
            // Bare method name: resolve only when globally unique among
            // workspace methods and the defining crate is a dependency.
            let candidates = self.by_name.get(&segs[0])?;
            let viable: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| {
                    self.nodes[i].item.self_ty.is_some()
                        && self.allowed(&node.crate_key, &self.nodes[i].crate_key)
                })
                .collect();
            return match viable.as_slice() {
                [one] => Some(*one),
                _ => None,
            };
        }

        // Expand a leading `use` alias for this file.
        let mut segs: Vec<String> = segs.to_vec();
        if let Some(path) = self.use_map.get(&(node.file, segs[0].clone())) {
            let mut expanded = path.clone();
            expanded.extend(segs.into_iter().skip(1));
            segs = expanded;
        }

        let caller_mods = qual_module_vec(&node.item.qual);
        let (crate_key, mods): (String, Vec<String>) = match segs[0].as_str() {
            "crate" => (node.crate_key.clone(), segs[1..].to_vec()),
            "self" => {
                let mut m = caller_mods.clone();
                m.extend(segs[1..].iter().cloned());
                (node.crate_key.clone(), m)
            }
            "super" => {
                let mut m = caller_mods.clone();
                m.pop();
                m.extend(segs[1..].iter().cloned());
                (node.crate_key.clone(), m)
            }
            "Self" => {
                let ty = node.item.self_ty.clone()?;
                let name = segs.last()?.clone();
                return self.resolve_assoc(node, &ty, &name);
            }
            first => {
                if let Some(key) = self.crate_idents.get(first) {
                    (key.clone(), segs[1..].to_vec())
                } else if segs.len() == 1 {
                    // Bare name: same module, then unique free fn.
                    let name = &segs[0];
                    if let Some(found) =
                        self.lookup_module(&node.crate_key, &caller_mods.join("::"), name)
                    {
                        return Some(found);
                    }
                    let viable: Vec<usize> = self
                        .by_name
                        .get(name)?
                        .iter()
                        .copied()
                        .filter(|&i| {
                            self.nodes[i].item.self_ty.is_none()
                                && self.allowed(&node.crate_key, &self.nodes[i].crate_key)
                        })
                        .collect();
                    return match viable.as_slice() {
                        [one] => Some(*one),
                        _ => None,
                    };
                } else {
                    // Relative path: resolve against the current module
                    // first, then the crate root.
                    let name = segs.last()?.clone();
                    let rel_mods = &segs[..segs.len() - 1];
                    let mut with_cur = caller_mods.clone();
                    with_cur.extend(rel_mods.iter().cloned());
                    let target = (node.crate_key.clone(), with_cur);
                    let (ck, m) = target;
                    if let Some(found) = self.lookup_path(node, &ck, &m, &name) {
                        return Some(found);
                    }
                    (node.crate_key.clone(), rel_mods.to_vec())
                }
            }
        };
        // The match arms keep the final (name) segment in `mods`; split
        // it back off.
        let name = segs.last()?.clone();
        let mods = if mods.last() == Some(&name) {
            mods[..mods.len() - 1].to_vec()
        } else {
            mods
        };
        self.lookup_path(node, &crate_key, &mods, &name)
    }

    /// Module-map then associated-fn lookup for a canonicalized path.
    fn lookup_path(
        &self,
        node: &FnNode,
        crate_key: &str,
        mods: &[String],
        name: &str,
    ) -> Option<usize> {
        if !self.allowed(&node.crate_key, crate_key) {
            return None;
        }
        if let Some(found) = self.lookup_module(crate_key, &mods.join("::"), name) {
            return Some(found);
        }
        // `path::Type::assoc` — the last segment before the name is a
        // type if it starts uppercase.
        if let Some(ty) = mods.last() {
            if ty.chars().next().is_some_and(char::is_uppercase) {
                return self.resolve_assoc(node, ty, name);
            }
        }
        None
    }

    fn lookup_module(&self, crate_key: &str, module: &str, name: &str) -> Option<usize> {
        self.by_module
            .get(&(crate_key.to_string(), module.to_string(), name.to_string()))
            .and_then(|v| v.first().copied())
    }

    /// The declared type of `field` on the struct named `self_ty`, when
    /// exactly one visible candidate exists.
    fn field_type(&self, node: &FnNode, self_ty: &str, field: &str) -> Option<String> {
        let cands = self
            .field_types
            .get(&(self_ty.to_string(), field.to_string()))?;
        let viable: Vec<&(String, String)> = cands
            .iter()
            .filter(|(ck, _)| self.allowed(&node.crate_key, ck))
            .collect();
        match viable.as_slice() {
            [one] => Some(one.1.clone()),
            _ => None,
        }
    }

    fn resolve_assoc(&self, node: &FnNode, ty: &str, name: &str) -> Option<usize> {
        let candidates = self.by_assoc.get(&(ty.to_string(), name.to_string()))?;
        let viable: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| self.allowed(&node.crate_key, &self.nodes[i].crate_key))
            .collect();
        viable.first().copied()
    }
}

/// The head type name of a rendered type: strips reference sigils,
/// lifetimes, and `mut`/`dyn`/`impl` qualifiers, then takes the leading
/// ident (`&'a mut Running` → `Running`, `Vec<T>` → `Vec`). `None` for
/// tuples, slices, and fn-pointer shapes.
fn type_head(ty: &str) -> Option<String> {
    let mut s = ty.trim_start_matches('&').trim_start();
    loop {
        if s.starts_with('\'') {
            s = s.split_once(' ').map_or("", |(_, rest)| rest).trim_start();
            continue;
        }
        let mut stripped = false;
        for kw in ["mut ", "dyn ", "impl "] {
            if let Some(rest) = s.strip_prefix(kw) {
                s = rest.trim_start();
                stripped = true;
            }
        }
        if !stripped {
            break;
        }
    }
    let head: String = s
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!head.is_empty() && !head.chars().next().is_some_and(|c| c.is_ascii_digit())).then_some(head)
}

/// The `::`-joined module path inside a qual (between crate key and
/// name), excluding any `Type` segment is *not* attempted — quals for
/// free functions only.
fn qual_module(qual: &str) -> String {
    qual_module_vec(qual).join("::")
}

fn qual_module_vec(qual: &str) -> Vec<String> {
    let parts: Vec<&str> = qual.split("::").collect();
    if parts.len() <= 2 {
        return Vec::new();
    }
    parts[1..parts.len() - 1]
        .iter()
        .filter(|s| !s.chars().next().is_some_and(char::is_uppercase))
        .map(|s| (*s).to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn graph(files: Vec<SourceFile>) -> CallGraph {
        let cx = Context {
            files,
            ..Context::default()
        };
        CallGraph::build(&cx)
    }

    fn idx(g: &CallGraph, qual: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.item.qual == qual)
            .unwrap_or_else(|| panic!("no node {qual}"))
    }

    #[test]
    fn same_module_and_cross_crate_calls_resolve() {
        let soc = SourceFile::new(
            "crates/soc/src/power.rs",
            "pub fn dynamic(util: f64) -> f64 {\n    leak(util)\n}\nfn leak(u: f64) -> f64 {\n    u\n}\n",
        );
        let gov = SourceFile::new(
            "crates/governors/src/lib.rs",
            "use dora_soc::power;\n\npub fn decide() -> f64 {\n    dora_soc::power::dynamic(0.5)\n}\n",
        );
        let g = graph(vec![soc, gov]);
        let dynamic = idx(&g, "soc::power::dynamic");
        let leak = idx(&g, "soc::power::leak");
        assert!(g.callees[dynamic].contains(&leak));
        // Cross-crate path calls need the crate ident registered via a
        // manifest; without manifests the `dora_soc` head is unknown and
        // conservatively unresolved.
        let decide = idx(&g, "governors::decide");
        assert!(g.callees[decide].is_empty());
    }

    #[test]
    fn crate_and_super_paths_resolve() {
        let f1 = SourceFile::new(
            "crates/soc/src/board.rs",
            "pub fn step() {\n    crate::thermal::advance();\n}\n",
        );
        let f2 = SourceFile::new(
            "crates/soc/src/thermal.rs",
            "pub fn advance() {}\n\nmod inner {\n    fn helper() {\n        super::advance();\n    }\n}\n",
        );
        let g = graph(vec![f1, f2]);
        let step = idx(&g, "soc::board::step");
        let advance = idx(&g, "soc::thermal::advance");
        let helper = idx(&g, "soc::thermal::inner::helper");
        assert!(g.callees[step].contains(&advance));
        assert!(g.callees[helper].contains(&advance));
        assert!(g.callers[advance].contains(&step));
    }

    #[test]
    fn use_alias_and_assoc_fn_resolve() {
        let lib = SourceFile::new(
            "crates/modeling/src/linalg.rs",
            "pub struct Solver;\nimpl Solver {\n    pub fn solve() {}\n}\npub fn entry() {\n    Solver::solve();\n}\n",
        );
        let user = SourceFile::new(
            "crates/campaign/src/run.rs",
            "use crate::other::stage as run_stage;\n\npub fn go() {\n    run_stage();\n}\n",
        );
        let other = SourceFile::new("crates/campaign/src/other.rs", "pub fn stage() {}\n");
        let g = graph(vec![lib, user, other]);
        let entry = idx(&g, "modeling::linalg::entry");
        let solve = idx(&g, "modeling::linalg::Solver::solve");
        assert!(g.callees[entry].contains(&solve));
        let go = idx(&g, "campaign::run::go");
        let stage = idx(&g, "campaign::other::stage");
        assert!(g.callees[go].contains(&stage));
    }

    #[test]
    fn unique_method_calls_resolve_but_ambiguous_do_not() {
        let a = SourceFile::new(
            "crates/soc/src/a.rs",
            "pub struct T;\nimpl T {\n    pub fn unique_step(&self) {}\n    pub fn new() -> T {\n        T\n    }\n}\npub fn run(t: &T) {\n    t.unique_step();\n}\n",
        );
        let b = SourceFile::new(
            "crates/governors/src/lib.rs",
            "pub struct U;\nimpl U {\n    pub fn new() -> U {\n        U\n    }\n}\n",
        );
        let g = graph(vec![a, b]);
        let run = idx(&g, "soc::a::run");
        let step = idx(&g, "soc::a::T::unique_step");
        assert!(g.callees[run].contains(&step));
        // `new` exists on two types: the bare method form would be
        // ambiguous; neither is linked from `run`.
        assert_eq!(g.callees[run].len(), 1);
    }

    #[test]
    fn typed_receivers_disambiguate_shared_method_names() {
        let f = SourceFile::new(
            "crates/soc/src/m.rs",
            "pub struct Hist {\n    pub n: u64,\n}\nimpl Hist {\n    pub fn merge(&mut self, other: &Hist) {\n        let _ = other;\n    }\n}\npub struct Sheet {\n    pub hist: Hist,\n}\nimpl Sheet {\n    pub fn merge(&mut self, other: &Sheet) {\n        self.hist.merge(&other.hist);\n    }\n}\npub fn fold(acc: &mut Sheet, next: &Sheet) {\n    acc.merge(next);\n}\n",
        );
        let g = graph(vec![f]);
        let sheet_merge = idx(&g, "soc::m::Sheet::merge");
        let hist_merge = idx(&g, "soc::m::Hist::merge");
        let fold = idx(&g, "soc::m::fold");
        // `self.hist.merge(…)` types the receiver through the field
        // index; `acc.merge(…)` through the parameter list. Both names
        // are ambiguous under the bare unique-name rule.
        assert!(g.callees[sheet_merge].contains(&hist_merge));
        assert!(g.callees[fold].contains(&sheet_merge));
        assert!(!g.callees[fold].contains(&hist_merge));
    }

    #[test]
    fn type_head_strips_sigils() {
        assert_eq!(type_head("&'a mut Running").as_deref(), Some("Running"));
        assert_eq!(
            type_head("&FixedHistogram").as_deref(),
            Some("FixedHistogram")
        );
        assert_eq!(type_head("Vec<T>").as_deref(), Some("Vec"));
        assert_eq!(type_head("(f64,f64)"), None);
        assert_eq!(type_head("[u64;4]"), None);
    }

    #[test]
    fn test_functions_do_not_pollute_resolution() {
        let f = SourceFile::new(
            "crates/soc/src/t.rs",
            "pub fn only_caller() {\n    helper();\n}\nfn helper() {}\n\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n",
        );
        let g = graph(vec![f]);
        let caller = idx(&g, "soc::t::only_caller");
        let helper = idx(&g, "soc::t::helper");
        assert!(g.callees[caller].contains(&helper));
    }
}
