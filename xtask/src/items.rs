//! An item tree over the token stream: `fn` / `impl` / `mod` / `const` /
//! `struct` declarations with visibility, lines, and crate-qualified
//! paths.
//!
//! This is deliberately *not* a full Rust parser: it walks the
//! [`crate::lex`] token stream tracking the module/impl/trait scope
//! stack, records the declarations the passes care about, and skips
//! everything else with balanced-bracket scans. Macro *definitions* are
//! skipped as token soup; macro *invocations* at item position are
//! skipped balanced, as are function bodies; `use` and `type` items are
//! skipped to their `;`.
//!
//! Qualified names (`FnItem::qual`) use the crate *directory* key
//! (`soc`, not `dora-soc`) followed by the `::`-joined module path
//! derived from the file location plus any inline `mod` nesting, then
//! the `impl`/`trait` self type, then the item name — e.g.
//! `soc::thermal::ThermalModel::step`. Diagnostics name items by them.

use crate::lex::{Token, TokenKind};

/// How an item is declared visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// Bare `pub`.
    Pub,
    /// `pub(crate)` / `pub(super)` / `pub(in …)`.
    Restricted,
    /// No visibility keyword.
    Private,
}

/// One function (free, method, or trait default).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The bare function name.
    pub name: String,
    /// Crate-qualified path (`soc::thermal::ThermalModel::step`).
    pub qual: String,
    /// 1-based declaration line.
    pub line: usize,
    /// Declared visibility.
    pub vis: Vis,
    /// The surrounding `impl`/`trait` self type, if any.
    pub self_ty: Option<String>,
    /// Whether the item lives under `#[cfg(test)]` or `#[test]`.
    pub in_test: bool,
    /// Parsed `(name, type)` pairs for each parameter (`self` receivers
    /// appear as `("self", …)`).
    pub params: Vec<(String, String)>,
    /// Rendered return type (empty for `()`-returning functions).
    pub ret: String,
}

/// One `const` or `static` item.
#[derive(Debug, Clone)]
pub struct ConstItem {
    /// Item name (`_` for anonymous const assertions).
    pub name: String,
    /// 1-based declaration line.
    pub line: usize,
    /// 1-based line of the item's final token.
    pub end_line: usize,
    /// Whether the item lives under `#[cfg(test)]`.
    pub in_test: bool,
    /// Token-index range `[lo, hi)` of the initializer (after `=`).
    pub init: (usize, usize),
}

/// One named field of a struct.
#[derive(Debug, Clone)]
pub struct FieldItem {
    /// Field name.
    pub name: String,
    /// 1-based line.
    pub line: usize,
    /// Declared visibility.
    pub vis: Vis,
    /// Rendered type text.
    pub ty: String,
}

/// One struct declaration. Named-field structs carry their fields;
/// tuple and unit structs carry none, since a positional field has no
/// name for a pass to check.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Whether the item lives under `#[cfg(test)]`.
    pub in_test: bool,
    /// Fields, in declaration order.
    pub fields: Vec<FieldItem>,
}

/// Everything extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct ItemSet {
    /// Functions, in declaration order.
    pub fns: Vec<FnItem>,
    /// `const`/`static` items.
    pub consts: Vec<ConstItem>,
    /// Struct declarations.
    pub structs: Vec<StructItem>,
    /// Byte spans of `#[cfg(test)]`-gated regions (attribute through
    /// closing brace or semicolon), for stripping and scoping.
    pub cfg_test_spans: Vec<(usize, usize)>,
}

/// The `(crate key, module path)` a file's items root at:
/// `crates/soc/src/thermal.rs` → `("soc", ["thermal"])`,
/// `crates/campaign/src/fleet/mod.rs` → `("campaign", ["fleet"])`,
/// `src/lib.rs` → `("dora-repro", [])`.
pub fn file_module_path(rel: &str) -> (String, Vec<String>) {
    let (crate_key, rest) = if let Some(rest) = rel.strip_prefix("crates/") {
        let mut parts = rest.splitn(2, '/');
        let key = parts.next().unwrap_or(rest).to_string();
        (key, parts.next().unwrap_or(""))
    } else if let Some(rest) = rel.strip_prefix("xtask/") {
        ("xtask".to_string(), rest)
    } else {
        ("dora-repro".to_string(), rel)
    };
    let rest = rest.strip_prefix("src/").unwrap_or(rest);
    let mut modules: Vec<String> = Vec::new();
    for seg in rest.split('/') {
        let seg = seg.strip_suffix(".rs").unwrap_or(seg);
        if seg.is_empty() || seg == "lib" || seg == "main" || seg == "mod" {
            continue;
        }
        modules.push(seg.to_string());
    }
    (crate_key, modules)
}

#[derive(Debug, Clone)]
enum Scope {
    Mod { name: Option<String>, test: bool },
    ImplOrTrait { self_ty: String, test: bool },
}

struct Parser<'a> {
    src: &'a str,
    tokens: &'a [Token],
    code: Vec<usize>,
    pos: usize,
    line_of: Vec<usize>,
    out: ItemSet,
    crate_key: String,
    root_mods: Vec<String>,
    scopes: Vec<Scope>,
}

impl<'a> Parser<'a> {
    fn tok(&self, code_pos: usize) -> Option<&Token> {
        self.code.get(code_pos).map(|&i| &self.tokens[i])
    }

    fn is_p(&self, code_pos: usize, s: &str) -> bool {
        self.tok(code_pos)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text(self.src) == s)
    }

    fn is_ident(&self, code_pos: usize, s: &str) -> bool {
        self.tok(code_pos)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text(self.src) == s)
    }

    fn any_ident(&self, code_pos: usize) -> Option<&str> {
        self.tok(code_pos)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text(self.src))
    }

    fn line_at(&self, code_pos: usize) -> usize {
        self.code.get(code_pos).map_or(1, |&i| self.line_of[i])
    }

    fn in_test_scope(&self) -> bool {
        self.scopes.iter().any(|s| match s {
            Scope::Mod { test, .. } | Scope::ImplOrTrait { test, .. } => *test,
        })
    }

    fn module_path(&self) -> Vec<String> {
        let mut path = self.root_mods.clone();
        for s in &self.scopes {
            if let Scope::Mod {
                name: Some(name), ..
            } = s
            {
                path.push(name.clone());
            }
        }
        path
    }

    fn self_ty(&self) -> Option<String> {
        self.scopes.iter().rev().find_map(|s| match s {
            Scope::ImplOrTrait { self_ty, .. } => Some(self_ty.clone()),
            _ => None,
        })
    }

    fn qual(&self, name: &str) -> String {
        let mut parts = vec![self.crate_key.clone()];
        parts.extend(self.module_path());
        if let Some(ty) = self.self_ty() {
            parts.push(ty);
        }
        parts.push(name.to_string());
        parts.join("::")
    }

    /// Skips one balanced bracket group starting at an opening token;
    /// returns the code-pos just past the matching closer.
    ///
    /// Angle brackets participate only when the group itself opens with
    /// `<` (a generics context, where `->`'s `>` is guarded). Groups
    /// opened by `(`/`[`/`{` contain *expressions*, where bare `<` /
    /// `<<` comparisons would desync an angle counter, so only the
    /// bracket kinds are balanced there — any generics inside are
    /// bracket-balanced on their own.
    fn skip_balanced(&self, mut pos: usize) -> usize {
        let angles = self.is_p(pos, "<");
        let mut depth = 0i64;
        let mut prev_minus = false;
        while let Some(tok) = self.tok(pos) {
            let text = tok.text(self.src);
            if tok.kind == TokenKind::Punct {
                match text {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "<" if angles => depth += 1,
                    ">" if angles && !prev_minus => depth -= 1,
                    _ => {}
                }
                prev_minus = text == "-";
            } else {
                prev_minus = false;
            }
            pos += 1;
            if depth <= 0 {
                break;
            }
        }
        pos
    }

    /// Skips `<…>` generics if present at `pos`.
    fn skip_generics(&self, pos: usize) -> usize {
        if self.is_p(pos, "<") {
            self.skip_balanced(pos)
        } else {
            pos
        }
    }

    /// Consumes attributes at `pos`; returns `(next pos, saw cfg(test)
    /// or #[test], attr start code-pos if any)`.
    fn skip_attrs(&self, mut pos: usize) -> (usize, bool, Option<usize>) {
        let mut test = false;
        let mut start = None;
        loop {
            let bang = usize::from(self.is_p(pos + 1, "!"));
            if self.is_p(pos, "#") && self.is_p(pos + 1 + bang, "[") {
                if start.is_none() {
                    start = Some(pos);
                }
                let end = self.skip_balanced(pos + 1 + bang);
                let mut has_cfg = false;
                let mut has_test_word = false;
                for p in pos..end {
                    if self.is_ident(p, "cfg") {
                        has_cfg = true;
                    }
                    if self.is_ident(p, "test") {
                        has_test_word = true;
                    }
                }
                // `#[cfg(test)]`, `#[cfg(any(test, …))]`, `#[test]`.
                if has_test_word && (has_cfg || end - pos == 3 + bang) {
                    test = true;
                }
                pos = end;
            } else {
                return (pos, test, start);
            }
        }
    }

    /// Consumes a visibility marker at `pos`.
    fn skip_vis(&self, pos: usize) -> (usize, Vis) {
        if self.is_ident(pos, "pub") {
            if self.is_p(pos + 1, "(") {
                (self.skip_balanced(pos + 1), Vis::Restricted)
            } else {
                (pos + 1, Vis::Pub)
            }
        } else {
            (pos, Vis::Private)
        }
    }

    /// Splits a parameter list token range into `(name, type)` pairs.
    fn parse_params(&self, span: (usize, usize)) -> Vec<(String, String)> {
        let mut params = Vec::new();
        let mut depth = 0i64;
        let mut prev_minus = false;
        let mut part_start = span.0;
        let mut cuts = Vec::new();
        for pos in span.0..span.1 {
            let Some(tok) = self.tok(pos) else { break };
            let text = tok.text(self.src);
            if tok.kind == TokenKind::Punct {
                match text {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ">" if !prev_minus => depth -= 1,
                    "," if depth == 0 => cuts.push(pos),
                    _ => {}
                }
                prev_minus = text == "-";
            } else {
                prev_minus = false;
            }
        }
        cuts.push(span.1);
        for cut in cuts {
            let piece = (part_start, cut);
            part_start = cut + 1;
            if piece.1 <= piece.0 {
                continue;
            }
            params.push(self.parse_one_param(piece));
        }
        params
    }

    fn parse_one_param(&self, span: (usize, usize)) -> (String, String) {
        // Self receivers: `self`, `&self`, `&mut self`, `&'a mut self`.
        let mut has_colon_at = None;
        let mut depth = 0i64;
        let mut prev_minus = false;
        for pos in span.0..span.1 {
            let Some(tok) = self.tok(pos) else { break };
            let text = tok.text(self.src);
            if tok.kind == TokenKind::Punct {
                match text {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ">" if !prev_minus => depth -= 1,
                    ":" if depth == 0
                        && !self.is_p(pos + 1, ":")
                        && !self.is_p(pos.wrapping_sub(1), ":") =>
                    {
                        has_colon_at = Some(pos);
                    }
                    _ => {}
                }
                prev_minus = text == "-";
            } else {
                prev_minus = false;
            }
            if has_colon_at.is_some() {
                break;
            }
        }
        let Some(colon) = has_colon_at else {
            // Receiver shorthand; render the whole thing as the type.
            let ty = self.render(span);
            return ("self".to_string(), ty);
        };
        // Name: strip `mut` / `ref`; non-identifier patterns become `_`.
        let mut name = String::from("_");
        for pos in span.0..colon {
            if let Some(id) = self.any_ident(pos) {
                if id != "mut" && id != "ref" {
                    name = id.to_string();
                }
            } else {
                name = String::from("_");
                break;
            }
        }
        (name, self.render((colon + 1, span.1)))
    }

    fn render(&self, span: (usize, usize)) -> String {
        let idxs: Vec<usize> = (span.0..span.1)
            .filter_map(|p| self.code.get(p).copied())
            .collect();
        let mut out = String::new();
        let mut prev_wordy = false;
        for i in idxs {
            let tok = &self.tokens[i];
            let text = tok.text(self.src);
            let wordy = matches!(
                tok.kind,
                TokenKind::Ident | TokenKind::Int | TokenKind::Float | TokenKind::Lifetime
            );
            if prev_wordy && wordy && !out.is_empty() {
                out.push(' ');
            }
            out.push_str(text);
            prev_wordy = wordy;
        }
        out
    }

    fn record_cfg_test_span(&mut self, attr_start: usize, end_pos: usize) {
        let lo = self.code.get(attr_start).map(|&i| self.tokens[i].lo);
        let hi = end_pos
            .checked_sub(1)
            .and_then(|p| self.code.get(p))
            .map(|&i| self.tokens[i].hi);
        if let (Some(lo), Some(hi)) = (lo, hi) {
            self.out.cfg_test_spans.push((lo, hi));
        }
    }

    fn parse_fn(&mut self, kw_pos: usize, vis: Vis, test: bool) {
        let name_pos = kw_pos + 1;
        let Some(name) = self.any_ident(name_pos).map(str::to_string) else {
            self.pos = kw_pos + 1;
            return;
        };
        let line = self.line_at(kw_pos);
        let mut pos = self.skip_generics(name_pos + 1);
        let mut params_span = (pos, pos);
        if self.is_p(pos, "(") {
            let end = self.skip_balanced(pos);
            params_span = (pos + 1, end.saturating_sub(1));
            pos = end;
        }
        // Return type: after `->`, until `{` / `;` / `where`.
        let mut ret_span = (pos, pos);
        if self.is_p(pos, "-") && self.is_p(pos + 1, ">") {
            let start = pos + 2;
            let mut p = start;
            let mut depth = 0i64;
            let mut prev_minus = false;
            while let Some(tok) = self.tok(p) {
                let text = tok.text(self.src);
                if tok.kind == TokenKind::Punct {
                    match text {
                        "(" | "[" | "<" => depth += 1,
                        ")" | "]" => depth -= 1,
                        ">" if !prev_minus => depth -= 1,
                        "{" if depth <= 0 => break,
                        ";" if depth <= 0 => break,
                        _ => {}
                    }
                    prev_minus = text == "-";
                } else {
                    prev_minus = false;
                    if depth <= 0 && (text == "where") {
                        break;
                    }
                }
                p += 1;
            }
            ret_span = (start, p);
            pos = p;
        }
        // Skip a `where` clause.
        while let Some(tok) = self.tok(pos) {
            let text = tok.text(self.src);
            if tok.kind == TokenKind::Punct && (text == "{" || text == ";") {
                break;
            }
            pos += 1;
        }
        pos = if self.is_p(pos, "{") {
            self.skip_balanced(pos)
        } else {
            pos + 1 // the `;`
        };
        let params = self.parse_params(params_span);
        let ret = self.render(ret_span);
        let item = FnItem {
            qual: self.qual(&name),
            name,
            line,
            vis,
            self_ty: self.self_ty(),
            in_test: test || self.in_test_scope(),
            params,
            ret,
        };
        self.out.fns.push(item);
        self.pos = pos;
    }

    fn parse_const(&mut self, kw_pos: usize, test: bool) {
        // `const NAME: Ty = init;` / `static [mut] NAME: Ty = init;`
        let mut pos = kw_pos + 1;
        if self.is_ident(pos, "mut") {
            pos += 1;
        }
        let name = match self.tok(pos) {
            Some(t) if t.kind == TokenKind::Ident => t.text(self.src).to_string(),
            Some(t) if t.kind == TokenKind::Punct && t.text(self.src) == "_" => "_".to_string(),
            _ => {
                self.pos = pos;
                return;
            }
        };
        let line = self.line_at(kw_pos);
        // Phase 1 — the type, up to the `=` at depth 0. Angle-aware:
        // associated bindings (`dyn Iterator<Item = u32>`) hide their
        // `=` at angle depth > 0.
        let mut depth = 0i64;
        let mut prev_minus = false;
        let mut init_start = None;
        let mut end = pos;
        let mut p = pos + 1;
        while let Some(tok) = self.tok(p) {
            let text = tok.text(self.src);
            if tok.kind == TokenKind::Punct {
                match text {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ">" if !prev_minus => depth -= 1,
                    "=" if depth == 0 && !self.is_p(p + 1, "=") => {
                        init_start = Some(p + 1);
                        p += 1;
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
                prev_minus = text == "-";
            } else {
                prev_minus = false;
            }
            p += 1;
        }
        // Phase 2 — the initializer *expression*, up to the `;` at
        // bracket depth 0. Brackets only: `1 << 4` or `a < b` would
        // desync an angle counter here.
        let mut depth = 0i64;
        while let Some(tok) = self.tok(p) {
            let text = tok.text(self.src);
            if tok.kind == TokenKind::Punct {
                match text {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth == 0 => {
                        end = p;
                        break;
                    }
                    _ => {}
                }
            }
            p += 1;
        }
        let init = (init_start.unwrap_or(end), end);
        let item = ConstItem {
            name,
            line,
            end_line: self.line_at(end),
            in_test: test || self.in_test_scope(),
            init: (
                self.code.get(init.0).copied().unwrap_or(0),
                self.code.get(init.1).copied().unwrap_or(0),
            ),
        };
        self.out.consts.push(item);
        self.pos = end + 1;
    }

    fn parse_struct(&mut self, kw_pos: usize, test: bool) {
        if self.any_ident(kw_pos + 1).is_none() {
            self.pos = kw_pos + 1;
            return;
        }
        let mut pos = self.skip_generics(kw_pos + 2);
        // Skip a `where` clause.
        while let Some(tok) = self.tok(pos) {
            let text = tok.text(self.src);
            if tok.kind == TokenKind::Punct && (text == "{" || text == "(" || text == ";") {
                break;
            }
            pos += 1;
        }
        let mut fields = Vec::new();
        if self.is_p(pos, "{") {
            let end = self.skip_balanced(pos);
            let mut p = pos + 1;
            while p < end.saturating_sub(1) {
                let (after_attrs, _, _) = self.skip_attrs(p);
                let (after_vis, fvis) = self.skip_vis(after_attrs);
                if let Some(fname) = self.any_ident(after_vis) {
                    if self.is_p(after_vis + 1, ":") {
                        // Type runs to the `,` or `}` at depth 0.
                        let ty_start = after_vis + 2;
                        let mut depth = 0i64;
                        let mut prev_minus = false;
                        let mut q = ty_start;
                        while q < end.saturating_sub(1) {
                            let Some(tok) = self.tok(q) else { break };
                            let text = tok.text(self.src);
                            if tok.kind == TokenKind::Punct {
                                match text {
                                    "(" | "[" | "{" | "<" => depth += 1,
                                    ")" | "]" | "}" => depth -= 1,
                                    ">" if !prev_minus => depth -= 1,
                                    "," if depth == 0 => break,
                                    _ => {}
                                }
                                prev_minus = text == "-";
                            } else {
                                prev_minus = false;
                            }
                            q += 1;
                        }
                        fields.push(FieldItem {
                            name: fname.to_string(),
                            line: self.line_at(after_vis),
                            vis: fvis,
                            ty: self.render((ty_start, q)),
                        });
                        p = q + 1;
                        continue;
                    }
                }
                p += 1;
            }
            pos = end;
        } else if self.is_p(pos, "(") {
            // Tuple struct: its fields are positional, so none is kept.
            pos = self.skip_balanced(pos);
            // Skip any trailing `where` clause up to the `;`.
            while let Some(tok) = self.tok(pos) {
                if tok.kind == TokenKind::Punct && tok.text(self.src) == ";" {
                    pos += 1;
                    break;
                }
                pos += 1;
            }
        } else if self.is_p(pos, ";") {
            pos += 1;
        }
        self.out.structs.push(StructItem {
            in_test: test || self.in_test_scope(),
            fields,
        });
        self.pos = pos;
    }

    fn parse_impl_or_trait(&mut self, kw_pos: usize, test: bool, is_trait: bool) {
        let mut pos = if is_trait {
            // `trait Name …` / `trait Name<…>: Bound {`
            kw_pos + 1
        } else {
            self.skip_generics(kw_pos + 1)
        };
        // Collect the self type: the last depth-0 identifier before
        // `{` / `where`; a `for` resets (trait impl: type follows).
        let mut self_ty = String::new();
        let mut depth = 0i64;
        let mut prev_minus = false;
        while let Some(tok) = self.tok(pos) {
            let text = tok.text(self.src);
            if tok.kind == TokenKind::Punct {
                match text {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ">" if !prev_minus => depth -= 1,
                    "{" if depth <= 0 => break,
                    ";" if depth <= 0 => break,
                    _ => {}
                }
                prev_minus = text == "-";
            } else {
                prev_minus = false;
                if depth <= 0 {
                    match text {
                        "where" => break,
                        "for" => self_ty.clear(),
                        _ if tok.kind == TokenKind::Ident
                            && !matches!(text, "dyn" | "mut" | "const" | "unsafe") =>
                        {
                            self_ty = text.to_string();
                        }
                        _ => {}
                    }
                }
            }
            pos += 1;
        }
        // Skip any `where` clause to the opening brace.
        while let Some(tok) = self.tok(pos) {
            let text = tok.text(self.src);
            if tok.kind == TokenKind::Punct && (text == "{" || text == ";") {
                break;
            }
            pos += 1;
        }
        if self.is_p(pos, "{") {
            self.scopes.push(Scope::ImplOrTrait { self_ty, test });
            self.pos = pos + 1;
        } else {
            self.pos = pos + 1;
        }
    }

    fn run(&mut self) {
        while self.pos < self.code.len() {
            let (pos, test, attr_start) = self.skip_attrs(self.pos);
            let scope_start = pos;
            let (pos, vis) = self.skip_vis(pos);
            // Item-qualifier keywords that may precede `fn`.
            let mut p = pos;
            let mut qualified_fn = false;
            while matches!(self.any_ident(p), Some("unsafe" | "async" | "extern")) {
                p += 1;
                if self.tok(p).is_some_and(|t| t.kind == TokenKind::Str) {
                    p += 1; // the ABI string of `extern "C"`
                }
                qualified_fn = true;
            }
            if self.is_ident(p, "const") && self.is_ident(p + 1, "fn") {
                p += 1;
                qualified_fn = true;
            }
            match self.any_ident(p) {
                Some("fn") => {
                    let body_known_test = test;
                    self.parse_fn(p, vis, body_known_test);
                    if test {
                        let end = self.pos;
                        self.record_cfg_test_span(attr_start.unwrap_or(scope_start), end);
                    }
                }
                Some("mod") if !qualified_fn => {
                    if let Some(name) = self.any_ident(p + 1).map(str::to_string) {
                        if self.is_p(p + 2, "{") {
                            if test {
                                // Record the whole gated module extent.
                                let end = self.skip_balanced(p + 2);
                                self.record_cfg_test_span(attr_start.unwrap_or(scope_start), end);
                            }
                            self.scopes.push(Scope::Mod {
                                name: Some(name),
                                test,
                            });
                            self.pos = p + 3;
                        } else {
                            self.pos = p + 2; // `mod name;`
                        }
                    } else {
                        self.pos = p + 1;
                    }
                }
                Some("const" | "static") if !qualified_fn => {
                    self.parse_const(p, test);
                }
                Some("struct") if !qualified_fn => {
                    self.parse_struct(p, test);
                }
                Some("enum" | "union") if !qualified_fn => {
                    // No pass reads these: record nothing, skip the body.
                    let mut q = p + 2;
                    while let Some(tok) = self.tok(q) {
                        let text = tok.text(self.src);
                        if tok.kind == TokenKind::Punct && (text == "{" || text == ";") {
                            break;
                        }
                        q += 1;
                    }
                    if self.is_p(q, "{") {
                        if test {
                            let end = self.skip_balanced(q);
                            self.record_cfg_test_span(attr_start.unwrap_or(scope_start), end);
                        }
                        self.pos = self.skip_balanced(q);
                    } else {
                        self.pos = q + 1;
                    }
                }
                Some("impl") if !qualified_fn => {
                    self.parse_impl_or_trait(p, test, false);
                }
                Some("trait") if !qualified_fn => {
                    self.parse_impl_or_trait(p, test, true);
                }
                Some("macro_rules") => {
                    // `macro_rules! name { … }` — token soup, skip.
                    let mut q = p + 1;
                    while let Some(tok) = self.tok(q) {
                        if tok.kind == TokenKind::Punct && tok.text(self.src) == "{" {
                            break;
                        }
                        q += 1;
                    }
                    self.pos = self.skip_balanced(q);
                }
                Some("type" | "use") if !qualified_fn => {
                    let mut q = p + 1;
                    while let Some(tok) = self.tok(q) {
                        if tok.kind == TokenKind::Punct && tok.text(self.src) == ";" {
                            break;
                        }
                        q += 1;
                    }
                    self.pos = q + 1;
                }
                _ => {
                    if self.is_p(p, "}") {
                        self.scopes.pop();
                        self.pos = p + 1;
                    } else if self.is_p(p, "{") {
                        // Unrecognized brace group at item position
                        // (e.g. a macro invocation body): skip balanced.
                        self.pos = self.skip_balanced(p);
                    } else if p >= self.code.len() {
                        break;
                    } else {
                        self.pos = p + 1;
                    }
                }
            }
        }
    }
}

/// Extracts the item tree of one file.
pub fn parse_items(rel: &str, src: &str, tokens: &[Token]) -> ItemSet {
    let (crate_key, root_mods) = file_module_path(rel);
    let index = crate::lex::LineIndex::new(src);
    let line_of: Vec<usize> = tokens.iter().map(|t| index.line(t.lo)).collect();
    let mut parser = Parser {
        src,
        tokens,
        code: crate::lex::code_tokens(tokens),
        pos: 0,
        line_of,
        out: ItemSet::default(),
        crate_key,
        root_mods,
        scopes: Vec::new(),
    };
    parser.run();
    parser.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn items(rel: &str, src: &str) -> ItemSet {
        parse_items(rel, src, &lex(src))
    }

    const FIXTURE: &str = r#"
//! Docs.

use std::collections::{BTreeMap, HashMap as Map};
use crate::units::Seconds;

pub const K1: f64 = 0.22;

pub struct Board {
    pub freq_mhz: f64,
    cores: Vec<Core>,
}

impl Board {
    /// Steps the board.
    pub fn step(&mut self, dt: Seconds) -> f64 {
        helper(dt)
    }
}

fn helper(dt: Seconds) -> f64 {
    dt.value()
}

mod inner {
    pub fn nested() {}
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::helper(Seconds::new(1.0));
    }
}
"#;

    #[test]
    fn fns_carry_quals_and_signatures() {
        let set = items("crates/soc/src/board.rs", FIXTURE);
        let quals: Vec<&str> = set
            .fns
            .iter()
            .filter(|f| !f.in_test)
            .map(|f| f.qual.as_str())
            .collect();
        assert_eq!(
            quals,
            vec![
                "soc::board::Board::step",
                "soc::board::helper",
                "soc::board::inner::nested",
            ]
        );
        let step = &set.fns[0];
        assert_eq!(step.vis, Vis::Pub);
        assert_eq!(step.self_ty.as_deref(), Some("Board"));
        assert_eq!(step.ret, "f64");
        assert_eq!(step.params.len(), 2);
        assert_eq!(step.params[0].0, "self");
        assert_eq!(step.params[1], ("dt".to_string(), "Seconds".to_string()));
    }

    #[test]
    fn test_items_are_marked_and_spanned() {
        let set = items("crates/soc/src/board.rs", FIXTURE);
        let test_fns: Vec<&FnItem> = set.fns.iter().filter(|f| f.in_test).collect();
        assert_eq!(test_fns.len(), 1);
        assert_eq!(test_fns[0].name, "t");
        assert_eq!(set.cfg_test_spans.len(), 1);
        let (lo, hi) = set.cfg_test_spans[0];
        let span_text = &FIXTURE[lo..hi];
        assert!(span_text.starts_with("#[cfg(test)]"));
        assert!(span_text.contains("fn t()"));
    }

    #[test]
    fn consts_and_structs() {
        let set = items("crates/soc/src/board.rs", FIXTURE);
        assert_eq!(set.consts.len(), 1);
        assert_eq!(set.consts[0].name, "K1");

        assert_eq!(set.structs.len(), 1);
        let board = &set.structs[0];
        assert_eq!(board.fields.len(), 2);
        assert_eq!(board.fields[0].name, "freq_mhz");
        assert_eq!(board.fields[0].ty, "f64");
        assert_eq!(board.fields[0].vis, Vis::Pub);
        assert_eq!(board.fields[1].vis, Vis::Private);
        assert_eq!(board.fields[1].ty, "Vec<Core>");
    }

    #[test]
    fn module_paths_from_file_locations() {
        assert_eq!(
            file_module_path("crates/soc/src/thermal.rs"),
            ("soc".to_string(), vec!["thermal".to_string()])
        );
        assert_eq!(
            file_module_path("crates/campaign/src/fleet/mod.rs"),
            ("campaign".to_string(), vec!["fleet".to_string()])
        );
        assert_eq!(
            file_module_path("crates/campaign/src/fleet/report.rs"),
            (
                "campaign".to_string(),
                vec!["fleet".to_string(), "report".to_string()]
            )
        );
        assert_eq!(
            file_module_path("src/lib.rs"),
            ("dora-repro".to_string(), vec![])
        );
        assert_eq!(
            file_module_path("xtask/src/passes/mod.rs"),
            ("xtask".to_string(), vec!["passes".to_string()])
        );
    }

    #[test]
    fn trait_methods_and_const_fn() {
        let src = "pub trait Governor {\n    fn decide(&mut self) -> u64;\n    fn name(&self) -> &str {\n        \"x\"\n    }\n}\npub const fn from_khz(khz: u64) -> u64 {\n    khz\n}\n";
        let set = items("crates/governors/src/lib.rs", src);
        let names: Vec<&str> = set.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["decide", "name", "from_khz"]);
        assert_eq!(set.fns[0].self_ty.as_deref(), Some("Governor"));
        assert_eq!(set.fns[2].qual, "governors::from_khz");
        // `const fn` is a fn, not a const item.
        assert!(set.consts.is_empty());
    }

    #[test]
    fn comparison_operators_in_bodies_do_not_desync_the_parser() {
        // `<=` / `<` in expressions must not be mistaken for generics:
        // a desync here would swallow the `#[cfg(test)]` module below.
        let src = "fn contains(spans: &[(usize, usize)], lo: usize) -> bool {\n    spans.iter().any(|&(a, b)| a <= lo && lo < b)\n}\n\n#[cfg(test)]\nmod tests {\n    fn t() {\n        x.unwrap();\n    }\n}\n";
        let set = items("crates/soc/src/board.rs", src);
        assert_eq!(set.fns.len(), 2, "{:?}", set.fns);
        assert!(!set.fns[0].in_test);
        assert!(set.fns[1].in_test);
        assert_eq!(set.cfg_test_spans.len(), 1);
        let (lo, _) = set.cfg_test_spans[0];
        assert!(src[lo..].starts_with("#[cfg(test)]"));
    }

    #[test]
    fn shifts_and_comparisons_in_const_initializers_terminate() {
        let src = "pub const MASK: usize = 1 << 4;\npub const NEXT: f64 = 0.5;\n";
        let set = items("crates/soc/src/lib.rs", src);
        let names: Vec<&str> = set.consts.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["MASK", "NEXT"]);
        assert_eq!(set.consts[0].end_line, 1);
    }

    #[test]
    fn struct_items_keep_named_fields_only() {
        let src = "pub struct Plain {\n    pub a: f64,\n}\n\npub struct Sketch<T: Clone, const N: usize> {\n    bins: [T; N],\n}\n\npub struct Pair(pub f64, u64);\n\npub struct Marker;\n\nfn after() {}\n";
        let set = items("crates/sim-core/src/sketch.rs", src);
        assert_eq!(set.structs.len(), 4);

        let plain = &set.structs[0];
        assert_eq!(plain.fields.len(), 1);
        assert_eq!(plain.fields[0].name, "a");
        assert_eq!(plain.fields[0].vis, Vis::Pub);

        let sketch = &set.structs[1];
        assert_eq!(sketch.fields.len(), 1);
        assert_eq!(sketch.fields[0].name, "bins");
        assert_eq!(sketch.fields[0].ty, "[T;N]");

        // Tuple and unit structs have no named fields.
        assert!(set.structs[2].fields.is_empty());
        assert!(set.structs[3].fields.is_empty());
        // The parser resynchronizes after them.
        assert_eq!(set.fns.len(), 1);
        assert_eq!(set.fns[0].name, "after");
    }

    #[test]
    fn struct_where_clauses_do_not_swallow_fields() {
        let src = "pub struct Held<T>\nwhere\n    T: Clone + Send,\n{\n    pub inner: Vec<T>,\n    pub count: u64,\n}\n\npub struct TupleWhere<T>(T)\nwhere\n    T: Copy;\n\nfn after() {}\n";
        let set = items("crates/soc/src/hold.rs", src);
        assert_eq!(set.structs.len(), 2);
        let held = &set.structs[0];
        let fields: Vec<&str> = held.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(fields, vec!["inner", "count"]);
        assert_eq!(held.fields[0].ty, "Vec<T>");
        assert!(set.structs[1].fields.is_empty());
        // The parser resynchronizes after the trailing where clause.
        assert_eq!(set.fns.len(), 1);
        assert_eq!(set.fns[0].name, "after");
    }

    #[test]
    fn cfg_test_gated_fields_are_still_indexed() {
        // A `#[cfg(test)]` attribute on one *field* gates the field, not
        // the struct: the struct is library code and the field is kept
        // in the index like any other field.
        let src = "pub struct Probe {\n    pub live: u64,\n    #[cfg(test)]\n    pub test_only: u64,\n}\n";
        let set = items("crates/sim-core/src/probe.rs", src);
        assert_eq!(set.structs.len(), 1);
        let probe = &set.structs[0];
        assert!(!probe.in_test);
        let fields: Vec<&str> = probe.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(fields, vec!["live", "test_only"]);
        // A struct *under* #[cfg(test)] is marked in_test wholesale.
        let gated = items(
            "crates/sim-core/src/probe.rs",
            "#[cfg(test)]\nmod tests {\n    struct Helper {\n        x: u64,\n    }\n}\n",
        );
        assert!(gated.structs[0].in_test);
    }

    #[test]
    fn enum_bodies_are_skipped() {
        let src = "pub enum Policy {\n    Conservative,\n    Ondemand { sample_ms: u64 },\n    Fixed(u64),\n}\n\n#[derive(Debug)]\npub enum Verdict<T>\nwhere\n    T: Clone,\n{\n    Pass(T),\n    Fail = 2,\n}\n\nfn after() {}\n";
        let set = items("crates/governors/src/policy.rs", src);
        // Variant payloads are not items, and the parser resynchronizes
        // after the enums.
        assert_eq!(set.fns.len(), 1);
        assert_eq!(set.fns[0].name, "after");
    }

    #[test]
    fn impl_trait_for_type_attributes_methods_to_the_type() {
        let src = "impl fmt::Display for Span {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {\n        todo!()\n    }\n}\n";
        let set = items("crates/soc/src/lib.rs", src);
        assert_eq!(set.fns.len(), 1);
        assert_eq!(set.fns[0].qual, "soc::Span::fmt");
    }
}
