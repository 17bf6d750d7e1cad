//! Statement-level control-flow graphs over the token stream.
//!
//! [`Cfg::build`] partitions a function body's code tokens (the
//! non-trivia tokens between its braces, as recorded in
//! [`crate::items::FnItem::body`]) into [`Stmt`] ranges grouped into
//! [`Block`]s, with edges for `if`/`else if`/`else` chains, `match`
//! arms, `while`/`while let`/`for`/`loop` back edges, `break`/
//! `continue`, and early exits (`return`, `?`). Two invariants hold by
//! construction and are pinned by `xtask/tests/cfg_properties.rs`:
//!
//! 1. every body code token belongs to exactly one statement of
//!    exactly one block (the builder walks the token list once,
//!    front to back, and never skips or revisits a position);
//! 2. every edge targets a block the graph owns.
//!
//! The graph is deliberately conservative rather than exact:
//!
//! - control keywords are recognized only in *statement* position.
//!   An `if`/`match` embedded in a larger expression (`let x = if …`)
//!   is swallowed into one [`StmtKind::Simple`] statement by
//!   bracket-balanced scanning, so its branches are invisible —
//!   clients see the statement's effects as a whole;
//! - a `?`, `return`, `break`, or `continue` *inside* a consumed
//!   statement (e.g. under `let … else`, or in a closure body) adds a
//!   may-edge after the statement. Closures cannot actually return
//!   from the enclosing function, so these edges over-approximate the
//!   paths; forward may-analyses stay sound, must-analyses stay
//!   conservative;
//! - labeled `break`/`continue` target the innermost loop, ignoring
//!   the label.
//!
//! Block 0 is the entry, block 1 the synthetic exit (no statements,
//! no successors). `return` and `?` edges point at the exit block, so
//! "state on function exit" is exactly the dataflow state joined at
//! block 1's entry.

use crate::lex::{Token, TokenKind};

/// How the builder classified a statement's token range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind {
    /// A plain statement or tail expression, consumed bracket-balanced
    /// up to a depth-0 `;` (inclusive) or the region's end.
    Simple,
    /// An `if` / `else if` header: keyword through the branch's `{`.
    IfHead,
    /// A `match` header: keyword through the body's `{`.
    MatchHead,
    /// A loop header (`while`, `while let`, `for`, `loop`), label
    /// included, through the body's `{`.
    LoopHead,
    /// A match arm's pattern (and guard) through its `=>`.
    ArmPat,
    /// Structural punctuation owned by the graph, not an expression:
    /// branch braces, `else {`, arm commas.
    Struct,
}

impl StmtKind {
    /// Short lowercase word used by [`Cfg::dump`].
    pub fn word(self) -> &'static str {
        match self {
            StmtKind::Simple => "stmt",
            StmtKind::IfHead => "if",
            StmtKind::MatchHead => "match",
            StmtKind::LoopHead => "loop",
            StmtKind::ArmPat => "arm",
            StmtKind::Struct => "punct",
        }
    }
}

/// A contiguous run of body code tokens: positions `lo..hi` into
/// [`Cfg::code`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stmt {
    /// First code-token position (into [`Cfg::code`]).
    pub lo: usize,
    /// One past the last code-token position.
    pub hi: usize,
    /// Classification assigned by the builder.
    pub kind: StmtKind,
}

/// A basic block: statements executed in order, then a jump to one of
/// `succs`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Block {
    /// Statements in execution order.
    pub stmts: Vec<Stmt>,
    /// Successor block indices (deduplicated, in insertion order).
    pub succs: Vec<usize>,
}

/// A function body's control-flow graph. See the module docs for the
/// invariants and the approximation contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// Raw token indices (into the file's token list) of the body's
    /// code tokens, in source order. [`Stmt`] ranges index this list.
    pub code: Vec<usize>,
    /// All blocks; indices are stable, unreachable blocks possible.
    pub blocks: Vec<Block>,
    /// Entry block index (always 0).
    pub entry: usize,
    /// Synthetic exit block index (always 1); never has statements or
    /// successors.
    pub exit: usize,
}

const ENTRY: usize = 0;
const EXIT: usize = 1;

impl Cfg {
    /// Builds the graph for a body token range (`FnItem::body`
    /// convention: first inside token inclusive, closing brace
    /// exclusive, raw token indices).
    pub fn build(src: &str, tokens: &[Token], body: (usize, usize)) -> Cfg {
        let code: Vec<usize> = (body.0..body.1.min(tokens.len()))
            .filter(|&i| !tokens[i].kind.is_trivia())
            .collect();
        let n = code.len();
        let mut b = Builder {
            src,
            toks: tokens,
            code,
            blocks: vec![Block::default(), Block::default()],
            loops: Vec::new(),
        };
        let (last, terminated) = b.walk(0, n, ENTRY);
        if !terminated {
            b.edge(last, EXIT);
        }
        Cfg {
            code: b.code,
            blocks: b.blocks,
            entry: ENTRY,
            exit: EXIT,
        }
    }

    /// The code-token positions of `s` as raw token indices.
    pub fn stmt_tokens(&self, s: &Stmt) -> &[usize] {
        &self.code[s.lo..s.hi.min(self.code.len())]
    }

    /// Stable textual rendering for golden tests: one section per
    /// block, statements as `[kind] token text`, then the successor
    /// list.
    pub fn dump(&self, src: &str, tokens: &[Token]) -> String {
        let mut out = String::new();
        for (i, b) in self.blocks.iter().enumerate() {
            let tag = if i == self.entry {
                " (entry)"
            } else if i == self.exit {
                " (exit)"
            } else {
                ""
            };
            out.push_str(&format!("b{i}{tag}:\n"));
            for s in &b.stmts {
                let text: Vec<&str> = self
                    .stmt_tokens(s)
                    .iter()
                    .map(|&t| tokens[t].text(src))
                    .collect();
                out.push_str(&format!("  [{}] {}\n", s.kind.word(), text.join(" ")));
            }
            if b.succs.is_empty() {
                out.push_str("  -> (none)\n");
            } else {
                let targets: Vec<String> = b.succs.iter().map(|t| format!("b{t}")).collect();
                out.push_str(&format!("  -> {}\n", targets.join(", ")));
            }
        }
        out
    }
}

/// Statement-position control keywords the walker dispatches on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kw {
    If,
    Match,
    While,
    For,
    Loop,
    Return,
    Break,
    Continue,
}

/// What terminates the pattern region of a conditional header before
/// the body brace may legally appear.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PatternEnd {
    /// Plain condition: the first depth-0 `{` is the body.
    None,
    /// `if let` / `while let`: skip braces until the binding `=`.
    Eq,
    /// `for pat in expr`: skip braces until the depth-0 `in`.
    In,
}

struct Builder<'a> {
    src: &'a str,
    toks: &'a [Token],
    code: Vec<usize>,
    blocks: Vec<Block>,
    /// Innermost-last `(continue_target, break_target)`.
    loops: Vec<(usize, usize)>,
}

impl Builder<'_> {
    fn tok(&self, p: usize) -> Option<&Token> {
        self.code.get(p).map(|&i| &self.toks[i])
    }

    fn text(&self, p: usize) -> Option<&str> {
        self.tok(p).map(|t| t.text(self.src))
    }

    fn is_p(&self, p: usize, s: &str) -> bool {
        self.tok(p)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text(self.src) == s)
    }

    fn is_kw(&self, p: usize, s: &str) -> bool {
        self.tok(p)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text(self.src) == s)
    }

    /// The statement-position keyword at `p`, if any.
    fn kw(&self, p: usize) -> Option<Kw> {
        let t = self.tok(p)?;
        if t.kind != TokenKind::Ident {
            return None;
        }
        match t.text(self.src) {
            "if" => Some(Kw::If),
            "match" => Some(Kw::Match),
            "while" => Some(Kw::While),
            "for" => Some(Kw::For),
            "loop" => Some(Kw::Loop),
            "return" => Some(Kw::Return),
            "break" => Some(Kw::Break),
            "continue" => Some(Kw::Continue),
            _ => None,
        }
    }

    /// Whether tokens `p` and `p + 1` touch (no trivia in the source
    /// between them) — used to tell `=>`/`==` from a bare `=`.
    fn adjacent(&self, p: usize) -> bool {
        match (self.tok(p), self.tok(p + 1)) {
            (Some(a), Some(b)) => a.hi == b.lo,
            _ => false,
        }
    }

    /// A `=` that is an assignment/binding, not part of `==`, `=>`,
    /// `<=`, `+=`, …
    fn standalone_eq(&self, p: usize) -> bool {
        if !self.is_p(p, "=") {
            return false;
        }
        if self.adjacent(p) && (self.is_p(p + 1, "=") || self.is_p(p + 1, ">")) {
            return false;
        }
        if p > 0 && self.adjacent(p - 1) {
            let compound = ["=", "!", "<", ">", "+", "-", "*", "/", "%", "&", "|", "^"]
                .iter()
                .any(|op| self.is_p(p - 1, op));
            if compound {
                return false;
            }
        }
        true
    }

    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    fn push(&mut self, block: usize, lo: usize, hi: usize, kind: StmtKind) {
        if lo < hi {
            self.blocks[block].stmts.push(Stmt { lo, hi, kind });
        }
    }

    /// Position just past the `}` matching the `{` at `open`, or
    /// `limit` if unbalanced.
    fn close_of(&self, open: usize, limit: usize) -> usize {
        let mut depth = 0usize;
        let mut p = open;
        while p < limit {
            if self.is_p(p, "{") {
                depth += 1;
            } else if self.is_p(p, "}") {
                depth -= 1;
                if depth == 0 {
                    return p;
                }
            }
            p += 1;
        }
        limit
    }

    /// The body `{` of a conditional/loop header whose condition
    /// starts at `p`. Braces inside parens/brackets and (for the
    /// `let`/`for` pattern region) struct-pattern braces are skipped.
    fn find_body_brace(
        &self,
        mut p: usize,
        limit: usize,
        mut pattern: PatternEnd,
    ) -> Option<usize> {
        let mut depth = 0usize;
        while p < limit {
            if self.is_p(p, "(") || self.is_p(p, "[") {
                depth += 1;
            } else if self.is_p(p, ")") || self.is_p(p, "]") {
                depth = depth.saturating_sub(1);
            } else if self.is_p(p, "{") {
                if depth == 0 && pattern == PatternEnd::None {
                    return Some(p);
                }
                // Struct-pattern brace (or a brace inside brackets):
                // part of the header, not the body.
                let close = self.close_of(p, limit);
                if close >= limit {
                    return None;
                }
                p = close;
            } else if depth == 0 {
                match pattern {
                    PatternEnd::Eq if self.standalone_eq(p) => pattern = PatternEnd::None,
                    PatternEnd::In if self.is_kw(p, "in") => pattern = PatternEnd::None,
                    _ => {}
                }
            }
            p += 1;
        }
        None
    }

    /// End (exclusive, past any trailing `;`) of a plain statement
    /// starting at `p`: bracket-balanced scan to a depth-0 `;`.
    fn stmt_end(&self, mut p: usize, limit: usize) -> usize {
        let mut depth = 0usize;
        while p < limit {
            if self.is_p(p, "(") || self.is_p(p, "[") || self.is_p(p, "{") {
                depth += 1;
            } else if self.is_p(p, ")") || self.is_p(p, "]") || self.is_p(p, "}") {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && self.is_p(p, ";") {
                return p + 1;
            }
            p += 1;
        }
        limit
    }

    /// After consuming a plain statement `lo..hi` into `cur`, add
    /// may-edges for any `?` / `return` / `break` / `continue` buried
    /// inside it and cut the block so those edges carry the
    /// statement's effects. Returns the block further statements land
    /// in.
    fn finish_simple(&mut self, cur: usize, lo: usize, hi: usize) -> usize {
        let mut exits = false;
        let mut br = None;
        let mut cont = None;
        for p in lo..hi {
            if self.is_p(p, "?") || self.is_kw(p, "return") {
                exits = true;
            } else if self.is_kw(p, "break") {
                br = self.loops.last().map(|&(_, after)| after);
            } else if self.is_kw(p, "continue") {
                cont = self.loops.last().map(|&(head, _)| head);
            }
        }
        if exits {
            self.edge(cur, EXIT);
        }
        if let Some(t) = br {
            self.edge(cur, t);
        }
        if let Some(t) = cont {
            self.edge(cur, t);
        }
        if exits || br.is_some() || cont.is_some() {
            let next = self.new_block();
            self.edge(cur, next);
            next
        } else {
            cur
        }
    }

    /// Consumes code positions `lo..hi` starting in block `cur`.
    /// Returns the block that is open at the end and whether control
    /// definitely left it (depth-0 `return`/`break`/`continue`).
    fn walk(&mut self, lo: usize, hi: usize, mut cur: usize) -> (usize, bool) {
        let mut i = lo;
        let mut terminated = false;
        while i < hi {
            terminated = false;
            // A label before a loop keyword: fold it into the header.
            let (kw_at, label_lo) = if self.tok(i).is_some_and(|t| t.kind == TokenKind::Lifetime)
                && self.is_p(i + 1, ":")
                && matches!(self.text(i + 2), Some("loop") | Some("while") | Some("for"))
            {
                (i + 2, i)
            } else {
                (i, i)
            };
            match self.kw(kw_at) {
                Some(Kw::If) if kw_at == i => {
                    let (next, join) = self.parse_if(i, hi, cur);
                    i = next;
                    cur = join;
                }
                Some(Kw::Match) if kw_at == i => {
                    let (next, join) = self.parse_match(i, hi, cur);
                    i = next;
                    cur = join;
                }
                Some(Kw::While | Kw::For | Kw::Loop) => {
                    let (next, after) = self.parse_loop(label_lo, kw_at, hi, cur);
                    i = next;
                    cur = after;
                }
                Some(Kw::Return) if kw_at == i => {
                    let end = self.stmt_end(i, hi);
                    self.push(cur, i, end, StmtKind::Simple);
                    self.edge(cur, EXIT);
                    i = end;
                    cur = self.new_block();
                    terminated = true;
                }
                Some(k @ (Kw::Break | Kw::Continue)) if kw_at == i && !self.loops.is_empty() => {
                    let end = self.stmt_end(i, hi);
                    self.push(cur, i, end, StmtKind::Simple);
                    if let Some(&(head, after)) = self.loops.last() {
                        self.edge(cur, if k == Kw::Break { after } else { head });
                    }
                    i = end;
                    cur = self.new_block();
                    terminated = true;
                }
                _ if self.is_p(i, "{") => {
                    // A bare block: structurally transparent.
                    let close = self.close_of(i, hi);
                    self.push(cur, i, i + 1, StmtKind::Struct);
                    let (last, term) = self.walk(i + 1, close, cur);
                    if close < hi {
                        self.push(last, close, close + 1, StmtKind::Struct);
                    }
                    i = close + 1;
                    cur = if term { self.new_block() } else { last };
                    terminated = term;
                }
                _ => {
                    let end = self.stmt_end(i, hi);
                    self.push(cur, i, end, StmtKind::Simple);
                    cur = self.finish_simple(cur, i, end);
                    i = end;
                }
            }
        }
        (cur, terminated)
    }

    /// An `if` / `else if` / `else` chain starting at the `if` token.
    /// Returns (position past the chain, join block).
    fn parse_if(&mut self, i: usize, hi: usize, cur: usize) -> (usize, usize) {
        let mut cond_block = cur;
        let mut ends: Vec<(usize, bool)> = Vec::new();
        let mut has_else = false;
        let mut header_lo = i;
        let mut p = i; // position of the current `if`
        loop {
            let pattern = if self.is_kw(p + 1, "let") {
                PatternEnd::Eq
            } else {
                PatternEnd::None
            };
            let Some(open) = self.find_body_brace(p + 1, hi, pattern) else {
                // Malformed header: consume as one plain statement.
                let end = self.stmt_end(header_lo, hi);
                self.push(cond_block, header_lo, end, StmtKind::Simple);
                let join = self.new_block();
                self.edge(cond_block, join);
                return (end, join);
            };
            self.push(cond_block, header_lo, open + 1, StmtKind::IfHead);
            let close = self.close_of(open, hi);
            let then_block = self.new_block();
            self.edge(cond_block, then_block);
            let (last, term) = self.walk(open + 1, close, then_block);
            if close < hi {
                self.push(last, close, close + 1, StmtKind::Struct);
            }
            ends.push((last, term));
            p = close + 1;
            if p < hi && self.is_kw(p, "else") {
                if self.is_kw(p + 1, "if") {
                    let next_cond = self.new_block();
                    self.edge(cond_block, next_cond);
                    cond_block = next_cond;
                    header_lo = p; // `else if …` header
                    p += 1;
                    continue;
                }
                if self.is_p(p + 1, "{") {
                    has_else = true;
                    let else_block = self.new_block();
                    self.edge(cond_block, else_block);
                    let eopen = p + 1;
                    let eclose = self.close_of(eopen, hi);
                    self.push(else_block, p, eopen + 1, StmtKind::Struct);
                    let (elast, eterm) = self.walk(eopen + 1, eclose, else_block);
                    if eclose < hi {
                        self.push(elast, eclose, eclose + 1, StmtKind::Struct);
                    }
                    ends.push((elast, eterm));
                    p = eclose + 1;
                }
            }
            break;
        }
        let join = self.new_block();
        if !has_else {
            self.edge(cond_block, join);
        }
        for (block, term) in ends {
            if !term {
                self.edge(block, join);
            }
        }
        (p, join)
    }

    /// A statement-position `match`. Returns (position past it, join
    /// block). The match's closing `}` lives in the join block.
    fn parse_match(&mut self, i: usize, hi: usize, cur: usize) -> (usize, usize) {
        let Some(open) = self.find_body_brace(i + 1, hi, PatternEnd::None) else {
            let end = self.stmt_end(i, hi);
            self.push(cur, i, end, StmtKind::Simple);
            let join = self.new_block();
            self.edge(cur, join);
            return (end, join);
        };
        let close = self.close_of(open, hi);
        self.push(cur, i, open + 1, StmtKind::MatchHead);
        let join = self.new_block();
        let mut p = open + 1;
        let mut any_arm = false;
        while p < close {
            // Pattern (and optional guard) up to the depth-0 `=>`.
            let pat_lo = p;
            let mut depth = 0usize;
            let mut arrow = None;
            let mut q = p;
            while q < close {
                if self.is_p(q, "(") || self.is_p(q, "[") || self.is_p(q, "{") {
                    depth += 1;
                } else if self.is_p(q, ")") || self.is_p(q, "]") || self.is_p(q, "}") {
                    depth = depth.saturating_sub(1);
                } else if depth == 0
                    && self.is_p(q, "=")
                    && self.adjacent(q)
                    && self.is_p(q + 1, ">")
                {
                    arrow = Some(q);
                    break;
                }
                q += 1;
            }
            let Some(arrow) = arrow else {
                // No arrow: consume the remainder as one statement.
                let arm = self.new_block();
                self.edge(cur, arm);
                self.push(arm, p, close, StmtKind::Simple);
                self.edge(arm, join);
                any_arm = true;
                break;
            };
            let arm = self.new_block();
            self.edge(cur, arm);
            self.push(arm, pat_lo, arrow + 2, StmtKind::ArmPat);
            any_arm = true;
            let body_lo = arrow + 2;
            let (last, term, next) = if self.is_p(body_lo, "{") {
                let bclose = self.close_of(body_lo, close);
                self.push(arm, body_lo, body_lo + 1, StmtKind::Struct);
                let (last, term) = self.walk(body_lo + 1, bclose, arm);
                if bclose < close {
                    self.push(last, bclose, bclose + 1, StmtKind::Struct);
                }
                (last, term, bclose + 1)
            } else {
                // Expression body up to a depth-0 `,` (or the match's
                // closing brace).
                let mut depth = 0usize;
                let mut q = body_lo;
                while q < close {
                    if self.is_p(q, "(") || self.is_p(q, "[") || self.is_p(q, "{") {
                        depth += 1;
                    } else if self.is_p(q, ")") || self.is_p(q, "]") || self.is_p(q, "}") {
                        depth = depth.saturating_sub(1);
                    } else if depth == 0 && self.is_p(q, ",") {
                        break;
                    }
                    q += 1;
                }
                let (last, term) = self.walk(body_lo, q, arm);
                (last, term, q)
            };
            let mut p2 = next;
            if p2 < close && self.is_p(p2, ",") {
                // The arm's trailing comma: structural, owned by the
                // arm's final block.
                self.push(last, p2, p2 + 1, StmtKind::Struct);
                p2 += 1;
            }
            if !term {
                self.edge(last, join);
            }
            p = p2;
        }
        if close < hi {
            self.push(join, close, close + 1, StmtKind::Struct);
        }
        if !any_arm {
            self.edge(cur, join);
        }
        (close + 1, join)
    }

    /// A loop (`while`, `while let`, `for`, `loop`) whose keyword is
    /// at `kw` (label, if any, at `label_lo`). Returns (position past
    /// it, after block).
    fn parse_loop(&mut self, label_lo: usize, kw: usize, hi: usize, cur: usize) -> (usize, usize) {
        let word = self.kw(kw);
        let open = match word {
            Some(Kw::Loop) => self.is_p(kw + 1, "{").then_some(kw + 1),
            Some(Kw::While) => {
                let pattern = if self.is_kw(kw + 1, "let") {
                    PatternEnd::Eq
                } else {
                    PatternEnd::None
                };
                self.find_body_brace(kw + 1, hi, pattern)
            }
            Some(Kw::For) => self.find_body_brace(kw + 1, hi, PatternEnd::In),
            _ => None,
        };
        let Some(open) = open else {
            let end = self.stmt_end(label_lo, hi);
            self.push(cur, label_lo, end, StmtKind::Simple);
            return (end, self.finish_simple(cur, label_lo, end));
        };
        let head = self.new_block();
        self.edge(cur, head);
        self.push(head, label_lo, open + 1, StmtKind::LoopHead);
        let close = self.close_of(open, hi);
        let body = self.new_block();
        self.edge(head, body);
        let after = self.new_block();
        // A bare `loop` only exits through `break`/`return`.
        if word != Some(Kw::Loop) {
            self.edge(head, after);
        }
        self.loops.push((head, after));
        let (last, term) = self.walk(open + 1, close, body);
        self.loops.pop();
        if close < hi {
            self.push(last, close, close + 1, StmtKind::Struct);
        }
        if !term {
            self.edge(last, head);
        }
        (close + 1, after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn cfg_of(body_src: &str) -> (String, Cfg, Vec<Token>) {
        let src = format!("fn f() {{ {body_src} }}");
        let tokens = lex(&src);
        let items = crate::items::parse_items("test.rs", &src, &tokens);
        let body = items.fns[0].body.expect("body");
        let cfg = Cfg::build(&src, &tokens, body);
        (src, cfg, tokens)
    }

    /// Every code position belongs to exactly one statement.
    fn assert_partition(cfg: &Cfg) {
        let mut seen = vec![0usize; cfg.code.len()];
        for b in &cfg.blocks {
            for s in &b.stmts {
                for slot in seen.iter_mut().take(s.hi).skip(s.lo) {
                    *slot += 1;
                }
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "coverage counts per position: {seen:?}"
        );
    }

    #[test]
    fn straight_line_is_one_block_into_exit() {
        let (_, cfg, _) = cfg_of("let a = 1; let b = a + 2; b");
        assert_partition(&cfg);
        assert_eq!(cfg.blocks[cfg.entry].stmts.len(), 3);
        assert_eq!(cfg.blocks[cfg.entry].succs, vec![cfg.exit]);
    }

    #[test]
    fn if_else_branches_and_joins() {
        let (_, cfg, _) = cfg_of("let a = 1; if a > 0 { a; } else { a; } let b = 2;");
        assert_partition(&cfg);
        // entry has two successors: then, else.
        assert_eq!(cfg.blocks[cfg.entry].succs.len(), 2);
    }

    #[test]
    fn question_mark_adds_exit_edge() {
        let (_, cfg, _) = cfg_of("let a = parse()?; let b = a;");
        assert_partition(&cfg);
        assert!(
            cfg.blocks[cfg.entry].succs.contains(&cfg.exit),
            "{:?}",
            cfg.blocks
        );
    }

    #[test]
    fn return_terminates_the_block() {
        let (_, cfg, _) = cfg_of("if x { return 1; } let b = 2;");
        assert_partition(&cfg);
        let returning = cfg
            .blocks
            .iter()
            .find(|b| b.succs == vec![cfg.exit] && !b.stmts.is_empty())
            .expect("a block that only returns");
        assert_eq!(
            returning.stmts.last().map(|s| s.kind),
            Some(StmtKind::Simple)
        );
    }

    #[test]
    fn loop_has_back_edge() {
        let (_, cfg, _) = cfg_of("let mut i = 0; while i < 3 { i += 1; } i");
        assert_partition(&cfg);
        let head = cfg
            .blocks
            .iter()
            .position(|b| b.stmts.iter().any(|s| s.kind == StmtKind::LoopHead))
            .expect("loop head");
        assert!(
            cfg.blocks.iter().any(|b| b.succs.contains(&head)
                && !std::ptr::eq(b, &cfg.blocks[cfg.entry])
                && b.stmts.iter().all(|s| s.kind != StmtKind::LoopHead)),
            "no back edge to head {head}: {:?}",
            cfg.blocks
        );
    }

    #[test]
    fn match_arms_fan_out_and_join() {
        let (_, cfg, _) = cfg_of("match x { Some(v) => v, None => 0, }");
        assert_partition(&cfg);
        let header = cfg
            .blocks
            .iter()
            .position(|b| b.stmts.iter().any(|s| s.kind == StmtKind::MatchHead))
            .expect("match head");
        assert_eq!(cfg.blocks[header].succs.len(), 2, "{:?}", cfg.blocks);
    }

    #[test]
    fn edges_target_live_blocks() {
        let (_, cfg, _) = cfg_of(
            "if a { return 1; } else if b { loop { break; } } for x in xs { x?; } match y { _ => {} }",
        );
        assert_partition(&cfg);
        for b in &cfg.blocks {
            for &s in &b.succs {
                assert!(s < cfg.blocks.len());
            }
        }
        assert!(cfg.blocks[cfg.exit].succs.is_empty());
    }
}
