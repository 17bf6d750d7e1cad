//! `dimensional-flow` — unit dimensions tracked through function
//! bodies; mixed-dimension arithmetic is an error.
//!
//! The typed-units layer (`dora_sim_core::units`) makes signatures
//! dimension-safe, and `units-escape` polices declarations — but a raw
//! `f64` laundered through `.value()` *inside* a body can still cross
//! dimensions silently: seconds added to watts, a raw W·s product
//! stored as "energy" without ever becoming a `Joules`, a raw seconds
//! value fed to `Watts::new`. This pass runs a forward abstract
//! interpretation ([`crate::dataflow`]) over each function's CFG
//! ([`crate::cfg`]), giving every local one of the abstract values
//!
//! - `Unit(d)` — a typed quantity of dimension `d`,
//! - `Raw(d)` — an `f64` known to carry dimension `d` (a `.value()` /
//!   `.0` projection of a typed quantity),
//! - `Plain` — a dimensionless number (literals),
//! - `Unknown` — anything else (joins of different values included),
//!
//! and errors on:
//!
//! - `+`/`-` (or `+=`/`-=`) between raw values of different dimensions;
//! - comparisons (`<`, `>`, `<=`, `>=`, `==`, `!=`, `.min`/`.max`/
//!   `.clamp`) between different known dimensions;
//! - a raw value of one dimension flowing into a *different*
//!   dimension's constructor (`Watts::new(raw_seconds)`);
//! - a Watts×Seconds product where either side is raw — energy must be
//!   rebuilt as `Joules` through the typed `Watts * Seconds` impl.
//!
//! Division follows the units crate's quotient algebra (`J/s → W`,
//! `J/W → s`, `Wh/W → s`, `d/d →` dimensionless) and is never an
//! error on its own. Everything untracked is `Unknown` and silent:
//! the pass only speaks when *both* sides of an operation are known,
//! so it has no false positives on code outside the units vocabulary.
//!
//! The dimension vocabulary is fixed (the eight `quantity!` newtypes);
//! `lint --explain dimensional-flow` documents it. Intentional escapes
//! carry a `// dim: <reason>` justification on the flagged line or in
//! the comment block above it.
//!
//! Conservatism inherited from the CFG layer: control flow embedded in
//! larger expressions and block-bodied closures are opaque
//! (expression-bodied closures *are* evaluated), and `match` scrutinee
//! / `if` condition expressions are checked like any other.

use crate::cfg::{Cfg, Stmt, StmtKind};
use crate::dataflow::{self, Analysis};
use crate::diag::{Diagnostic, Span};
use crate::justify::justified;
use crate::lex::{LineIndex, Token, TokenKind};
use crate::source::SourceFile;
use crate::Context;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// The pass. See the module docs.
pub struct DimensionalFlow;

/// Marker for inline justifications.
const MARKER: &str = "dim:";

/// The eight unit dimensions of `dora_sim_core::units`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Dim {
    Seconds,
    Watts,
    Joules,
    Celsius,
    Mpki,
    Ppw,
    Utilization,
    WattHours,
}

impl Dim {
    fn name(self) -> &'static str {
        match self {
            Dim::Seconds => "Seconds",
            Dim::Watts => "Watts",
            Dim::Joules => "Joules",
            Dim::Celsius => "Celsius",
            Dim::Mpki => "Mpki",
            Dim::Ppw => "Ppw",
            Dim::Utilization => "Utilization",
            Dim::WattHours => "WattHours",
        }
    }

    fn from_name(s: &str) -> Option<Dim> {
        // Accept a trailing path segment (`units::Seconds`).
        let last = s.rsplit("::").next().unwrap_or(s);
        match last {
            "Seconds" => Some(Dim::Seconds),
            "Watts" => Some(Dim::Watts),
            "Joules" => Some(Dim::Joules),
            "Celsius" => Some(Dim::Celsius),
            "Mpki" => Some(Dim::Mpki),
            "Ppw" => Some(Dim::Ppw),
            "Utilization" => Some(Dim::Utilization),
            "WattHours" => Some(Dim::WattHours),
            _ => None,
        }
    }

    /// The units crate's quotient algebra: `self / other`.
    fn quotient(self, other: Dim) -> Option<DimOrPlain> {
        if self == other {
            return Some(DimOrPlain::Plain);
        }
        match (self, other) {
            (Dim::Joules, Dim::Seconds) => Some(DimOrPlain::Dim(Dim::Watts)),
            (Dim::Joules, Dim::Watts) => Some(DimOrPlain::Dim(Dim::Seconds)),
            (Dim::WattHours, Dim::Watts) => Some(DimOrPlain::Dim(Dim::Seconds)),
            _ => None,
        }
    }
}

/// A quotient result: a dimension or a dimensionless ratio.
#[derive(Debug, Clone, Copy)]
enum DimOrPlain {
    Dim(Dim),
    Plain,
}

/// Abstract value of an expression or local.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Abs {
    /// A typed quantity of this dimension.
    Unit(Dim),
    /// A raw `f64` known to carry this dimension.
    Raw(Dim),
    /// A dimensionless number.
    Plain,
    /// Untracked.
    Unknown,
}

impl Abs {
    fn dim(self) -> Option<(Dim, bool)> {
        match self {
            Abs::Unit(d) => Some((d, false)),
            Abs::Raw(d) => Some((d, true)),
            _ => None,
        }
    }
}

/// One error site: anchor byte offset, message, help.
type Finding = (usize, String, String);

/// The expression evaluator: a recursive-descent parser over a code
/// token slice that computes [`Abs`] values and records findings.
struct Eval<'a> {
    src: &'a str,
    toks: &'a [Token],
    code: &'a [usize],
    pos: usize,
    locals: &'a BTreeMap<String, Abs>,
    errors: &'a mut BTreeSet<Finding>,
}

impl<'a> Eval<'a> {
    fn tok(&self, p: usize) -> Option<&'a Token> {
        self.code.get(p).map(|&i| &self.toks[i])
    }

    fn text(&self, p: usize) -> Option<&'a str> {
        self.tok(p).map(|t| t.text(self.src))
    }

    fn kind(&self, p: usize) -> Option<TokenKind> {
        self.tok(p).map(|t| t.kind)
    }

    fn is_p(&self, p: usize, s: &str) -> bool {
        self.tok(p)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text(self.src) == s)
    }

    fn adjacent(&self, p: usize) -> bool {
        match (self.tok(p), self.tok(p + 1)) {
            (Some(a), Some(b)) => a.hi == b.lo,
            _ => false,
        }
    }

    fn lo(&self, p: usize) -> usize {
        self.tok(p).map_or(0, |t| t.lo)
    }

    fn err(&mut self, at: usize, msg: String, help: &str) {
        self.errors.insert((self.lo(at), msg, help.to_owned()));
    }

    /// Skips past the bracket group opening at `pos` (any of `(`,
    /// `[`, `{`).
    fn skip_group(&mut self) {
        let mut depth = 0usize;
        while self.pos < self.code.len() {
            match self.text(self.pos) {
                Some("(") | Some("[") | Some("{") => depth += 1,
                Some(")") | Some("]") | Some("}") => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        self.pos += 1;
                        return;
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Skips a `::<…>` turbofish (pos at `<`).
    fn skip_generics(&mut self) {
        let mut depth = 0usize;
        while self.pos < self.code.len() {
            if self.is_p(self.pos, "<") {
                depth += 1;
            } else if self.is_p(self.pos, ">") {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.pos += 1;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// The comparison operator starting at `pos` (`<`, `>`, `<=`,
    /// `>=`, `==`, `!=`), with its token length — distinguishing `<`
    /// from `<<` and `=` from `==`/`=>`.
    fn cmp_op(&self) -> Option<(&'static str, usize)> {
        let p = self.pos;
        let two = |a: &str, b: &str| self.is_p(p, a) && self.adjacent(p) && self.is_p(p + 1, b);
        if two("=", "=") {
            return Some(("==", 2));
        }
        if two("!", "=") {
            return Some(("!=", 2));
        }
        if two("<", "=") {
            return Some(("<=", 2));
        }
        if two(">", "=") {
            return Some((">=", 2));
        }
        if two("<", "<") || two(">", ">") {
            return None; // shifts: not comparisons, stop parsing
        }
        if self.is_p(p, "<") {
            return Some(("<", 1));
        }
        if self.is_p(p, ">") {
            return Some((">", 1));
        }
        None
    }

    /// An additive/multiplicative operator at `pos` that is *not* part
    /// of a compound assignment (`+=`) or arrow.
    fn bin_op(&self, ops: &[&'static str]) -> Option<&'static str> {
        let p = self.pos;
        for &op in ops {
            if self.is_p(p, op) {
                // `+=`, `-=`, `*=`, `/=` are assignments; `->` an arrow.
                if self.adjacent(p) && (self.is_p(p + 1, "=") || self.is_p(p + 1, ">")) {
                    return None;
                }
                return Some(op);
            }
        }
        None
    }

    fn expr(&mut self) -> Abs {
        let mut left = self.add();
        while let Some((op, len)) = self.cmp_op() {
            let at = self.pos;
            self.pos += len;
            let right = self.add();
            self.check_cmp(at, op, left, right);
            left = Abs::Plain;
        }
        left
    }

    fn check_cmp(&mut self, at: usize, op: &str, l: Abs, r: Abs) {
        if let (Some((a, _)), Some((b, _))) = (l.dim(), r.dim()) {
            if a != b {
                self.err(
                    at,
                    format!(
                        "comparing {} with {} ({op}): different dimensions",
                        a.name(),
                        b.name()
                    ),
                    "compare quantities of one dimension, or justify with `// dim: <reason>`",
                );
            }
        }
    }

    fn add(&mut self) -> Abs {
        let mut left = self.mul();
        while let Some(op) = self.bin_op(&["+", "-"]) {
            let at = self.pos;
            self.pos += 1;
            let right = self.mul();
            left = self.combine_add(at, op, left, right);
        }
        left
    }

    fn combine_add(&mut self, at: usize, op: &str, l: Abs, r: Abs) -> Abs {
        match (l, r) {
            (Abs::Unit(a), Abs::Unit(b)) if a == b => Abs::Unit(a),
            (Abs::Raw(a), Abs::Raw(b)) => {
                if a == b {
                    Abs::Raw(a)
                } else {
                    self.err(
                        at,
                        format!(
                            "mixed-dimension arithmetic: {} {op} {} on raw values",
                            a.name(),
                            b.name()
                        ),
                        "rebuild both sides as one typed quantity, or justify with `// dim: <reason>`",
                    );
                    Abs::Unknown
                }
            }
            (Abs::Raw(a), Abs::Plain) | (Abs::Plain, Abs::Raw(a)) => Abs::Raw(a),
            (Abs::Plain, Abs::Plain) => Abs::Plain,
            _ => Abs::Unknown,
        }
    }

    fn mul(&mut self) -> Abs {
        let mut left = self.unary();
        while let Some(op) = self.bin_op(&["*", "/", "%"]) {
            let at = self.pos;
            self.pos += 1;
            let right = self.unary();
            left = match op {
                "*" => self.combine_mul(at, left, right),
                "/" => Self::combine_div(left, right),
                _ => Abs::Unknown,
            };
        }
        left
    }

    fn combine_mul(&mut self, at: usize, l: Abs, r: Abs) -> Abs {
        match (l.dim(), r.dim()) {
            (Some((a, ra)), Some((b, rb))) => {
                let ws = (a == Dim::Watts && b == Dim::Seconds)
                    || (a == Dim::Seconds && b == Dim::Watts);
                if ws {
                    if ra || rb {
                        self.err(
                            at,
                            "raw W·s product is not rebuilt as Joules".to_owned(),
                            "multiply the typed values — `Watts * Seconds` is `Joules` — or justify with `// dim: <reason>`",
                        );
                        Abs::Raw(Dim::Joules)
                    } else {
                        Abs::Unit(Dim::Joules)
                    }
                } else {
                    Abs::Unknown
                }
            }
            (Some(_), None) if r == Abs::Plain => l,
            (None, Some(_)) if l == Abs::Plain => r,
            _ if l == Abs::Plain && r == Abs::Plain => Abs::Plain,
            _ => Abs::Unknown,
        }
    }

    fn combine_div(l: Abs, r: Abs) -> Abs {
        match (l.dim(), r.dim()) {
            (Some((a, ra)), Some((b, rb))) => match a.quotient(b) {
                Some(DimOrPlain::Plain) => Abs::Plain,
                Some(DimOrPlain::Dim(q)) => {
                    if ra || rb {
                        Abs::Raw(q)
                    } else {
                        Abs::Unit(q)
                    }
                }
                None => Abs::Unknown,
            },
            (Some(_), None) if r == Abs::Plain => l,
            _ if l == Abs::Plain && r == Abs::Plain => Abs::Plain,
            _ => Abs::Unknown,
        }
    }

    fn unary(&mut self) -> Abs {
        while self.is_p(self.pos, "-") || self.is_p(self.pos, "!") || self.is_p(self.pos, "&") {
            self.pos += 1;
            if self.text(self.pos) == Some("mut") {
                self.pos += 1;
            }
        }
        // A leading `*` is a deref only at expression head; the binary
        // `*` never reaches here.
        while self.is_p(self.pos, "*") {
            self.pos += 1;
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Abs {
        let mut value = self.primary();
        loop {
            if self.is_p(self.pos, "?") {
                self.pos += 1;
                continue;
            }
            if self.is_p(self.pos, "(") {
                // Calling an expression: evaluate args, lose tracking.
                self.call_args();
                value = Abs::Unknown;
                continue;
            }
            if self.is_p(self.pos, "[") {
                self.skip_group();
                value = Abs::Unknown;
                continue;
            }
            if self.text(self.pos) == Some("as") {
                // Casts preserve the carried dimension.
                self.pos += 1;
                if self.kind(self.pos) == Some(TokenKind::Ident) {
                    self.pos += 1;
                }
                continue;
            }
            if !self.is_p(self.pos, ".") {
                return value;
            }
            // `.` — field, tuple index, or method; `..` is a range.
            if self.adjacent(self.pos) && self.is_p(self.pos + 1, ".") {
                return value;
            }
            match self.kind(self.pos + 1) {
                Some(TokenKind::Int) => {
                    // `.0` projects the raw value out of a newtype.
                    let projected = match (self.text(self.pos + 1), value) {
                        (Some("0"), Abs::Unit(d)) => Abs::Raw(d),
                        _ => Abs::Unknown,
                    };
                    self.pos += 2;
                    value = projected;
                }
                Some(TokenKind::Ident) => {
                    let name_at = self.pos + 1;
                    self.pos += 2;
                    if self.is_p(self.pos, ":") && self.is_p(self.pos + 1, ":") {
                        self.pos += 2;
                        if self.is_p(self.pos, "<") {
                            self.skip_generics();
                        }
                    }
                    if self.is_p(self.pos, "(") {
                        let args = self.call_args();
                        value = self.method(name_at, value, &args);
                    } else {
                        // Plain field access: untracked.
                        value = Abs::Unknown;
                    }
                }
                _ => return value,
            }
        }
    }

    /// Effect of a method call on the receiver's abstract value.
    fn method(&mut self, name_at: usize, recv: Abs, args: &[Abs]) -> Abs {
        match self.text(name_at) {
            Some("value") => match recv {
                Abs::Unit(d) => Abs::Raw(d),
                _ => Abs::Unknown,
            },
            Some("min" | "max" | "clamp") => {
                for &a in args {
                    self.check_cmp(name_at, "min/max/clamp", recv, a);
                }
                recv
            }
            Some("abs") => recv,
            _ => Abs::Unknown,
        }
    }

    /// Parses a parenthesized argument list at `pos` (`(`), evaluating
    /// each comma-separated argument as an expression.
    fn call_args(&mut self) -> Vec<Abs> {
        let mut out = Vec::new();
        debug_assert!(self.is_p(self.pos, "("));
        self.pos += 1; // past `(`
        loop {
            match self.text(self.pos) {
                None => return out,
                Some(")") => {
                    self.pos += 1;
                    return out;
                }
                Some(",") => {
                    self.pos += 1;
                }
                _ => {
                    let before = self.pos;
                    out.push(self.expr());
                    if self.pos == before {
                        self.pos += 1; // never stall on junk
                    }
                }
            }
        }
    }

    fn primary(&mut self) -> Abs {
        match self.kind(self.pos) {
            Some(TokenKind::Int) | Some(TokenKind::Float) => {
                self.pos += 1;
                Abs::Plain
            }
            Some(TokenKind::Ident) => self.path_or_construct(),
            Some(TokenKind::Lifetime) => {
                self.pos += 1;
                Abs::Unknown
            }
            Some(TokenKind::Punct) => match self.text(self.pos) {
                Some("(") => {
                    // Parenthesized expression (or tuple: stop at `,`).
                    let open = self.pos;
                    self.pos += 1;
                    let inner = self.expr();
                    if self.is_p(self.pos, ")") {
                        self.pos += 1;
                        inner
                    } else {
                        // Tuple or unparsed remainder: skip the rest.
                        self.pos = open;
                        self.skip_group();
                        Abs::Unknown
                    }
                }
                Some("[") | Some("{") => {
                    self.skip_group();
                    Abs::Unknown
                }
                Some("|") => self.closure(),
                _ => Abs::Unknown, // unknown punct: caller advances
            },
            _ => {
                if self.pos < self.code.len() {
                    self.pos += 1;
                }
                Abs::Unknown
            }
        }
    }

    /// A closure at `pos` (`|`). Expression bodies are evaluated (the
    /// enclosing scope's locals are visible); block bodies are opaque.
    fn closure(&mut self) -> Abs {
        self.pos += 1; // past `|`
        if self.is_p(self.pos.wrapping_sub(1), "|") && self.is_p(self.pos, "|") {
            // `||`: empty parameter list as two adjacent pipes.
            self.pos += 1;
        } else {
            while self.pos < self.code.len() && !self.is_p(self.pos, "|") {
                if matches!(self.text(self.pos), Some("(") | Some("[") | Some("{")) {
                    self.skip_group();
                } else {
                    self.pos += 1;
                }
            }
            self.pos += 1; // past closing `|`
        }
        if self.is_p(self.pos, "{") {
            self.skip_group();
        } else {
            let before = self.pos;
            let _ = self.expr();
            if self.pos == before {
                self.pos += 1;
            }
        }
        Abs::Unknown
    }

    /// An identifier head: a control-flow expression (opaque), a
    /// macro invocation (opaque, contents skipped), a path — possibly
    /// a unit constructor — or a local variable.
    fn path_or_construct(&mut self) -> Abs {
        let head = self.pos;
        match self.text(head) {
            Some("if" | "match" | "loop" | "while" | "for" | "unsafe") => {
                // Expression-level control flow: skip through its
                // braced body (else-chains included), stay opaque.
                self.skip_control();
                return Abs::Unknown;
            }
            Some("move") if self.is_p(head + 1, "|") => {
                self.pos += 1;
                return self.closure();
            }
            Some("return" | "break" | "continue") => {
                self.pos += 1;
                return Abs::Unknown;
            }
            _ => {}
        }
        // Collect the path: ident (:: ident | :: <…>)*.
        let mut segments: Vec<usize> = vec![head];
        self.pos += 1;
        while self.is_p(self.pos, ":") && self.adjacent(self.pos) && self.is_p(self.pos + 1, ":") {
            self.pos += 2;
            if self.is_p(self.pos, "<") {
                self.skip_generics();
            }
            if self.kind(self.pos) == Some(TokenKind::Ident) {
                segments.push(self.pos);
                self.pos += 1;
            } else {
                break;
            }
        }
        // Macro invocation: contents are not expression-checked.
        if self.is_p(self.pos, "!") {
            self.pos += 1;
            if matches!(self.text(self.pos), Some("(") | Some("[") | Some("{")) {
                self.skip_group();
            }
            return Abs::Unknown;
        }
        let seg_text = |at: usize| self.text(at).unwrap_or_default();
        let last = *segments.last().unwrap_or(&head);
        let last_text = seg_text(last);
        let last_dim = Dim::from_name(last_text);
        let prev_dim = segments
            .len()
            .checked_sub(2)
            .and_then(|i| Dim::from_name(seg_text(segments[i])));
        if self.is_p(self.pos, "(") {
            let name_at = last;
            let args = self.call_args();
            // `Seconds::new(x)` / `Seconds::clamped(x)` / tuple-ctor
            // `Seconds(x)`: a raw value of another dimension must not
            // flow in.
            let ctor = match (prev_dim, last_text) {
                (Some(d), "new" | "clamped") => Some(d),
                (None, _) if last_dim.is_some() && segments.len() == 1 => last_dim,
                _ => None,
            };
            if let Some(d) = ctor {
                if let Some(Abs::Raw(src_dim)) = args.first().copied() {
                    if src_dim != d {
                        self.err(
                            name_at,
                            format!(
                                "raw {} value flows into {}'s constructor",
                                src_dim.name(),
                                d.name()
                            ),
                            "convert through the typed arithmetic instead, or justify with `// dim: <reason>`",
                        );
                    }
                }
                return Abs::Unit(d);
            }
            // Other `Dim::fn(…)` associated constructors return the
            // dimension (`Ppw::from_time_power`, `Celsius::new`…).
            if let Some(d) = prev_dim {
                return Abs::Unit(d);
            }
            return Abs::Unknown;
        }
        // Struct literal after an uppercase path: opaque.
        if self.is_p(self.pos, "{") && last_text.chars().next().is_some_and(char::is_uppercase) {
            self.skip_group();
            return Abs::Unknown;
        }
        // Associated constant `Seconds::ZERO`.
        if let Some(d) = prev_dim {
            if last_text
                .chars()
                .all(|c| c.is_ascii_uppercase() || c == '_')
            {
                return Abs::Unit(d);
            }
            return Abs::Unknown;
        }
        // A single-segment lowercase path: a local.
        if segments.len() == 1 {
            return self
                .locals
                .get(seg_text(head))
                .copied()
                .unwrap_or(Abs::Unknown);
        }
        Abs::Unknown
    }

    /// Skips an expression-level control construct (`if`/`match`/
    /// loops): header to the first depth-0 `{`, its braced body, and
    /// any `else` chain.
    fn skip_control(&mut self) {
        loop {
            // Header: to the next depth-0 `{`.
            let mut depth = 0usize;
            while self.pos < self.code.len() {
                match self.text(self.pos) {
                    Some("(") | Some("[") => depth += 1,
                    Some(")") | Some("]") => depth = depth.saturating_sub(1),
                    Some("{") if depth == 0 => break,
                    Some("{") => {
                        self.skip_group();
                        continue;
                    }
                    Some(";") if depth == 0 => return, // malformed: stop
                    _ => {}
                }
                self.pos += 1;
            }
            if self.pos >= self.code.len() {
                return;
            }
            self.skip_group(); // the braced body
            if self.text(self.pos) == Some("else") {
                self.pos += 1;
                if self.text(self.pos) == Some("if") {
                    self.pos += 1;
                    continue;
                }
                if self.is_p(self.pos, "{") {
                    self.skip_group();
                }
            }
            return;
        }
    }
}

/// Evaluates every expression in a code-token region, collecting
/// findings; returns the final expression's abstract value.
fn eval_region(
    src: &str,
    toks: &[Token],
    code: &[usize],
    locals: &BTreeMap<String, Abs>,
    errors: &mut BTreeSet<Finding>,
) -> Abs {
    let mut ev = Eval {
        src,
        toks,
        code,
        pos: 0,
        locals,
        errors,
    };
    let mut last = Abs::Unknown;
    while ev.pos < code.len() {
        let before = ev.pos;
        last = ev.expr();
        if ev.pos == before {
            ev.pos += 1;
            last = Abs::Unknown;
        }
    }
    last
}

/// The dataflow instance: locals → abstract dimension values, errors
/// accumulated (deduplicated by site) across the fixpoint.
struct DimAnalysis<'a> {
    file: &'a SourceFile,
    params: BTreeMap<String, Abs>,
    errors: RefCell<BTreeSet<Finding>>,
}

impl DimAnalysis<'_> {
    /// The region of a header statement that is an expression: the
    /// condition / scrutinee (after a `let` pattern's `=`, after
    /// `for`'s `in`), excluding the trailing `{`.
    fn header_expr<'c>(&self, cfg: &'c Cfg, stmt: &Stmt) -> &'c [usize] {
        let toks = cfg.stmt_tokens(stmt);
        let src = self.file.text.as_str();
        let text = |k: usize| {
            toks.get(k)
                .map(|&i| self.file.tokens[i].text(src))
                .unwrap_or_default()
        };
        let mut start = 1; // past the keyword
        if text(0) == "while" || text(0) == "if" || text(0) == "else" {
            if text(0) == "else" {
                start = 2; // `else if …`
            }
            if text(start) == "let" {
                // Skip the pattern: find the standalone `=`.
                let mut k = start + 1;
                let mut depth = 0usize;
                while k < toks.len() {
                    match text(k) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth = depth.saturating_sub(1),
                        "=" if depth == 0 && text(k + 1) != "=" && text(k + 1) != ">" => {
                            start = k + 1;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                if k >= toks.len() {
                    return &[];
                }
            }
        } else if text(0) == "for" {
            let mut k = 1;
            while k < toks.len() && text(k) != "in" {
                k += 1;
            }
            start = k + 1;
        }
        // Exclude the trailing `{`.
        let end = toks.len().saturating_sub(1);
        if start >= end {
            return &[];
        }
        &toks[start..end]
    }
}

impl Analysis for DimAnalysis<'_> {
    type State = BTreeMap<String, Abs>;

    fn boundary(&self) -> Self::State {
        self.params.clone()
    }

    fn transfer(
        &self,
        state: &mut Self::State,
        cfg: &Cfg,
        _block: usize,
        _idx: usize,
        stmt: &Stmt,
    ) {
        let src = self.file.text.as_str();
        let toks_all = &self.file.tokens;
        let mut guard = self.errors.borrow_mut();
        let errors = &mut *guard;
        match stmt.kind {
            StmtKind::ArmPat | StmtKind::Struct => {}
            StmtKind::IfHead | StmtKind::MatchHead | StmtKind::LoopHead => {
                let region = self.header_expr(cfg, stmt);
                eval_region(src, toks_all, region, state, errors);
            }
            StmtKind::Simple => {
                let toks = cfg.stmt_tokens(stmt);
                let text = |k: usize| {
                    toks.get(k)
                        .map(|&i| toks_all[i].text(src))
                        .unwrap_or_default()
                };
                // Strip a trailing `;`.
                let end = if toks.last().is_some_and(|&i| {
                    toks_all[i].kind == TokenKind::Punct && toks_all[i].text(src) == ";"
                }) {
                    toks.len() - 1
                } else {
                    toks.len()
                };
                let toks = &toks[..end];
                let binding = dataflow::assigned_local(src, toks_all, cfg, stmt);
                if text(0) == "let" {
                    // `let [mut] name [: ty] = expr` — find the
                    // standalone `=` at depth 0.
                    let mut k = 1;
                    let mut depth = 0usize;
                    let mut eq = None;
                    let mut anno: Option<Dim> = None;
                    let mut colon = None;
                    while k < toks.len() {
                        match text(k) {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth = depth.saturating_sub(1),
                            ":" if depth == 0 && colon.is_none() && text(k + 1) != ":" => {
                                colon = Some(k);
                            }
                            "=" if depth == 0 && text(k + 1) != "=" => {
                                eq = Some(k);
                            }
                            _ => {}
                        }
                        if eq.is_some() {
                            break;
                        }
                        k += 1;
                    }
                    if let (Some(c), Some(e)) = (colon, eq) {
                        // Annotation: the idents between `:` and `=`.
                        let names: Vec<&str> = (c + 1..e)
                            .map(text)
                            .filter(|t| t.chars().next().is_some_and(char::is_alphabetic))
                            .collect();
                        if names.len() == 1 {
                            anno = Dim::from_name(names[0]);
                        }
                    }
                    let value = match eq {
                        Some(e) => eval_region(src, toks_all, &toks[e + 1..], state, errors),
                        None => Abs::Unknown,
                    };
                    if let Some(name) = binding {
                        let bound = match anno {
                            Some(d) => Abs::Unit(d),
                            None => value,
                        };
                        if bound == Abs::Unknown {
                            state.remove(&name);
                        } else {
                            state.insert(name, bound);
                        }
                    }
                    return;
                }
                if let Some(name) = binding {
                    // `name = expr` / `name op= expr`.
                    let (op, rhs_at) = match text(1) {
                        "=" => ("=", 2),
                        plus @ ("+" | "-") if text(2) == "=" => (plus, 3),
                        _ => ("=", 2),
                    };
                    let rhs = eval_region(src, toks_all, &toks[rhs_at..], state, errors);
                    let current = state.get(&name).copied().unwrap_or(Abs::Unknown);
                    let value = if op == "=" {
                        rhs
                    } else {
                        // `+=`/`-=`: same dimension rules as `+`.
                        let mut ev = Eval {
                            src,
                            toks: toks_all,
                            code: toks,
                            pos: 0,
                            locals: state,
                            errors,
                        };
                        ev.combine_add(1, op, current, rhs)
                    };
                    if value == Abs::Unknown {
                        state.remove(&name);
                    } else {
                        state.insert(name, value);
                    }
                    return;
                }
                // Any other statement: evaluate for effects only.
                eval_region(src, toks_all, toks, state, errors);
            }
        }
    }

    fn join(&self, into: &mut Self::State, other: &Self::State) -> bool {
        let mut changed = false;
        // Keys absent from either side, or disagreeing, become
        // Unknown (removed).
        let stale: Vec<String> = into
            .iter()
            .filter(|(k, v)| other.get(*k) != Some(v))
            .map(|(k, _)| k.clone())
            .collect();
        for k in stale {
            into.remove(&k);
            changed = true;
        }
        changed
    }
}

/// Runs the analysis over one file, returning finished diagnostics.
pub fn file_findings(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let index = LineIndex::new(&file.text);
    for (fi, f) in file.items.fns.iter().enumerate() {
        if f.in_test || f.body.is_none() {
            continue;
        }
        let Some(cfg) = file.cfgs().get(fi).and_then(|c| c.as_ref()) else {
            continue;
        };
        let mut params = BTreeMap::new();
        for (name, ty) in &f.params {
            // Accept `&`/`mut` decoration but nothing structural: a
            // `Vec<Seconds>` element is not a `Seconds`.
            let parts: Vec<&str> = ty
                .split(|c: char| c.is_whitespace() || c == '&')
                .filter(|w| !w.is_empty() && *w != "mut")
                .collect();
            if let [only] = parts.as_slice() {
                if let Some(d) = Dim::from_name(only) {
                    params.insert(name.clone(), Abs::Unit(d));
                }
            }
        }
        let analysis = DimAnalysis {
            file,
            params,
            errors: RefCell::new(BTreeSet::new()),
        };
        dataflow::forward(cfg, &analysis);
        for (lo, msg, help) in analysis.errors.into_inner() {
            let (line, col) = index.line_col(lo);
            if justified(&file.text, line, MARKER) {
                continue;
            }
            out.push(
                Diagnostic::error("dimensional-flow", Span::at(&file.rel, line, col), msg)
                    .with_help(&help),
            );
        }
    }
    out
}

impl super::Pass for DimensionalFlow {
    fn id(&self) -> &'static str {
        "dimensional-flow"
    }

    fn description(&self) -> &'static str {
        "unit dimensions must survive body-level arithmetic: no mixed +/-/compare, no raw W·s"
    }

    fn explain(&self) -> &'static str {
        "Tracks unit dimensions (Seconds, Watts, Joules, Celsius, Mpki, Ppw,\n\
         Utilization, WattHours) through each function body with a forward\n\
         abstract interpretation over its CFG: typed parameters, `let`\n\
         bindings and annotations, `Dim::new`/`Dim::ZERO` constructors, and\n\
         `.value()`/`.0` projections seed the domain; everything else is\n\
         Unknown and silent.\n\
         \n\
         Errors:\n\
         - `+`/`-`/`+=`/`-=` between raw values of different dimensions;\n\
         - comparisons (`<`, `>`, `==`, …, `.min`/`.max`/`.clamp`) between\n\
           different known dimensions;\n\
         - a raw value of one dimension flowing into another dimension's\n\
           constructor;\n\
         - a Watts×Seconds product with a raw side — energy must be rebuilt\n\
           through the typed `Watts * Seconds -> Joules` impl.\n\
         \n\
         Config: none (the dimension vocabulary is the eight `quantity!`\n\
         newtypes of dora_sim_core::units, fixed at compile time).\n\
         Justification: `// dim: <reason>` on the flagged line or in the\n\
         comment block directly above it."
    }

    fn run(&self, cx: &Context) -> Vec<Diagnostic> {
        cx.files.iter().flat_map(file_findings).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::Pass;
    use super::*;

    fn findings(body: &str) -> Vec<Diagnostic> {
        let src = format!(
            "use dora_sim_core::units::*;\npub fn f(t: Seconds, p: Watts, e: Joules) -> f64 {{\n{body}\n}}\n"
        );
        file_findings(&SourceFile::new("crates/x/src/lib.rs", src))
    }

    #[test]
    fn raw_ws_product_is_flagged() {
        let d = findings("    let product = t.value() * p.value();\n    product");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("raw W·s product"), "{d:?}");
        assert_eq!(d[0].span.line, 3);
    }

    #[test]
    fn typed_ws_product_is_clean() {
        let d = findings("    let energy = p * t;\n    energy.value()");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn mixed_addition_is_flagged() {
        let d = findings("    t.value() + p.value()");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Seconds + Watts"), "{d:?}");
    }

    #[test]
    fn mixed_comparison_is_flagged_through_bindings() {
        let d = findings(
            "    let raw_t = t.value();\n    let raw_p = p.value();\n    if raw_t > raw_p {\n        return 1.0;\n    }\n    0.0",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("comparing Seconds with Watts"),
            "{d:?}"
        );
    }

    #[test]
    fn cross_dimension_constructor_is_flagged() {
        let d = findings("    let w = Watts::new(t.value());\n    w.value()");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("raw Seconds value flows into Watts"),
            "{d:?}"
        );
    }

    #[test]
    fn same_dimension_round_trip_is_clean() {
        let d = findings("    let w = Watts::new(p.value() * 2.0);\n    w.value()");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn quotient_algebra_is_tracked() {
        // J/s is W; comparing it with a raw Watts value is fine.
        let d = findings("    let w = e.value() / t.value();\n    w - p.value()");
        assert!(d.is_empty(), "{d:?}");
        // …but J/W is s: subtracting raw watts from it is mixed.
        let d = findings("    let s = e.value() / p.value();\n    s - p.value()");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Seconds - Watts"), "{d:?}");
    }

    #[test]
    fn join_of_disagreeing_branches_goes_unknown() {
        let d = findings(
            "    let mut x = t.value();\n    if x > 0.0 {\n        x = p.value();\n    }\n    x + e.value()",
        );
        // After the join x is Unknown; the final addition is silent.
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn dim_justification_silences() {
        let d = findings("    t.value() * p.value() // dim: CSV column is documented as raw W*s");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn branches_are_checked_inside_loops_and_arms() {
        let d = findings(
            "    let mut acc = 0.0;\n    for _k in 0..3 {\n        acc += t.value() - p.value();\n    }\n    acc",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Seconds - Watts"), "{d:?}");
    }

    #[test]
    fn tests_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    use dora_sim_core::units::*;\n    fn helper(t: Seconds, p: Watts) -> f64 {\n        t.value() + p.value()\n    }\n}\n";
        let d = file_findings(&SourceFile::new("crates/x/src/lib.rs", src));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn explain_text_names_the_justification_marker() {
        assert!(DimensionalFlow.explain().contains("// dim:"));
    }
}
