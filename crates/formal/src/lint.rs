//! Design lint: severity-graded static diagnostics over an elaborated
//! design and its compiled testbench (Level 1 of the static-analysis
//! subsystem; [`crate::opt`] is Level 2).
//!
//! The lint pass combines three sources of facts:
//!
//! * **Elaboration facts** ([`crate::elab::ElabLintFacts`]): undriven
//!   signals, multiply-driven signals, top-level outputs and enum-typed
//!   signals, recorded while the elaborator classifies drivers.
//! * **Compilation facts** ([`crate::compile::CompileLintFacts`]):
//!   naming-convention fallback bindings, annotation width mismatches and
//!   the symbols the annotations actually resolved to.
//! * **Source analysis**: when the original SystemVerilog text and its
//!   parse are available, the lint walks the parse to infer assignment
//!   widths, the design's read set (for dead-signal detection) and which
//!   enum states are ever mentioned.
//!
//! Constant registers are proven by a three-valued sequential sweep
//! ([`constant_latches`]).  The Level-2 optimizer's latch sweeping removes
//! every register it reports, so both levels agree on what is constant.
//!
//! Every finding carries a stable lint code (`L001`..`L009`), a severity,
//! and — when the source text locates it — a 1-based line/column with a
//! caret snippet rendered by the same machinery as parse errors.

use crate::aig::Aig;
use crate::compile::CompiledTestbench;
use crate::elab::{const_eval, ElabDesign};
use crate::lower::range_width;
use crate::psim::{Evaluator, Lanes, Ternary};
use crate::telemetry::json_escape;
use autosva::FormalTestbench;
use std::collections::{BTreeSet, HashMap};
use svparse::ast::{AlwaysKind, BinaryOp, Expr, Module, ModuleItem, SourceFile, UnaryOp, Visit};
use svparse::error::caret_snippet;
use svparse::span::line_col;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not necessarily wrong; reported, does not fail a run.
    Warning,
    /// Almost certainly a design bug (e.g. multiply-driven); fails the run.
    Error,
}

impl Severity {
    /// Lower-case label used in rendered and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Which findings the lint reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintLevel {
    /// Skip the lint entirely.
    Off,
    /// Report only error-severity findings.
    Errors,
    /// Report warnings and errors (the default).
    #[default]
    Warn,
}

/// Lint configuration, part of [`crate::checker::CheckOptions`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LintOptions {
    /// Which severities to report.
    pub level: LintLevel,
    /// Promote every warning to an error, so any finding fails the run.
    pub deny_warnings: bool,
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct LintFinding {
    /// Stable lint code, e.g. `"L002"`.
    pub code: &'static str,
    /// Severity after any `deny_warnings` promotion.
    pub severity: Severity,
    /// The signal (or annotation path) the finding is about.
    pub signal: String,
    /// Human-readable description.
    pub message: String,
    /// 1-based source line, when the source text locates the signal.
    pub line: Option<usize>,
    /// 1-based source column.
    pub column: Option<usize>,
    /// Source line with a caret under the location.
    pub snippet: Option<String>,
}

/// The result of a lint run: findings, sorted by source position then code.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings that passed the configured level filter.
    pub findings: Vec<LintFinding>,
}

impl LintReport {
    /// `true` when nothing was found (or the lint was off).
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    /// `true` when any finding is error severity (after promotion).
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Renders the report as compiler-style text, one finding per block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let errors = self.error_count();
        let warnings = self.findings.len() - errors;
        out.push_str(&format!(
            "lint: {} finding{} ({errors} error{}, {warnings} warning{})\n",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            if errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
        ));
        for f in &self.findings {
            out.push_str(&format!(
                "  {}[{}]: {}\n",
                f.severity.label(),
                f.code,
                f.message
            ));
            if let (Some(line), Some(column)) = (f.line, f.column) {
                out.push_str(&format!("    --> {line}:{column}\n"));
            }
            if let Some(snippet) = &f.snippet {
                for l in snippet.lines() {
                    out.push_str(&format!("    {l}\n"));
                }
            }
        }
        out
    }

    /// Machine-readable JSON: an array of finding objects with fixed key
    /// order, so byte-for-byte diffs against a golden file are stable.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {");
            out.push_str(&format!("\"code\":\"{}\",", f.code));
            out.push_str(&format!("\"severity\":\"{}\",", f.severity.label()));
            out.push_str(&format!("\"signal\":\"{}\",", json_escape(&f.signal)));
            out.push_str(&format!("\"message\":\"{}\",", json_escape(&f.message)));
            match f.line {
                Some(l) => out.push_str(&format!("\"line\":{l},")),
                None => out.push_str("\"line\":null,"),
            }
            match f.column {
                Some(c) => out.push_str(&format!("\"column\":{c}")),
                None => out.push_str("\"column\":null"),
            }
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }
}

/// Runs every lint pass and returns the filtered, sorted report.
///
/// `source`, the RTL text with the file parsed from it, enables the
/// source-dependent passes (assignment width mismatches, dead signals,
/// unreachable enum states) and gives findings line/column locations;
/// without it only the model-level passes run.
pub fn run(
    design: &ElabDesign,
    compiled: &CompiledTestbench,
    testbench: &FormalTestbench,
    source: Option<(&str, &SourceFile)>,
    options: &LintOptions,
) -> LintReport {
    if options.level == LintLevel::Off {
        return LintReport::default();
    }
    let _span = crate::telemetry::span("lint", &design.top);
    let mut ctx = LintCtx {
        design,
        compiled,
        source: source.map(|(text, _)| text),
        masked: source.map(|(text, _)| mask_comments(text)),
        file: source.map(|(_, file)| file),
        findings: Vec::new(),
    };

    // The full "referenced by verification intent" set: what the compiler
    // resolved plus what the annotations mention (covers X-prop-only
    // properties the compiler skips).
    let mut referenced: BTreeSet<String> = compiled.lint.referenced_symbols.clone();
    referenced.extend(testbench.referenced_signals());

    ctx.undriven_signals();
    ctx.multiply_driven_signals();
    ctx.constant_registers();
    ctx.annotation_width_mismatches();
    ctx.fallback_bindings();
    ctx.coverage_gaps(&referenced);
    if ctx.file.is_some() {
        ctx.assignment_width_mismatches();
        ctx.dead_signals(&referenced);
        ctx.unreachable_enum_states();
    }

    let mut findings = ctx.findings;
    if options.deny_warnings {
        for f in &mut findings {
            f.severity = Severity::Error;
        }
    }
    if options.level == LintLevel::Errors {
        findings.retain(|f| f.severity == Severity::Error);
    }
    findings.sort_by(|a, b| {
        (a.line.unwrap_or(usize::MAX), a.column, a.code, &a.signal).cmp(&(
            b.line.unwrap_or(usize::MAX),
            b.column,
            b.code,
            &b.signal,
        ))
    });
    findings.dedup_by(|a, b| a.code == b.code && a.signal == b.signal && a.message == b.message);
    LintReport { findings }
}

struct LintCtx<'a> {
    design: &'a ElabDesign,
    compiled: &'a CompiledTestbench,
    source: Option<&'a str>,
    /// `source` with comment bytes blanked (AUTOSVA blocks kept) so needle
    /// searches cannot land inside prose that happens to mention a signal.
    masked: Option<String>,
    file: Option<&'a SourceFile>,
    findings: Vec<LintFinding>,
}

impl<'a> LintCtx<'a> {
    /// Pushes a finding located at the first word-boundary occurrence of
    /// `signal` in the source (no location when absent or no source).
    fn push(&mut self, code: &'static str, severity: Severity, signal: &str, message: String) {
        self.push_by_needle(code, severity, signal, signal, message);
    }

    /// Like [`LintCtx::push`], but locates the finding by an arbitrary
    /// `needle` instead of the signal name (e.g. an annotation expression
    /// identifier for a generated auxiliary signal that never appears in the
    /// source verbatim).
    fn push_by_needle(
        &mut self,
        code: &'static str,
        severity: Severity,
        signal: &str,
        needle: &str,
        message: String,
    ) {
        let located = match (self.source, self.masked.as_deref()) {
            (Some(src), Some(masked)) => find_word(masked, needle).map(|pos| (src, pos)),
            _ => None,
        };
        self.push_at(code, severity, signal, message, located);
    }

    fn push_at(
        &mut self,
        code: &'static str,
        severity: Severity,
        signal: &str,
        message: String,
        located: Option<(&str, usize)>,
    ) {
        let (line, column, snippet) = match located {
            Some((src, offset)) => {
                let pos = line_col(src, offset);
                (Some(pos.line), Some(pos.column), caret_snippet(src, pos))
            }
            None => (None, None, None),
        };
        self.findings.push(LintFinding {
            code,
            severity,
            signal: signal.to_string(),
            message,
            line,
            column,
            snippet,
        });
    }

    /// L001: a signal that was read but has no driver.  The elaborator
    /// soundly models it as a free input, but that is rarely what the
    /// designer meant.
    fn undriven_signals(&mut self) {
        let mut seen = BTreeSet::new();
        for name in &self.design.lint.undriven.clone() {
            if seen.insert(name.clone()) {
                self.push(
                    "L001",
                    Severity::Warning,
                    name,
                    format!("signal `{name}` has no driver; the model treats it as a free input"),
                );
            }
        }
    }

    /// L002: a signal wholly driven from more than one place.
    fn multiply_driven_signals(&mut self) {
        let mut seen = BTreeSet::new();
        for (name, detail) in &self.design.lint.multiply_driven.clone() {
            if seen.insert((name.clone(), detail.clone())) {
                self.push(
                    "L002",
                    Severity::Error,
                    name,
                    format!("signal `{name}` is driven by {detail}"),
                );
            }
        }
    }

    /// L005: a register proven to hold its reset value in every reachable
    /// state by the three-valued sweep of [`constant_latches`]; the Level-2
    /// optimizer's latch sweeping removes every register this pass flags.
    fn constant_registers(&mut self) {
        let constants = constant_latches(&self.design.aig);
        if constants.is_empty() {
            return;
        }
        // Group per-bit latches back into registers: `x[2]` → word `x`.
        let mut const_bits: HashMap<String, Vec<(usize, bool)>> = HashMap::new();
        for (node, value) in &constants {
            if let Some(name) = self.design.aig.name_of(*node) {
                let (word, bit) = split_bit_suffix(name);
                const_bits.entry(word).or_default().push((bit, *value));
            }
        }
        let mut word_sizes: HashMap<String, usize> = HashMap::new();
        for latch in self.design.aig.latches() {
            if let Some(name) = self.design.aig.name_of(latch.node) {
                let (word, _) = split_bit_suffix(name);
                *word_sizes.entry(word).or_insert(0) += 1;
            }
        }
        let mut flagged: Vec<(String, String)> = Vec::new();
        for (word, bits) in &const_bits {
            // Only registers of the design itself (aux latches like
            // counters and sample registers are the testbench's business),
            // and only when *every* bit of the register is constant.
            if !self.design.symbols.contains_key(word) {
                continue;
            }
            if bits.len() != word_sizes.get(word).copied().unwrap_or(0) {
                continue;
            }
            let mut value: u128 = 0;
            let mut representable = true;
            for (bit, v) in bits {
                if *bit >= 128 {
                    representable = false;
                    break;
                }
                if *v {
                    value |= 1 << bit;
                }
            }
            let shown = if representable {
                format!("{value}")
            } else {
                "its reset value".to_string()
            };
            flagged.push((word.clone(), shown));
        }
        flagged.sort();
        for (word, value) in flagged {
            self.push(
                "L005",
                Severity::Warning,
                &word,
                format!("register `{word}` is constant at {value} in every reachable state"),
            );
        }
    }

    /// L004: an auxiliary signal whose declared width disagrees with the
    /// expression driving it.
    fn annotation_width_mismatches(&mut self) {
        for (name, declared, actual, needle) in &self.compiled.lint.width_mismatches.clone() {
            let message = format!(
                "annotation signal `{name}` is declared {declared} bit{} wide but its \
                 expression has {actual} bit{}",
                if *declared == 1 { "" } else { "s" },
                if *actual == 1 { "" } else { "s" },
            );
            // Generated aux names never appear in the source; locate by the
            // first identifier the annotation expression mentions.
            let needle = needle.as_deref().unwrap_or(name);
            self.push_by_needle("L004", Severity::Warning, name, needle, message);
        }
    }

    /// L009: a `port.field` annotation path that only resolved through the
    /// `port_field` naming convention — a guess worth confirming.
    fn fallback_bindings(&mut self) {
        for (requested, bound) in &self.compiled.lint.fallback_bindings.clone() {
            self.push(
                "L009",
                Severity::Warning,
                requested,
                format!(
                    "annotation path `{requested}` resolved to `{bound}` by naming \
                     convention only — no struct field or exact symbol matches"
                ),
            );
        }
    }

    /// L008: a top-level output no generated property ever looks at.
    fn coverage_gaps(&mut self, referenced: &BTreeSet<String>) {
        for output in &self.design.lint.top_outputs.clone() {
            let used_directly = referenced.contains(output);
            // A struct-typed output is referenced through its fields; any
            // `output.field` reference counts.
            let used_via_member = referenced.iter().any(|r| {
                r.strip_prefix(output.as_str())
                    .is_some_and(|rest| rest.starts_with('.'))
            });
            if !used_directly && !used_via_member {
                self.push(
                    "L008",
                    Severity::Warning,
                    output,
                    format!(
                        "output `{output}` is not referenced by any generated property \
                         or auxiliary signal (coverage gap)"
                    ),
                );
            }
        }
    }

    /// L003: an assignment whose two sides have statically-known, different
    /// widths.  Unsized literals and unknown operators infer no width, so
    /// idiomatic code (`x <= x + 1`, `y <= '0`) stays silent.
    fn assignment_width_mismatches(&mut self) {
        let Some(file) = self.file else { return };
        let Some(module) = file.module(&self.design.top) else {
            return;
        };
        let widths = self.top_widths();
        let mut mismatches: Vec<(String, usize, usize, usize)> = Vec::new();
        let mut check = |lhs: &Expr, rhs: &Expr, span_start: usize| {
            let (Some(lw), Some(rw)) = (
                expr_width(lhs, &widths, &self.design.params),
                expr_width(rhs, &widths, &self.design.params),
            ) else {
                return;
            };
            if lw != rw {
                let target = lvalue_name(lhs);
                mismatches.push((target, lw, rw, span_start));
            }
        };
        for item in &module.items {
            match item {
                ModuleItem::ContinuousAssign(assign) => {
                    check(&assign.lhs, &assign.rhs, assign.span.start)
                }
                ModuleItem::Decl(decl) => {
                    for name in &decl.names {
                        if let Some(init) = &name.init {
                            check(&Expr::Ident(name.name.clone()), init, decl.span.start);
                        }
                    }
                }
                ModuleItem::Always(block) if block.kind != AlwaysKind::Initial => {
                    for assign in block.body.assigns() {
                        check(&assign.lhs, &assign.rhs, assign.span.start);
                    }
                }
                _ => {}
            }
        }
        let source = self.source;
        for (target, lw, rw, offset) in mismatches {
            self.push_at(
                "L003",
                Severity::Warning,
                &target,
                format!(
                    "assignment to `{target}` ({lw} bit{}) from a {rw}-bit expression",
                    if lw == 1 { "" } else { "s" },
                ),
                source.map(|src| (src, offset)),
            );
        }
    }

    /// L006: a signal declared in the top module that nothing ever reads —
    /// not the RTL, not the annotations.
    fn dead_signals(&mut self, referenced: &BTreeSet<String>) {
        let Some(file) = self.file else { return };
        let Some(module) = file.module(&self.design.top) else {
            return;
        };
        let reads = module_read_set(module);
        let mut dead: Vec<String> = Vec::new();
        for item in &module.items {
            if let ModuleItem::Decl(decl) = item {
                for name in &decl.names {
                    let n = &name.name;
                    if reads.contains(n) || referenced.contains(n) {
                        continue;
                    }
                    // Struct-typed signals may be referenced through member
                    // paths (`sig.field`).
                    let member_read = referenced.iter().any(|r| {
                        r.strip_prefix(n.as_str())
                            .is_some_and(|rest| rest.starts_with('.'))
                    });
                    if member_read {
                        continue;
                    }
                    dead.push(n.clone());
                }
            }
        }
        dead.sort();
        dead.dedup();
        for name in dead {
            self.push(
                "L006",
                Severity::Warning,
                &name,
                format!("signal `{name}` is never read by the design or any property (dead)"),
            );
        }
    }

    /// L007: an enum-typed signal whose type has states no expression in the
    /// whole design ever names — states that (short of raw-constant writes)
    /// cannot be reached.
    fn unreachable_enum_states(&mut self) {
        let Some(file) = self.file else { return };
        let mut mentioned: BTreeSet<String> = BTreeSet::new();
        for module in file.modules() {
            let reads = module_read_set(module);
            mentioned.extend(reads);
        }
        let mut flagged: BTreeSet<(String, String)> = BTreeSet::new();
        let enum_signals = self.design.lint.enum_signals.clone();
        for (signal, key) in &enum_signals {
            let Some(members) = self.design.types.enum_members(key) else {
                continue;
            };
            let members = members.to_vec();
            for (member, _) in &members {
                // Scoped spellings (`pkg::IDLE`) also count as mentions.
                let named = mentioned.contains(member)
                    || mentioned.iter().any(|m| {
                        m.strip_suffix(member.as_str())
                            .is_some_and(|rest| rest.ends_with("::"))
                    });
                if !named && flagged.insert((signal.clone(), member.clone())) {
                    self.push(
                        "L007",
                        Severity::Warning,
                        signal,
                        format!(
                            "enum state `{member}` of signal `{signal}` is never referenced \
                             anywhere in the design (unreachable state)"
                        ),
                    );
                }
            }
        }
    }

    /// Widths of every top-level symbol, for assignment width inference.
    fn top_widths(&self) -> HashMap<String, usize> {
        self.design
            .symbols
            .iter()
            .map(|(name, bits)| (name.clone(), bits.len()))
            .collect()
    }
}

/// Latches of `aig` that provably hold their initial value in every
/// reachable state, as `(latch node, stuck-at value)` pairs in node order.
///
/// The proof is a three-valued least-fixpoint simulation (the evaluator's
/// dual-rail mode, `Ternary`): starting from the concrete reset state
/// with every primary input unknown, latch values are widened by joining
/// in each step's next-state evaluation until nothing changes.  The
/// lattice has height two per latch, so the loop terminates after at most
/// `2 * num_latches + 1` rounds.  A latch still known at the fixpoint is
/// constant in *every* reachable state (the simulation overapproximates
/// reachability).  The optimizer's latch sweeping ([`crate::opt`]) merges
/// every latch reported here into its constant class.
pub fn constant_latches(aig: &Aig) -> Vec<(usize, bool)> {
    let latches = aig.latches();
    if latches.is_empty() {
        return Vec::new();
    }
    let mut eval = Evaluator::<Ternary>::new(aig);
    for &input in aig.inputs() {
        eval.set(input, Ternary::X);
    }
    for latch in latches {
        eval.set(latch.node, Ternary::splat(latch.init));
    }
    let mut next: Vec<Ternary> = Vec::with_capacity(latches.len());
    loop {
        eval.settle();
        // Read every next-state value before widening any latch, so one
        // round is one synchronous step.
        next.clear();
        next.extend(latches.iter().map(|l| eval.get(l.next)));
        let mut changed = false;
        for (latch, &value) in latches.iter().zip(&next) {
            let current = eval.words()[latch.node];
            let widened = current.join(value);
            if widened != current {
                eval.set(latch.node, widened);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    latches
        .iter()
        .filter_map(|l| eval.words()[l.node].lane(0).map(|value| (l.node, value)))
        .collect()
}

/// Strips a trailing `[N]` bit suffix: `"x[3]"` → `("x", 3)`, `"x"` →
/// `("x", 0)`.
fn split_bit_suffix(name: &str) -> (String, usize) {
    if let Some(open) = name.rfind('[') {
        if let Some(stripped) = name[open..]
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
        {
            if let Ok(bit) = stripped.parse::<usize>() {
                return (name[..open].to_string(), bit);
            }
        }
    }
    (name.to_string(), 0)
}

/// Blanks `//` and `/* */` comment bytes to spaces, preserving newlines and
/// byte offsets, so [`find_word`] offsets remain valid against the original
/// source.  `/*AUTOSVA ... */` blocks are left intact: annotations are
/// semantic input, and annotation-level findings locate inside them.
fn mask_comments(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let keep = source[i..].starts_with("/*AUTOSVA");
                let close = source[i + 2..]
                    .find("*/")
                    .map(|p| i + 2 + p + 2)
                    .unwrap_or(bytes.len());
                if !keep {
                    for b in &mut out[i..close] {
                        if *b != b'\n' {
                            *b = b' ';
                        }
                    }
                }
                i = close;
            }
            b'"' => {
                // Step over string literals so `//` inside one is not a
                // comment opener.
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("masking only writes ASCII spaces")
}

/// First occurrence of `word` in `source` at identifier boundaries.
fn find_word(source: &str, word: &str) -> Option<usize> {
    if word.is_empty() {
        return None;
    }
    let bytes = source.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'$';
    let mut from = 0;
    while let Some(at) = source[from..].find(word) {
        let start = from + at;
        let end = start + word.len();
        let before_ok = start == 0 || !is_ident(bytes[start - 1]);
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

/// The base name an lvalue writes, for messages.
fn lvalue_name(lhs: &Expr) -> String {
    match lhs {
        Expr::Ident(name) => name.clone(),
        Expr::Index { base, .. } | Expr::RangeSelect { base, .. } => lvalue_name(base),
        Expr::Member { base, member } => format!("{}.{member}", lvalue_name(base)),
        _ => svparse::pretty::print_expr(lhs),
    }
}

/// Every identifier a module *reads*: right-hand sides, conditions, case
/// subjects and labels, index expressions of lvalues, instance connections
/// and sensitivity lists.  Pure write targets are excluded.
fn module_read_set(module: &Module) -> BTreeSet<String> {
    let mut reads = BTreeSet::new();
    let add = |e: &Expr, reads: &mut BTreeSet<String>| {
        reads.extend(e.referenced_idents());
    };
    // Index/range expressions inside an lvalue are reads even though the
    // base is a write.
    fn lvalue_reads(lhs: &Expr, reads: &mut BTreeSet<String>) {
        match lhs {
            Expr::Index { base, index } => {
                reads.extend(index.referenced_idents());
                lvalue_reads(base, reads);
            }
            Expr::RangeSelect { base, msb, lsb } => {
                reads.extend(msb.referenced_idents());
                reads.extend(lsb.referenced_idents());
                lvalue_reads(base, reads);
            }
            Expr::Concat(parts) => {
                for p in parts {
                    lvalue_reads(p, reads);
                }
            }
            Expr::Member { base, .. } => lvalue_reads(base, reads),
            _ => {}
        }
    }
    for item in &module.items {
        match item {
            ModuleItem::ContinuousAssign(assign) => {
                add(&assign.rhs, &mut reads);
                lvalue_reads(&assign.lhs, &mut reads);
            }
            ModuleItem::Decl(decl) => {
                for name in &decl.names {
                    if let Some(init) = &name.init {
                        add(init, &mut reads);
                    }
                }
            }
            ModuleItem::Param(p) => {
                if let Some(v) = &p.value {
                    add(v, &mut reads);
                }
            }
            ModuleItem::Always(block) => {
                for ev in &block.sensitivity {
                    add(&ev.signal, &mut reads);
                }
                block.body.walk(&mut |v| match v {
                    Visit::Assign(a) => {
                        add(&a.rhs, &mut reads);
                        lvalue_reads(&a.lhs, &mut reads);
                    }
                    Visit::Test(e) => add(e, &mut reads),
                });
            }
            ModuleItem::Instance(inst) => {
                for conn in inst.param_overrides.iter().chain(inst.connections.iter()) {
                    if let Some(expr) = &conn.expr {
                        add(expr, &mut reads);
                    }
                }
            }
            ModuleItem::Typedef(_) => {}
        }
    }
    reads
}

/// Static bit width of an expression, `None` when unknown.  Unsized
/// literals, parameters, struct members and calls infer no width; binary
/// operators require both sides known (SystemVerilog context-determined
/// sizing makes one-sided conclusions unsafe).
fn expr_width(
    expr: &Expr,
    widths: &HashMap<String, usize>,
    params: &HashMap<String, u128>,
) -> Option<usize> {
    match expr {
        Expr::Number(n) => {
            if n.is_unbased {
                None
            } else {
                n.width.map(|w| w as usize)
            }
        }
        Expr::Ident(name) => {
            if params.contains_key(name) {
                None
            } else {
                widths.get(name).copied()
            }
        }
        Expr::Unary { op, operand } => match op {
            UnaryOp::LogicalNot
            | UnaryOp::ReduceAnd
            | UnaryOp::ReduceOr
            | UnaryOp::ReduceXor
            | UnaryOp::ReduceNand
            | UnaryOp::ReduceNor
            | UnaryOp::ReduceXnor => Some(1),
            UnaryOp::BitwiseNot | UnaryOp::Negate | UnaryOp::Plus => {
                expr_width(operand, widths, params)
            }
        },
        Expr::Binary { op, lhs, rhs } => match op {
            BinaryOp::Eq
            | BinaryOp::Ne
            | BinaryOp::CaseEq
            | BinaryOp::CaseNe
            | BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge
            | BinaryOp::LogicalAnd
            | BinaryOp::LogicalOr => Some(1),
            BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr => expr_width(lhs, widths, params),
            _ => {
                let l = expr_width(lhs, widths, params)?;
                let r = expr_width(rhs, widths, params)?;
                Some(l.max(r))
            }
        },
        Expr::Ternary {
            then_expr,
            else_expr,
            ..
        } => {
            let t = expr_width(then_expr, widths, params)?;
            let e = expr_width(else_expr, widths, params)?;
            Some(t.max(e))
        }
        Expr::Index { .. } => Some(1),
        Expr::RangeSelect { msb, lsb, .. } => {
            range_width(const_eval(msb, params).ok()?, const_eval(lsb, params).ok()?).ok()
        }
        Expr::Concat(parts) => {
            let mut total = 0usize;
            for p in parts {
                total += expr_width(p, widths, params)?;
            }
            Some(total)
        }
        Expr::Replicate { count, value } => {
            let n = usize::try_from(const_eval(count, params).ok()?).ok()?;
            n.checked_mul(expr_width(value, widths, params)?)
        }
        Expr::Member { .. } | Expr::Call { .. } | Expr::Str(_) | Expr::Macro(_) => None,
    }
}

/// Stable mapping from lint code to a short description, for docs and the
/// CLI.
pub const LINT_CODES: &[(&str, &str)] = &[
    ("L001", "undriven signal modeled as a free input"),
    ("L002", "multiply-driven signal"),
    ("L003", "assignment width mismatch"),
    ("L004", "annotation width mismatch"),
    ("L005", "register constant in every reachable state"),
    ("L006", "signal never read (dead)"),
    ("L007", "unreachable enum state"),
    ("L008", "output not covered by any property"),
    ("L009", "annotation bound by naming convention only"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ternary_fixpoint_finds_stuck_latches() {
        // A busy bit an input sets, a latch holding its reset value and a
        // free-running toggle: only the second is constant.
        let mut aig = Aig::new();
        let req = aig.add_input("req");
        let busy = aig.add_latch("busy", false);
        let next_busy = aig.or(busy, req);
        aig.set_latch_next(busy, next_busy);
        let stuck = aig.add_latch("stuck_q", false);
        aig.set_latch_next(stuck, stuck);
        let toggle = aig.add_latch("toggle", false);
        aig.set_latch_next(toggle, toggle.invert());
        let consts = constant_latches(&aig);
        let names: Vec<(&str, bool)> = consts
            .iter()
            .map(|&(node, v)| (aig.name_of(node).unwrap(), v))
            .collect();
        assert_eq!(names, vec![("stuck_q", false)]);
    }

    #[test]
    fn constant_chains_propagate_through_latches() {
        // b follows a, a is stuck at true: both are constant.
        let mut aig = Aig::new();
        let a = aig.add_latch("a", true);
        aig.set_latch_next(a, a);
        let b = aig.add_latch("b", true);
        aig.set_latch_next(b, a);
        let consts = constant_latches(&aig);
        assert_eq!(consts.len(), 2);
        assert!(consts.iter().all(|&(_, v)| v));
    }

    #[test]
    fn find_word_respects_identifier_boundaries() {
        let src = "wire foo_bar;\nwire foo;\n";
        // `foo` must not match inside `foo_bar`.
        assert_eq!(find_word(src, "foo"), Some(19));
        assert_eq!(find_word(src, "foo_bar"), Some(5));
        assert_eq!(find_word(src, "missing"), None);
    }

    #[test]
    fn split_bit_suffix_parses_names() {
        assert_eq!(split_bit_suffix("x[3]"), ("x".to_string(), 3));
        assert_eq!(split_bit_suffix("x"), ("x".to_string(), 0));
        assert_eq!(split_bit_suffix("mem[1][2]"), ("mem[1]".to_string(), 2));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn report_render_counts_severities() {
        let report = LintReport {
            findings: vec![
                LintFinding {
                    code: "L002",
                    severity: Severity::Error,
                    signal: "x".into(),
                    message: "signal `x` is driven twice".into(),
                    line: Some(3),
                    column: Some(10),
                    snippet: Some("  assign x = a;\n         ^".into()),
                },
                LintFinding {
                    code: "L001",
                    severity: Severity::Warning,
                    signal: "y".into(),
                    message: "signal `y` has no driver".into(),
                    line: None,
                    column: None,
                    snippet: None,
                },
            ],
        };
        let text = report.render();
        assert!(text.starts_with("lint: 2 findings (1 error, 1 warning)"));
        assert!(text.contains("error[L002]"));
        assert!(text.contains("--> 3:10"));
        assert!(text.contains("warning[L001]"));
        assert!(report.has_errors());
        let json = report.to_json();
        assert!(json.contains("\"code\":\"L002\""));
        assert!(json.contains("\"line\":null"));
    }

    #[test]
    fn width_inference_is_conservative() {
        let widths: HashMap<String, usize> = [("a".to_string(), 4), ("b".to_string(), 4)]
            .into_iter()
            .collect();
        let params = HashMap::new();
        // `a + 1` — unsized literal keeps the width unknown.
        let e = Expr::binary(BinaryOp::Add, Expr::ident("a"), Expr::number(1));
        assert_eq!(expr_width(&e, &widths, &params), None);
        // `a + b` — both known.
        let e = Expr::binary(BinaryOp::Add, Expr::ident("a"), Expr::ident("b"));
        assert_eq!(expr_width(&e, &widths, &params), Some(4));
        // Comparison collapses to one bit.
        let e = Expr::binary(BinaryOp::Eq, Expr::ident("a"), Expr::ident("b"));
        assert_eq!(expr_width(&e, &widths, &params), Some(1));
        // Concat sums.
        let e = Expr::Concat(vec![Expr::ident("a"), Expr::ident("b")]);
        assert_eq!(expr_width(&e, &widths, &params), Some(8));
    }
}
