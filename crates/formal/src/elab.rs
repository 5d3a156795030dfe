//! Elaboration of parsed SystemVerilog into an [`Aig`].
//!
//! The elaborator supports the synthesizable subset used by the design corpus
//! of this reproduction: parameters, packed vectors, small unpacked arrays,
//! `assign`, `always_comb`, `always_ff` with asynchronous reset, module
//! instances, and the usual expression operators.  The output is a sequential
//! AIG plus a symbol table mapping hierarchical signal names to their
//! current-cycle bit vectors, which the property compiler uses to wire
//! AutoSVA expressions into the model.
//!
//! Modelling decisions:
//!
//! * the clock is implicit (one AIG step = one clock edge);
//! * the reset port is tied to its *inactive* level and the reset branch of
//!   each `always_ff` provides the latch initial values — the standard
//!   "reset as initial state" formal setup;
//! * undriven signals (and unconnected submodule inputs) become free primary
//!   inputs, which is the sound over-approximation for missing environment.

use crate::aig::{Aig, Lit};
use crate::lower::{bounded, enum_member, lower, range_width, Resolve, Val, MAX_BITS};
use crate::words;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use svparse::ast::{
    AlwaysBlock, AlwaysKind, BinaryOp, CaseItem, DataType, Direction, Expr, Module, ModuleItem,
    SourceFile, Stmt, UnaryOp, Visit,
};

/// Options controlling elaboration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElabOptions {
    /// Name of the top module; `None` uses the first module in the file.
    pub top: Option<String>,
    /// Parameter overrides for the top module.
    pub params: Vec<(String, u128)>,
    /// Clock signal name (excluded from the model inputs).
    pub clock: String,
    /// Reset signal name (tied to its inactive level).
    pub reset: String,
    /// `true` when the reset is active low.
    pub reset_active_low: bool,
}

impl Default for ElabOptions {
    fn default() -> Self {
        ElabOptions {
            top: None,
            params: Vec::new(),
            clock: "clk_i".to_string(),
            reset: "rst_ni".to_string(),
            reset_active_low: true,
        }
    }
}

/// Structured detail attached to an "unknown struct field" error, enabling
/// caret-snippet rendering against the originating source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownField {
    /// Source text of the base expression (`fu_data_i`).
    pub base: String,
    /// The field that does not exist (`fuu`).
    pub field: String,
    /// Name of the struct type the base has.
    pub type_name: String,
    /// The fields that type actually declares, MSB-first.
    pub valid: Vec<String>,
}

/// An elaboration error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElabError {
    /// Human-readable description.
    pub message: String,
    /// Structured detail when the error is an unknown-struct-field access;
    /// lets [`ElabError::render`] point a caret at the field in the source.
    pub unknown_field: Option<UnknownField>,
}

impl ElabError {
    /// Creates a plain (message-only) elaboration error.
    pub fn new(message: impl Into<String>) -> Self {
        ElabError {
            message: message.into(),
            unknown_field: None,
        }
    }

    pub(crate) fn field_error(
        base: impl Into<String>,
        field: impl Into<String>,
        layout: &StructLayout,
    ) -> Self {
        let base = base.into();
        let field = field.into();
        let valid: Vec<String> = layout.fields.iter().map(|f| f.name.clone()).collect();
        ElabError {
            message: format!(
                "`{base}` has no field `{field}` (struct `{}` declares: {})",
                layout.name,
                valid.join(", ")
            ),
            unknown_field: Some(UnknownField {
                base,
                field,
                type_name: layout.name.clone(),
                valid,
            }),
        }
    }

    /// Formats the error against the source text it came from.  Unknown
    /// struct-field errors get a compiler-style caret snippet underlining the
    /// field (located textually, since annotation expressions carry no spans)
    /// plus the list of valid fields; every other error renders its message.
    pub fn render(&self, source: &str) -> String {
        let Some(uf) = &self.unknown_field else {
            return self.to_string();
        };
        let needle = format!("{}.{}", uf.base, uf.field);
        // First occurrence at identifier boundaries — a plain substring
        // search could land inside a longer name (`s.fu` inside `bus.full`).
        let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '$';
        let Some(pos) = source.match_indices(&needle).map(|(i, _)| i).find(|&i| {
            let before_ok = source[..i]
                .chars()
                .next_back()
                .is_none_or(|c| !is_ident(c) && c != '.');
            let after_ok = source[i + needle.len()..]
                .chars()
                .next()
                .is_none_or(|c| !is_ident(c));
            before_ok && after_ok
        }) else {
            return self.to_string();
        };
        let field_pos = pos + uf.base.len() + 1;
        let lc = svparse::span::line_col(source, field_pos);
        let mut out = format!(
            "{lc}: unknown field `{}` of struct `{}`",
            uf.field, uf.type_name
        );
        if let Some(line_text) = source.lines().nth(lc.line.saturating_sub(1)) {
            let pad: String = line_text
                .chars()
                .take(lc.column.saturating_sub(1))
                .map(|c| if c == '\t' { '\t' } else { ' ' })
                .collect();
            let carets = "^".repeat(uf.field.chars().count().max(1));
            out.push_str(&format!("\n  {line_text}\n  {pad}{carets}"));
        }
        out.push_str(&format!(
            "\n  valid fields of `{}`: {}",
            uf.type_name,
            uf.valid.join(", ")
        ));
        out
    }
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "elaboration error: {}", self.message)
    }
}

impl Error for ElabError {}

/// Result alias for elaboration.
pub type Result<T> = std::result::Result<T, ElabError>;

/// One field of a resolved packed-struct layout.
///
/// SystemVerilog packed structs list their MSB field first; offsets here are
/// LSB-based bit positions into the flat signal, so the *last* declared field
/// sits at offset 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldLayout {
    /// Field name.
    pub name: String,
    /// LSB offset of the field within the flat word.
    pub offset: usize,
    /// Field width in bits.
    pub width: usize,
    /// Layout index of the field's own struct type, when the field is itself
    /// a packed struct (enables nested member access `a.b.c`).
    pub layout: Option<usize>,
}

/// A resolved packed-struct type: total width plus the field→bit-slice map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructLayout {
    /// Declared type name (unscoped).
    pub name: String,
    /// Total width in bits.
    pub width: usize,
    /// Fields in declaration (MSB-first) order.
    pub fields: Vec<FieldLayout>,
}

impl StructLayout {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldLayout> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// The resolved user-defined types of a source file: struct layouts, named
/// type widths, and enum member constants.  Built once per elaboration from
/// every `typedef` at file, package, and module scope.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TypeTable {
    /// All resolved struct layouts; indices are stable for the table's
    /// lifetime and referenced by [`FieldLayout::layout`] and the
    /// per-signal type map of [`ElabDesign`].
    pub layouts: Vec<StructLayout>,
    /// Type name (both `pkg::name` and unscoped alias) → layout index.
    by_name: HashMap<String, usize>,
    /// Type name → width, for every resolved named type (vectors, enums and
    /// structs alike).
    widths: HashMap<String, usize>,
    /// Enum member name (both `pkg::MEMBER` and unscoped alias) →
    /// `(value, width)`.
    enum_consts: HashMap<String, (u128, usize)>,
    /// Enum type key (same keys as `widths`) → its members in declaration
    /// order, so the design lint can reason about whole enums (unreachable
    /// states) rather than individual constants.
    enum_defs: HashMap<String, Vec<(String, u128)>>,
    /// Unscoped type names with conflicting definitions across scopes; the
    /// alias is withdrawn so only `pkg::name` access resolves.
    poisoned_types: HashSet<String>,
    /// How many alias-exporting scopes declare each type name.  Names with
    /// more than one exporter publish their unscoped alias only once every
    /// definition has resolved and agreed — never mid-fixpoint, so a
    /// typedef referencing the bare name cannot bind to whichever package
    /// happened to come first in source order.
    alias_expected: HashMap<String, usize>,
    /// Resolved-but-unpublished alias candidates for contested names.
    alias_pending: HashMap<String, Vec<(usize, Option<usize>)>>,
    /// Unscoped enum-member names with conflicting definitions across
    /// scopes (same policy as `poisoned_types`).
    poisoned_consts: HashSet<String>,
    /// Per module: names of module parameters referenced by that module's
    /// own typedefs.  Such typedefs are resolved against the *default*
    /// parameter values, so overriding one of these parameters is rejected
    /// instead of silently producing a wrong-width model.
    module_typedef_param_refs: HashMap<String, HashSet<String>>,
}

impl TypeTable {
    /// The layout at `index`.
    pub fn layout(&self, index: usize) -> &StructLayout {
        &self.layouts[index]
    }

    /// Layout index of a struct type name, if the name resolves to a struct.
    pub fn layout_index(&self, type_name: &str) -> Option<usize> {
        self.by_name.get(type_name).copied()
    }

    /// Width of a named type, if known.
    pub fn width_of(&self, type_name: &str) -> Option<usize> {
        self.widths.get(type_name).copied()
    }

    /// Resolves a type name against the enclosing scope: an unqualified
    /// name first tries `scope::name` (module-local typedefs, same-package
    /// references), then the global unscoped alias.  Returns the key under
    /// which the type is registered, so width and layout are read from the
    /// *same* definition.
    pub fn resolve_name(&self, scope: Option<&str>, name: &str) -> Option<String> {
        if !name.contains("::") {
            if let Some(scope) = scope {
                let scoped = format!("{scope}::{name}");
                if self.widths.contains_key(&scoped) {
                    return Some(scoped);
                }
            }
        }
        self.widths.contains_key(name).then(|| name.to_string())
    }

    /// Value and width of an enum member constant, if known.
    pub fn enum_const(&self, name: &str) -> Option<(u128, usize)> {
        self.enum_consts.get(name).copied()
    }

    /// Members (name, value) of an enum type in declaration order, when the
    /// key (as returned by [`TypeTable::resolve_name`]) names an enum.
    pub fn enum_members(&self, key: &str) -> Option<&[(String, u128)]> {
        self.enum_defs.get(key).map(Vec::as_slice)
    }

    /// Like [`TypeTable::enum_const`], preferring the enclosing scope for
    /// unqualified names.
    pub fn enum_const_in(&self, scope: Option<&str>, name: &str) -> Option<(u128, usize)> {
        self.scoped(scope, name, |t, n| t.enum_consts.get(n).copied())
    }

    /// Scope-aware lookup: an unqualified name first resolves inside the
    /// enclosing scope (`scope::name` — covering module-local typedefs and
    /// same-package references), then through the global unscoped alias.
    fn scoped<T>(
        &self,
        scope: Option<&str>,
        name: &str,
        get: impl Fn(&Self, &str) -> Option<T>,
    ) -> Option<T> {
        if !name.contains("::") {
            if let Some(scope) = scope {
                if let Some(v) = get(self, &format!("{scope}::{name}")) {
                    return Some(v);
                }
            }
        }
        get(self, name)
    }

    /// `true` when the unscoped type name was withdrawn because multiple
    /// scopes export conflicting definitions (scoped access still works).
    pub fn ambiguous_type(&self, name: &str) -> bool {
        self.poisoned_types.contains(name)
    }

    /// `true` when the unscoped enum-member name was withdrawn because
    /// multiple scopes export conflicting values.
    pub fn ambiguous_const(&self, name: &str) -> bool {
        self.poisoned_consts.contains(name)
    }

    /// Resolves a (possibly nested) struct member access `sig.a.b` to the
    /// bits it denotes in its flat root signal: `(root, lsb offset, width,
    /// layout of the member when it is itself a struct)`.  `root_layout`
    /// gives a root signal's struct layout, `None` for a signal that is not
    /// a packed struct.  A member of a non-struct, or a field the struct
    /// does not declare, is an error; the latter lists the declared fields.
    pub(crate) fn member_path(
        &self,
        expr: &Expr,
        root_layout: &dyn Fn(&str) -> Result<Option<usize>>,
    ) -> Result<(String, usize, usize, Option<usize>)> {
        match expr {
            Expr::Ident(name) => {
                let layout = root_layout(name)?;
                let width = layout.map_or(0, |ix| self.layout(ix).width);
                Ok((name.clone(), 0, width, layout))
            }
            Expr::Member { base, member } => {
                let (root, offset, _, layout) = self.member_path(base, root_layout)?;
                let base_text = || svparse::pretty::print_expr(base);
                let layout = self.layout(layout.ok_or_else(|| {
                    ElabError::new(format!(
                        "`{}` is not a packed struct; `.{member}` cannot be resolved",
                        base_text()
                    ))
                })?);
                let field = layout
                    .field(member)
                    .ok_or_else(|| ElabError::field_error(base_text(), member.clone(), layout))?;
                Ok((root, offset + field.offset, field.width, field.layout))
            }
            other => Err(ElabError::new(format!(
                "unsupported member-access base: {other:?}"
            ))),
        }
    }

    /// Structural equality of two layouts (field names, offsets, widths, and
    /// nested layouts compared recursively — indices are not identity).
    fn layouts_equal(&self, a: usize, b: usize) -> bool {
        if a == b {
            return true;
        }
        let (la, lb) = (&self.layouts[a], &self.layouts[b]);
        la.name == lb.name
            && la.width == lb.width
            && la.fields.len() == lb.fields.len()
            && la.fields.iter().zip(&lb.fields).all(|(fa, fb)| {
                fa.name == fb.name
                    && fa.offset == fb.offset
                    && fa.width == fb.width
                    && match (fa.layout, fb.layout) {
                        (None, None) => true,
                        (Some(x), Some(y)) => self.layouts_equal(x, y),
                        _ => false,
                    }
            })
    }
}

/// Facts the elaborator records as it goes, consumed by the design lint
/// ([`crate::lint`]).  They describe decisions that are sound for model
/// construction but worth surfacing to the designer: signals silently
/// modeled as free inputs, drivers that shadow each other, and the type
/// inventory the lint's enum reachability analysis needs.
#[derive(Debug, Clone, Default)]
pub struct ElabLintFacts {
    /// Non-input signals with no driver, modeled as free inputs (sound
    /// over-approximation).  Hierarchical names (`inst.sig`) for submodule
    /// signals.
    pub undriven: Vec<String>,
    /// Signals with more than one driver; the model keeps the last one and
    /// silently ignores the rest.  `(name, description of the collision)`.
    pub multiply_driven: Vec<(String, String)>,
    /// Output port names of the top module, for annotation-coverage checks.
    pub top_outputs: Vec<String>,
    /// Top-module signals with an enum type: `(signal, enum type key)` —
    /// the key looks up [`TypeTable::enum_members`].
    pub enum_signals: Vec<(String, String)>,
}

/// The elaborated design: circuit plus symbol table.
#[derive(Debug, Clone)]
pub struct ElabDesign {
    /// The sequential circuit.
    pub aig: Aig,
    /// Signal name (hierarchical, `inst.sig` for submodules) to current-cycle
    /// bits, LSB first.
    pub symbols: HashMap<String, Vec<Lit>>,
    /// Name of the elaborated top module.
    pub top: String,
    /// Names of the top-level ports that became free model inputs.
    pub free_inputs: Vec<String>,
    /// Resolved parameter values of the top module.
    pub params: HashMap<String, u128>,
    /// Resolved user-defined types (struct layouts, enum constants).
    pub types: TypeTable,
    /// Symbol name → index into [`TypeTable::layouts`] for every signal with
    /// a packed-struct type, so property compilation can lower member access
    /// (`fu_data_i.fu`) to bit slices of the flat signal.
    pub signal_types: HashMap<String, usize>,
    /// Facts recorded for the design lint ([`crate::lint`]).
    pub lint: ElabLintFacts,
}

impl ElabDesign {
    /// Looks up a signal's bits by name.
    pub fn signal(&self, name: &str) -> Option<&[Lit]> {
        self.symbols.get(name).map(Vec::as_slice)
    }

    /// The width of a signal, if present.
    pub fn width(&self, name: &str) -> Option<usize> {
        self.symbols.get(name).map(Vec::len)
    }

    /// The struct layout of a signal, when it has a struct type.
    pub fn signal_layout(&self, name: &str) -> Option<&StructLayout> {
        self.signal_types.get(name).map(|&ix| self.types.layout(ix))
    }
}

/// Elaborates `file` into an AIG.
///
/// # Errors
///
/// Returns an [`ElabError`] when the design uses constructs outside the
/// supported subset, when widths cannot be determined, or when combinational
/// cycles are detected.
pub fn elaborate(file: &SourceFile, options: &ElabOptions) -> Result<ElabDesign> {
    elaborate_budgeted(file, options, &crate::interrupt::Interrupt::none())
}

/// Like [`elaborate`], under a deadline: the interrupt is polled between
/// the elaboration phases *and inside the unbounded loops* (the typedef
/// resolution fixpoint and the per-signal resolution sweep), so a
/// pathological design — deeply recursive typedefs, enormous generated
/// signal lists — fails with a front-end deadline error instead of
/// stalling the run before any engine budget applies.
///
/// # Errors
///
/// As [`elaborate`], plus a deadline-exceeded error naming the phase the
/// budget ran out in.
pub fn elaborate_budgeted(
    file: &SourceFile,
    options: &ElabOptions,
    interrupt: &crate::interrupt::Interrupt,
) -> Result<ElabDesign> {
    let _span = crate::telemetry::span("elab", options.top.as_deref().unwrap_or(""));
    let top = match &options.top {
        Some(name) => file
            .module(name)
            .ok_or_else(|| ElabError::new(format!("top module `{name}` not found")))?,
        None => file
            .modules()
            .next()
            .ok_or_else(|| ElabError::new("source contains no modules"))?,
    };
    let (types, pkg_params) = build_type_table(file, interrupt)?;
    let mut ctx = Elaborator {
        file,
        options,
        interrupt,
        aig: Aig::new(),
        symbols: HashMap::new(),
        signal_types: HashMap::new(),
        free_inputs: Vec::new(),
        top_params: HashMap::new(),
        types,
        pkg_params,
        deps_memo: HashMap::new(),
        deps_visiting: HashSet::new(),
        lint: ElabLintFacts::default(),
    };
    let overrides: Vec<(String, u128)> = options.params.clone();
    let (mut scope, drivers, regs) = ctx.setup_scope(top, "", &overrides)?;
    ctx.finalize_module(top, &mut scope, &drivers, &regs)?;
    Ok(ElabDesign {
        aig: ctx.aig,
        symbols: ctx.symbols,
        top: top.name.clone(),
        free_inputs: ctx.free_inputs,
        params: ctx.top_params,
        types: ctx.types,
        signal_types: ctx.signal_types,
        lint: ctx.lint,
    })
}

/// Resolves every `typedef` of the file (package, file, and module scope)
/// into widths, struct layouts, and enum constants.  Also returns the
/// package parameters under their scoped names (`pkg::PARAM`) so module
/// expressions can reference them.
fn build_type_table(
    file: &SourceFile,
    interrupt: &crate::interrupt::Interrupt,
) -> Result<(TypeTable, HashMap<String, u128>)> {
    let mut table = TypeTable::default();
    let mut scoped_params: HashMap<String, u128> = HashMap::new();

    // Pass 1 — every package's parameters, in source order (a package's
    // params may reference its own earlier params or earlier packages'
    // scoped params).  Collecting them all *before* any typedef resolves
    // means typedef widths can reference any package's parameters
    // regardless of declaration order.
    for item in &file.items {
        if let svparse::ast::Item::Package(pkg) = item {
            let mut env: HashMap<String, u128> = scoped_params.clone();
            for p in &pkg.params {
                if let Some(expr) = &p.value {
                    let v = const_eval(expr, &env)?;
                    env.insert(p.name.clone(), v);
                    scoped_params.insert(format!("{}::{}", pkg.name, p.name), v);
                }
            }
        }
    }

    // Pass 2 — collect every typedef with its resolution environment.
    // (scope name, export an unscoped alias?, param env, typedef)
    type TdWork = (
        Option<String>,
        bool,
        HashMap<String, u128>,
        svparse::ast::Typedef,
    );
    let mut work: Vec<TdWork> = Vec::new();
    for item in &file.items {
        match item {
            svparse::ast::Item::Package(pkg) => {
                // All scoped params plus the package's own under bare names.
                let mut env: HashMap<String, u128> = scoped_params.clone();
                for p in &pkg.params {
                    if let Some(v) = scoped_params.get(&format!("{}::{}", pkg.name, p.name)) {
                        env.insert(p.name.clone(), *v);
                    }
                }
                for td in &pkg.typedefs {
                    work.push((Some(pkg.name.clone()), true, env.clone(), td.clone()));
                }
            }
            svparse::ast::Item::Typedef(td) => {
                work.push((None, true, scoped_params.clone(), td.clone()));
            }
            svparse::ast::Item::Module(module) => {
                // Module-scope typedefs resolve against the module's default
                // parameter values (overrides are not visible here; designs
                // that need parameterized local typedefs should hoist them
                // into a package).
                let mut env: HashMap<String, u128> = scoped_params.clone();
                for p in module.params.iter() {
                    if let Some(expr) = &p.value {
                        if let Ok(v) = const_eval(expr, &env) {
                            env.insert(p.name.clone(), v);
                        }
                    }
                }
                let mut param_names: HashSet<String> =
                    module.params.iter().map(|p| p.name.clone()).collect();
                for it in &module.items {
                    match it {
                        ModuleItem::Param(p) => {
                            param_names.insert(p.name.clone());
                            if let Some(expr) = &p.value {
                                if let Ok(v) = const_eval(expr, &env) {
                                    env.insert(p.name.clone(), v);
                                }
                            }
                        }
                        ModuleItem::Typedef(td) => {
                            // Record which module parameters the typedef
                            // depends on: its widths are resolved with the
                            // *default* values, so overriding one of these
                            // parameters must be rejected at instantiation.
                            let mut refs = Vec::new();
                            datatype_idents(&td.ty, &mut refs);
                            let sensitive: Vec<&String> =
                                refs.iter().filter(|r| param_names.contains(*r)).collect();
                            if !sensitive.is_empty() {
                                let entry = table
                                    .module_typedef_param_refs
                                    .entry(module.name.clone())
                                    .or_default();
                                entry.extend(sensitive.into_iter().cloned());
                            }
                            // Module-scope typedefs are module-local: they
                            // register under `module::name` only (no global
                            // unscoped alias), so same-named typedefs in
                            // different modules cannot collide or leak.
                            work.push((Some(module.name.clone()), false, env.clone(), td.clone()));
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    // Opaque typedefs (bodies outside the parsed subset, skipped by the
    // parser) bind no type: drop them here so only a *use* of the name
    // errors, not the mere presence of the typedef.
    work.retain(|(_, _, _, td)| {
        !(td.ty.kind == svparse::ast::NetKind::Named && td.ty.type_name.is_none())
    });
    // Count alias exporters per name so contested unscoped aliases resolve
    // only after every definition is in (see `register_type`).
    for (_, alias, _, td) in &work {
        if *alias {
            *table.alias_expected.entry(td.name.clone()).or_default() += 1;
        }
    }

    // Typedefs may reference each other (a struct field of an enum type);
    // iterate until a fixpoint, deferring entries whose named types are not
    // resolved yet.  The rounds are bounded by the typedef count, but each
    // can be large and the bound quadratic — poll the front-end deadline
    // every round.
    while !work.is_empty() {
        if interrupt.poll().is_some() {
            return Err(ElabError::new(
                "front-end deadline exceeded during typedef resolution",
            ));
        }
        let mut next: Vec<TdWork> = Vec::new();
        let before = work.len();
        for (scope, alias, env, td) in work {
            match resolve_typedef_type(&td.ty, &td.name, &env, &mut table, scope.as_deref())? {
                Some((width, layout)) => {
                    register_type(&mut table, scope.as_deref(), alias, &td.name, width, layout);
                    if td.ty.kind == svparse::ast::NetKind::Enum {
                        register_enum_members(
                            &mut table,
                            scope.as_deref(),
                            alias,
                            &td.name,
                            &td.ty,
                            width,
                            &env,
                        )?;
                    }
                }
                None => next.push((scope, alias, env, td)),
            }
        }
        if next.len() == before {
            let names: Vec<String> = next.iter().map(|(_, _, _, td)| td.name.clone()).collect();
            return Err(ElabError::new(format!(
                "could not resolve typedef(s) {names:?}: unknown or cyclic type references"
            )));
        }
        work = next;
    }
    Ok((table, scoped_params))
}

/// Attempts to resolve one typedef'd type; returns `None` when it references
/// a named type that has not been resolved yet (the caller retries).
fn resolve_typedef_type(
    ty: &DataType,
    type_name: &str,
    env: &HashMap<String, u128>,
    table: &mut TypeTable,
    scope: Option<&str>,
) -> Result<Option<(usize, Option<usize>)>> {
    use svparse::ast::NetKind;
    match ty.kind {
        NetKind::Struct => {
            // Resolve every field first; defer the whole struct if any field
            // type is still unknown.  Nested anonymous struct/enum fields
            // resolve recursively (their layouts are registered under a
            // synthesized `outer.field` name; members of nested anonymous
            // enums are not exported as constants).
            let mut resolved: Vec<(String, usize, Option<usize>)> = Vec::new();
            for field in &ty.struct_fields {
                let field_type = if matches!(field.ty.kind, NetKind::Struct | NetKind::Enum) {
                    let anon = format!("{type_name}.{}", field.name);
                    resolve_typedef_type(&field.ty, &anon, env, table, scope)?
                } else {
                    named_width(&field.ty, env, table, scope)?
                };
                match field_type {
                    Some((w, layout)) => resolved.push((field.name.clone(), w, layout)),
                    None => return Ok(None),
                }
            }
            let width = bounded(resolved.iter().map(|(_, w, _)| *w as u128).sum(), || {
                format!("struct `{type_name}`")
            })?;
            // MSB field first: offsets count down from the top.
            let mut offset = width;
            let mut fields = Vec::with_capacity(resolved.len());
            for (name, w, layout) in resolved {
                offset -= w;
                fields.push(FieldLayout {
                    name,
                    offset,
                    width: w,
                    layout,
                });
            }
            let index = table.layouts.len();
            table.layouts.push(StructLayout {
                name: type_name.to_string(),
                width,
                fields,
            });
            Ok(Some((width, Some(index))))
        }
        NetKind::Enum => {
            let width = if ty.packed_dims.is_empty() {
                32
            } else {
                dims_width(&ty.packed_dims, env)?
            };
            Ok(Some((width, None)))
        }
        _ => named_width(ty, env, table, scope),
    }
}

/// Width (and struct layout, if any) of a non-struct/enum data type; `None`
/// when it names a type that is not in the table yet.
fn named_width(
    ty: &DataType,
    env: &HashMap<String, u128>,
    table: &TypeTable,
    scope: Option<&str>,
) -> Result<Option<(usize, Option<usize>)>> {
    use svparse::ast::NetKind;
    let (base, layout) = match ty.kind {
        NetKind::Named => {
            let name = ty.type_name.as_deref().unwrap_or("");
            match table.resolve_name(scope, name) {
                Some(key) => (
                    table.width_of(&key).expect("resolved key has a width"),
                    table.layout_index(&key),
                ),
                None if table.ambiguous_type(name) => {
                    return Err(ElabError::new(format!(
                        "type `{name}` is ambiguous: multiple packages export \
                         conflicting definitions — use a scoped reference \
                         (`pkg::{name}`)"
                    )))
                }
                None => return Ok(None),
            }
        }
        NetKind::Integer => (32, None),
        NetKind::Struct | NetKind::Enum => {
            return Err(ElabError::new(
                "anonymous struct/enum types are only supported inside typedefs",
            ))
        }
        _ => (1, None),
    };
    if ty.packed_dims.is_empty() {
        return Ok(Some((base, layout)));
    }
    let dims = dims_width(&ty.packed_dims, env)?;
    // Extra packed dimensions build an array-of-type; the element layout no
    // longer describes the whole word (regardless of the element width).
    let width = bounded(base.max(1) as u128 * dims as u128, || {
        format!(
            "a packed array of `{}`",
            ty.type_name.as_deref().unwrap_or("")
        )
    })?;
    Ok(Some((width, None)))
}

/// Collects every identifier a data type's constant expressions reference:
/// packed-dimension bounds, struct field types (recursively), and explicit
/// enum member values.
fn datatype_idents(ty: &DataType, out: &mut Vec<String>) {
    for dim in &ty.packed_dims {
        out.extend(dim.msb.referenced_idents());
        out.extend(dim.lsb.referenced_idents());
    }
    for field in &ty.struct_fields {
        datatype_idents(&field.ty, out);
    }
    for member in &ty.enum_members {
        if let Some(v) = &member.value {
            out.extend(v.referenced_idents());
        }
    }
}

fn dims_width(dims: &[svparse::ast::Range], env: &HashMap<String, u128>) -> Result<usize> {
    let mut width = 1usize;
    for dim in dims {
        let dim = range_width(const_eval(&dim.msb, env)?, const_eval(&dim.lsb, env)?)?;
        width = bounded(width as u128 * dim as u128, || "a packed type".to_string())?;
    }
    Ok(width)
}

fn register_type(
    table: &mut TypeTable,
    scope: Option<&str>,
    alias: bool,
    name: &str,
    width: usize,
    layout: Option<usize>,
) {
    if let Some(scope) = scope {
        let scoped = format!("{scope}::{name}");
        table.widths.insert(scoped.clone(), width);
        if let Some(ix) = layout {
            table.by_name.insert(scoped, ix);
        }
    }
    if !alias {
        // Module-local typedefs stay scoped-only.
        return;
    }
    // Unscoped alias (covers `import pkg::*;` usage).  A name exported by a
    // single scope publishes immediately; a name exported by several scopes
    // is deferred until every definition has resolved — then the alias is
    // published only if all definitions agree (structurally, for structs)
    // and withdrawn ("poisoned") otherwise, so a bare reference can never
    // bind to whichever package happened to be processed first.
    let expected = table.alias_expected.get(name).copied().unwrap_or(1);
    if expected <= 1 {
        table.widths.insert(name.to_string(), width);
        if let Some(ix) = layout {
            table.by_name.insert(name.to_string(), ix);
        }
        return;
    }
    let pending = table.alias_pending.entry(name.to_string()).or_default();
    pending.push((width, layout));
    if pending.len() < expected {
        return;
    }
    let pending = table.alias_pending.remove(name).expect("just inserted");
    let (w0, l0) = pending[0];
    let agree = pending.iter().all(|&(w, l)| {
        w == w0
            && match (l0, l) {
                (None, None) => true,
                (Some(a), Some(b)) => table.layouts_equal(a, b),
                _ => false,
            }
    });
    if agree {
        table.widths.insert(name.to_string(), w0);
        if let Some(ix) = l0 {
            table.by_name.insert(name.to_string(), ix);
        }
    } else {
        table.poisoned_types.insert(name.to_string());
    }
}

fn register_enum_members(
    table: &mut TypeTable,
    scope: Option<&str>,
    alias: bool,
    type_name: &str,
    ty: &DataType,
    width: usize,
    env: &HashMap<String, u128>,
) -> Result<()> {
    let mut next_value: u128 = 0;
    let mut members: Vec<(String, u128)> = Vec::with_capacity(ty.enum_members.len());
    for member in &ty.enum_members {
        let value = match &member.value {
            Some(expr) => const_eval(expr, env)?,
            None => next_value,
        };
        if width < 128 && value >= 1u128 << width {
            return Err(ElabError::new(format!(
                "enum member `{}` has value {value}, which does not fit the \
                 {width}-bit base type",
                member.name
            )));
        }
        next_value = value + 1;
        members.push((member.name.clone(), value));
        if let Some(scope) = scope {
            table
                .enum_consts
                .insert(format!("{scope}::{}", member.name), (value, width));
        }
        if !alias {
            continue;
        }
        // Unscoped alias: identical re-definitions share it, conflicting
        // ones poison it (same policy as type names).
        if table.poisoned_consts.contains(&member.name) {
            continue;
        }
        match table.enum_consts.get(&member.name) {
            Some(&existing) if existing != (value, width) => {
                table.poisoned_consts.insert(member.name.clone());
                table.enum_consts.remove(&member.name);
            }
            _ => {
                table
                    .enum_consts
                    .insert(member.name.clone(), (value, width));
            }
        }
    }
    // The member list registers under the same keys as the type's width, so
    // a `resolve_name` result looks both up consistently.
    if let Some(scope) = scope {
        table
            .enum_defs
            .insert(format!("{scope}::{type_name}"), members.clone());
    }
    if alias {
        table.enum_defs.insert(type_name.to_string(), members);
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SigKind {
    Input,
    Reg,
    Wire,
}

#[derive(Debug, Clone)]
struct SigInfo {
    width: usize,
    /// Number of unpacked elements; `None` for scalars/vectors.
    array: Option<usize>,
    kind: SigKind,
    /// Struct layout index when the signal has a packed-struct type.
    layout: Option<usize>,
}

struct Elaborator<'a> {
    file: &'a SourceFile,
    options: &'a ElabOptions,
    /// The front-end deadline guard (unarmed when no budget is set),
    /// polled inside the per-signal resolution sweep.
    interrupt: &'a crate::interrupt::Interrupt,
    aig: Aig,
    symbols: HashMap<String, Vec<Lit>>,
    /// Exported symbol name → struct layout index.
    signal_types: HashMap<String, usize>,
    free_inputs: Vec<String>,
    top_params: HashMap<String, u128>,
    types: TypeTable,
    /// Package parameters under their scoped names (`pkg::PARAM`).
    pkg_params: HashMap<String, u128>,
    /// Memoized per-module static combinational port dependencies:
    /// module name → (output port → input ports in its combinational cone).
    deps_memo: HashMap<String, Arc<HashMap<String, Vec<String>>>>,
    /// Modules currently being analysed (recursive-instantiation guard).
    deps_visiting: HashSet<String>,
    /// Facts recorded for the design lint as elaboration proceeds.
    lint: ElabLintFacts,
}

/// Per-module-instance elaboration state.
struct ModuleScope {
    prefix: String,
    params: HashMap<String, u128>,
    infos: HashMap<String, SigInfo>,
    /// Current-cycle values of signals.
    values: HashMap<String, Val>,
    /// In-progress evaluations (combinational loop detection; both local
    /// signal names and `inst.port` markers for instance outputs).
    in_progress: HashSet<String>,
    /// Lazily created child-instance states, keyed by module-item index.
    instances: HashMap<usize, InstanceState>,
}

/// Elaboration state of one child module instance.
///
/// Instances are elaborated **per output**: when the parent needs output
/// `port`, only the parent expressions feeding that output's static input
/// cone are evaluated first, so a combinational path through the instance
/// that is acyclic per-port no longer reports a false combinational cycle.
/// The rest of the child (remaining inputs, unread signals, the sequential
/// update, symbol export) is completed in [`Elaborator::finalize_instances`]
/// once the parent's combinational resolution is done.
struct InstanceState {
    module: Module,
    inst_name: String,
    scope: ModuleScope,
    drivers: HashMap<String, Driver>,
    regs: Vec<String>,
    /// Static per-output input-cone map of the child module (shared).
    deps: Arc<HashMap<String, Vec<String>>>,
    /// Connected input ports (clock/reset excluded) → parent expression.
    conns_in: HashMap<String, Expr>,
    finalized: bool,
}

#[derive(Debug, Clone)]
enum Driver {
    /// `assign lhs = expr` — index of the module item.
    Assign(usize),
    /// A declaration initializer `wire x = expr;` — item index and declarator
    /// index within the declaration.
    DeclInit(usize, usize),
    /// Driven inside an `always_comb`/`always @*` block (item index).
    Comb(usize),
    /// Driven by an instance output (item index, port name).
    Instance(usize, String),
}

impl<'a> Elaborator<'a> {
    /// Builds the elaboration scope of one module instance: resolved
    /// parameters, the signal inventory, driver classification, tied
    /// clock/reset, top-level free inputs, and the register latches with
    /// their reset-derived initial values.  Input ports of non-top instances
    /// stay unbound here; [`Elaborator::ensure_instance`] binds them.
    fn setup_scope(
        &mut self,
        module: &Module,
        prefix: &str,
        param_overrides: &[(String, u128)],
    ) -> Result<(ModuleScope, HashMap<String, Driver>, Vec<String>)> {
        // Module-scope typedefs were resolved against the module's *default*
        // parameter values; an override touching one of them would silently
        // change signal widths underneath the type table, so reject it.
        if let Some(refs) = self.types.module_typedef_param_refs.get(&module.name) {
            if let Some((name, _)) = param_overrides.iter().find(|(n, _)| refs.contains(n)) {
                return Err(ElabError::new(format!(
                    "parameter override `{name}` of `{}` affects a module-scope typedef, \
                     whose width is fixed at the default parameter values — hoist the \
                     typedef (and its parameters) into a package",
                    module.name
                )));
            }
        }

        // ------------------------------------------------------------------
        // Parameters (package parameters visible under their scoped names).
        // ------------------------------------------------------------------
        let mut params: HashMap<String, u128> = self.pkg_params.clone();
        for p in &module.params {
            let value = match param_overrides.iter().find(|(n, _)| n == &p.name) {
                Some((_, v)) => *v,
                None => match &p.value {
                    Some(expr) => const_eval(expr, &params)?,
                    None => {
                        return Err(ElabError::new(format!(
                            "parameter `{}` of `{}` has no value",
                            p.name, module.name
                        )))
                    }
                },
            };
            params.insert(p.name.clone(), value);
        }
        for item in &module.items {
            if let ModuleItem::Param(p) = item {
                if let Some(expr) = &p.value {
                    let value = const_eval(expr, &params)?;
                    params.insert(p.name.clone(), value);
                }
            }
        }
        if prefix.is_empty() {
            self.top_params = params.clone();
        }

        // ------------------------------------------------------------------
        // Signal inventory and driver classification.
        // ------------------------------------------------------------------
        let mut scope = ModuleScope {
            prefix: prefix.to_string(),
            params,
            infos: HashMap::new(),
            values: HashMap::new(),
            in_progress: HashSet::new(),
            instances: HashMap::new(),
        };

        for port in &module.ports {
            let (width, layout) = self.resolve_type(&port.ty, &scope.params, &module.name)?;
            let array = array_len(&port.unpacked_dims, &scope.params, width)?;
            let kind = match port.direction {
                Direction::Input => SigKind::Input,
                Direction::Output | Direction::Inout => SigKind::Wire,
            };
            if prefix.is_empty() {
                if port.direction == Direction::Output {
                    self.lint.top_outputs.push(port.name.clone());
                }
                self.record_enum_signal(&port.name, &port.ty, &module.name);
            }
            scope.infos.insert(
                port.name.clone(),
                SigInfo {
                    width,
                    array,
                    kind,
                    layout,
                },
            );
        }
        for item in &module.items {
            if let ModuleItem::Decl(decl) = item {
                let (width, layout) = self.resolve_type(&decl.ty, &scope.params, &module.name)?;
                for name in &decl.names {
                    let array = array_len(&name.unpacked_dims, &scope.params, width)?;
                    if prefix.is_empty() {
                        self.record_enum_signal(&name.name, &decl.ty, &module.name);
                    }
                    scope.infos.entry(name.name.clone()).or_insert(SigInfo {
                        width,
                        array,
                        kind: SigKind::Wire,
                        layout,
                    });
                }
            }
        }

        // Registers: targets of non-blocking assignments in always_ff.  A
        // register wholly assigned from two distinct sequential blocks is
        // multiply-driven (first block index per register is remembered).
        let mut reg_names: Vec<String> = Vec::new();
        let mut seq_block: HashMap<String, usize> = HashMap::new();
        for (idx, item) in module.items.iter().enumerate() {
            if let ModuleItem::Always(block) = item {
                if is_sequential(block) {
                    for t in assign_targets(&block.body, whole_lvalue_targets) {
                        match seq_block.get(&t) {
                            Some(&first) if first != idx => {
                                self.lint.multiply_driven.push((
                                    format!("{prefix}{t}"),
                                    "two sequential always blocks".to_string(),
                                ));
                            }
                            Some(_) => {}
                            None => {
                                seq_block.insert(t, idx);
                            }
                        }
                    }
                    for t in assign_targets(&block.body, lvalue_targets) {
                        if let Some(info) = scope.infos.get_mut(&t) {
                            if info.kind != SigKind::Input {
                                info.kind = SigKind::Reg;
                                if !reg_names.contains(&t) {
                                    reg_names.push(t);
                                }
                            }
                        }
                    }
                }
            }
        }

        let drivers: HashMap<String, Driver> = {
            // Collisions between *whole-signal* drivers are multiply-driven;
            // the last driver wins in the map (unchanged semantics) while the
            // lint records both sides.
            let mut whole_by: HashMap<String, usize> = HashMap::new();
            let mut collisions: Vec<(String, String)> = Vec::new();
            let note_whole = |whole_by: &mut HashMap<String, usize>,
                              collisions: &mut Vec<(String, String)>,
                              target: &str,
                              idx: usize,
                              desc: &str| {
                match whole_by.get(target) {
                    Some(&first) if first != idx => collisions.push((
                        format!("{prefix}{target}"),
                        format!("{} and {desc}", driver_desc(&module.items[first])),
                    )),
                    Some(_) => {}
                    None => {
                        whole_by.insert(target.to_string(), idx);
                    }
                }
            };
            let mut map = HashMap::new();
            for (idx, item) in module.items.iter().enumerate() {
                match item {
                    ModuleItem::ContinuousAssign(assign) => {
                        for target in whole_lvalue_targets(&assign.lhs) {
                            note_whole(
                                &mut whole_by,
                                &mut collisions,
                                &target,
                                idx,
                                "a continuous assign",
                            );
                        }
                        for target in lvalue_targets(&assign.lhs) {
                            map.insert(target, Driver::Assign(idx));
                        }
                    }
                    ModuleItem::Decl(decl) => {
                        for (di, name) in decl.names.iter().enumerate() {
                            if name.init.is_some() {
                                note_whole(
                                    &mut whole_by,
                                    &mut collisions,
                                    &name.name,
                                    idx,
                                    "a declaration initializer",
                                );
                                map.insert(name.name.clone(), Driver::DeclInit(idx, di));
                            }
                        }
                    }
                    ModuleItem::Always(block) if !is_sequential(block) => {
                        let mut whole = assign_targets(&block.body, whole_lvalue_targets);
                        whole.dedup();
                        for t in &whole {
                            note_whole(
                                &mut whole_by,
                                &mut collisions,
                                t,
                                idx,
                                "a combinational always block",
                            );
                        }
                        for t in assign_targets(&block.body, lvalue_targets) {
                            map.insert(t, Driver::Comb(idx));
                        }
                    }
                    ModuleItem::Instance(inst) => {
                        // The instantiated module's port directions determine
                        // which connections drive parent signals.
                        if let Some(child) = self.file.module(&inst.module_name) {
                            for conn in &inst.connections {
                                if let (Some(expr), Some(port)) =
                                    (&conn.expr, child.port(&conn.name))
                                {
                                    if port.direction == Direction::Output {
                                        if let Some(name) = expr.as_ident() {
                                            note_whole(
                                                &mut whole_by,
                                                &mut collisions,
                                                name,
                                                idx,
                                                "an instance output",
                                            );
                                            map.insert(
                                                name.to_string(),
                                                Driver::Instance(idx, conn.name.clone()),
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            // A register (sequential target) that also has a combinational
            // driver is multiply-driven too.
            for (target, &idx) in &whole_by {
                if seq_block.contains_key(target) {
                    collisions.push((
                        format!("{prefix}{target}"),
                        format!(
                            "a sequential always block and {}",
                            driver_desc(&module.items[idx])
                        ),
                    ));
                }
            }
            collisions.sort();
            self.lint.multiply_driven.extend(collisions);
            map
        };

        // ------------------------------------------------------------------
        // Tie clock/reset; top-level inputs become free model inputs.
        // ------------------------------------------------------------------
        let is_top = prefix.is_empty();
        for port in &module.ports {
            let name = &port.name;
            let info = scope.infos.get(name).expect("port info").clone();
            if port.direction != Direction::Input {
                continue;
            }
            if name == &self.options.clock {
                scope
                    .values
                    .insert(name.clone(), Val::Word(vec![Lit::FALSE]));
                continue;
            }
            if name == &self.options.reset {
                let inactive = if self.options.reset_active_low {
                    Lit::TRUE
                } else {
                    Lit::FALSE
                };
                scope.values.insert(name.clone(), Val::Word(vec![inactive]));
                continue;
            }
            if is_top {
                let bits = self.new_inputs(&format!("{prefix}{name}"), info.width);
                self.free_inputs.push(name.clone());
                scope.values.insert(name.clone(), Val::Word(bits));
            }
        }

        // Latches for registers.  Initial values come from the reset branches
        // of the always_ff blocks; default is zero.
        let mut init_values: HashMap<String, u128> = HashMap::new();
        let mut init_array_values: HashMap<String, Vec<u128>> = HashMap::new();
        for item in &module.items {
            if let ModuleItem::Always(block) = item {
                if is_sequential(block) {
                    self.collect_reset_inits(
                        block,
                        &scope.params,
                        &mut init_values,
                        &mut init_array_values,
                    )?;
                }
            }
        }
        for name in &reg_names {
            let info = scope.infos.get(name).expect("reg info").clone();
            match info.array {
                None => {
                    let init = init_values.get(name).copied().unwrap_or(0);
                    let bits = self.new_latches(&format!("{prefix}{name}"), info.width, init);
                    scope.values.insert(name.clone(), Val::Word(bits));
                }
                Some(len) => {
                    let inits = init_array_values
                        .get(name)
                        .cloned()
                        .unwrap_or_else(|| vec![init_values.get(name).copied().unwrap_or(0); len]);
                    let elems: Vec<Vec<Lit>> = (0..len)
                        .map(|i| {
                            let init = inits.get(i).copied().unwrap_or(0);
                            self.new_latches(&format!("{prefix}{name}[{i}]"), info.width, init)
                        })
                        .collect();
                    scope.values.insert(name.clone(), Val::Array(elems));
                }
            }
        }

        Ok((scope, drivers, reg_names))
    }

    /// Completes a module whose scope is set up: resolves every signal,
    /// finalizes child instances, wires the latch next-state functions, and
    /// exports the symbol table.
    fn finalize_module(
        &mut self,
        module: &Module,
        scope: &mut ModuleScope,
        drivers: &HashMap<String, Driver>,
        regs: &[String],
    ) -> Result<()> {
        // Resolution order fixes the AIG node numbering, and hash-map key
        // order is randomized per process — sort so the compiled model (and
        // therefore every slice fingerprint keying the on-disk proof cache)
        // is byte-stable across processes.
        let mut all_names: Vec<String> = scope.infos.keys().cloned().collect();
        all_names.sort_unstable();
        // Each resolution can recurse through a whole combinational cone;
        // generated designs make this list arbitrarily long, so the
        // front-end deadline is polled per signal.
        for name in &all_names {
            if self.interrupt.poll().is_some() {
                return Err(ElabError::new(
                    "front-end deadline exceeded during signal resolution",
                ));
            }
            self.resolve_signal(module, scope, drivers, name)?;
        }
        self.finalize_instances(module, scope, drivers)?;
        self.sequential_update(module, scope, drivers, regs)?;
        self.export_symbols(scope);
        Ok(())
    }

    /// Computes next-state values of the registers and wires the latches.
    fn sequential_update(
        &mut self,
        module: &Module,
        scope: &mut ModuleScope,
        drivers: &HashMap<String, Driver>,
        regs: &[String],
    ) -> Result<()> {
        let mut next_values: HashMap<String, Val> = HashMap::new();
        for name in regs {
            next_values.insert(name.clone(), scope.values[name].clone());
        }
        for item in &module.items {
            if let ModuleItem::Always(block) = item {
                if is_sequential(block) {
                    let update = self.strip_reset_branch(block)?;
                    self.exec_stmt(module, scope, drivers, &update, Lit::TRUE, &mut next_values)?;
                }
            }
        }
        for name in regs {
            let current = scope.values[name].clone();
            let next = next_values[name].clone();
            match (current, next) {
                (Val::Word(cur), Val::Word(next)) => {
                    let next = words::resize(&next, cur.len());
                    for (c, n) in cur.iter().zip(next.iter()) {
                        self.aig.set_latch_next(*c, *n);
                    }
                }
                (Val::Array(cur), Val::Array(next)) => {
                    for (ce, ne) in cur.iter().zip(next.iter()) {
                        let ne = words::resize(ne, ce.len());
                        for (c, n) in ce.iter().zip(ne.iter()) {
                            self.aig.set_latch_next(*c, *n);
                        }
                    }
                }
                _ => {
                    return Err(ElabError::new(format!(
                        "register `{name}` mixes array and scalar forms"
                    )))
                }
            }
        }
        Ok(())
    }

    /// Exports every resolved signal of the scope into the global symbol
    /// table (with the hierarchical prefix) and records struct-typed signals
    /// in the signal-type map.
    fn export_symbols(&mut self, scope: &ModuleScope) {
        let prefix = &scope.prefix;
        for (name, value) in &scope.values {
            match value {
                Val::Word(bits) => {
                    self.symbols.insert(format!("{prefix}{name}"), bits.clone());
                }
                Val::Array(elems) => {
                    for (i, bits) in elems.iter().enumerate() {
                        self.symbols
                            .insert(format!("{prefix}{name}[{i}]"), bits.clone());
                    }
                }
            }
            if let Some(info) = scope.infos.get(name) {
                if let Some(layout) = info.layout {
                    self.signal_types.insert(format!("{prefix}{name}"), layout);
                }
            }
        }
    }

    /// Creates (if needed) the elaboration state of the instance at module
    /// item `idx`: child parameters, scope, latches, and free inputs for
    /// unconnected input ports.  Connected inputs stay lazy.
    fn ensure_instance(
        &mut self,
        module: &Module,
        scope: &mut ModuleScope,
        idx: usize,
    ) -> Result<()> {
        if scope.instances.contains_key(&idx) {
            return Ok(());
        }
        let inst = match &module.items[idx] {
            ModuleItem::Instance(i) => i.clone(),
            _ => unreachable!("instance index mismatch"),
        };
        let child = self
            .file
            .module(&inst.module_name)
            .ok_or_else(|| ElabError::new(format!("module `{}` not found", inst.module_name)))?
            .clone();
        let mut overrides = Vec::new();
        for conn in &inst.param_overrides {
            if let Some(expr) = &conn.expr {
                overrides.push((conn.name.clone(), const_eval(expr, &scope.params)?));
            }
        }
        let child_prefix = format!("{}{}.", scope.prefix, inst.instance_name);
        let (mut cscope, cdrivers, cregs) = self.setup_scope(&child, &child_prefix, &overrides)?;

        let mut conns_in: HashMap<String, Expr> = HashMap::new();
        for conn in &inst.connections {
            if let (Some(expr), Some(port)) = (&conn.expr, child.port(&conn.name)) {
                if port.direction == Direction::Input
                    && conn.name != self.options.clock
                    && conn.name != self.options.reset
                {
                    conns_in.insert(conn.name.clone(), expr.clone());
                }
            }
        }
        // Unconnected submodule inputs: free inputs (the sound
        // over-approximation for missing environment), created now so the
        // AIG numbering only depends on the deterministic demand order.
        for port in &child.ports {
            if port.direction != Direction::Input
                || port.name == self.options.clock
                || port.name == self.options.reset
                || conns_in.contains_key(&port.name)
                || cscope.values.contains_key(&port.name)
            {
                continue;
            }
            let width = cscope.infos.get(&port.name).expect("port info").width;
            let bits = self.new_inputs(&format!("{child_prefix}{}", port.name), width);
            cscope.values.insert(port.name.clone(), Val::Word(bits));
        }

        let deps = self.module_comb_deps(&inst.module_name)?;
        scope.instances.insert(
            idx,
            InstanceState {
                module: child,
                inst_name: inst.instance_name.clone(),
                scope: cscope,
                drivers: cdrivers,
                regs: cregs,
                deps,
                conns_in,
                finalized: false,
            },
        );
        Ok(())
    }

    /// Resolves one output of a child instance, evaluating only the parent
    /// expressions feeding that output's static combinational input cone —
    /// so instance paths that are acyclic per-port elaborate even when the
    /// instance as a whole participates in a (port-disjoint) feedback loop.
    fn instance_output(
        &mut self,
        module: &Module,
        scope: &mut ModuleScope,
        drivers: &HashMap<String, Driver>,
        idx: usize,
        port: &str,
    ) -> Result<Vec<Lit>> {
        self.ensure_instance(module, scope, idx)?;
        let (needed, inst_name) = {
            let st = scope.instances.get(&idx).expect("instance state");
            (
                st.deps.get(port).cloned().unwrap_or_default(),
                st.inst_name.clone(),
            )
        };
        // Port-granular cycle detection: the marker contains a `.`, so it
        // cannot collide with a local signal name.
        let marker = format!("{inst_name}.{port}");
        if !scope.in_progress.insert(marker.clone()) {
            return Err(ElabError::new(format!(
                "combinational cycle through output `{port}` of instance `{inst_name}`"
            )));
        }
        for input in &needed {
            let expr = {
                let st = scope.instances.get(&idx).expect("instance state");
                if st.scope.values.contains_key(input) {
                    continue;
                }
                st.conns_in.get(input).cloned()
            };
            // Inputs without a connection were freed in ensure_instance.
            let Some(expr) = expr else { continue };
            let result = self.eval_expr(module, scope, drivers, &expr);
            let bits = match result {
                Ok(v) => v.word()?,
                Err(e) => {
                    scope.in_progress.remove(&marker);
                    return Err(e);
                }
            };
            let st = scope.instances.get_mut(&idx).expect("instance state");
            let width = st
                .scope
                .infos
                .get(input)
                .map(|i| i.width)
                .unwrap_or(bits.len());
            st.scope
                .values
                .insert(input.clone(), Val::Word(words::resize(&bits, width)));
        }
        // The child resolution below is self-contained (its input cone is
        // pre-resolved), so the state can be checked out without blocking
        // re-entrant resolution of *other* outputs of this instance.
        let mut st = scope.instances.remove(&idx).expect("instance state");
        let result = self.resolve_signal(&st.module, &mut st.scope, &st.drivers, port);
        scope.instances.insert(idx, st);
        scope.in_progress.remove(&marker);
        result?.word()
    }

    /// Completes every child instance of the scope: evaluates the remaining
    /// connected inputs, resolves all child signals, recurses into
    /// grandchildren, runs the child's sequential update, and exports its
    /// symbols.
    fn finalize_instances(
        &mut self,
        module: &Module,
        scope: &mut ModuleScope,
        drivers: &HashMap<String, Driver>,
    ) -> Result<()> {
        for idx in 0..module.items.len() {
            if !matches!(module.items[idx], ModuleItem::Instance(_)) {
                continue;
            }
            self.ensure_instance(module, scope, idx)?;
            // Remaining connected inputs (not demanded by any output cone),
            // evaluated in sorted order for deterministic node numbering.
            let pending: Vec<(String, Expr)> = {
                let st = scope.instances.get(&idx).expect("instance state");
                let mut v: Vec<(String, Expr)> = st
                    .conns_in
                    .iter()
                    .filter(|(p, _)| !st.scope.values.contains_key(*p))
                    .map(|(p, e)| (p.clone(), e.clone()))
                    .collect();
                v.sort_by(|a, b| a.0.cmp(&b.0));
                v
            };
            for (port, expr) in pending {
                let bits = self.eval_expr(module, scope, drivers, &expr)?.word()?;
                let st = scope.instances.get_mut(&idx).expect("instance state");
                let width = st
                    .scope
                    .infos
                    .get(&port)
                    .map(|i| i.width)
                    .unwrap_or(bits.len());
                st.scope
                    .values
                    .insert(port, Val::Word(words::resize(&bits, width)));
            }
            let mut st = scope.instances.remove(&idx).expect("instance state");
            let result = if st.finalized {
                Ok(())
            } else {
                st.finalized = true;
                let regs = st.regs.clone();
                self.finalize_module(&st.module, &mut st.scope, &st.drivers, &regs)
            };
            scope.instances.insert(idx, st);
            result?;
        }
        Ok(())
    }

    /// Static per-output combinational input dependencies of a module:
    /// `output port → input ports that may feed it combinationally`.
    ///
    /// The analysis runs on the AST (before elaboration) and
    /// over-approximates: every identifier referenced by a driver counts as
    /// a dependency, registers cut the traversal, and nested instances
    /// contribute the connected expressions of their own (recursively
    /// computed) per-output cones.  Over-approximation is safe — at worst an
    /// input is evaluated earlier than strictly necessary — while an
    /// under-approximation would mis-order elaboration.
    fn module_comb_deps(&mut self, name: &str) -> Result<Arc<HashMap<String, Vec<String>>>> {
        if let Some(deps) = self.deps_memo.get(name) {
            return Ok(deps.clone());
        }
        if !self.deps_visiting.insert(name.to_string()) {
            return Err(ElabError::new(format!(
                "recursive instantiation of module `{name}`"
            )));
        }
        let module = self
            .file
            .module(name)
            .ok_or_else(|| ElabError::new(format!("module `{name}` not found")))?
            .clone();

        // Registers cut combinational dependencies.
        let mut seq_targets: HashSet<String> = HashSet::new();
        for item in &module.items {
            if let ModuleItem::Always(block) = item {
                if is_sequential(block) {
                    seq_targets.extend(assign_targets(&block.body, lvalue_targets));
                }
            }
        }

        let mut graph: HashMap<String, Vec<String>> = HashMap::new();
        let add_edges = |graph: &mut HashMap<String, Vec<String>>, t: String, deps: &[String]| {
            graph.entry(t).or_default().extend(deps.iter().cloned());
        };
        for item in &module.items {
            match item {
                ModuleItem::Decl(decl) => {
                    for d in &decl.names {
                        if let Some(init) = &d.init {
                            add_edges(&mut graph, d.name.clone(), &init.referenced_idents());
                        }
                    }
                }
                ModuleItem::ContinuousAssign(assign) => {
                    let mut deps = assign.rhs.referenced_idents();
                    deps.extend(assign.lhs.referenced_idents());
                    for t in lvalue_targets(&assign.lhs) {
                        add_edges(&mut graph, t, &deps);
                    }
                }
                ModuleItem::Always(block) if !is_sequential(block) => {
                    // Every identifier the block mentions: tested
                    // expressions and both sides of every assignment.
                    let mut deps = Vec::new();
                    block.body.walk(&mut |v| match v {
                        Visit::Assign(a) => {
                            deps.extend(a.lhs.referenced_idents());
                            deps.extend(a.rhs.referenced_idents());
                        }
                        Visit::Test(e) => deps.extend(e.referenced_idents()),
                    });
                    for t in assign_targets(&block.body, lvalue_targets) {
                        add_edges(&mut graph, t, &deps);
                    }
                }
                ModuleItem::Instance(inst) => {
                    let child_deps = self.module_comb_deps(&inst.module_name)?;
                    for conn in &inst.connections {
                        let Some(target) = conn.expr.as_ref().and_then(|e| e.as_ident()) else {
                            continue;
                        };
                        let Some(needed) = child_deps.get(&conn.name) else {
                            continue;
                        };
                        let mut deps = Vec::new();
                        for input in needed {
                            if let Some(c) = inst.connections.iter().find(|c| &c.name == input) {
                                if let Some(e) = &c.expr {
                                    deps.extend(e.referenced_idents());
                                }
                            }
                        }
                        add_edges(&mut graph, target.to_string(), &deps);
                    }
                }
                _ => {}
            }
        }
        for t in &seq_targets {
            graph.remove(t);
        }

        let input_ports: HashSet<&str> = module
            .ports
            .iter()
            .filter(|p| p.direction == Direction::Input)
            .map(|p| p.name.as_str())
            .collect();
        let mut result: HashMap<String, Vec<String>> = HashMap::new();
        for port in &module.ports {
            if port.direction != Direction::Output {
                continue;
            }
            let mut reached: HashSet<String> = HashSet::new();
            let mut visited: HashSet<String> = HashSet::new();
            let mut stack = vec![port.name.clone()];
            while let Some(sig) = stack.pop() {
                if !visited.insert(sig.clone()) {
                    continue;
                }
                if input_ports.contains(sig.as_str()) {
                    reached.insert(sig.clone());
                }
                if let Some(next) = graph.get(&sig) {
                    stack.extend(next.iter().cloned());
                }
            }
            let mut cone: Vec<String> = reached.into_iter().collect();
            cone.sort_unstable();
            result.insert(port.name.clone(), cone);
        }

        self.deps_visiting.remove(name);
        let arc = Arc::new(result);
        self.deps_memo.insert(name.to_string(), arc.clone());
        Ok(arc)
    }

    fn new_inputs(&mut self, name: &str, width: usize) -> Vec<Lit> {
        (0..width)
            .map(|i| {
                if width == 1 {
                    self.aig.add_input(name.to_string())
                } else {
                    self.aig.add_input(format!("{name}[{i}]"))
                }
            })
            .collect()
    }

    fn new_latches(&mut self, name: &str, width: usize, init: u128) -> Vec<Lit> {
        (0..width)
            .map(|i| {
                let bit_init = (init >> i) & 1 == 1;
                let bit_name = if width == 1 {
                    name.to_string()
                } else {
                    format!("{name}[{i}]")
                };
                self.aig.add_latch(bit_name, bit_init)
            })
            .collect()
    }

    /// Width and (for struct types) layout index of a declared type.
    ///
    /// Named (and anonymous struct/enum) types share [`named_width`] with
    /// the typedef resolver; the plain-vector fallback keeps the legacy
    /// rule that every non-named scalar (including `integer`, used for
    /// genvars) is 1 bit wide in the model.
    fn resolve_type(
        &self,
        ty: &DataType,
        params: &HashMap<String, u128>,
        scope: &str,
    ) -> Result<(usize, Option<usize>)> {
        use svparse::ast::NetKind;
        if matches!(ty.kind, NetKind::Named | NetKind::Struct | NetKind::Enum) {
            return named_width(ty, params, &self.types, Some(scope))?.ok_or_else(|| {
                ElabError::new(format!(
                    "unknown type `{}` (no matching typedef)",
                    ty.type_name.as_deref().unwrap_or("")
                ))
            });
        }
        if ty.packed_dims.is_empty() {
            return Ok((1, None));
        }
        Ok((dims_width(&ty.packed_dims, params)?, None))
    }

    /// Records `signal` as enum-typed (with its resolved type-table key) when
    /// its declared type names an enum typedef — the unreachable-enum-state
    /// lint checks which members the design source actually mentions.
    fn record_enum_signal(&mut self, signal: &str, ty: &DataType, module_name: &str) {
        use svparse::ast::NetKind;
        if ty.kind != NetKind::Named {
            return;
        }
        let Some(type_name) = ty.type_name.as_deref() else {
            return;
        };
        let Some(key) = self.types.resolve_name(Some(module_name), type_name) else {
            return;
        };
        if self.types.enum_members(&key).is_some() {
            self.lint.enum_signals.push((signal.to_string(), key));
        }
    }

    /// Resolves the current-cycle value of a signal, evaluating its driver if
    /// needed.
    fn resolve_signal(
        &mut self,
        module: &Module,
        scope: &mut ModuleScope,
        drivers: &HashMap<String, Driver>,
        name: &str,
    ) -> Result<Val> {
        if let Some(v) = scope.values.get(name) {
            return Ok(v.clone());
        }
        if !scope.in_progress.insert(name.to_string()) {
            return Err(ElabError::new(format!(
                "combinational cycle through signal `{name}`"
            )));
        }
        let info = scope
            .infos
            .get(name)
            .cloned()
            .ok_or_else(|| ElabError::new(format!("unknown signal `{name}`")))?;
        let value = match drivers.get(name).cloned() {
            Some(Driver::DeclInit(idx, di)) => {
                let init = match &module.items[idx] {
                    ModuleItem::Decl(d) => d.names[di].init.clone().expect("declared initializer"),
                    _ => unreachable!("driver index mismatch"),
                };
                let bits = self.eval_expr(module, scope, drivers, &init)?.word()?;
                Val::Word(words::resize(&bits, info.width))
            }
            Some(Driver::Assign(idx)) => {
                let assign = match &module.items[idx] {
                    ModuleItem::ContinuousAssign(a) => a,
                    _ => unreachable!("driver index mismatch"),
                };
                // Initialise the target with zeros, execute the single
                // assignment, and read the result back — this handles partial
                // (bit/element) targets uniformly.
                let mut env: HashMap<String, Val> = HashMap::new();
                env.insert(name.to_string(), default_value(&info));
                let stmt = Stmt::Blocking(assign.clone());
                self.exec_stmt(module, scope, drivers, &stmt, Lit::TRUE, &mut env)?;
                env.remove(name).expect("assigned value")
            }
            Some(Driver::Comb(idx)) => {
                let block = match &module.items[idx] {
                    ModuleItem::Always(b) => b.clone(),
                    _ => unreachable!("driver index mismatch"),
                };
                let mut env: HashMap<String, Val> = HashMap::new();
                for t in &assign_targets(&block.body, lvalue_targets) {
                    if let Some(ti) = scope.infos.get(t) {
                        env.insert(t.clone(), default_value(ti));
                    }
                }
                self.exec_stmt(module, scope, drivers, &block.body, Lit::TRUE, &mut env)?;
                // Publish every signal computed by this block.
                let result = env
                    .get(name)
                    .cloned()
                    .ok_or_else(|| ElabError::new(format!("block does not assign `{name}`")))?;
                for (t, v) in env {
                    if t != name {
                        scope.values.entry(t).or_insert(v);
                    }
                }
                result
            }
            Some(Driver::Instance(idx, port)) => {
                let bits = self.instance_output(module, scope, drivers, idx, &port)?;
                Val::Word(words::resize(&bits, info.width))
            }
            None => {
                if info.kind == SigKind::Input {
                    // Input ports are pre-bound (top-level free inputs, tied
                    // clock/reset, instance connections, or the free inputs
                    // of unconnected ports); reaching one here means the
                    // static instance cone under-approximated the real
                    // dependencies.
                    return Err(ElabError::new(format!(
                        "internal: input port `{name}` demanded before it was bound \
                         (instance dependency cone under-approximated)"
                    )));
                }
                // Undriven: free input (sound over-approximation).
                let prefix = scope.prefix.clone();
                self.lint.undriven.push(format!("{prefix}{name}"));
                match info.array {
                    None => Val::Word(self.new_inputs(&format!("{prefix}{name}"), info.width)),
                    Some(len) => Val::Array(
                        (0..len)
                            .map(|i| self.new_inputs(&format!("{prefix}{name}[{i}]"), info.width))
                            .collect(),
                    ),
                }
            }
        };
        scope.in_progress.remove(name);
        scope.values.insert(name.to_string(), value.clone());
        Ok(value)
    }

    /// Extracts initial values from the reset branch of a sequential block.
    fn collect_reset_inits(
        &self,
        block: &AlwaysBlock,
        params: &HashMap<String, u128>,
        inits: &mut HashMap<String, u128>,
        array_inits: &mut HashMap<String, Vec<u128>>,
    ) -> Result<()> {
        let Some((reset_branch, _)) = self.split_reset(block) else {
            return Ok(());
        };
        for a in reset_branch.assigns() {
            if let Some(name) = a.lhs.as_ident() {
                if let Ok(v) = const_eval(&a.rhs, params) {
                    inits.insert(name.to_string(), v);
                }
            } else if let Expr::Index { base, index } = &a.lhs {
                if let (Some(name), Ok(idx), Ok(v)) = (
                    base.as_ident(),
                    const_eval(index, params),
                    const_eval(&a.rhs, params),
                ) {
                    // No array holds more than MAX_BITS entries, so a larger
                    // index initializes nothing.
                    if idx < MAX_BITS as u128 {
                        let idx = idx as usize;
                        let entry = array_inits.entry(name.to_string()).or_default();
                        if entry.len() <= idx {
                            entry.resize(idx + 1, 0);
                        }
                        entry[idx] = v;
                    }
                }
            }
        }
        Ok(())
    }

    /// Splits a sequential block into (reset branch, update branch) when it
    /// follows the `if (!rst) ... else ...` idiom.
    fn split_reset(&self, block: &AlwaysBlock) -> Option<(Stmt, Stmt)> {
        let body = match &block.body {
            Stmt::Block(stmts) if stmts.len() == 1 => &stmts[0],
            other => other,
        };
        if let Stmt::If {
            cond,
            then_branch,
            else_branch,
        } = body
        {
            if expr_is_reset_condition(cond, &self.options.reset, self.options.reset_active_low) {
                let update = else_branch
                    .as_ref()
                    .map(|b| (**b).clone())
                    .unwrap_or(Stmt::Empty);
                return Some(((**then_branch).clone(), update));
            }
        }
        None
    }

    /// Returns the update (non-reset) portion of a sequential block.
    fn strip_reset_branch(&self, block: &AlwaysBlock) -> Result<Stmt> {
        match self.split_reset(block) {
            Some((_, update)) => Ok(update),
            None => Ok(block.body.clone()),
        }
    }

    /// Symbolically executes a statement, updating `env` (the map of assigned
    /// signals) under the path condition `cond`.
    fn exec_stmt(
        &mut self,
        module: &Module,
        scope: &mut ModuleScope,
        drivers: &HashMap<String, Driver>,
        stmt: &Stmt,
        cond: Lit,
        env: &mut HashMap<String, Val>,
    ) -> Result<()> {
        match stmt {
            Stmt::Empty => Ok(()),
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.exec_stmt(module, scope, drivers, s, cond, env)?;
                }
                Ok(())
            }
            Stmt::Blocking(assign) | Stmt::NonBlocking(assign) => {
                let rhs = self.eval_expr_env(module, scope, drivers, &assign.rhs, env)?;
                self.assign_lvalue(module, scope, drivers, &assign.lhs, rhs, cond, env)
            }
            Stmt::If {
                cond: c,
                then_branch,
                else_branch,
            } => {
                let c_bits = self.eval_expr_env(module, scope, drivers, c, env)?.word()?;
                let c_lit = words::reduce_or(&mut self.aig, &c_bits);
                let then_cond = self.aig.and(cond, c_lit);
                self.exec_stmt(module, scope, drivers, then_branch, then_cond, env)?;
                if let Some(else_branch) = else_branch {
                    let not_c = c_lit.invert();
                    let else_cond = self.aig.and(cond, not_c);
                    self.exec_stmt(module, scope, drivers, else_branch, else_cond, env)?;
                }
                Ok(())
            }
            Stmt::Case { subject, items } => {
                let subject_bits = self
                    .eval_expr_env(module, scope, drivers, subject, env)?
                    .word()?;
                let mut matched_any = Lit::FALSE;
                let mut default_item: Option<&CaseItem> = None;
                for item in items {
                    if item.is_default {
                        default_item = Some(item);
                        continue;
                    }
                    let mut this_match = Lit::FALSE;
                    for label in &item.labels {
                        let label_bits = self
                            .eval_expr_env(module, scope, drivers, label, env)?
                            .word()?;
                        let m = words::eq(&mut self.aig, &subject_bits, &label_bits);
                        this_match = self.aig.or(this_match, m);
                    }
                    let not_prev = matched_any.invert();
                    let first_match = self.aig.and(this_match, not_prev);
                    let item_cond = self.aig.and(cond, first_match);
                    self.exec_stmt(module, scope, drivers, &item.body, item_cond, env)?;
                    matched_any = self.aig.or(matched_any, this_match);
                }
                if let Some(item) = default_item {
                    let not_matched = matched_any.invert();
                    let item_cond = self.aig.and(cond, not_matched);
                    self.exec_stmt(module, scope, drivers, &item.body, item_cond, env)?;
                }
                Ok(())
            }
        }
    }

    /// Assigns `rhs` to an lvalue under path condition `cond`.
    #[allow(clippy::too_many_arguments)]
    fn assign_lvalue(
        &mut self,
        module: &Module,
        scope: &mut ModuleScope,
        drivers: &HashMap<String, Driver>,
        lhs: &Expr,
        rhs: Val,
        cond: Lit,
        env: &mut HashMap<String, Val>,
    ) -> Result<()> {
        match lhs {
            Expr::Ident(name) => {
                let info = scope.infos.get(name).cloned().ok_or_else(|| {
                    ElabError::new(format!("assignment to unknown signal `{name}`"))
                })?;
                let old = env
                    .get(name)
                    .cloned()
                    .unwrap_or_else(|| default_value(&info));
                let new = match (old, rhs) {
                    (Val::Word(old), rhs) => {
                        // The declared width of the target wins: the RHS is
                        // truncated or zero-extended to fit.
                        let rhs = words::resize(&rhs.word()?, old.len());
                        Val::Word(words::mux(&mut self.aig, cond, &rhs, &old))
                    }
                    (Val::Array(old), Val::Array(new)) => {
                        let merged: Vec<Vec<Lit>> = old
                            .iter()
                            .zip(new.iter())
                            .map(|(o, n)| words::mux(&mut self.aig, cond, n, o))
                            .collect();
                        Val::Array(merged)
                    }
                    (Val::Array(_), Val::Word(_)) => {
                        return Err(ElabError::new(format!(
                            "cannot assign a packed value to the whole array `{name}`"
                        )))
                    }
                };
                env.insert(name.clone(), new);
                Ok(())
            }
            Expr::Index { base, index } => {
                let name = base
                    .as_ident()
                    .ok_or_else(|| ElabError::new("indexed assignment base must be a signal"))?
                    .to_string();
                let info = scope.infos.get(&name).cloned().ok_or_else(|| {
                    ElabError::new(format!("assignment to unknown signal `{name}`"))
                })?;
                let index_bits = self
                    .eval_expr_env(module, scope, drivers, index, env)?
                    .word()?;
                let old = env
                    .get(&name)
                    .cloned()
                    .unwrap_or_else(|| default_value(&info));
                match old {
                    Val::Array(elems) => {
                        let rhs = words::resize(&rhs.word()?, info.width);
                        let mut new_elems = Vec::with_capacity(elems.len());
                        for (i, elem) in elems.iter().enumerate() {
                            let idx_const = words::constant(i as u128, index_bits.len().max(1));
                            let is_this = words::eq(&mut self.aig, &index_bits, &idx_const);
                            let write = self.aig.and(cond, is_this);
                            new_elems.push(words::mux(&mut self.aig, write, &rhs, elem));
                        }
                        env.insert(name, Val::Array(new_elems));
                        Ok(())
                    }
                    Val::Word(bits) => {
                        // Single-bit write into a packed vector.
                        let rhs = rhs.word()?;
                        let rhs_bit = rhs.first().copied().unwrap_or(Lit::FALSE);
                        let mut new_bits = Vec::with_capacity(bits.len());
                        for (i, &bit) in bits.iter().enumerate() {
                            let idx_const = words::constant(i as u128, index_bits.len().max(1));
                            let is_this = words::eq(&mut self.aig, &index_bits, &idx_const);
                            let write = self.aig.and(cond, is_this);
                            new_bits.push(self.aig.mux(write, rhs_bit, bit));
                        }
                        env.insert(name, Val::Word(new_bits));
                        Ok(())
                    }
                }
            }
            Expr::Concat(parts) => {
                // {a, b} = rhs — split MSB-first.
                let rhs_bits = rhs.word()?;
                let mut widths = Vec::new();
                for part in parts {
                    let name = part
                        .as_ident()
                        .ok_or_else(|| ElabError::new("concat assignment parts must be signals"))?;
                    let info = scope
                        .infos
                        .get(name)
                        .ok_or_else(|| ElabError::new(format!("unknown signal `{name}`")))?;
                    widths.push(info.width);
                }
                let total: usize = widths.iter().sum();
                let rhs_bits = words::resize(&rhs_bits, total);
                // parts[0] is the most significant.
                let mut offset = total;
                for (part, width) in parts.iter().zip(widths.iter()) {
                    offset -= width;
                    let slice = rhs_bits[offset..offset + width].to_vec();
                    self.assign_lvalue(module, scope, drivers, part, Val::Word(slice), cond, env)?;
                }
                Ok(())
            }
            Expr::RangeSelect { .. } | Expr::Member { .. } => {
                // Both write a constant slice of one signal.
                let (name, lsb, width) = match lhs {
                    Expr::RangeSelect { base, msb, lsb } => {
                        let name = base.as_ident().ok_or_else(|| {
                            ElabError::new("range assignment base must be a signal")
                        })?;
                        let msb = const_eval(msb, &scope.params)?;
                        let lsb = const_eval(lsb, &scope.params)?;
                        if msb < lsb {
                            return Err(ElabError::new(format!(
                                "part-select target `{name}[{msb}:{lsb}]` names its LSB \
                                 first; only [msb:lsb] targets are supported"
                            )));
                        }
                        let width = range_width(msb, lsb)?;
                        let lsb = usize::try_from(lsb).unwrap_or(usize::MAX);
                        (name.to_string(), lsb, width)
                    }
                    _ => {
                        let (name, offset, width, _) = scope_member(&self.types, scope, lhs)?;
                        (name, offset, width)
                    }
                };
                let info = scope.infos.get(&name).cloned().ok_or_else(|| {
                    ElabError::new(format!("assignment to unknown signal `{name}`"))
                })?;
                let old = env
                    .get(&name)
                    .cloned()
                    .unwrap_or_else(|| default_value(&info))
                    .word()?;
                let rhs = words::resize(&rhs.word()?, width);
                let mut new_bits = old.clone();
                for (k, bit) in rhs.iter().enumerate() {
                    let pos = lsb.saturating_add(k);
                    if pos < new_bits.len() {
                        new_bits[pos] = self.aig.mux(cond, *bit, old[pos]);
                    }
                }
                env.insert(name, Val::Word(new_bits));
                Ok(())
            }
            other => Err(ElabError::new(format!(
                "unsupported assignment target: {other:?}"
            ))),
        }
    }

    /// Evaluates an expression in the current scope (no statement-local
    /// environment).
    fn eval_expr(
        &mut self,
        module: &Module,
        scope: &mut ModuleScope,
        drivers: &HashMap<String, Driver>,
        expr: &Expr,
    ) -> Result<Val> {
        self.eval_expr_env(module, scope, drivers, expr, &HashMap::new())
    }

    /// Evaluates an expression, preferring values from the statement-local
    /// environment `env` (for signals mid-update inside a procedural block).
    fn eval_expr_env(
        &mut self,
        module: &Module,
        scope: &mut ModuleScope,
        drivers: &HashMap<String, Driver>,
        expr: &Expr,
        env: &HashMap<String, Val>,
    ) -> Result<Val> {
        let mut names = RtlNames {
            elab: self,
            module,
            scope,
            drivers,
            env,
        };
        lower(&mut names, expr)
    }
}

/// How RTL names resolve: the values a procedural block has assigned so
/// far, then module parameters, then the module's signals (resolved on
/// demand, driver first), then enum members.
struct RtlNames<'s, 'a> {
    elab: &'s mut Elaborator<'a>,
    module: &'s Module,
    scope: &'s mut ModuleScope,
    drivers: &'s HashMap<String, Driver>,
    env: &'s HashMap<String, Val>,
}

impl Resolve for RtlNames<'_, '_> {
    fn aig(&mut self) -> &mut Aig {
        &mut self.elab.aig
    }

    fn params(&self) -> &HashMap<String, u128> {
        &self.scope.params
    }

    fn ident(&mut self, name: &str) -> Result<Val> {
        if let Some(v) = self.env.get(name) {
            return Ok(v.clone());
        }
        if let Some(&value) = self.scope.params.get(name) {
            return Ok(Val::Word(words::constant(value, 32)));
        }
        if self.scope.infos.contains_key(name) {
            return self
                .elab
                .resolve_signal(self.module, self.scope, self.drivers, name);
        }
        enum_member(&self.elab.types, &self.module.name, name)?
            .ok_or_else(|| ElabError::new(format!("unknown identifier `{name}`")))
    }

    fn member(&mut self, expr: &Expr) -> Result<Vec<Lit>> {
        let (name, offset, width, _) = scope_member(&self.elab.types, self.scope, expr)?;
        let bits = match self.env.get(&name) {
            Some(v) => v.clone().word()?,
            None => self
                .elab
                .resolve_signal(self.module, self.scope, self.drivers, &name)?
                .word()?,
        };
        Ok(words::slice(&bits, offset, width))
    }
}

/// Resolves a struct member access on a signal of `scope`.
fn scope_member(
    types: &TypeTable,
    scope: &ModuleScope,
    expr: &Expr,
) -> Result<(String, usize, usize, Option<usize>)> {
    types.member_path(expr, &|name| {
        scope
            .infos
            .get(name)
            .map(|info| info.layout)
            .ok_or_else(|| ElabError::new(format!("unknown signal `{name}`")))
    })
}

/// Entries of an unpacked array of `width`-bit words, `None` for a plain
/// word.
fn array_len(
    dims: &[svparse::ast::Range],
    params: &HashMap<String, u128>,
    width: usize,
) -> Result<Option<usize>> {
    let Some(dim) = dims.first() else {
        return Ok(None);
    };
    let len = range_width(const_eval(&dim.msb, params)?, const_eval(&dim.lsb, params)?)?;
    bounded(len as u128 * width as u128, || {
        format!("an unpacked array of {len} {width}-bit words")
    })?;
    Ok(Some(len))
}

fn default_value(info: &SigInfo) -> Val {
    match info.array {
        None => Val::Word(words::constant(0, info.width)),
        Some(len) => Val::Array(vec![words::constant(0, info.width); len]),
    }
}

fn clog2(value: u128) -> u128 {
    if value <= 1 {
        0
    } else {
        (128 - (value - 1).leading_zeros()) as u128
    }
}

/// `true` when the always block is edge-sensitive (a flip-flop description).
fn is_sequential(block: &AlwaysBlock) -> bool {
    match block.kind {
        AlwaysKind::Ff => true,
        AlwaysKind::Comb | AlwaysKind::Initial => false,
        AlwaysKind::Plain => block.sensitivity.iter().any(|e| e.posedge.is_some()),
    }
}

/// The signals every assignment of a statement tree writes, as `lvalue`
/// names them, in source order.
fn assign_targets(stmt: &Stmt, lvalue: fn(&Expr) -> Vec<String>) -> Vec<String> {
    stmt.assigns()
        .into_iter()
        .flat_map(|a| lvalue(&a.lhs))
        .collect()
}

/// Base signal names written by an lvalue expression.
fn lvalue_targets(lhs: &Expr) -> Vec<String> {
    match lhs {
        Expr::Ident(name) => vec![name.clone()],
        Expr::Index { base, .. } | Expr::RangeSelect { base, .. } => lvalue_targets(base),
        Expr::Concat(parts) => parts.iter().flat_map(lvalue_targets).collect(),
        Expr::Member { base, .. } => lvalue_targets(base),
        _ => Vec::new(),
    }
}

/// Human description of a driving module item, for multiply-driven lint
/// messages.
fn driver_desc(item: &ModuleItem) -> &'static str {
    match item {
        ModuleItem::ContinuousAssign(_) => "a continuous assign",
        ModuleItem::Decl(_) => "a declaration initializer",
        ModuleItem::Always(_) => "a combinational always block",
        ModuleItem::Instance(_) => "an instance output",
        _ => "another driver",
    }
}

/// Signal names an lvalue assigns *in full*.  Bit/range selects and member
/// writes are excluded: several statements each driving a different slice of
/// one signal are legal, so only whole-signal targets feed the
/// multiply-driven lint.
fn whole_lvalue_targets(lhs: &Expr) -> Vec<String> {
    match lhs {
        Expr::Ident(name) => vec![name.clone()],
        Expr::Concat(parts) => parts.iter().flat_map(whole_lvalue_targets).collect(),
        _ => Vec::new(),
    }
}

/// `true` if `expr` tests that the reset is asserted.
fn expr_is_reset_condition(expr: &Expr, reset: &str, active_low: bool) -> bool {
    match expr {
        Expr::Unary {
            op: UnaryOp::LogicalNot | UnaryOp::BitwiseNot,
            operand,
        } => active_low && operand.as_ident() == Some(reset),
        Expr::Ident(name) => !active_low && name == reset,
        Expr::Binary {
            op: BinaryOp::Eq,
            lhs,
            rhs,
        } => {
            let (id, num) = match (lhs.as_ident(), rhs.as_ref()) {
                (Some(id), Expr::Number(n)) => (id, n.value),
                _ => match (rhs.as_ident(), lhs.as_ref()) {
                    (Some(id), Expr::Number(n)) => (id, n.value),
                    _ => return false,
                },
            };
            id == reset && num == Some(if active_low { 0 } else { 1 })
        }
        _ => false,
    }
}

/// Evaluates a constant expression over a parameter environment.
///
/// Constants are unsigned 128-bit values.  Sums, differences, products and
/// unary minus wrap as two's complement, so `0 - 1` is all ones.  A power
/// whose exponent exceeds 32 bits or whose exact result exceeds 128 bits is
/// an error, and so is a left shift by 128 bits or more; a right shift that
/// far gives 0.
///
/// # Errors
///
/// Returns an error if the expression references signals, uses unsupported
/// operators, divides by zero, or overflows a power or a left shift.
pub fn const_eval(expr: &Expr, params: &HashMap<String, u128>) -> Result<u128> {
    match expr {
        Expr::Number(n) => n
            .value
            .ok_or_else(|| ElabError::new("x/z literal in constant expression")),
        Expr::Ident(name) => params
            .get(name)
            .copied()
            .ok_or_else(|| ElabError::new(format!("`{name}` is not a constant parameter"))),
        Expr::Unary { op, operand } => {
            let v = const_eval(operand, params)?;
            Ok(match op {
                UnaryOp::LogicalNot => u128::from(v == 0),
                UnaryOp::BitwiseNot => !v,
                UnaryOp::Negate => v.wrapping_neg(),
                UnaryOp::Plus => v,
                _ => return Err(ElabError::new("reduction in constant expression")),
            })
        }
        Expr::Binary { op, lhs, rhs } => {
            let a = const_eval(lhs, params)?;
            let b = const_eval(rhs, params)?;
            let shift = u32::try_from(b).ok();
            let checked = |value: Option<u128>| {
                value.ok_or_else(|| {
                    ElabError::new(format!(
                        "constant expression `{}` leaves the 128-bit unsigned range",
                        svparse::pretty::print_expr(expr)
                    ))
                })
            };
            Ok(match op {
                BinaryOp::Add => a.wrapping_add(b),
                BinaryOp::Sub => a.wrapping_sub(b),
                BinaryOp::Mul => a.wrapping_mul(b),
                BinaryOp::Div => {
                    if b == 0 {
                        return Err(ElabError::new("division by zero in constant expression"));
                    }
                    a / b
                }
                BinaryOp::Mod => {
                    if b == 0 {
                        return Err(ElabError::new("modulo by zero in constant expression"));
                    }
                    a % b
                }
                BinaryOp::Pow => checked(shift.and_then(|b| a.checked_pow(b)))?,
                BinaryOp::Shl => checked(shift.and_then(|b| a.checked_shl(b)))?,
                BinaryOp::Shr | BinaryOp::AShr => shift.and_then(|b| a.checked_shr(b)).unwrap_or(0),
                BinaryOp::BitAnd => a & b,
                BinaryOp::BitOr => a | b,
                BinaryOp::BitXor => a ^ b,
                BinaryOp::BitXnor => !(a ^ b),
                BinaryOp::LogicalAnd => u128::from(a != 0 && b != 0),
                BinaryOp::LogicalOr => u128::from(a != 0 || b != 0),
                BinaryOp::Eq | BinaryOp::CaseEq => u128::from(a == b),
                BinaryOp::Ne | BinaryOp::CaseNe => u128::from(a != b),
                BinaryOp::Lt => u128::from(a < b),
                BinaryOp::Le => u128::from(a <= b),
                BinaryOp::Gt => u128::from(a > b),
                BinaryOp::Ge => u128::from(a >= b),
            })
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            if const_eval(cond, params)? != 0 {
                const_eval(then_expr, params)
            } else {
                const_eval(else_expr, params)
            }
        }
        Expr::Call {
            name,
            is_system: true,
            args,
        } if name == "clog2" => {
            let v = const_eval(
                args.first()
                    .ok_or_else(|| ElabError::new("$clog2 requires an argument"))?,
                params,
            )?;
            Ok(clog2(v))
        }
        other => Err(ElabError::new(format!(
            "expression is not a constant: {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmc::{check_target_budgeted, BmcOptions};
    use crate::interrupt::Interrupt;
    use crate::model::Model;
    use crate::sat::SolverConfig;

    fn elab(src: &str) -> ElabDesign {
        let file = svparse::parse(src).expect("parse");
        elaborate(&file, &ElabOptions::default()).expect("elaborate")
    }

    #[test]
    fn const_eval_basics() {
        let params: HashMap<String, u128> = [("W".to_string(), 8u128)].into_iter().collect();
        let e = svparse::parse_expr("W - 1").unwrap();
        assert_eq!(const_eval(&e, &params).unwrap(), 7);
        let e = svparse::parse_expr("$clog2(W)").unwrap();
        assert_eq!(const_eval(&e, &params).unwrap(), 3);
        let e = svparse::parse_expr("2 ** 4 + 1").unwrap();
        assert_eq!(const_eval(&e, &params).unwrap(), 17);
        let e = svparse::parse_expr("W > 4 ? 10 : 20").unwrap();
        assert_eq!(const_eval(&e, &params).unwrap(), 10);
        assert!(const_eval(&svparse::parse_expr("missing").unwrap(), &params).is_err());
    }

    #[test]
    fn clog2_values() {
        assert_eq!(clog2(0), 0);
        assert_eq!(clog2(1), 0);
        assert_eq!(clog2(2), 1);
        assert_eq!(clog2(5), 3);
        assert_eq!(clog2(8), 3);
        assert_eq!(clog2(9), 4);
    }

    #[test]
    fn elaborate_combinational_logic() {
        let design = elab(
            "module comb (input logic a, input logic b, output logic y, output logic z);\n\
               assign y = a & b;\n\
               assign z = a | ~b;\n\
             endmodule",
        );
        assert_eq!(design.top, "comb");
        assert!(design.signal("y").is_some());
        assert_eq!(design.width("y"), Some(1));
        assert_eq!(design.aig.num_latches(), 0);
        assert_eq!(design.aig.num_inputs(), 2);
    }

    #[test]
    fn elaborate_counter_and_check_reachability() {
        let src = "module counter (input logic clk_i, input logic rst_ni, input logic en_i, output logic [2:0] cnt_o);\n\
             logic [2:0] cnt_q;\n\
             always_ff @(posedge clk_i or negedge rst_ni) begin\n\
               if (!rst_ni) cnt_q <= 3'd0;\n\
               else if (en_i) cnt_q <= cnt_q + 3'd1;\n\
             end\n\
             assign cnt_o = cnt_q;\n\
           endmodule";
        let design = elab(src);
        assert_eq!(design.aig.num_latches(), 3);
        // The counter can reach 7 but a value can only be reached after
        // enough enabled cycles.
        let cnt = design.signal("cnt_q").unwrap().to_vec();
        let mut model = Model::new(design.aig.clone());
        let target = words::eq(&mut model.aig, &cnt, &words::constant(5, 3));
        let (result, _) = check_target_budgeted(
            &model,
            target,
            "reaches5",
            &BmcOptions::default(),
            SolverConfig::default(),
            &Interrupt::none(),
        );
        match result {
            Some(crate::verdict::Verdict::Reached(trace)) => assert_eq!(trace.len(), 6),
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn reset_values_become_latch_inits() {
        let src =
            "module initval (input logic clk_i, input logic rst_ni, output logic [3:0] q_o);\n\
             logic [3:0] q;\n\
             always_ff @(posedge clk_i or negedge rst_ni) begin\n\
               if (!rst_ni) q <= 4'd9;\n\
               else q <= q;\n\
             end\n\
             assign q_o = q;\n\
           endmodule";
        let design = elab(src);
        let inits: u128 = design
            .aig
            .latches()
            .iter()
            .enumerate()
            .map(|(i, l)| if l.init { 1 << i } else { 0 })
            .sum();
        assert_eq!(inits, 9);
    }

    #[test]
    fn reset_writes_past_any_array_initialize_nothing() {
        // No array holds 2^32 entries, so this reset write sets no initial
        // value and allocates nothing for it; the in-range write still does.
        let src = "module m (input logic clk_i, input logic rst_ni, output logic [1:0] q_o);\n\
             logic [1:0] mem [0:1];\n\
             always_ff @(posedge clk_i or negedge rst_ni) begin\n\
               if (!rst_ni) begin mem[40'hFFFFFFFF] <= 2'd3; mem[1] <= 2'd2; end\n\
               else mem[0] <= mem[1];\n\
             end\n\
             assign q_o = mem[0];\n\
           endmodule";
        let design = elab(src);
        let inits: Vec<bool> = design.aig.latches().iter().map(|l| l.init).collect();
        assert_eq!(inits, [false, false, false, true]);
    }

    #[test]
    fn constant_arithmetic_wraps_as_twos_complement() {
        // `0 - 1` resets the counter to all ones, and negative offsets and
        // factors wrap back into range.
        let src = "module w #(parameter W = 4) (input logic clk_i, input logic rst_ni,\n\
               output logic [3:0] q_o, output logic [3:0] d_o, output logic [3:0] m_o);\n\
             localparam D = W + (-1);\n\
             localparam M = (-1) * 4;\n\
             logic [3:0] cnt_q;\n\
             always_ff @(posedge clk_i or negedge rst_ni) begin\n\
               if (!rst_ni) cnt_q <= 0 - 1;\n\
               else cnt_q <= cnt_q + 4'd1;\n\
             end\n\
             assign q_o = cnt_q;\n\
             assign d_o = D;\n\
             assign m_o = 0 + M;\n\
           endmodule";
        let design = elab(src);
        let inits: Vec<bool> = design.aig.latches().iter().map(|l| l.init).collect();
        assert_eq!(inits, [true; 4]);
        assert_eq!(words::as_constant(design.signal("d_o").unwrap()), Some(3));
        assert_eq!(words::as_constant(design.signal("m_o").unwrap()), Some(12));
    }

    #[test]
    fn part_select_reads_take_either_order() {
        let src =
            "module s (input logic [0:7] v_i, output logic [2:0] a_o, output logic [2:0] b_o);\n\
             assign a_o = v_i[1:3];\n\
             assign b_o = v_i[3:1];\n\
           endmodule";
        let design = elab(src);
        assert_eq!(design.signal("a_o"), design.signal("b_o"));
        assert_eq!(
            design.signal("a_o").unwrap(),
            &design.signal("v_i").unwrap()[1..4]
        );
    }

    #[test]
    fn narrow_index_reads_the_element_it_names() {
        // A 2-bit index reaches elements 0-3 of an 8-bit vector.  Element 1
        // is read through a constant `2'd1` and through a dynamic index,
        // never element 5, whose number truncated to two bits is also 1.
        let src = "module n (input logic [7:0] v_i, input logic [1:0] i_i,\n\
               output logic c_o, output logic d_o);\n\
             assign c_o = v_i[2'd1];\n\
             assign d_o = v_i[i_i];\n\
           endmodule";
        let design = elab(src);
        let v = design.signal("v_i").unwrap();
        assert_eq!(design.signal("c_o").unwrap(), &v[1..2]);
        // Lane `8 * i + b` drives index `i` and a vector with only bit `b`
        // set, so `d_o` is high exactly in the lanes where `b == i`.
        let lanes =
            |on: &dyn Fn(usize) -> bool| (0..32).filter(|&k| on(k)).fold(0u64, |w, k| w | 1 << k);
        let mut sim = crate::psim::Evaluator::<u64>::new(&design.aig);
        for (b, lit) in v.iter().enumerate() {
            sim.set(lit.node(), lanes(&|k| k % 8 == b));
        }
        for (b, lit) in design.signal("i_i").unwrap().iter().enumerate() {
            sim.set(lit.node(), lanes(&|k| (k / 8) >> b & 1 == 1));
        }
        sim.settle();
        let d = sim.get(design.signal("d_o").unwrap()[0]);
        assert_eq!(d & 0xFFFF_FFFF, lanes(&|k| k % 8 == k / 8));
    }

    #[test]
    fn parameters_and_localparams_resolve() {
        let src = "module p #(parameter W = 4, parameter DEPTH = 2**W) (input logic clk_i, output logic [W-1:0] x_o);\n\
             localparam HALF = DEPTH / 2;\n\
             assign x_o = HALF[W-1:0];\n\
           endmodule";
        let design = elab(src);
        assert_eq!(design.width("x_o"), Some(4));
        // HALF = 8 -> x_o == 8
        let bits = design.signal("x_o").unwrap();
        assert_eq!(words::as_constant(bits), Some(8));
    }

    #[test]
    fn always_comb_case_statement() {
        let src = "module dec (input logic [1:0] sel_i, output logic [3:0] onehot_o);\n\
             always_comb begin\n\
               onehot_o = 4'b0000;\n\
               case (sel_i)\n\
                 2'd0: onehot_o = 4'b0001;\n\
                 2'd1: onehot_o = 4'b0010;\n\
                 2'd2: onehot_o = 4'b0100;\n\
                 default: onehot_o = 4'b1000;\n\
               endcase\n\
             end\n\
           endmodule";
        let design = elab(src);
        assert_eq!(design.width("onehot_o"), Some(4));
        assert_eq!(design.aig.num_inputs(), 2);
    }

    #[test]
    fn unpacked_array_with_dynamic_index() {
        let src = "module regfile (input logic clk_i, input logic rst_ni,\n\
             input logic we_i, input logic [1:0] waddr_i, input logic [7:0] wdata_i,\n\
             input logic [1:0] raddr_i, output logic [7:0] rdata_o);\n\
             logic [7:0] mem [0:3];\n\
             always_ff @(posedge clk_i or negedge rst_ni) begin\n\
               if (!rst_ni) begin\n\
                 mem[0] <= 8'd0; mem[1] <= 8'd0; mem[2] <= 8'd0; mem[3] <= 8'd0;\n\
               end else if (we_i) begin\n\
                 mem[waddr_i] <= wdata_i;\n\
               end\n\
             end\n\
             assign rdata_o = mem[raddr_i];\n\
           endmodule";
        let design = elab(src);
        assert_eq!(design.aig.num_latches(), 32);
        assert!(design.signal("mem[2]").is_some());
        assert_eq!(design.width("rdata_o"), Some(8));
    }

    #[test]
    fn module_instances_are_elaborated_hierarchically() {
        let src = "module inner (input logic clk_i, input logic rst_ni, input logic d_i, output logic q_o);\n\
             logic q;\n\
             always_ff @(posedge clk_i or negedge rst_ni) begin\n\
               if (!rst_ni) q <= 1'b0; else q <= d_i;\n\
             end\n\
             assign q_o = q;\n\
           endmodule\n\
           module outer (input logic clk_i, input logic rst_ni, input logic d_i, output logic q_o);\n\
             logic mid;\n\
             inner u_first (.clk_i(clk_i), .rst_ni(rst_ni), .d_i(d_i), .q_o(mid));\n\
             inner u_second (.clk_i(clk_i), .rst_ni(rst_ni), .d_i(mid), .q_o(q_o));\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let design = elaborate(
            &file,
            &ElabOptions {
                top: Some("outer".to_string()),
                ..ElabOptions::default()
            },
        )
        .unwrap();
        assert_eq!(design.top, "outer");
        assert_eq!(design.aig.num_latches(), 2);
        assert!(design.signal("u_first.q").is_some());
        assert!(design.signal("u_second.q").is_some());
        assert!(design.signal("q_o").is_some());
    }

    #[test]
    fn undriven_signal_becomes_free_input() {
        let design = elab(
            "module free (input logic clk_i, output logic y_o);\n\
               logic mystery;\n\
               assign y_o = mystery;\n\
             endmodule",
        );
        // `mystery` has no driver: it must appear as an AIG input.
        assert_eq!(design.aig.num_inputs(), 1);
    }

    const STRUCT_PKG: &str = "package fu_pkg;\n\
         parameter TRANS_ID_BITS = 3;\n\
         typedef enum logic [1:0] { FU_NONE, LOAD, STORE } fu_op_t;\n\
         typedef struct packed {\n\
           logic [TRANS_ID_BITS-1:0] trans_id;\n\
           fu_op_t fu;\n\
         } fu_data_t;\n\
       endpackage\n";

    #[test]
    fn struct_member_reads_are_bit_slices() {
        let src = format!(
            "{STRUCT_PKG}module m (input logic clk_i, input fu_pkg::fu_data_t fu_data_i,\n\
               output logic [1:0] op_o, output logic [2:0] id_o);\n\
               assign op_o = fu_data_i.fu;\n\
               assign id_o = fu_data_i.trans_id;\n\
             endmodule"
        );
        let file = svparse::parse(&src).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        // Struct width 5: trans_id at [4:2] (first field = MSB end), fu at [1:0].
        let port = design.signal("fu_data_i").unwrap().to_vec();
        assert_eq!(port.len(), 5);
        assert_eq!(design.signal("op_o").unwrap(), &port[0..2]);
        assert_eq!(design.signal("id_o").unwrap(), &port[2..5]);
        // The struct type of the port is exported for property compilation.
        let layout = design.signal_layout("fu_data_i").expect("layout exported");
        assert_eq!(layout.width, 5);
        assert_eq!(layout.field("fu").unwrap().offset, 0);
        assert_eq!(layout.field("trans_id").unwrap().offset, 2);
        // Enum members resolve as constants of the enum width.
        assert_eq!(design.types.enum_const("LOAD"), Some((1, 2)));
        assert_eq!(design.types.enum_const("fu_pkg::STORE"), Some((2, 2)));
    }

    #[test]
    fn struct_member_writes_update_slices() {
        let src = format!(
            "{STRUCT_PKG}module m (input logic clk_i, input logic rst_ni,\n\
               input logic [2:0] id_i, output logic [4:0] flat_o);\n\
               fu_pkg::fu_data_t s_q;\n\
               always_ff @(posedge clk_i or negedge rst_ni) begin\n\
                 if (!rst_ni) s_q <= '0;\n\
                 else begin\n\
                   s_q.trans_id <= id_i;\n\
                   s_q.fu <= LOAD;\n\
                 end\n\
               end\n\
               assign flat_o = s_q;\n\
             endmodule"
        );
        let file = svparse::parse(&src).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        assert_eq!(design.width("s_q"), Some(5));
        assert_eq!(design.aig.num_latches(), 5);
        // After one cycle the fu field holds LOAD = 2'b01 and trans_id = id_i.
        let model = crate::model::Model::new(design.aig.clone());
        let mut sim = crate::psim::ParallelSim::new(&model);
        let inputs: Vec<u64> = (0..model.aig.num_inputs())
            .map(|i| u64::from(matches!(model.aig.input_name(i), "id_i[0]" | "id_i[2]")))
            .collect();
        sim.step_inputs(&inputs);
        sim.advance();
        let s_q = design.signal("s_q").unwrap();
        let got: u32 = s_q
            .iter()
            .enumerate()
            .map(|(i, &l)| if sim.word(l) & 1 == 1 { 1 << i } else { 0 })
            .sum();
        // trans_id = 3'b101 at [4:2], fu = 2'b01 at [1:0] -> 5'b10101.
        assert_eq!(got, 0b10101);
    }

    #[test]
    fn enum_members_usable_in_rtl_expressions() {
        let src = format!(
            "{STRUCT_PKG}module m (input logic clk_i, input fu_pkg::fu_data_t fu_data_i,\n\
               output logic is_load_o, output logic is_store_o);\n\
               assign is_load_o = fu_data_i.fu == LOAD;\n\
               assign is_store_o = fu_data_i.fu == fu_pkg::STORE;\n\
             endmodule"
        );
        let file = svparse::parse(&src).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        assert_eq!(design.width("is_load_o"), Some(1));
        assert_eq!(design.width("is_store_o"), Some(1));
    }

    #[test]
    fn nested_struct_member_access_resolves() {
        let src = "package p;\n\
             typedef struct packed { logic [1:0] lo; logic [1:0] hi; } inner_t;\n\
             typedef struct packed { inner_t a; logic b; } outer_t;\n\
           endpackage\n\
           module m (input logic clk_i, input p::outer_t x_i, output logic [1:0] y_o);\n\
             assign y_o = x_i.a.hi;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        // outer_t: a at [4:1] (inner_t: lo at [3:2] of outer / hi at [1:0]
        // relative... compute: inner_t is {lo (MSB), hi}: lo at [3:2], hi at
        // [1:0] within inner; outer {a (MSB), b}: a at [4:1], b at [0].
        let x = design.signal("x_i").unwrap().to_vec();
        assert_eq!(x.len(), 5);
        // a.hi = inner offset 0 within a, a at outer offset 1 -> bits [2:1].
        assert_eq!(design.signal("y_o").unwrap(), &x[1..3]);
    }

    #[test]
    fn unknown_struct_field_renders_caret_and_valid_fields() {
        let src = format!(
            "{STRUCT_PKG}module m (input logic clk_i, input fu_pkg::fu_data_t fu_data_i,\n\
               output logic y_o);\n\
               assign y_o = fu_data_i.fuu == LOAD;\n\
             endmodule"
        );
        let file = svparse::parse(&src).unwrap();
        let err = elaborate(&file, &ElabOptions::default()).unwrap_err();
        assert!(err.message.contains("no field `fuu`"), "{}", err.message);
        let rendered = err.render(&src);
        // The caret snippet points at the field on its source line and lists
        // the valid fields of the struct type.
        assert!(rendered.contains("fu_data_i.fuu"), "rendered: {rendered}");
        assert!(rendered.contains("^^^"), "rendered: {rendered}");
        assert!(
            rendered.contains("valid fields of `fu_data_t`: trans_id, fu"),
            "rendered: {rendered}"
        );
    }

    #[test]
    fn scalar_base_enum_is_one_bit() {
        // `enum logic { ... }` (no dimensions) is a 1-bit enum, not the
        // 32-bit no-base default.
        let src = "package p;\n\
             typedef enum logic { IDLE, BUSY } state_t;\n\
           endpackage\n\
           module m (input logic clk_i, input logic rst_ni, output logic y_o);\n\
             p::state_t s_q;\n\
             always_ff @(posedge clk_i or negedge rst_ni) begin\n\
               if (!rst_ni) s_q <= '0;\n\
               else s_q <= BUSY;\n\
             end\n\
             assign y_o = s_q == BUSY;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        assert_eq!(design.width("s_q"), Some(1));
        assert_eq!(design.aig.num_latches(), 1);
        assert_eq!(design.types.enum_const("BUSY"), Some((1, 1)));
    }

    #[test]
    fn enum_member_exceeding_base_width_is_rejected() {
        let src = "package p;\n\
             typedef enum logic [1:0] { A = 5 } t;\n\
           endpackage\n\
           module m (input logic clk_i, output logic y_o);\n\
             assign y_o = 1'b0;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let err = elaborate(&file, &ElabOptions::default()).unwrap_err();
        assert!(
            err.message.contains("does not fit"),
            "unexpected message: {}",
            err.message
        );
        // Auto-increment overflow is caught the same way.
        let src = "package p;\n\
             typedef enum logic [0:0] { X, Y, Z } t;\n\
           endpackage\n\
           module m (input logic clk_i, output logic y_o);\n\
             assign y_o = 1'b0;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        assert!(elaborate(&file, &ElabOptions::default()).is_err());
    }

    #[test]
    fn conflicting_unscoped_aliases_require_scoped_access() {
        // Two packages exporting the same enum-member name with different
        // values: the unscoped alias is withdrawn (using it is an error),
        // scoped access still resolves each package's value.
        let src = "package pa;\n\
             typedef enum logic [1:0] { IDLE, GO } sa_t;\n\
           endpackage\n\
           package pb;\n\
             typedef enum logic [1:0] { RUN, IDLE } sb_t;\n\
           endpackage\n\
           module m (input logic clk_i, input logic [1:0] s_i, output logic a_o, output logic b_o);\n\
             assign a_o = s_i == pa::IDLE;\n\
             assign b_o = s_i == pb::IDLE;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        assert_eq!(design.types.enum_const("pa::IDLE"), Some((0, 2)));
        assert_eq!(design.types.enum_const("pb::IDLE"), Some((1, 2)));
        assert_eq!(design.types.enum_const("IDLE"), None);
        // Non-conflicting members keep their unscoped alias.
        assert_eq!(design.types.enum_const("GO"), Some((1, 2)));

        let src = "package pa;\n\
             typedef enum logic [1:0] { IDLE, GO } sa_t;\n\
           endpackage\n\
           package pb;\n\
             typedef enum logic [1:0] { RUN, IDLE } sb_t;\n\
           endpackage\n\
           module m (input logic clk_i, input logic [1:0] s_i, output logic a_o);\n\
             assign a_o = s_i == IDLE;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let err = elaborate(&file, &ElabOptions::default()).unwrap_err();
        assert!(
            err.message.contains("`IDLE` is ambiguous"),
            "unexpected message: {}",
            err.message
        );
    }

    #[test]
    fn contested_alias_is_never_bound_by_source_order() {
        // A typedef referencing a bare name that *later* turns out to be
        // contested must not silently bind to the first definition: with
        // conflicting definitions the referencing typedef fails to resolve.
        let src = "package pa;\n\
             typedef logic [1:0] t;\n\
           endpackage\n\
           typedef t u;\n\
           package pb;\n\
             typedef logic [3:0] t;\n\
           endpackage\n\
           module m (input logic clk_i, input u x_i, output logic y_o);\n\
             assign y_o = x_i[0];\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let err = elaborate(&file, &ElabOptions::default()).unwrap_err();
        assert!(
            err.message.contains("`t` is ambiguous"),
            "unexpected message: {}",
            err.message
        );
        // With agreeing definitions the alias publishes and `u` resolves —
        // independent of where the reference sits relative to the packages.
        let src_ok = src.replace("logic [3:0] t", "logic [1:0] t");
        let file = svparse::parse(&src_ok).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        assert_eq!(design.width("x_i"), Some(2));
    }

    #[test]
    fn unsupported_typedef_bodies_fall_back_to_opaque() {
        // A typedef body outside the parsed subset (field with unpacked
        // dimensions) must not make the whole file unverifiable: it parses
        // opaquely, the file elaborates while the type is unused, and only
        // a use of the name errors.
        let src = "typedef struct packed { logic a [2]; } weird_t;\n\
           module m (input logic clk_i, input logic d_i, output logic y_o);\n\
             assign y_o = d_i;\n\
           endmodule";
        let file = svparse::parse(src).expect("opaque fallback must parse");
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        assert_eq!(design.width("y_o"), Some(1));

        let src_used = "typedef struct packed { logic a [2]; } weird_t;\n\
           module m (input logic clk_i, input weird_t d_i, output logic y_o);\n\
             assign y_o = d_i[0];\n\
           endmodule";
        let file = svparse::parse(src_used).unwrap();
        let err = elaborate(&file, &ElabOptions::default()).unwrap_err();
        assert!(
            err.message.contains("unknown type `weird_t`"),
            "unexpected message: {}",
            err.message
        );
    }

    #[test]
    fn nested_anonymous_struct_fields_resolve() {
        let src = "package p;\n\
             typedef struct packed {\n\
               struct packed { logic [1:0] lo; logic [1:0] hi; } a;\n\
               logic b;\n\
             } outer_t;\n\
           endpackage\n\
           module m (input logic clk_i, input p::outer_t x_i, output logic [1:0] y_o);\n\
             assign y_o = x_i.a.hi;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        let x = design.signal("x_i").unwrap().to_vec();
        assert_eq!(x.len(), 5);
        // a at [4:1] (anonymous inner: lo MSB-half, hi LSB-half), b at [0]:
        // a.hi = bits [2:1] of the outer word.
        assert_eq!(design.signal("y_o").unwrap(), &x[1..3]);
    }

    #[test]
    fn module_local_typedefs_do_not_collide_across_modules() {
        // Per-module `state_t` typedefs (a very common FSM pattern) are
        // module-local: same-named typedefs with different widths in two
        // modules must not poison each other or leak.
        let src = "module a (input logic clk_i, output logic [1:0] y_o);\n\
             typedef logic [1:0] state_t;\n\
             state_t s;\n\
             assign y_o = s;\n\
           endmodule\n\
           module b (input logic clk_i, output logic [3:0] y_o);\n\
             typedef logic [3:0] state_t;\n\
             state_t s;\n\
             assign y_o = s;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        for (top, width) in [("a", 2), ("b", 4)] {
            let design = elaborate(
                &file,
                &ElabOptions {
                    top: Some(top.to_string()),
                    ..ElabOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("module `{top}` failed to elaborate: {e}"));
            assert_eq!(design.width("s"), Some(width), "module `{top}`");
        }
    }

    #[test]
    fn identical_struct_typedefs_share_the_unscoped_alias() {
        // Byte-identical struct typedefs in two packages (a shared header
        // textually included in both) are the *same* definition: the
        // unscoped alias survives, so bare `s_t` still resolves.
        let src = "package pa;\n\
             typedef struct packed { logic [1:0] d; } s_t;\n\
           endpackage\n\
           package pb;\n\
             typedef struct packed { logic [1:0] d; } s_t;\n\
           endpackage\n\
           module m (input logic clk_i, input s_t x_i, output logic [1:0] y_o);\n\
             assign y_o = x_i.d;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        assert_eq!(design.width("x_i"), Some(2));
        let x = design.signal("x_i").unwrap().to_vec();
        assert_eq!(design.signal("y_o").unwrap(), &x[0..2]);

        // Structurally *different* structs under the same name still poison
        // the alias: bare use errors, scoped use works.
        let src = "package pa;\n\
             typedef struct packed { logic [1:0] d; } s_t;\n\
           endpackage\n\
           package pb;\n\
             typedef struct packed { logic [3:0] d; } s_t;\n\
           endpackage\n\
           module m (input logic clk_i, input pb::s_t x_i, output logic [3:0] y_o);\n\
             assign y_o = x_i.d;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        assert_eq!(design.width("x_i"), Some(4));
        let src_bare = src.replace("input pb::s_t x_i", "input s_t x_i");
        let file = svparse::parse(&src_bare).unwrap();
        let err = elaborate(&file, &ElabOptions::default()).unwrap_err();
        assert!(
            err.message.contains("`s_t` is ambiguous"),
            "unexpected message: {}",
            err.message
        );
    }

    #[test]
    fn typedefs_reference_parameters_across_packages_and_order() {
        // A typedef may reference another package's parameter regardless of
        // declaration order: all package parameters are collected before any
        // typedef resolves.
        let src = "package b_pkg;\n\
             typedef logic [a_pkg::W-1:0] t;\n\
           endpackage\n\
           package a_pkg;\n\
             parameter W = 4;\n\
           endpackage\n\
           module m (input logic clk_i, input b_pkg::t x_i, output logic y_o);\n\
             assign y_o = x_i[0];\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        assert_eq!(design.width("x_i"), Some(4));
    }

    #[test]
    fn param_override_touching_module_typedef_is_rejected() {
        // Module-scope typedef widths are fixed at the default parameter
        // values; overriding a parameter the typedef references must error
        // instead of silently building a wrong-width model.
        let src = "module m #(parameter W = 4) (input logic clk_i, output logic y_o);\n\
             typedef struct packed { logic [W-1:0] d; } t;\n\
             t s;\n\
             assign y_o = s.d == '0;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        // Default parameters elaborate fine.
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        assert_eq!(design.width("s"), Some(4));
        // Overriding W is rejected.
        let err = elaborate(
            &file,
            &ElabOptions {
                params: vec![("W".to_string(), 8)],
                ..ElabOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            err.message.contains("module-scope typedef"),
            "unexpected message: {}",
            err.message
        );
    }

    #[test]
    fn member_access_on_struct_array_is_rejected() {
        // A packed array of a struct type is not itself a struct: the
        // element layout must not leak onto the whole word.
        let src = "package p;\n\
             typedef struct packed { logic a; } s_t;\n\
             typedef s_t [3:0] v_t;\n\
           endpackage\n\
           module m (input logic clk_i, input p::v_t x_i, output logic y_o);\n\
             assign y_o = x_i.a;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let err = elaborate(&file, &ElabOptions::default()).unwrap_err();
        assert!(
            err.message.contains("not a packed struct"),
            "unexpected message: {}",
            err.message
        );
    }

    #[test]
    fn unknown_field_render_skips_longer_identifier_matches() {
        // The caret locator must not match `s.fu` inside `bus.full`: the
        // needle has to sit at identifier boundaries.
        let src = "package p;\n\
             typedef struct packed { logic [1:0] data; } s_t;\n\
           endpackage\n\
           module m (input logic clk_i, input logic bus_full_x, input p::s_t s,\n\
               output logic y_o);\n\
             wire q = bus.full_x;\n\
             assign y_o = s.fu == 1'b1;\n\
           endmodule";
        // (`bus.full_x` itself would error first during sorted resolution of
        // `q`; check the renderer directly on the structured error instead.)
        let err = ElabError::field_error(
            "s",
            "fu",
            &StructLayout {
                name: "s_t".into(),
                width: 2,
                fields: vec![FieldLayout {
                    name: "data".into(),
                    offset: 0,
                    width: 2,
                    layout: None,
                }],
            },
        );
        let rendered = err.render(src);
        // The snippet must point at line 7 (`s.fu == ...`), not at the
        // `bus.full_x` substring match on line 6.
        assert!(rendered.starts_with("7:"), "rendered: {rendered}");
        assert!(
            rendered.contains("valid fields of `s_t`: data"),
            "rendered: {rendered}"
        );
    }

    #[test]
    fn acyclic_per_port_instance_path_elaborates() {
        // in -> instance -> out -> (gates the instance's own input): acyclic
        // per port, a false cycle under instance-atomic elaboration.
        let src = "module stage (input logic clk_i, input logic rst_ni,\n\
             input logic push_i, output logic rdy_o);\n\
             logic full_q;\n\
             always_ff @(posedge clk_i or negedge rst_ni) begin\n\
               if (!rst_ni) full_q <= 1'b0;\n\
               else full_q <= push_i && rdy_o;\n\
             end\n\
             assign rdy_o = !full_q;\n\
           endmodule\n\
           module top (input logic clk_i, input logic rst_ni, input logic req_i,\n\
             output logic ok_o);\n\
             logic rdy;\n\
             wire push = req_i && rdy;\n\
             stage u_s (.clk_i(clk_i), .rst_ni(rst_ni), .push_i(push), .rdy_o(rdy));\n\
             assign ok_o = rdy;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let design = elaborate(
            &file,
            &ElabOptions {
                top: Some("top".to_string()),
                ..ElabOptions::default()
            },
        )
        .expect("per-port acyclic instance path must elaborate");
        assert!(design.signal("u_s.full_q").is_some());
        assert_eq!(design.aig.num_latches(), 1);
    }

    #[test]
    fn genuine_cycle_through_instance_is_still_reported() {
        // The instance output feeds straight back into the input it depends
        // on combinationally — a true cycle at port granularity.
        let src = "module inv (input logic a_i, output logic y_o);\n\
             assign y_o = !a_i;\n\
           endmodule\n\
           module top (input logic clk_i, output logic y_o);\n\
             logic loop;\n\
             inv u_i (.a_i(loop), .y_o(loop));\n\
             assign y_o = loop;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let err = elaborate(
            &file,
            &ElabOptions {
                top: Some("top".to_string()),
                ..ElabOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            err.message.contains("combinational cycle"),
            "unexpected message: {}",
            err.message
        );
    }

    #[test]
    fn instance_without_output_connections_still_elaborates_state() {
        // An instance whose outputs are all unconnected still contributes
        // its latches and symbols (it may carry monitors or side state).
        let src = "module counter (input logic clk_i, input logic rst_ni, input logic en_i,\n\
             output logic [1:0] cnt_o);\n\
             logic [1:0] cnt_q;\n\
             always_ff @(posedge clk_i or negedge rst_ni) begin\n\
               if (!rst_ni) cnt_q <= 2'd0;\n\
               else if (en_i) cnt_q <= cnt_q + 2'd1;\n\
             end\n\
             assign cnt_o = cnt_q;\n\
           endmodule\n\
           module top (input logic clk_i, input logic rst_ni, input logic go_i,\n\
             output logic y_o);\n\
             counter u_c (.clk_i(clk_i), .rst_ni(rst_ni), .en_i(go_i), .cnt_o());\n\
             assign y_o = go_i;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let design = elaborate(
            &file,
            &ElabOptions {
                top: Some("top".to_string()),
                ..ElabOptions::default()
            },
        )
        .unwrap();
        assert_eq!(design.aig.num_latches(), 2);
        assert!(design.signal("u_c.cnt_q").is_some());
    }

    #[test]
    fn combinational_cycle_is_reported() {
        let src = "module cyc (input logic a, output logic y);\n\
             logic p, q;\n\
             assign p = q | a;\n\
             assign q = p;\n\
             assign y = q;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let err = elaborate(&file, &ElabOptions::default()).unwrap_err();
        assert!(err.message.contains("combinational cycle"));
    }

    #[test]
    fn reset_port_is_tied_inactive() {
        let design = elab(
            "module r (input logic clk_i, input logic rst_ni, output logic y_o);\n\
               assign y_o = rst_ni;\n\
             endmodule",
        );
        assert_eq!(design.signal("y_o"), Some(&[Lit::TRUE][..]));
        // Neither clock nor reset are model inputs.
        assert_eq!(design.aig.num_inputs(), 0);
    }

    #[test]
    fn concat_assignment_splits_msb_first() {
        let design = elab(
            "module c (input logic [3:0] ab_i, output logic [1:0] hi_o, output logic [1:0] lo_o);\n\
               always_comb begin\n\
                 {hi_o, lo_o} = ab_i;\n\
               end\n\
             endmodule",
        );
        assert_eq!(design.width("hi_o"), Some(2));
        assert_eq!(design.width("lo_o"), Some(2));
    }

    #[test]
    fn param_override_changes_width() {
        let src = "module w #(parameter W = 2) (input logic clk_i, output logic [W-1:0] y_o);\n\
             assign y_o = '0;\n\
           endmodule";
        let file = svparse::parse(src).unwrap();
        let design = elaborate(
            &file,
            &ElabOptions {
                params: vec![("W".to_string(), 6)],
                ..ElabOptions::default()
            },
        )
        .unwrap();
        assert_eq!(design.width("y_o"), Some(6));
    }
}
