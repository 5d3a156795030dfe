//! The AutoSVA annotation language (Table I of the paper).
//!
//! Annotations are written as Verilog comments in the interface-declaration
//! section of an RTL module.  A block is recognized when a comment starts
//! with the `AUTOSVA` marker; every following line (within the same block
//! comment, or in consecutive `//AUTOSVA`-prefixed line comments) is an
//! annotation.
//!
//! The grammar (constants lowercase, syntax uppercase):
//!
//! ```text
//! TRANSACTION ::= TNAME: RELATION ATTRIB
//! RELATION    ::= P -in> Q | P -out> Q
//! ATTRIB      ::= ATTRIB, ATTRIB | SIG = ASSIGN | input SIG | output SIG
//! SIG         ::= [STR:0] FIELD | STR FIELD
//! FIELD       ::= P SUFFIX | Q SUFFIX
//! SUFFIX      ::= val | ack | transid | transid_unique | active | stable | data
//! ```

use crate::error::{AutosvaError, Result};
use std::fmt;
use svparse::ast::{Expr, Module, Port};
use svparse::parser::parse_expr;
use svparse::token::{Comment, CommentStyle};

/// The transaction attribute suffixes of the AutoSVA language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeSuffix {
    /// The interface presents valid data this cycle.
    Val,
    /// The interface accepted the data this cycle (also spelled `rdy` in
    /// ready/valid interfaces; AutoSVA uses `ack`).
    Ack,
    /// Transaction identifier used to match requests with responses.
    Transid,
    /// Declares that at most one transaction may be outstanding per ID.
    TransidUnique,
    /// Level signal asserted while a transaction is ongoing.
    Active,
    /// Payload that must remain stable until the request is acknowledged.
    Stable,
    /// Payload whose value must be preserved from request to response.
    Data,
}

impl AttributeSuffix {
    /// All suffixes, in the order used for implicit-port matching (longest
    /// first so `transid_unique` wins over `transid`).
    pub const ALL: [AttributeSuffix; 7] = [
        AttributeSuffix::TransidUnique,
        AttributeSuffix::Transid,
        AttributeSuffix::Active,
        AttributeSuffix::Stable,
        AttributeSuffix::Data,
        AttributeSuffix::Val,
        AttributeSuffix::Ack,
    ];

    /// The source spelling of the suffix.
    pub fn as_str(&self) -> &'static str {
        match self {
            AttributeSuffix::Val => "val",
            AttributeSuffix::Ack => "ack",
            AttributeSuffix::Transid => "transid",
            AttributeSuffix::TransidUnique => "transid_unique",
            AttributeSuffix::Active => "active",
            AttributeSuffix::Stable => "stable",
            AttributeSuffix::Data => "data",
        }
    }

    /// Parses a suffix from its source spelling.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "val" => AttributeSuffix::Val,
            "ack" | "rdy" => AttributeSuffix::Ack,
            "transid" => AttributeSuffix::Transid,
            "transid_unique" => AttributeSuffix::TransidUnique,
            "active" => AttributeSuffix::Active,
            "stable" => AttributeSuffix::Stable,
            "data" => AttributeSuffix::Data,
            _ => return None,
        })
    }
}

impl fmt::Display for AttributeSuffix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Direction of a transaction relative to the DUT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelationDir {
    /// The DUT receives the request and must produce the response
    /// (`P -in> Q`).
    Incoming,
    /// The DUT issues the request and the environment must respond
    /// (`P -out> Q`).
    Outgoing,
}

impl fmt::Display for RelationDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RelationDir::Incoming => "-in>",
            RelationDir::Outgoing => "-out>",
        })
    }
}

/// A `TNAME: P -in> Q` transaction declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct TransactionDecl {
    /// Transaction name.
    pub name: String,
    /// Request-side interface prefix (P).
    pub request: String,
    /// Response-side interface prefix (Q).
    pub response: String,
    /// Incoming or outgoing.
    pub dir: RelationDir,
    /// 1-based source line of the declaration.
    pub line: usize,
}

/// A packed width written in an annotation, e.g. `[TRANS_ID_BITS-1:0]`.
#[derive(Debug, Clone, PartialEq)]
pub struct WidthSpec {
    /// Most-significant index expression.
    pub msb: Expr,
    /// Least-significant index expression.
    pub lsb: Expr,
}

impl WidthSpec {
    /// A single-bit width (`[0:0]`).
    pub fn single_bit() -> Self {
        WidthSpec {
            msb: Expr::number(0),
            lsb: Expr::number(0),
        }
    }

    /// Returns the constant bit width when both bounds are literals and
    /// the width fits in a `u32`.
    pub fn const_width(&self) -> Option<u32> {
        match (&self.msb, &self.lsb) {
            (Expr::Number(m), Expr::Number(l)) => match (m.value, l.value) {
                (Some(m), Some(l)) if m >= l => u32::try_from(m - l).ok()?.checked_add(1),
                _ => None,
            },
            _ => None,
        }
    }
}

/// How an attribute definition was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttributeOrigin {
    /// Written explicitly in an annotation (`sig = expr`).
    Explicit,
    /// Inferred from an interface port whose name follows the
    /// `<interface>_<suffix>` convention.
    Implicit,
}

/// A single attribute definition mapping an interface field to an RTL
/// expression.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeDef {
    /// Interface prefix this attribute belongs to (the P or Q of a
    /// transaction).
    pub interface: String,
    /// Which attribute this is.
    pub suffix: AttributeSuffix,
    /// Declared width, if one was written.  `None` means single bit (or the
    /// width of the implicit port).
    pub width: Option<WidthSpec>,
    /// The RTL expression defining the attribute.
    pub expr: Expr,
    /// 1-based source line of the definition.
    pub line: usize,
    /// Whether the definition was explicit or inferred from a port.
    pub origin: AttributeOrigin,
}

/// A full parsed annotation block for one module.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnnotationBlock {
    /// Transaction declarations in source order.
    pub decls: Vec<TransactionDecl>,
    /// Attribute definitions (explicit first, then implicit).
    pub attrs: Vec<AttributeDef>,
    /// Number of non-empty annotation source lines (the paper reports
    /// annotation effort in lines of code).
    pub annotation_loc: usize,
}

impl AnnotationBlock {
    /// Returns the attribute definition for `interface`/`suffix`, preferring
    /// explicit definitions over implicit ones.
    pub fn attr(&self, interface: &str, suffix: AttributeSuffix) -> Option<&AttributeDef> {
        self.attrs
            .iter()
            .filter(|a| a.interface == interface && a.suffix == suffix)
            .min_by_key(|a| match a.origin {
                AttributeOrigin::Explicit => 0,
                AttributeOrigin::Implicit => 1,
            })
    }

    /// Returns all interface prefixes referenced by the declarations.
    pub fn interfaces(&self) -> Vec<String> {
        let mut out = Vec::new();
        for d in &self.decls {
            if !out.contains(&d.request) {
                out.push(d.request.clone());
            }
            if !out.contains(&d.response) {
                out.push(d.response.clone());
            }
        }
        out
    }
}

/// Extracts the text lines of every AutoSVA annotation region in `comments`.
///
/// Returns `(line_number, text)` pairs.  A block comment whose body begins
/// with `AUTOSVA` contributes every subsequent line; a line comment beginning
/// with `AUTOSVA` contributes the remainder of that line.
pub fn annotation_lines(comments: &[Comment]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for comment in comments {
        let trimmed = comment.text.trim_start();
        match comment.style {
            CommentStyle::Block => {
                if let Some(rest) = trimmed.strip_prefix("AUTOSVA") {
                    // The remainder of the first line plus all following lines.
                    let mut line_no = comment.line;
                    let first_rest = rest.lines().next().unwrap_or("").trim();
                    if !first_rest.is_empty() {
                        out.push((line_no, first_rest.to_string()));
                    }
                    for line in comment.text.lines().skip(1) {
                        line_no += 1;
                        let t = line.trim();
                        if !t.is_empty() {
                            out.push((line_no, t.to_string()));
                        }
                    }
                }
            }
            CommentStyle::Line => {
                if let Some(rest) = trimmed.strip_prefix("AUTOSVA") {
                    let t = rest.trim().trim_start_matches(':').trim();
                    if !t.is_empty() {
                        out.push((comment.line, t.to_string()));
                    }
                }
            }
        }
    }
    out
}

/// Splits a field name of the form `<interface>_<suffix>` into its parts.
///
/// Tries every known suffix, longest first, and requires a separating
/// underscore.  Returns `None` if the name does not follow the convention.
///
/// # Examples
///
/// ```
/// use autosva::annotation::{split_field, AttributeSuffix};
/// assert_eq!(
///     split_field("lsu_req_val"),
///     Some(("lsu_req".to_string(), AttributeSuffix::Val))
/// );
/// assert_eq!(
///     split_field("noc1buffer_req_transid_unique"),
///     Some(("noc1buffer_req".to_string(), AttributeSuffix::TransidUnique))
/// );
/// assert_eq!(split_field("clk_i"), None);
/// ```
pub fn split_field(name: &str) -> Option<(String, AttributeSuffix)> {
    for suffix in AttributeSuffix::ALL {
        let tail = format!("_{}", suffix.as_str());
        if let Some(prefix) = name.strip_suffix(&tail) {
            if !prefix.is_empty() {
                return Some((prefix.to_string(), suffix));
            }
        }
    }
    // `rdy` is accepted as an alias for `ack` (ready/valid interfaces).
    if let Some(prefix) = name.strip_suffix("_rdy") {
        if !prefix.is_empty() {
            return Some((prefix.to_string(), AttributeSuffix::Ack));
        }
    }
    None
}

/// Parses the AutoSVA annotations attached to `module`.
///
/// Explicit definitions come from the annotation text; implicit definitions
/// are inferred from ports of `module` whose names follow the
/// `<interface>_<suffix>` convention for an interface named in a transaction
/// declaration.
///
/// # Errors
///
/// Returns [`AutosvaError::Annotation`] for malformed lines and
/// [`AutosvaError::NoAnnotations`] when no transaction declaration is found.
pub fn parse_annotations(comments: &[Comment], module: &Module) -> Result<AnnotationBlock> {
    let lines = annotation_lines(comments);
    let mut block = AnnotationBlock {
        annotation_loc: lines.len(),
        ..AnnotationBlock::default()
    };

    for (line_no, text) in &lines {
        parse_annotation_line(text, *line_no, &mut block)?;
    }
    if block.decls.is_empty() {
        return Err(AutosvaError::NoAnnotations);
    }

    // Implicit definitions from interface ports.
    let interfaces = block.interfaces();
    for port in &module.ports {
        if let Some((prefix, suffix)) = split_field(&port.name) {
            if interfaces.contains(&prefix)
                && block
                    .attr(&prefix, suffix)
                    .map(|a| a.origin == AttributeOrigin::Implicit)
                    .unwrap_or(true)
            {
                block.attrs.push(AttributeDef {
                    interface: prefix,
                    suffix,
                    width: port_width(port),
                    expr: Expr::ident(port.name.clone()),
                    line: port.line,
                    origin: AttributeOrigin::Implicit,
                });
            }
        }
    }
    Ok(block)
}

fn port_width(port: &Port) -> Option<WidthSpec> {
    port.ty.packed_dims.first().map(|r| WidthSpec {
        msb: r.msb.clone(),
        lsb: r.lsb.clone(),
    })
}

fn annotation_err(message: impl Into<String>, line: usize) -> AutosvaError {
    AutosvaError::Annotation {
        message: message.into(),
        line: Some(line),
    }
}

fn parse_annotation_line(text: &str, line: usize, block: &mut AnnotationBlock) -> Result<()> {
    let text = text.trim();
    if text.is_empty() {
        return Ok(());
    }
    // Transaction declaration: `name: P -in> Q` / `name: P -out> Q`.
    if let Some((name, rest)) = text.split_once(':') {
        let rest = rest.trim();
        if rest.contains("-in>") || rest.contains("-out>") {
            let (dir, sep) = if rest.contains("-in>") {
                (RelationDir::Incoming, "-in>")
            } else {
                (RelationDir::Outgoing, "-out>")
            };
            let (p, q) = rest
                .split_once(sep)
                .ok_or_else(|| annotation_err("malformed relation", line))?;
            let p = p.trim();
            let q = q.trim();
            if p.is_empty() || q.is_empty() {
                return Err(annotation_err(
                    "relation must name both interfaces (P and Q)",
                    line,
                ));
            }
            let name = name.trim();
            if name.is_empty() {
                return Err(annotation_err("transaction name must not be empty", line));
            }
            if block.decls.iter().any(|d| d.name == name) {
                return Err(annotation_err(
                    format!("duplicate transaction name `{name}`"),
                    line,
                ));
            }
            block.decls.push(TransactionDecl {
                name: name.to_string(),
                request: p.to_string(),
                response: q.to_string(),
                dir,
                line,
            });
            return Ok(());
        }
    }

    // `input SIG` / `output SIG` forms simply re-state a port; the field name
    // itself is the expression.
    let text = text
        .strip_prefix("input ")
        .or_else(|| text.strip_prefix("output "))
        .unwrap_or(text)
        .trim();

    // Optional width prefix `[expr:expr]`.
    let (width, rest) = if let Some(stripped) = text.strip_prefix('[') {
        let close = stripped
            .find(']')
            .ok_or_else(|| annotation_err("missing `]` in width", line))?;
        let inside = &stripped[..close];
        // Split on the last `:` that is not part of a `::` scope operator, so
        // widths like `[riscv::VLEN-1:0]` parse correctly.
        let split_at = inside
            .char_indices()
            .filter(|(i, c)| {
                *c == ':'
                    && inside.as_bytes().get(i + 1) != Some(&b':')
                    && (*i == 0 || inside.as_bytes().get(i - 1) != Some(&b':'))
            })
            .map(|(i, _)| i)
            .next_back()
            .ok_or_else(|| annotation_err("width must be of the form [msb:lsb]", line))?;
        let (msb_txt, lsb_txt) = (&inside[..split_at], &inside[split_at + 1..]);
        let msb =
            parse_expr(msb_txt).map_err(|e| annotation_err(format!("bad width msb: {e}"), line))?;
        let lsb =
            parse_expr(lsb_txt).map_err(|e| annotation_err(format!("bad width lsb: {e}"), line))?;
        (Some(WidthSpec { msb, lsb }), stripped[close + 1..].trim())
    } else {
        (None, text)
    };

    // `FIELD = expr` or a bare `FIELD`.
    let (field, expr_text) = match rest.split_once('=') {
        Some((f, e)) => (f.trim(), Some(e.trim())),
        None => (rest.trim(), None),
    };
    if field.is_empty() {
        return Err(annotation_err("missing field name", line));
    }
    // Normalize hyphens in interface names (the paper writes
    // `mem-engine_noc`): hyphens are not legal in signal names, so the field
    // itself must be a legal identifier.
    let (interface, suffix) = split_field(field).ok_or_else(|| {
        annotation_err(
            format!(
                "field `{field}` does not end in a legal suffix ({})",
                AttributeSuffix::ALL
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            line,
        )
    })?;
    let expr = match expr_text {
        Some(e) if !e.is_empty() => {
            parse_expr(e).map_err(|err| annotation_err(format!("bad expression: {err}"), line))?
        }
        _ => Expr::ident(field),
    };
    block.attrs.push(AttributeDef {
        interface,
        suffix,
        width,
        expr,
        line,
        origin: AttributeOrigin::Explicit,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use svparse::parse_with_comments;

    const LSU_SRC: &str = r#"
/*AUTOSVA
lsu_load: lsu_req -in> lsu_res
lsu_req_val = lsu_valid_i && fu_data_i.fu == LOAD
lsu_req_rdy = lsu_ready_o
[TRANS_ID_BITS-1:0] lsu_req_transid = fu_data_i.trans_id
[CTRL_BITS-1:0] lsu_req_stable = {fu_data_i.trans_id, fu_data_i.fu}
lsu_res_val = load_valid_o
[TRANS_ID_BITS-1:0] lsu_res_transid = load_trans_id_o
*/
module load_store_unit #(parameter TRANS_ID_BITS = 3, parameter CTRL_BITS = 5) (
  input  logic clk_i,
  input  logic rst_ni,
  input  logic lsu_valid_i,
  input  fu_data_t fu_data_i,
  output logic lsu_ready_o,
  output logic load_valid_o,
  output logic [TRANS_ID_BITS-1:0] load_trans_id_o
);
endmodule
"#;

    fn parse_block(src: &str, module_name: &str) -> AnnotationBlock {
        let (file, comments) = parse_with_comments(src).unwrap();
        let module = file.module(module_name).unwrap();
        parse_annotations(&comments, module).unwrap()
    }

    #[test]
    fn figure3_lsu_annotations() {
        let block = parse_block(LSU_SRC, "load_store_unit");
        assert_eq!(block.decls.len(), 1);
        let d = &block.decls[0];
        assert_eq!(d.name, "lsu_load");
        assert_eq!(d.request, "lsu_req");
        assert_eq!(d.response, "lsu_res");
        assert_eq!(d.dir, RelationDir::Incoming);
        assert_eq!(block.annotation_loc, 7);

        let val = block.attr("lsu_req", AttributeSuffix::Val).unwrap();
        assert_eq!(val.origin, AttributeOrigin::Explicit);
        assert!(val.expr.referenced_idents().contains(&"lsu_valid_i".into()));

        let transid = block.attr("lsu_req", AttributeSuffix::Transid).unwrap();
        assert!(transid.width.is_some());

        // rdy is an alias for ack
        assert!(block.attr("lsu_req", AttributeSuffix::Ack).is_some());
        assert!(block.attr("lsu_res", AttributeSuffix::Transid).is_some());
    }

    #[test]
    fn implicit_port_definitions() {
        let src = r#"
//AUTOSVA fifo_txn: push -in> pop
module fifo (
  input  logic clk_i,
  input  logic rst_ni,
  input  logic push_val,
  output logic push_ack,
  input  logic [7:0] push_data,
  output logic pop_val,
  input  logic pop_ack,
  output logic [7:0] pop_data
);
endmodule
"#;
        let block = parse_block(src, "fifo");
        assert_eq!(block.decls.len(), 1);
        let push_val = block.attr("push", AttributeSuffix::Val).unwrap();
        assert_eq!(push_val.origin, AttributeOrigin::Implicit);
        assert_eq!(push_val.expr.as_ident(), Some("push_val"));
        let pop_data = block.attr("pop", AttributeSuffix::Data).unwrap();
        assert!(pop_data.width.is_some());
        // clk_i does not match the convention and must not appear.
        assert!(block.attrs.iter().all(|a| a.interface != "clk"));
    }

    #[test]
    fn explicit_overrides_implicit() {
        let src = r#"
/*AUTOSVA
t: req -in> res
req_val = custom_valid
*/
module m (
  input  logic custom_valid,
  input  logic req_val,
  output logic res_val
);
endmodule
"#;
        let block = parse_block(src, "m");
        let val = block.attr("req", AttributeSuffix::Val).unwrap();
        assert_eq!(val.origin, AttributeOrigin::Explicit);
        assert_eq!(val.expr.as_ident(), Some("custom_valid"));
    }

    #[test]
    fn outgoing_relation() {
        let src = r#"
/*AUTOSVA
ptw_dcache: ptw_req -out> dcache_res
ptw_req_val = req_port_o.data_req
ptw_req_ack = req_port_i.data_gnt
dcache_res_val = req_port_i.data_rvalid
*/
module ptw (input logic clk_i, input logic rst_ni, output dcache_req_o_t req_port_o, input dcache_req_i_t req_port_i);
endmodule
"#;
        let block = parse_block(src, "ptw");
        assert_eq!(block.decls[0].dir, RelationDir::Outgoing);
        assert_eq!(block.decls[0].response, "dcache_res");
        assert!(block.attr("dcache_res", AttributeSuffix::Val).is_some());
    }

    #[test]
    fn bad_suffix_is_rejected() {
        let src = r#"
/*AUTOSVA
t: req -in> res
req_bogus = x
*/
module m (input logic x, input logic req_val, output logic res_val);
endmodule
"#;
        let (file, comments) = parse_with_comments(src).unwrap();
        let module = file.module("m").unwrap();
        let err = parse_annotations(&comments, module).unwrap_err();
        match err {
            AutosvaError::Annotation { message, line } => {
                assert!(message.contains("req_bogus"));
                assert_eq!(line, Some(4));
            }
            other => panic!("expected annotation error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_transaction_rejected() {
        let src = r#"
/*AUTOSVA
t: req -in> res
t: a -in> b
*/
module m (input logic req_val, output logic res_val);
endmodule
"#;
        let (file, comments) = parse_with_comments(src).unwrap();
        let module = file.module("m").unwrap();
        assert!(parse_annotations(&comments, module).is_err());
    }

    #[test]
    fn no_annotations_error() {
        let src = "module m (input logic a); endmodule";
        let (file, comments) = parse_with_comments(src).unwrap();
        let module = file.module("m").unwrap();
        assert_eq!(
            parse_annotations(&comments, module).unwrap_err(),
            AutosvaError::NoAnnotations
        );
    }

    #[test]
    fn width_spec_const_width() {
        let w = WidthSpec {
            msb: Expr::number(7),
            lsb: Expr::number(0),
        };
        assert_eq!(w.const_width(), Some(8));
        let w = WidthSpec {
            msb: Expr::ident("W"),
            lsb: Expr::number(0),
        };
        assert_eq!(w.const_width(), None);
        assert_eq!(WidthSpec::single_bit().const_width(), Some(1));
        // A width past u32 is not a constant width, and never overflows.
        let w = WidthSpec {
            msb: Expr::number(u128::MAX),
            lsb: Expr::number(0),
        };
        assert_eq!(w.const_width(), None);
    }

    #[test]
    fn annotation_lines_from_line_comments() {
        let src = r#"
//AUTOSVA t: req -in> res
//AUTOSVA req_val = a
module m (input logic a, output logic res_val);
endmodule
"#;
        let block = parse_block(src, "m");
        assert_eq!(block.decls.len(), 1);
        assert!(block.attr("req", AttributeSuffix::Val).is_some());
        assert_eq!(block.annotation_loc, 2);
    }

    #[test]
    fn suffix_roundtrip_and_display() {
        for s in AttributeSuffix::ALL {
            assert_eq!(AttributeSuffix::from_str(s.as_str()), Some(s));
        }
        assert_eq!(AttributeSuffix::from_str("rdy"), Some(AttributeSuffix::Ack));
        assert_eq!(AttributeSuffix::from_str("unknown"), None);
        assert_eq!(RelationDir::Incoming.to_string(), "-in>");
        assert_eq!(RelationDir::Outgoing.to_string(), "-out>");
    }
}
