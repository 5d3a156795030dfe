//! Abstract syntax tree for the SystemVerilog subset.
//!
//! The tree is deliberately small: it covers module headers (parameters and
//! ports), net/variable declarations, continuous assignments, procedural
//! `always` blocks, module instantiations and the expression language needed
//! by the AutoSVA front end and the formal substrate.

use crate::span::Span;
use crate::token::NumberLit;
use std::fmt;

/// A parsed source file: a list of top-level items.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SourceFile {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl SourceFile {
    /// Returns the first module with the given name, if any.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.items.iter().find_map(|item| match item {
            Item::Module(m) if m.name == name => Some(m),
            _ => None,
        })
    }

    /// Iterates over all modules in the file.
    pub fn modules(&self) -> impl Iterator<Item = &Module> {
        self.items.iter().filter_map(|item| match item {
            Item::Module(m) => Some(m),
            _ => None,
        })
    }
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A `module ... endmodule` definition.
    Module(Module),
    /// A `package ... endpackage` definition (contents limited to parameters
    /// and typedefs).
    Package(Package),
    /// A stray `typedef` at file scope.
    Typedef(Typedef),
}

/// A `package` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Package {
    /// Package name.
    pub name: String,
    /// `parameter`/`localparam` declarations inside the package.
    pub params: Vec<ParamDecl>,
    /// Typedefs inside the package.
    pub typedefs: Vec<Typedef>,
    /// Span of the whole package.
    pub span: Span,
}

/// A `typedef` declaration.  Only enum/struct/vector aliases are supported.
#[derive(Debug, Clone, PartialEq)]
pub struct Typedef {
    /// New type name.
    pub name: String,
    /// The aliased type.
    pub ty: DataType,
    /// Span of the whole typedef.
    pub span: Span,
}

/// A module definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Parameter-port list (`#(parameter ...)`).
    pub params: Vec<ParamDecl>,
    /// ANSI port declarations.
    pub ports: Vec<Port>,
    /// Body items (declarations, assigns, always blocks, instances).
    pub items: Vec<ModuleItem>,
    /// Span of the whole module.
    pub span: Span,
    /// Byte offset at which the port list ends (closing `)` of the header);
    /// useful for locating the "interface declaration section".
    pub header_end: usize,
}

impl Module {
    /// Looks up a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Looks up a parameter (from the header) by name.
    pub fn param(&self, name: &str) -> Option<&ParamDecl> {
        self.params.iter().find(|p| p.name == name)
    }
}

/// A parameter or localparam declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: String,
    /// `true` for `localparam`.
    pub is_local: bool,
    /// Declared type, when one was written.
    pub ty: Option<DataType>,
    /// Default / assigned value.
    pub value: Option<Expr>,
    /// Source span.
    pub span: Span,
}

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `input`
    Input,
    /// `output`
    Output,
    /// `inout`
    Inout,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::Input => "input",
            Direction::Output => "output",
            Direction::Inout => "inout",
        })
    }
}

/// An ANSI-style port declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Port direction.
    pub direction: Direction,
    /// Declared data type (including packed dimensions).
    pub ty: DataType,
    /// Port name.
    pub name: String,
    /// Unpacked dimensions following the name, e.g. `[0:3]`.
    pub unpacked_dims: Vec<Range>,
    /// Source span of the declaration.
    pub span: Span,
    /// 1-based source line of the declaration (used to associate AutoSVA
    /// annotations, which are line-oriented).
    pub line: usize,
}

/// The scalar/vector kind of a data type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NetKind {
    /// `logic` (default when no keyword is written).
    #[default]
    Logic,
    /// `wire`
    Wire,
    /// `reg`
    Reg,
    /// `bit`
    Bit,
    /// `integer` / `int`
    Integer,
    /// A named (user-defined) type, e.g. a struct typedef.
    Named,
    /// A `struct packed { ... }` type; fields in [`DataType::struct_fields`].
    Struct,
    /// An `enum [base] { ... }` type; members in [`DataType::enum_members`].
    Enum,
}

/// One field of a `struct packed` type.
#[derive(Debug, Clone, PartialEq)]
pub struct StructField {
    /// Field type (vectors and named types; nested anonymous structs are not
    /// supported).
    pub ty: DataType,
    /// Field name.
    pub name: String,
}

/// One member of an `enum` type.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumMember {
    /// Member name.
    pub name: String,
    /// Explicit value, when one was written (`LOAD = 1`).
    pub value: Option<Expr>,
}

/// A data type: net kind, optional signedness, packed dimensions, and a name
/// for user-defined types.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataType {
    /// Net/variable kind.
    pub kind: NetKind,
    /// Name of a user-defined type when `kind == NetKind::Named`, possibly
    /// package-scoped (e.g. `riscv::xlen_t`).
    pub type_name: Option<String>,
    /// `true` if declared `signed`.
    pub signed: bool,
    /// Packed dimensions, outermost first.  For `kind == NetKind::Enum` these
    /// are the dimensions of the explicit base type (`enum logic [1:0]`).
    pub packed_dims: Vec<Range>,
    /// Fields of a `struct packed` body, MSB-first as written (only for
    /// `kind == NetKind::Struct`).
    pub struct_fields: Vec<StructField>,
    /// Members of an `enum` body (only for `kind == NetKind::Enum`).
    pub enum_members: Vec<EnumMember>,
}

impl DataType {
    /// A plain 1-bit `logic` type.
    pub fn logic() -> Self {
        DataType::default()
    }

    /// A packed `logic [msb:lsb]` vector type.
    pub fn logic_vector(msb: Expr, lsb: Expr) -> Self {
        DataType {
            packed_dims: vec![Range { msb, lsb }],
            ..DataType::default()
        }
    }
}

/// A `[msb:lsb]` range.
#[derive(Debug, Clone, PartialEq)]
pub struct Range {
    /// Most-significant bound expression.
    pub msb: Expr,
    /// Least-significant bound expression.
    pub lsb: Expr,
}

/// An item inside a module body.
#[derive(Debug, Clone, PartialEq)]
pub enum ModuleItem {
    /// A net or variable declaration (`wire`, `logic`, `reg`, ...), possibly
    /// with an initializer.
    Decl(NetDecl),
    /// A `parameter`/`localparam` inside the body.
    Param(ParamDecl),
    /// A continuous assignment `assign lhs = rhs;`.
    ContinuousAssign(Assign),
    /// A procedural block (`always_ff`, `always_comb`, `always`, `initial`).
    Always(AlwaysBlock),
    /// A module instantiation.
    Instance(Instance),
    /// A typedef inside the module body.
    Typedef(Typedef),
}

/// A net or variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetDecl {
    /// Declared type.
    pub ty: DataType,
    /// Declared names (a single declaration may declare several nets).
    pub names: Vec<DeclName>,
    /// Source span.
    pub span: Span,
}

/// One declarator within a [`NetDecl`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeclName {
    /// Net name.
    pub name: String,
    /// Unpacked dimensions.
    pub unpacked_dims: Vec<Range>,
    /// Optional initializer (`wire x = a & b;`).
    pub init: Option<Expr>,
}

/// A continuous or procedural assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Assign {
    /// Left-hand side (an lvalue expression).
    pub lhs: Expr,
    /// Right-hand side.
    pub rhs: Expr,
    /// Source span.
    pub span: Span,
}

/// The flavour of a procedural block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlwaysKind {
    /// `always_ff`
    Ff,
    /// `always_comb`
    Comb,
    /// Plain `always`
    Plain,
    /// `initial`
    Initial,
}

/// An event in a sensitivity list, e.g. `posedge clk_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct EventExpr {
    /// Edge selector: `Some(true)` for posedge, `Some(false)` for negedge,
    /// `None` for level sensitivity.
    pub posedge: Option<bool>,
    /// The signal expression.
    pub signal: Expr,
}

/// A procedural block.
#[derive(Debug, Clone, PartialEq)]
pub struct AlwaysBlock {
    /// Which kind of block this is.
    pub kind: AlwaysKind,
    /// Sensitivity list (empty for `always_comb`, `initial`, or `@*`).
    pub sensitivity: Vec<EventExpr>,
    /// The block body.
    pub body: Stmt,
    /// Source span.
    pub span: Span,
}

/// A module instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Name of the instantiated module.
    pub module_name: String,
    /// Instance name.
    pub instance_name: String,
    /// Parameter overrides `#(.N(4))`.
    pub param_overrides: Vec<Connection>,
    /// Port connections `.clk(clk_i)`.
    pub connections: Vec<Connection>,
    /// Source span.
    pub span: Span,
}

/// A named connection `.port(expr)`; `expr` is `None` for unconnected ports.
#[derive(Debug, Clone, PartialEq)]
pub struct Connection {
    /// Formal (port or parameter) name.
    pub name: String,
    /// Actual expression, if connected.
    pub expr: Option<Expr>,
}

/// A procedural statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `begin ... end`
    Block(Vec<Stmt>),
    /// Blocking assignment `lhs = rhs;`
    Blocking(Assign),
    /// Non-blocking assignment `lhs <= rhs;`
    NonBlocking(Assign),
    /// `if (cond) then_stmt [else else_stmt]`
    If {
        /// Condition expression.
        cond: Expr,
        /// Statement executed when the condition is true.
        then_branch: Box<Stmt>,
        /// Statement executed otherwise, if present.
        else_branch: Option<Box<Stmt>>,
    },
    /// `case (subject) items endcase`
    Case {
        /// Case subject expression.
        subject: Expr,
        /// Case items in source order.
        items: Vec<CaseItem>,
    },
    /// An empty statement `;`
    Empty,
}

/// One arm of a `case` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseItem {
    /// Match labels; empty for the `default` arm.
    pub labels: Vec<Expr>,
    /// `true` if this is the `default` arm.
    pub is_default: bool,
    /// Body statement.
    pub body: Stmt,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `!`
    LogicalNot,
    /// `~`
    BitwiseNot,
    /// `-`
    Negate,
    /// `+` (no-op)
    Plus,
    /// `&` reduction
    ReduceAnd,
    /// `|` reduction
    ReduceOr,
    /// `^` reduction
    ReduceXor,
    /// `~&` reduction
    ReduceNand,
    /// `~|` reduction
    ReduceNor,
    /// `~^` reduction
    ReduceXnor,
}

impl UnaryOp {
    /// Canonical source spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            UnaryOp::LogicalNot => "!",
            UnaryOp::BitwiseNot => "~",
            UnaryOp::Negate => "-",
            UnaryOp::Plus => "+",
            UnaryOp::ReduceAnd => "&",
            UnaryOp::ReduceOr => "|",
            UnaryOp::ReduceXor => "^",
            UnaryOp::ReduceNand => "~&",
            UnaryOp::ReduceNor => "~|",
            UnaryOp::ReduceXnor => "~^",
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Pow,
    LogicalAnd,
    LogicalOr,
    BitAnd,
    BitOr,
    BitXor,
    BitXnor,
    Eq,
    Ne,
    CaseEq,
    CaseNe,
    Lt,
    Le,
    Gt,
    Ge,
    Shl,
    Shr,
    AShr,
}

impl BinaryOp {
    /// Canonical source spelling.
    pub fn as_str(&self) -> &'static str {
        use BinaryOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Mod => "%",
            Pow => "**",
            LogicalAnd => "&&",
            LogicalOr => "||",
            BitAnd => "&",
            BitOr => "|",
            BitXor => "^",
            BitXnor => "~^",
            Eq => "==",
            Ne => "!=",
            CaseEq => "===",
            CaseNe => "!==",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            Shl => "<<",
            Shr => ">>",
            AShr => ">>>",
        }
    }

    /// Binding power used by the precedence-climbing parser; higher binds
    /// tighter.
    pub fn precedence(&self) -> u8 {
        use BinaryOp::*;
        match self {
            Pow => 12,
            Mul | Div | Mod => 11,
            Add | Sub => 10,
            Shl | Shr | AShr => 9,
            Lt | Le | Gt | Ge => 8,
            Eq | Ne | CaseEq | CaseNe => 7,
            BitAnd => 6,
            BitXor | BitXnor => 5,
            BitOr => 4,
            LogicalAnd => 3,
            LogicalOr => 2,
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A simple or hierarchical identifier (`a`, `pkg::X`).
    Ident(String),
    /// A numeric literal.
    Number(NumberLit),
    /// A string literal.
    Str(String),
    /// A macro usage `` `NAME ``.
    Macro(String),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Conditional `cond ? t : f`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then_expr: Box<Expr>,
        /// Value when false.
        else_expr: Box<Expr>,
    },
    /// Bit or element select `base[index]`.
    Index {
        /// Base expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// Part select `base[msb:lsb]`.
    RangeSelect {
        /// Base expression.
        base: Box<Expr>,
        /// Most-significant bound.
        msb: Box<Expr>,
        /// Least-significant bound.
        lsb: Box<Expr>,
    },
    /// Struct member access `base.member`.
    Member {
        /// Base expression.
        base: Box<Expr>,
        /// Member name.
        member: String,
    },
    /// Concatenation `{a, b, c}`.
    Concat(Vec<Expr>),
    /// Replication `{n{expr}}`.
    Replicate {
        /// Replication count.
        count: Box<Expr>,
        /// Replicated value.
        value: Box<Expr>,
    },
    /// Function or system-function call.
    Call {
        /// Function name (`$stable`, `$clog2`, user functions).
        name: String,
        /// `true` if this was a `$`-prefixed system call.
        is_system: bool,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// A plain identifier expression.
    pub fn ident(name: impl Into<String>) -> Expr {
        Expr::Ident(name.into())
    }

    /// An unsigned integer literal expression.
    pub fn number(value: u128) -> Expr {
        Expr::Number(NumberLit::decimal(value))
    }

    /// Builds `lhs op rhs`.
    pub fn binary(op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Builds `op operand`.
    pub fn unary(op: UnaryOp, operand: Expr) -> Expr {
        Expr::Unary {
            op,
            operand: Box::new(operand),
        }
    }

    /// Returns the identifier name if this expression is a bare identifier.
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            Expr::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Collects every identifier referenced anywhere in the expression.
    pub fn referenced_idents(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_idents(&mut out);
        out
    }

    fn collect_idents(&self, out: &mut Vec<String>) {
        match self {
            Expr::Ident(s) => out.push(s.clone()),
            Expr::Number(_) | Expr::Str(_) | Expr::Macro(_) => {}
            Expr::Unary { operand, .. } => operand.collect_idents(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_idents(out);
                rhs.collect_idents(out);
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                cond.collect_idents(out);
                then_expr.collect_idents(out);
                else_expr.collect_idents(out);
            }
            Expr::Index { base, index } => {
                base.collect_idents(out);
                index.collect_idents(out);
            }
            Expr::RangeSelect { base, msb, lsb } => {
                base.collect_idents(out);
                msb.collect_idents(out);
                lsb.collect_idents(out);
            }
            Expr::Member { base, .. } => base.collect_idents(out),
            Expr::Concat(parts) => {
                for p in parts {
                    p.collect_idents(out);
                }
            }
            Expr::Replicate { count, value } => {
                count.collect_idents(out);
                value.collect_idents(out);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_idents(out);
                }
            }
        }
    }
}

/// What [`Stmt::walk`] reaches: an assignment, or an expression a statement
/// tests (an `if` condition, a `case` subject or a `case` label).
#[derive(Debug, Clone, Copy)]
pub enum Visit<'a> {
    /// A blocking or non-blocking assignment.
    Assign(&'a Assign),
    /// A tested expression.
    Test(&'a Expr),
}

impl Stmt {
    /// Calls `f` on every assignment and tested expression of the statement
    /// tree, in source order (a condition before the branches it guards).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(Visit<'a>)) {
        match self {
            Stmt::Block(stmts) => stmts.iter().for_each(|s| s.walk(f)),
            Stmt::Blocking(a) | Stmt::NonBlocking(a) => f(Visit::Assign(a)),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                f(Visit::Test(cond));
                then_branch.walk(f);
                if let Some(e) = else_branch {
                    e.walk(f);
                }
            }
            Stmt::Case { subject, items } => {
                f(Visit::Test(subject));
                for item in items {
                    item.labels.iter().for_each(|l| f(Visit::Test(l)));
                    item.body.walk(f);
                }
            }
            Stmt::Empty => {}
        }
    }

    /// Every assignment of the statement tree, in source order.
    pub fn assigns(&self) -> Vec<&Assign> {
        let mut out = Vec::new();
        self.walk(&mut |v| {
            if let Visit::Assign(a) = v {
                out.push(a);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders() {
        let e = Expr::binary(BinaryOp::Add, Expr::ident("a"), Expr::number(1));
        match e {
            Expr::Binary { op, lhs, rhs } => {
                assert_eq!(op, BinaryOp::Add);
                assert_eq!(lhs.as_ident(), Some("a"));
                assert!(matches!(*rhs, Expr::Number(_)));
            }
            _ => panic!("not a binary expression"),
        }
    }

    #[test]
    fn referenced_idents_walks_tree() {
        let e = Expr::Ternary {
            cond: Box::new(Expr::ident("sel")),
            then_expr: Box::new(Expr::binary(
                BinaryOp::BitAnd,
                Expr::ident("a"),
                Expr::ident("b"),
            )),
            else_expr: Box::new(Expr::Concat(vec![Expr::ident("c"), Expr::number(0)])),
        };
        let ids = e.referenced_idents();
        assert_eq!(ids, vec!["sel", "a", "b", "c"]);
    }

    #[test]
    fn stmt_walk_visits_tests_before_branches() {
        let assign = |lhs: &str, rhs: &str| Assign {
            lhs: Expr::ident(lhs),
            rhs: Expr::ident(rhs),
            span: Span::dummy(),
        };
        let stmt = Stmt::Block(vec![
            Stmt::If {
                cond: Expr::ident("c"),
                then_branch: Box::new(Stmt::NonBlocking(assign("x", "a"))),
                else_branch: Some(Box::new(Stmt::Case {
                    subject: Expr::ident("s"),
                    items: vec![CaseItem {
                        labels: vec![Expr::ident("L")],
                        is_default: false,
                        body: Stmt::Blocking(assign("y", "b")),
                    }],
                })),
            },
            Stmt::Empty,
        ]);
        let mut seen = Vec::new();
        stmt.walk(&mut |v| {
            seen.push(match v {
                Visit::Assign(a) => format!("{:?}={:?}", a.lhs.as_ident(), a.rhs.as_ident()),
                Visit::Test(e) => format!("?{:?}", e.as_ident()),
            })
        });
        assert_eq!(
            seen,
            [
                "?Some(\"c\")",
                "Some(\"x\")=Some(\"a\")",
                "?Some(\"s\")",
                "?Some(\"L\")",
                "Some(\"y\")=Some(\"b\")"
            ]
        );
        let targets: Vec<_> = stmt.assigns().iter().map(|a| a.lhs.as_ident()).collect();
        assert_eq!(targets, [Some("x"), Some("y")]);
    }

    #[test]
    fn precedence_ordering() {
        assert!(BinaryOp::Mul.precedence() > BinaryOp::Add.precedence());
        assert!(BinaryOp::Add.precedence() > BinaryOp::Shl.precedence());
        assert!(BinaryOp::BitAnd.precedence() > BinaryOp::BitOr.precedence());
        assert!(BinaryOp::LogicalAnd.precedence() > BinaryOp::LogicalOr.precedence());
    }

    #[test]
    fn source_file_module_lookup() {
        let m = Module {
            name: "foo".into(),
            params: vec![],
            ports: vec![],
            items: vec![],
            span: Span::dummy(),
            header_end: 0,
        };
        let f = SourceFile {
            items: vec![Item::Module(m)],
        };
        assert!(f.module("foo").is_some());
        assert!(f.module("bar").is_none());
        assert_eq!(f.modules().count(), 1);
    }

    #[test]
    fn direction_display() {
        assert_eq!(Direction::Input.to_string(), "input");
        assert_eq!(Direction::Output.to_string(), "output");
    }

    #[test]
    fn data_type_constructors() {
        let t = DataType::logic();
        assert!(t.packed_dims.is_empty());
        let v = DataType::logic_vector(Expr::number(7), Expr::number(0));
        assert_eq!(v.packed_dims.len(), 1);
    }
}
