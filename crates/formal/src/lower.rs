//! The one lowering from SystemVerilog expressions to AIG words.
//!
//! The elaborator lowers RTL expressions and the property compiler lowers
//! annotation expressions with the same [`lower`]: numbers, unary and
//! binary operators, the ternary, index and part-selects, concatenation,
//! replication and the `$clog2`, `$signed` and `$unsigned` calls exist once.
//! The two callers differ only in how names resolve, which is the
//! [`Resolve`] trait: the elaborator looks names up in its module scope,
//! the compiler in the elaborated design's symbol table.
//!
//! Every width the front end builds is bounded by [`MAX_BITS`], so an
//! oversized declaration, select, literal or replication is a diagnostic
//! instead of an allocation that exhausts memory or a loop that outlives
//! the front-end deadline.

use crate::aig::{Aig, Lit};
use crate::elab::{const_eval, ElabError, Result, TypeTable};
use crate::words;
use std::collections::HashMap;
use svparse::ast::{BinaryOp, Expr, UnaryOp};

/// The most bits one word or one unpacked array may hold.
pub(crate) const MAX_BITS: usize = 1 << 20;

/// `bits` as a width, or an error naming `what` when it exceeds
/// [`MAX_BITS`].
pub(crate) fn bounded(bits: u128, what: impl FnOnce() -> String) -> Result<usize> {
    if bits > MAX_BITS as u128 {
        return Err(ElabError::new(format!(
            "{} is too large: {bits} exceeds the front end's limit of {MAX_BITS} \
             bits in one word or array",
            what()
        )));
    }
    Ok(bits as usize)
}

/// The width of the constant range `[msb:lsb]`, in either direction.
pub(crate) fn range_width(msb: u128, lsb: u128) -> Result<usize> {
    bounded(msb.abs_diff(lsb).saturating_add(1), || {
        format!("range [{msb}:{lsb}]")
    })
}

/// A lowered value: a packed word or an unpacked array of words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Val {
    Word(Vec<Lit>),
    Array(Vec<Vec<Lit>>),
}

impl Val {
    pub(crate) fn word(self) -> Result<Vec<Lit>> {
        match self {
            Val::Word(w) => Ok(w),
            Val::Array(_) => Err(ElabError::new("expected a packed value, found an array")),
        }
    }
}

/// How a caller of [`lower`] resolves names.
pub(crate) trait Resolve {
    /// The circuit the lowering adds gates to.
    fn aig(&mut self) -> &mut Aig;
    /// Parameter values, for the constant operands of part-selects,
    /// replications and `$clog2`.
    fn params(&self) -> &HashMap<String, u128>;
    /// The value an identifier denotes.
    fn ident(&mut self, name: &str) -> Result<Val>;
    /// The bits a member access `base.field` denotes.
    fn member(&mut self, expr: &Expr) -> Result<Vec<Lit>>;
}

/// The constant an enum member denotes in `scope`, for [`Resolve::ident`];
/// an unscoped member that several packages define differently is an
/// error.
pub(crate) fn enum_member(types: &TypeTable, scope: &str, name: &str) -> Result<Option<Val>> {
    if let Some((value, width)) = types.enum_const_in(Some(scope), name) {
        return Ok(Some(Val::Word(words::constant(value, width.max(1)))));
    }
    if types.ambiguous_const(name) {
        return Err(ElabError::new(format!(
            "enum member `{name}` is ambiguous: multiple packages export \
             conflicting values — use a scoped reference (`pkg::{name}`)"
        )));
    }
    Ok(None)
}

/// Lowers `expr` to a packed word.
pub(crate) fn lower_word(r: &mut impl Resolve, expr: &Expr) -> Result<Vec<Lit>> {
    lower(r, expr)?.word()
}

/// Lowers `expr` to AIG gates.  Operands are lowered left to right, and the
/// gates built before an error stay in the AIG.
pub(crate) fn lower(r: &mut impl Resolve, expr: &Expr) -> Result<Val> {
    Ok(Val::Word(match expr {
        Expr::Number(n) => {
            let width = bounded(n.width.map_or(32, u128::from), || {
                format!("literal `{}`", n.text)
            })?;
            words::constant(n.value.unwrap_or(0), width.max(1))
        }
        Expr::Str(_) => return Err(ElabError::new("string literals are not synthesizable")),
        Expr::Macro(name) => {
            return Err(ElabError::new(format!(
                "macro `{name}` cannot be elaborated"
            )))
        }
        Expr::Ident(name) => return r.ident(name),
        Expr::Member { .. } => r.member(expr)?,
        Expr::Unary { op, operand } => {
            let v = lower_word(r, operand)?;
            let aig = r.aig();
            match op {
                UnaryOp::LogicalNot => vec![words::reduce_or(aig, &v).invert()],
                UnaryOp::BitwiseNot => words::not(&v),
                UnaryOp::Negate => {
                    let zero = words::constant(0, v.len());
                    words::sub(aig, &zero, &v)
                }
                UnaryOp::Plus => v,
                UnaryOp::ReduceAnd => vec![words::reduce_and(aig, &v)],
                UnaryOp::ReduceOr => vec![words::reduce_or(aig, &v)],
                UnaryOp::ReduceXor => vec![words::reduce_xor(aig, &v)],
                UnaryOp::ReduceNand => vec![words::reduce_and(aig, &v).invert()],
                UnaryOp::ReduceNor => vec![words::reduce_or(aig, &v).invert()],
                UnaryOp::ReduceXnor => vec![words::reduce_xor(aig, &v).invert()],
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let a = lower_word(r, lhs)?;
            let b = lower_word(r, rhs)?;
            binary(r.aig(), *op, &a, &b)?
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            let c = lower_word(r, cond)?;
            let c = words::reduce_or(r.aig(), &c);
            let t = lower_word(r, then_expr)?;
            let e = lower_word(r, else_expr)?;
            words::mux(r.aig(), c, &t, &e)
        }
        Expr::Index { base, index } => {
            let elems = match lower(r, base)? {
                Val::Array(elems) => elems,
                Val::Word(bits) => bits.iter().map(|&b| vec![b]).collect(),
            };
            let index = lower_word(r, index)?;
            words::select(r.aig(), &elems, &index)
        }
        Expr::RangeSelect { base, msb, lsb } => {
            let bits = lower_word(r, base)?;
            // Bits are numbered LSB first whichever way the vector was
            // declared, so `[a:b]` reads bits min(a, b) to max(a, b).
            let (msb, lsb) = (const_eval(msb, r.params())?, const_eval(lsb, r.params())?);
            let width = range_width(msb, lsb)?;
            let lsb = usize::try_from(msb.min(lsb)).unwrap_or(usize::MAX);
            words::slice(&bits, lsb, width)
        }
        Expr::Concat(parts) => {
            // SystemVerilog concatenation lists the MSB part first.
            let mut bits = Vec::new();
            for part in parts.iter().rev() {
                bits.append(&mut lower_word(r, part)?);
                bounded(bits.len() as u128, || "a concatenation".to_string())?;
            }
            bits
        }
        Expr::Replicate { count, value } => {
            let n = const_eval(count, r.params())?;
            let v = lower_word(r, value)?;
            let width = bounded(n.saturating_mul(v.len() as u128), || {
                format!("a {n}-fold replication")
            })?;
            v.iter().copied().cycle().take(width).collect()
        }
        Expr::Call {
            name,
            is_system: true,
            ..
        } if name == "clog2" => words::constant(const_eval(expr, r.params())?, 32),
        Expr::Call {
            name,
            is_system: true,
            args,
        } if name == "signed" || name == "unsigned" => {
            let arg = args
                .first()
                .ok_or_else(|| ElabError::new(format!("${name} requires an argument")))?;
            return lower(r, arg);
        }
        Expr::Call {
            name, is_system, ..
        } => {
            return Err(ElabError::new(format!(
                "call to `{}{name}` is not supported",
                if *is_system { "$" } else { "" }
            )))
        }
    }))
}

/// Lowers one binary operator over already lowered operands.
fn binary(aig: &mut Aig, op: BinaryOp, a: &[Lit], b: &[Lit]) -> Result<Vec<Lit>> {
    Ok(match op {
        BinaryOp::Add => words::add(aig, a, b),
        BinaryOp::Sub => words::sub(aig, a, b),
        BinaryOp::Mul => words::mul(aig, a, b),
        BinaryOp::Div | BinaryOp::Mod | BinaryOp::Pow => {
            // Only constant operands are supported; they fold.
            let (Some(x), Some(y)) = (words::as_constant(a), words::as_constant(b)) else {
                return Err(ElabError::new(
                    "division/modulo of non-constant operands is unsupported",
                ));
            };
            let (value, width) = match op {
                BinaryOp::Div => (x.checked_div(y), a.len()),
                BinaryOp::Mod => (x.checked_rem(y), a.len()),
                _ => (
                    u32::try_from(y).ok().and_then(|y| x.checked_pow(y)),
                    a.len().max(8),
                ),
            };
            let value = value.ok_or_else(|| {
                ElabError::new(format!(
                    "constant `{x} {} {y}` is undefined or exceeds 128 bits",
                    op.as_str()
                ))
            })?;
            words::constant(value, width)
        }
        BinaryOp::LogicalAnd => {
            let x = words::reduce_or(aig, a);
            let y = words::reduce_or(aig, b);
            vec![aig.and(x, y)]
        }
        BinaryOp::LogicalOr => {
            let x = words::reduce_or(aig, a);
            let y = words::reduce_or(aig, b);
            vec![aig.or(x, y)]
        }
        BinaryOp::BitAnd => words::bitwise(aig, a, b, |g, x, y| g.and(x, y)),
        BinaryOp::BitOr => words::bitwise(aig, a, b, |g, x, y| g.or(x, y)),
        BinaryOp::BitXor => words::bitwise(aig, a, b, |g, x, y| g.xor(x, y)),
        BinaryOp::BitXnor => words::bitwise(aig, a, b, |g, x, y| g.xnor(x, y)),
        BinaryOp::Eq | BinaryOp::CaseEq => vec![words::eq(aig, a, b)],
        BinaryOp::Ne | BinaryOp::CaseNe => vec![words::eq(aig, a, b).invert()],
        BinaryOp::Lt => vec![words::ult(aig, a, b)],
        BinaryOp::Le => vec![words::ule(aig, a, b)],
        BinaryOp::Gt => vec![words::ult(aig, b, a)],
        BinaryOp::Ge => vec![words::ule(aig, b, a)],
        BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr => {
            let amount = words::as_constant(b)
                .ok_or_else(|| ElabError::new("shift amounts must be constant expressions"))?;
            // Shifting by the width or more clears the word.
            let amount = amount.min(a.len() as u128) as usize;
            match op {
                BinaryOp::Shl => words::shl_const(a, amount),
                _ => words::shr_const(a, amount),
            }
        }
    })
}
