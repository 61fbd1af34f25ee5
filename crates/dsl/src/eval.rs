//! Evaluation of a parsed program onto the analysis tape.

use std::collections::HashMap;
use std::fmt;

use scorpio_adjoint::Op;
use scorpio_core::{AnalysisError, Ctx, Ia1s};

use crate::ast::{BinOp, CmpOp, Expr, Program, Stmt};

/// Evaluation failures (name resolution, arity, misuse).
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Reference to a name that is not an input or a prior `let`.
    UnknownVariable {
        /// The unresolved name.
        name: String,
        /// Byte offset of the reference.
        offset: usize,
    },
    /// Call to a function the language does not define.
    UnknownFunction {
        /// The unresolved function name.
        name: String,
        /// Byte offset of the call.
        offset: usize,
    },
    /// A known function called with the wrong number of arguments.
    WrongArity {
        /// Function name.
        name: String,
        /// Expected argument count.
        expected: usize,
        /// Provided argument count.
        found: usize,
        /// Byte offset of the call.
        offset: usize,
    },
    /// A name bound more than once.
    Redefinition {
        /// The re-bound name.
        name: String,
    },
    /// An error surfaced by the underlying analysis (e.g. an ambiguous
    /// branch — none are expressible in the current grammar, but the
    /// variant keeps the plumbing total).
    Analysis(AnalysisError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownVariable { name, offset } => {
                write!(f, "unknown variable `{name}` at byte {offset}")
            }
            EvalError::UnknownFunction { name, offset } => {
                write!(f, "unknown function `{name}` at byte {offset}")
            }
            EvalError::WrongArity {
                name,
                expected,
                found,
                offset,
            } => write!(
                f,
                "`{name}` expects {expected} argument(s), got {found}, at byte {offset}"
            ),
            EvalError::Redefinition { name } => {
                write!(f, "name `{name}` is defined more than once")
            }
            EvalError::Analysis(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates `program` against the analysis context: inputs are
/// registered with their declared ranges, `let` bindings become named
/// intermediates, `out` bindings become outputs.
///
/// # Errors
///
/// Returns [`EvalError`] on name/arity problems.
pub fn evaluate<'t>(program: &Program, ctx: &Ctx<'t>) -> Result<(), EvalError> {
    let mut env: HashMap<String, Ia1s<'t>> = HashMap::new();
    for stmt in &program.stmts {
        match stmt {
            Stmt::Input { name, lo, hi } => {
                if env.contains_key(name) {
                    return Err(EvalError::Redefinition { name: name.clone() });
                }
                let var = ctx.input(name.clone(), *lo, *hi);
                env.insert(name.clone(), var);
            }
            Stmt::Let { name, expr } => {
                if env.contains_key(name) {
                    return Err(EvalError::Redefinition { name: name.clone() });
                }
                let value = eval_expr(expr, ctx, &env)?;
                ctx.intermediate(&value, name.clone());
                env.insert(name.clone(), value);
            }
            Stmt::Out { name, expr } => {
                if env.contains_key(name) {
                    return Err(EvalError::Redefinition { name: name.clone() });
                }
                let value = eval_expr(expr, ctx, &env)?;
                ctx.output(&value, name.clone());
                env.insert(name.clone(), value);
            }
        }
    }
    Ok(())
}

fn eval_expr<'t>(
    expr: &Expr,
    ctx: &Ctx<'t>,
    env: &HashMap<String, Ia1s<'t>>,
) -> Result<Ia1s<'t>, EvalError> {
    match expr {
        Expr::Number(v) => Ok(ctx.constant(*v)),
        Expr::Var { name, offset } => env.get(name).copied().ok_or_else(|| {
            EvalError::UnknownVariable {
                name: name.clone(),
                offset: *offset,
            }
        }),
        Expr::Neg(inner) => Ok(-eval_expr(inner, ctx, env)?),
        Expr::Bin { op, lhs, rhs } => {
            // `x ^ <integer literal>` lowers to powi (defined for any
            // base sign); everything else goes through the generic path.
            if let (BinOp::Pow, Expr::Number(p)) = (op, rhs.as_ref()) {
                let l = eval_expr(lhs, ctx, env)?;
                return Ok(apply_pow(l, *p));
            }
            let l = eval_expr(lhs, ctx, env)?;
            let r = eval_expr(rhs, ctx, env)?;
            Ok(match op {
                BinOp::Add => l + r,
                BinOp::Sub => l - r,
                BinOp::Mul => l * r,
                BinOp::Div => l / r,
                // General power: x^y = exp(y · ln x).
                BinOp::Pow => (r * l.ln()).exp(),
            })
        }
        Expr::If {
            cmp_lhs,
            cmp_op,
            cmp_rhs,
            then_branch,
            else_branch,
        } => {
            let l = eval_expr(cmp_lhs, ctx, env)?;
            let r = eval_expr(cmp_rhs, ctx, env)?;
            let tri = match cmp_op {
                CmpOp::Less => l.value().certainly_lt(r.value()),
                CmpOp::Greater => l.value().certainly_gt(r.value()),
            };
            let condition = format!("{cmp_lhs} {cmp_op} {cmp_rhs}");
            let taken = ctx
                .branch(tri, &condition)
                .map_err(EvalError::Analysis)?;
            if taken {
                eval_expr(then_branch, ctx, env)
            } else {
                eval_expr(else_branch, ctx, env)
            }
        }
        Expr::Call { name, offset, args } => {
            let arity = |expected: usize| -> Result<(), EvalError> {
                if args.len() == expected {
                    Ok(())
                } else {
                    Err(EvalError::WrongArity {
                        name: name.clone(),
                        expected,
                        found: args.len(),
                        offset: *offset,
                    })
                }
            };
            if name == "pow" {
                arity(2)?;
                let base = eval_expr(&args[0], ctx, env)?;
                return if let Expr::Number(p) = &args[1] {
                    Ok(apply_pow(base, *p))
                } else {
                    let e = eval_expr(&args[1], ctx, env)?;
                    Ok((e * base.ln()).exp())
                };
            }
            let Some(&op) = FUNCTIONS.iter().find(|op| op.mnemonic() == name) else {
                return Err(EvalError::UnknownFunction {
                    name: name.clone(),
                    offset: *offset,
                });
            };
            arity(op.arity())?;
            let a = eval_expr(&args[0], ctx, env)?;
            let b = match args.get(1) {
                Some(arg) => eval_expr(arg, ctx, env)?,
                None => a,
            };
            Ok(a.apply(op, b))
        }
    }
}

/// The builtin functions other than `pow`, called by their
/// [`Op::mnemonic`] and applied through [`scorpio_adjoint::Var::apply`].
const FUNCTIONS: [Op; 16] = [
    Op::Sin,
    Op::Cos,
    Op::Tan,
    Op::Exp,
    Op::Ln,
    Op::Sqrt,
    Op::Abs,
    Op::Atan,
    Op::Sinh,
    Op::Cosh,
    Op::Tanh,
    Op::Erf,
    Op::Cndf,
    Op::Hypot,
    Op::Min,
    Op::Max,
];

/// Lowers a literal exponent: integers to `powi` (any base), others to
/// `powf` (non-negative base domain).
fn apply_pow<'t>(base: Ia1s<'t>, p: f64) -> Ia1s<'t> {
    if p.fract() == 0.0 && p.abs() <= i32::MAX as f64 {
        base.powi(p as i32)
    } else {
        base.powf(p)
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze;
    use crate::DslError;
    use scorpio_core::Analysis;

    /// Compares the DSL result against hand-written instrumentation for
    /// a function covering every operator class.
    #[test]
    fn dsl_matches_direct_instrumentation() {
        let report = analyze(
            "input a = 0.5 .. 1.5;
             input b = -0.5 .. 0.5;
             let s = sin(a) * cosh(b) + hypot(a, b);
             out y = sqrt(abs(s)) / (1 + exp(-a));",
        )
        .unwrap();

        let direct = Analysis::new()
            .run(|ctx| {
                let a = ctx.input("a", 0.5, 1.5);
                let b = ctx.input("b", -0.5, 0.5);
                let s = a.sin() * b.cosh() + a.hypot(b);
                ctx.intermediate(&s, "s");
                let one = ctx.constant(1.0);
                let y = s.abs().sqrt() / (one + (-a).exp());
                ctx.output(&y, "y");
                Ok(())
            })
            .unwrap();

        for name in ["a", "b", "s", "y"] {
            let d = report.var(name).unwrap();
            let e = direct.var(name).unwrap();
            assert_eq!(d.enclosure, e.enclosure, "{name} enclosure");
            assert!(
                (d.significance_raw - e.significance_raw).abs()
                    <= 1e-12 * (1.0 + e.significance_raw.abs()),
                "{name}: {} vs {}",
                d.significance_raw,
                e.significance_raw
            );
        }
    }

    #[test]
    fn integer_power_keeps_negative_bases() {
        // x^2 over a sign-straddling range must be powi, not exp/ln.
        let report = analyze("input x = -2 .. 2; out y = x^2;").unwrap();
        let y = report.var("y").unwrap();
        assert!(y.enclosure.inf() >= 0.0);
        assert!(y.enclosure.contains(4.0));
    }

    #[test]
    fn general_power_via_exp_ln() {
        let report = analyze("input x = 1 .. 2; out y = x ^ 0.5;").unwrap();
        let y = report.var("y").unwrap();
        assert!(y.enclosure.contains(2.0f64.sqrt()));
        assert!(y.enclosure.contains(1.0));
    }

    #[test]
    fn arity_errors() {
        let err = analyze("input x = 0 .. 1; out y = sin(x, x);").unwrap_err();
        assert!(matches!(err, DslError::Eval(crate::EvalError::WrongArity { .. })));
        let err = analyze("input x = 0 .. 1; out y = frobnicate(x);").unwrap_err();
        assert!(matches!(
            err,
            DslError::Eval(crate::EvalError::UnknownFunction { .. })
        ));
    }

    #[test]
    fn builtins_record_one_node_of_their_op() {
        for op in super::FUNCTIONS {
            let name = op.mnemonic();
            let args = if op.arity() == 2 { "x, x" } else { "x" };
            let src = format!("input x = 0.5 .. 0.75; out y = {name}({args});");
            let report = analyze(&src).unwrap();
            // The input, then exactly one node: the builtin's op.
            let nodes = report.graph().nodes();
            assert_eq!(nodes.len(), 2, "{name}");
            assert_eq!(nodes[1].op, op, "{name}");

            let wrong = if op.arity() == 2 { "x" } else { "x, x" };
            let src = format!("input x = 0.5 .. 0.75; out y = {name}({wrong});");
            let DslError::Eval(err) = analyze(&src).unwrap_err() else {
                panic!("{name}: not an evaluation error");
            };
            assert_eq!(
                err,
                crate::EvalError::WrongArity {
                    name: name.to_string(),
                    expected: op.arity(),
                    found: 3 - op.arity(),
                    offset: 31,
                },
                "{name}"
            );
        }
    }

    #[test]
    fn op_mnemonics_without_a_builtin_stay_unknown() {
        for name in ["sqr", "recip", "neg", "powi", "powf"] {
            let src = format!("input x = 0.5 .. 0.75; out y = {name}(x);");
            let err = analyze(&src).unwrap_err();
            assert!(
                matches!(
                    err,
                    DslError::Eval(crate::EvalError::UnknownFunction { .. })
                ),
                "{name}: {err:?}"
            );
        }
    }

    #[test]
    fn redefinition_rejected() {
        let err = analyze("input x = 0 .. 1; let x = 2; out y = x;").unwrap_err();
        assert!(matches!(
            err,
            DslError::Eval(crate::EvalError::Redefinition { .. })
        ));
    }
}
