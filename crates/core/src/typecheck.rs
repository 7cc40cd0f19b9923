//! Type checking for `NRA(powerset, while)` expressions.
//!
//! Every expression denotes a function `f : s → t`; given the domain `s`,
//! the codomain `t` is uniquely determined (the language is variable-free
//! and fully annotated — only `∅ˢ` carries an annotation). [`output_type`]
//! computes `t` or reports a precise [`TypeError`].

use crate::expr::Expr;
use crate::types::{FnType, Type};
use std::fmt;

/// A type error with the offending sub-expression's head, the expected
/// shape, and the actual domain type encountered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// Head constructor of the failing sub-expression.
    pub at: &'static str,
    /// Human-readable description of what was expected.
    pub expected: String,
    /// The domain type that was actually supplied.
    pub found: Type,
}

impl TypeError {
    fn new(at: &'static str, expected: impl Into<String>, found: &Type) -> Self {
        TypeError {
            at,
            expected: expected.into(),
            found: found.clone(),
        }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "type error at `{}`: expected {}, found `{}`",
            self.at, self.expected, self.found
        )
    }
}

impl std::error::Error for TypeError {}

/// Compute the codomain of `expr` applied to domain type `dom`.
pub fn output_type(expr: &Expr, dom: &Type) -> Result<Type, TypeError> {
    // only the rules with subexpressions live in this frame, which every
    // nesting level pays for; the primitives and the multi-step rules
    // are helpers
    match expr {
        Expr::Tuple(f, g) => Ok(Type::prod(output_type(f, dom)?, output_type(g, dom)?)),
        Expr::Map(f) => match dom {
            Type::Set(s) => Ok(Type::set(output_type(f, s)?)),
            _ => Err(TypeError::new("map", "a set type {s}", dom)),
        },
        Expr::Compose(g, f) => output_type(g, &output_type(f, dom)?),
        Expr::Cond(c, then, els) => cond_type(c, then, els, dom),
        Expr::While(f) => while_type(f, dom),
        _ => primitive_type(expr, dom),
    }
}

fn cond_type(c: &Expr, then: &Expr, els: &Expr, dom: &Type) -> Result<Type, TypeError> {
    let ct = output_type(c, dom)?;
    if ct != Type::Bool {
        return Err(TypeError::new("if", "a boolean condition", &ct));
    }
    let tt = output_type(then, dom)?;
    let et = output_type(els, dom)?;
    if tt != et {
        return Err(TypeError::new(
            "if",
            format!("matching branch types (then: `{}`)", tt),
            &et,
        ));
    }
    Ok(tt)
}

fn while_type(f: &Expr, dom: &Type) -> Result<Type, TypeError> {
    if !matches!(dom, Type::Set(_)) {
        return Err(TypeError::new("while", "a set type {s}", dom));
    }
    let out = output_type(f, dom)?;
    if out == *dom {
        Ok(out)
    } else {
        Err(TypeError::new(
            "while",
            format!("body of type `{}` -> `{}`", dom, dom),
            &out,
        ))
    }
}

/// The rules without subexpressions.
fn primitive_type(expr: &Expr, dom: &Type) -> Result<Type, TypeError> {
    match expr {
        Expr::Id => Ok(dom.clone()),
        Expr::Bang => Ok(Type::Unit),
        Expr::Fst => match dom {
            Type::Prod(s, _) => Ok((**s).clone()),
            _ => Err(TypeError::new("fst", "a product type s * t", dom)),
        },
        Expr::Snd => match dom {
            Type::Prod(_, t) => Ok((**t).clone()),
            _ => Err(TypeError::new("snd", "a product type s * t", dom)),
        },
        Expr::Sng => Ok(Type::set(dom.clone())),
        Expr::Flatten => match dom {
            Type::Set(inner) => match &**inner {
                Type::Set(s) => Ok(Type::set((**s).clone())),
                _ => Err(TypeError::new("flatten", "a doubly-nested set {{s}}", dom)),
            },
            _ => Err(TypeError::new("flatten", "a doubly-nested set {{s}}", dom)),
        },
        Expr::PairWith => match dom {
            Type::Prod(s, t_set) => match &**t_set {
                Type::Set(t) => Ok(Type::set(Type::prod((**s).clone(), (**t).clone()))),
                _ => Err(TypeError::new("pairwith", "a type s * {t}", dom)),
            },
            _ => Err(TypeError::new("pairwith", "a type s * {t}", dom)),
        },
        Expr::EmptySet(elem) => {
            if *dom == Type::Unit {
                Ok(Type::set(elem.clone()))
            } else {
                Err(TypeError::new("emptyset", "the unit domain", dom))
            }
        }
        Expr::Union => match dom {
            Type::Prod(a, b) => match (&**a, &**b) {
                (Type::Set(x), Type::Set(y)) if x == y => Ok(Type::set((**x).clone())),
                _ => Err(TypeError::new("union", "a type {s} * {s}", dom)),
            },
            _ => Err(TypeError::new("union", "a type {s} * {s}", dom)),
        },
        Expr::EqNat => match dom {
            Type::Prod(a, b) if **a == Type::Nat && **b == Type::Nat => Ok(Type::Bool),
            _ => Err(TypeError::new("eq", "the type nat * nat", dom)),
        },
        Expr::IsEmpty => match dom {
            Type::Set(_) => Ok(Type::Bool),
            _ => Err(TypeError::new("isempty", "a set type {s}", dom)),
        },
        Expr::ConstTrue | Expr::ConstFalse => {
            if *dom == Type::Unit {
                Ok(Type::Bool)
            } else {
                Err(TypeError::new(expr.head_name(), "the unit domain", dom))
            }
        }
        Expr::Powerset => match dom {
            Type::Set(s) => Ok(Type::set(Type::set((**s).clone()))),
            _ => Err(TypeError::new("powerset", "a set type {s}", dom)),
        },
        Expr::PowersetM(_) => match dom {
            Type::Set(s) => Ok(Type::set(Type::set((**s).clone()))),
            _ => Err(TypeError::new("powerset_m", "a set type {s}", dom)),
        },
        Expr::Const(v, t) => {
            if v.has_type(t) {
                Ok(t.clone())
            } else {
                Err(TypeError::new(
                    "const",
                    format!("a value of type `{}`", t),
                    dom,
                ))
            }
        }
        Expr::Tuple(..) | Expr::Map(_) | Expr::Compose(..) | Expr::Cond(..) | Expr::While(_) => {
            unreachable!("rules with subexpressions are handled by output_type")
        }
    }
}

/// Compute the full function type `dom → cod` of `expr`.
pub fn fn_type(expr: &Expr, dom: &Type) -> Result<FnType, TypeError> {
    Ok(FnType::new(dom.clone(), output_type(expr, dom)?))
}

/// Check that `expr : dom → cod` exactly.
pub fn check(expr: &Expr, dom: &Type, cod: &Type) -> Result<(), TypeError> {
    let actual = output_type(expr, dom)?;
    if actual == *cod {
        Ok(())
    } else {
        Err(TypeError {
            at: expr.head_name(),
            expected: format!("codomain `{}`", cod),
            found: actual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr::*;
    use crate::value::Value;

    fn rel() -> Type {
        Type::nat_rel()
    }

    #[test]
    fn primitives_type_as_in_the_paper_table() {
        // id : s → s
        assert_eq!(output_type(&Id, &rel()).unwrap(), rel());
        // ! : s → unit
        assert_eq!(output_type(&Bang, &rel()).unwrap(), Type::Unit);
        // π₁ : s × t → s
        let st = Type::prod(Type::Nat, Type::Bool);
        assert_eq!(output_type(&Fst, &st).unwrap(), Type::Nat);
        assert_eq!(output_type(&Snd, &st).unwrap(), Type::Bool);
        // η : s → {s}
        assert_eq!(output_type(&Sng, &Type::Nat).unwrap(), Type::set(Type::Nat));
        // μ : {{s}} → {s}
        let dd = Type::set(Type::set(Type::Nat));
        assert_eq!(output_type(&Flatten, &dd).unwrap(), Type::set(Type::Nat));
        // ρ₂ : s × {t} → {s × t}
        let pw = Type::prod(Type::Nat, Type::set(Type::Bool));
        assert_eq!(
            output_type(&PairWith, &pw).unwrap(),
            Type::set(Type::prod(Type::Nat, Type::Bool))
        );
        // powerset : {s} → {{s}}
        assert_eq!(output_type(&Powerset, &rel()).unwrap(), Type::set(rel()));
        // = : N × N → B
        assert_eq!(
            output_type(&EqNat, &Type::prod(Type::Nat, Type::Nat)).unwrap(),
            Type::Bool
        );
    }

    #[test]
    fn map_and_compose() {
        // map(π₂) : {N × N} → {N}
        let f = Map(Expr::rc(Snd));
        assert_eq!(output_type(&f, &rel()).unwrap(), Type::set(Type::Nat));
        // μ ∘ map(η) : {N} → {N}
        let g = Compose(Expr::rc(Flatten), Expr::rc(Map(Expr::rc(Sng))));
        assert_eq!(
            output_type(&g, &Type::set(Type::Nat)).unwrap(),
            Type::set(Type::Nat)
        );
    }

    #[test]
    fn errors_are_reported_at_the_offending_head() {
        let err = output_type(&Fst, &Type::Nat).unwrap_err();
        assert_eq!(err.at, "fst");
        let err = output_type(&Flatten, &rel()).unwrap_err();
        assert_eq!(err.at, "flatten");
        assert!(err.to_string().contains("doubly-nested"));
        // mismatched branches
        let c = Cond(Expr::rc(IsEmpty), Expr::rc(IsEmpty), Expr::rc(Id));
        let err = output_type(&c, &rel()).unwrap_err();
        assert_eq!(err.at, "if");
    }

    #[test]
    fn union_requires_matching_element_types() {
        let good = Type::prod(Type::set(Type::Nat), Type::set(Type::Nat));
        assert_eq!(output_type(&Union, &good).unwrap(), Type::set(Type::Nat));
        let bad = Type::prod(Type::set(Type::Nat), Type::set(Type::Bool));
        assert!(output_type(&Union, &bad).is_err());
    }

    #[test]
    fn while_requires_endofunction() {
        let ok = While(Expr::rc(Id));
        assert_eq!(output_type(&ok, &rel()).unwrap(), rel());
        let bad = While(Expr::rc(Map(Expr::rc(Fst))));
        assert!(output_type(&bad, &rel()).is_err());
    }

    #[test]
    fn const_checks_value_against_annotation() {
        let ok = Const(Value::nat(3), Type::Nat);
        assert_eq!(output_type(&ok, &Type::Unit).unwrap(), Type::Nat);
        let bad = Const(Value::nat(3), Type::Bool);
        assert!(output_type(&bad, &Type::Unit).is_err());
    }

    #[test]
    fn fn_type_and_check() {
        let ft = fn_type(&Map(Expr::rc(Fst)), &rel()).unwrap();
        assert_eq!(ft.to_string(), "{nat * nat} -> {nat}");
        assert!(check(&Map(Expr::rc(Fst)), &rel(), &Type::set(Type::Nat)).is_ok());
        assert!(check(&Map(Expr::rc(Fst)), &rel(), &Type::set(Type::Bool)).is_err());
    }
}
