//! A recursive-descent parser for the concrete expression syntax printed by
//! [`crate::display`], plus parsers for types and complex-object literals.
//!
//! The grammar (whitespace-insensitive):
//!
//! ```text
//! expr  := NAME                                   -- nullary primitive
//!        | "tuple" "(" expr "," expr ")"
//!        | "map" "(" expr ")" | "while" "(" expr ")"
//!        | "if" "(" expr "," expr "," expr ")"
//!        | "compose" "(" expr "," expr ")"
//!        | "emptyset" "[" type "]"
//!        | "powerset_m" "(" NUM ")"
//!        | "const" "(" value ":" type ")"
//! type  := prim ("*" prim)*                       -- right-associative
//! prim  := "unit" | "bool" | "nat" | "{" type "}" | "(" type ")"
//! value := "(" ")" | "true" | "false" | NUM
//!        | "(" value "," value ")" | "{" [value ("," value)*] "}"
//! ```
//!
//! Nesting is bounded by [`MAX_NESTING`]: the parser recurses once per
//! level, so an unbounded input could overflow the stack of whichever
//! thread parses it. Deeper input is a [`ParseError`], not an abort.

use crate::expr::{Expr, ExprRef};
use crate::types::Type;
use crate::value::Value;
use std::fmt;

/// A parse error with byte position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input at which the error was detected.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting the parser accepts, counted per recursive
/// production (`expr`, `value`, `type`, including each `*` of a product
/// type). One bound serves all three: untrusted input reaches every
/// one of them through the wire front, and everything downstream of
/// parsing (interning, type checking, admission, evaluation, rendering)
/// recurses over the same structure, so the bound keeps the whole
/// request path within an ordinary 2 MiB thread stack — with room to
/// spare in optimised builds, and still in unoptimised ones, whose
/// frames are several times larger. The deepest canned query
/// (`queries::tc_naive`) nests 28 levels.
pub const MAX_NESTING: usize = 256;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Productions currently open (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Run one recursive production one level deeper, refusing to go
    /// past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        production: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let result = production(self);
        self.depth -= 1;
        result
    }

    /// Kept out of [`Parser::nested`] so the message formatting does
    /// not enlarge the frame every nesting level pays for.
    fn too_deep(&self) -> ParseError {
        ParseError {
            position: self.pos,
            message: format!("nesting deeper than {MAX_NESTING} levels"),
        }
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            position: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.input.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            self.error(format!("expected `{}`", c as char))
        }
    }

    fn try_eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.input.get(self.pos) == Some(&c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len()
            && (self.input[self.pos].is_ascii_alphanumeric() || self.input[self.pos] == b'_')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return self.error("expected an identifier");
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos]).expect("ascii"))
    }

    fn number(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if start == self.pos {
            return self.error("expected a number");
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .expect("ascii")
            .parse()
            .or_else(|_| self.error("number out of range"))
    }

    // -- types ------------------------------------------------------------

    fn ty(&mut self) -> Result<Type, ParseError> {
        self.nested(Self::ty_product)
    }

    fn ty_product(&mut self) -> Result<Type, ParseError> {
        let first = self.ty_prim()?;
        if self.try_eat(b'*') {
            let rest = self.ty()?;
            Ok(Type::prod(first, rest))
        } else {
            Ok(first)
        }
    }

    fn ty_prim(&mut self) -> Result<Type, ParseError> {
        match self.peek() {
            Some(b'{') => self.bracketed_ty(b'{', b'}').map(Type::set),
            Some(b'(') => self.bracketed_ty(b'(', b')'),
            _ => self.base_ty(),
        }
    }

    fn bracketed_ty(&mut self, open: u8, close: u8) -> Result<Type, ParseError> {
        self.eat(open)?;
        let inner = self.ty()?;
        self.eat(close)?;
        Ok(inner)
    }

    fn base_ty(&mut self) -> Result<Type, ParseError> {
        match self.ident()? {
            "unit" => Ok(Type::Unit),
            "bool" => Ok(Type::Bool),
            "nat" => Ok(Type::Nat),
            other => self.error(format!("unknown type `{}`", other)),
        }
    }

    // -- values -----------------------------------------------------------

    fn value(&mut self) -> Result<Value, ParseError> {
        self.nested(Self::value_form)
    }

    // each form parses in its own function: every nesting level pays
    // for the frame of the function it recurses through, so the
    // dispatcher stays small
    fn value_form(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'(') => self.pair_value(),
            Some(b'{') => self.set_value(),
            _ => self.atom_value(),
        }
    }

    fn pair_value(&mut self) -> Result<Value, ParseError> {
        self.eat(b'(')?;
        if self.try_eat(b')') {
            return Ok(Value::Unit);
        }
        let a = self.value()?;
        self.eat(b',')?;
        let b = self.value()?;
        self.eat(b')')?;
        Ok(Value::pair(a, b))
    }

    fn set_value(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut items = Vec::new();
        if !self.try_eat(b'}') {
            loop {
                items.push(self.value()?);
                if self.try_eat(b'}') {
                    break;
                }
                self.eat(b',')?;
            }
        }
        Ok(Value::set(items))
    }

    fn atom_value(&mut self) -> Result<Value, ParseError> {
        if self.peek().is_some_and(|c| c.is_ascii_digit()) {
            return Ok(Value::Nat(self.number()?));
        }
        match self.ident()? {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            other => self.error(format!("unknown value `{}`", other)),
        }
    }

    // -- expressions --------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::expr_form)
    }

    fn expr_form(&mut self) -> Result<Expr, ParseError> {
        let name = self.ident()?;
        match name {
            "tuple" => self.args().map(|[a, b]| Expr::Tuple(a, b)),
            "map" => self.args().map(|[f]| Expr::Map(f)),
            "while" => self.args().map(|[f]| Expr::While(f)),
            "if" => self.args().map(|[c, t, e]| Expr::Cond(c, t, e)),
            "compose" => self.args().map(|[g, f]| Expr::Compose(g, f)),
            other => self.expr_leaf(other),
        }
    }

    /// `"(" expr ("," expr)* ")"` with exactly `N` arguments — the one
    /// place an expression recurses into its subexpressions.
    fn args<const N: usize>(&mut self) -> Result<[ExprRef; N], ParseError> {
        let mut args = Vec::with_capacity(N);
        for i in 0..N {
            self.eat(if i == 0 { b'(' } else { b',' })?;
            args.push(self.expr().map(Expr::rc)?);
        }
        self.eat(b')')?;
        Ok(args.try_into().expect("exactly N arguments"))
    }

    /// The heads without subexpressions: the nullary primitives and the
    /// forms carrying a type, a number or a value.
    fn expr_leaf(&mut self, name: &str) -> Result<Expr, ParseError> {
        match name {
            "id" => Ok(Expr::Id),
            "bang" => Ok(Expr::Bang),
            "fst" => Ok(Expr::Fst),
            "snd" => Ok(Expr::Snd),
            "sng" => Ok(Expr::Sng),
            "flatten" => Ok(Expr::Flatten),
            "pairwith" => Ok(Expr::PairWith),
            "union" => Ok(Expr::Union),
            "eq" => Ok(Expr::EqNat),
            "isempty" => Ok(Expr::IsEmpty),
            "true" => Ok(Expr::ConstTrue),
            "false" => Ok(Expr::ConstFalse),
            "powerset" => Ok(Expr::Powerset),
            "emptyset" => {
                self.eat(b'[')?;
                let t = self.ty()?;
                self.eat(b']')?;
                Ok(Expr::EmptySet(t))
            }
            "powerset_m" => {
                self.eat(b'(')?;
                let m = self.number()?;
                self.eat(b')')?;
                Ok(Expr::PowersetM(m))
            }
            "const" => {
                self.eat(b'(')?;
                let v = self.value()?;
                self.eat(b':')?;
                let t = self.ty()?;
                self.eat(b')')?;
                Ok(Expr::Const(v, t))
            }
            other => self.error(format!("unknown expression head `{}`", other)),
        }
    }

    fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.input.len() {
            Ok(())
        } else {
            self.error("trailing input")
        }
    }
}

/// Parse an expression from its concrete syntax.
pub fn parse_expr(input: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(input);
    let e = p.expr()?;
    p.finish()?;
    Ok(e)
}

/// Parse a type.
pub fn parse_type(input: &str) -> Result<Type, ParseError> {
    let mut p = Parser::new(input);
    let t = p.ty()?;
    p.finish()?;
    Ok(t)
}

/// Parse a complex-object literal.
pub fn parse_value(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser::new(input);
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn parses_primitives() {
        assert_eq!(parse_expr("id").unwrap(), Expr::Id);
        assert_eq!(parse_expr(" powerset ").unwrap(), Expr::Powerset);
        assert_eq!(parse_expr("powerset_m(4)").unwrap(), Expr::PowersetM(4));
    }

    #[test]
    fn parses_nested() {
        let e = parse_expr("compose(map(fst), powerset)").unwrap();
        assert_eq!(e, compose(map(fst()), powerset()));
        let e = parse_expr("if(isempty, compose(true, bang), compose(false, bang))").unwrap();
        assert_eq!(e, cond(is_empty(), always_true(), always_false()));
    }

    #[test]
    fn parses_types() {
        assert_eq!(parse_type("{nat * nat}").unwrap(), Type::nat_rel());
        assert_eq!(
            parse_type("(nat * bool) * unit").unwrap(),
            Type::prod(Type::prod(Type::Nat, Type::Bool), Type::Unit)
        );
        // right-associativity
        assert_eq!(
            parse_type("nat * bool * unit").unwrap(),
            Type::prod(Type::Nat, Type::prod(Type::Bool, Type::Unit))
        );
    }

    #[test]
    fn parses_values() {
        assert_eq!(parse_value("()").unwrap(), Value::Unit);
        assert_eq!(parse_value("{(0, 1), (1, 2)}").unwrap(), Value::chain(2));
        assert_eq!(parse_value("{}").unwrap(), Value::empty_set());
        assert_eq!(
            parse_value("(true, 3)").unwrap(),
            Value::pair(Value::TRUE, Value::nat(3))
        );
    }

    #[test]
    fn errors_carry_position() {
        let err = parse_expr("compose(map(fst)").unwrap_err();
        assert!(err.position > 0);
        assert!(parse_expr("frobnicate").is_err());
        assert!(parse_expr("id id").is_err(), "trailing input rejected");
    }

    /// `levels` productions deep: `levels - 1` wrappers around a leaf.
    fn nest(open: &str, leaf: &str, close: &str, levels: usize) -> String {
        format!(
            "{}{leaf}{}",
            open.repeat(levels - 1),
            close.repeat(levels - 1)
        )
    }

    #[test]
    fn nesting_is_bounded_in_every_production() {
        assert!(parse_value(&nest("{", "1", "}", MAX_NESTING)).is_ok());
        assert!(parse_expr(&nest("compose(id,", "id", ")", MAX_NESTING)).is_ok());
        assert!(parse_type(&nest("{", "nat", "}", MAX_NESTING)).is_ok());
        for levels in [MAX_NESTING + 1, 100_000] {
            for err in [
                parse_value(&nest("{", "1", "}", levels)).unwrap_err(),
                parse_value(&nest("(0,", "1", ")", levels)).unwrap_err(),
                parse_expr(&nest("compose(id,", "id", ")", levels)).unwrap_err(),
                parse_expr(&nest("map(", "id", ")", levels)).unwrap_err(),
                parse_type(&nest("{", "nat", "}", levels)).unwrap_err(),
                parse_type(&nest("nat*", "nat", "", levels)).unwrap_err(),
            ] {
                assert!(err.message.contains("nesting"), "{err}");
            }
        }
        // the bound counts open productions, not total size: wide input
        // of any length still parses
        let wide = format!("{{{}}}", vec!["{1}"; 10_000].join(","));
        assert!(parse_value(&wide).is_ok());
        // expressions embed values and types, which share the budget
        let konst = format!("const({} : nat)", nest("{", "1", "}", MAX_NESTING));
        assert!(parse_expr(&konst).unwrap_err().message.contains("nesting"));
    }

    #[test]
    fn round_trips_displayed_expressions() {
        for e in [
            compose(map(fst()), powerset()),
            cond(is_empty(), always_true(), always_false()),
            empty_set(Type::nat_rel()),
            while_fix(compose(union(), tuple(id(), id()))),
            konst(Value::chain(2), Type::nat_rel()),
            crate::queries::tc_while(),
        ] {
            let text = e.to_string();
            let back = parse_expr(&text).unwrap_or_else(|err| panic!("{text}: {err}"));
            assert_eq!(back, e, "{text}");
        }
    }
}
