//! Recursive-descent parser for the DML subset.
//!
//! Operator precedence (loosest to tightest), following R:
//! `|`, `&`, `!`, comparisons, `+ -`, `* /`, `%*%`, unary `-`, `^`
//! (right-associative), postfix indexing.
//!
//! Every AST node carries the byte span of the source text it was parsed
//! from; [`ParseError`] is likewise span-anchored and converts to a
//! [`Diagnostic`] for caret rendering.

use crate::ast::{Arg, Expr, ExprKind, FunctionDef, IndexSel, Script, Stmt, StmtKind};
use crate::lexer::{tokenize, Token, TokenKind};
use lima_core::{Diagnostic, Span};
use lima_matrix::ops::BinOp;
use std::fmt;

/// Parse error with source line, byte span, and diagnostic code
/// (`L0001` lexical, `L0002` syntactic).
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: usize,
    pub msg: String,
    pub span: Span,
    pub code: &'static str,
}

impl ParseError {
    /// Converts to a renderable diagnostic.
    pub fn diagnostic(&self) -> Diagnostic {
        Diagnostic::error(self.code, self.msg.clone()).with_span(self.span)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<crate::lexer::LexError> for ParseError {
    fn from(e: crate::lexer::LexError) -> Self {
        ParseError {
            line: e.line,
            msg: e.msg,
            span: e.span,
            code: "L0001",
        }
    }
}

/// The deepest nesting a script may use. Parentheses, `-`, `!` and `^`
/// chains, call and index argument lists, and blocks (`else if` included)
/// each open one level; the token that would open one more is an `L0004`
/// error. Parsing, lowering, compiling, running and dropping a script at
/// this depth fits in [`SCRIPT_STACK_BYTES`] (DESIGN.md §14 has the
/// per-level frame sizes this is derived from).
pub const MAX_NESTING: u32 = 200;

/// The most binary operators and index brackets one statement may chain.
/// `1 + 1 + … + 1` parses in a loop, but its left-deep tree is lowered,
/// linted and dropped recursively, one frame per link; the count runs over
/// the whole statement because a chain inside parentheses stacks on the
/// chain around it. The link past it is an `L0005` error. With
/// [`MAX_NESTING`] levels open as well, a statement fits in
/// [`SCRIPT_STACK_BYTES`] (DESIGN.md §14 has the per-link frame sizes).
pub const MAX_CHAIN: u32 = 256;

/// The stack a thread needs to parse, compile and run any script the parser
/// accepts; `limad` starts its connection threads with it.
pub const SCRIPT_STACK_BYTES: usize = 8 << 20;

/// Parses a script into an AST.
pub fn parse(src: &str) -> Result<Script, ParseError> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        last_end: 0,
        depth: 0,
        links: 0,
    };
    p.script()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// End offset of the most recently consumed token.
    last_end: u32,
    /// Levels open at the current token (see [`MAX_NESTING`]).
    depth: u32,
    /// Links chained so far in the current statement (see [`MAX_CHAIN`]).
    links: u32,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    /// Span of the current (not yet consumed) token.
    fn cur_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    /// Start offset of the current token — the start of whatever node is
    /// about to be parsed.
    fn start(&self) -> u32 {
        self.cur_span().start
    }

    /// Span from `start` to the end of the last consumed token.
    fn span_from(&self, start: u32) -> Span {
        Span::new(start, self.last_end.max(start))
    }

    fn next(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        self.last_end = self.tokens[self.pos].span.end;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line(),
            msg: msg.into(),
            span: self.cur_span(),
            code: "L0002",
        })
    }

    /// Runs `f`, which opens a level at the current token, one level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING {
            let msg = format!("script nests deeper than {MAX_NESTING} levels");
            return self.err(msg).map_err(|e| ParseError { code: "L0004", ..e });
        }
        self.depth += 1;
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    /// Consumes the operator or `[` at the current token, one more link of
    /// the current statement.
    fn link(&mut self) -> Result<(), ParseError> {
        if self.links >= MAX_CHAIN {
            let msg = format!("statement chains more than {MAX_CHAIN} operators");
            return self.err(msg).map_err(|e| ParseError { code: "L0005", ..e });
        }
        self.links += 1;
        self.next();
        Ok(())
    }

    fn eat(&mut self, kind: &TokenKind, what: &str) -> Result<(), ParseError> {
        if self.peek() == kind {
            self.next();
            Ok(())
        } else {
            self.err(format!("expected {what}, found {:?}", self.peek()))
        }
    }

    fn ident_spanned(&mut self, what: &str) -> Result<(String, Span), ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let span = self.cur_span();
                self.next();
                Ok((name, span))
            }
            other => self.err(format!("expected {what}, found {other:?}")),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        self.ident_spanned(what).map(|(n, _)| n)
    }

    fn skip_semis(&mut self) {
        while matches!(self.peek(), TokenKind::Semicolon) {
            self.next();
        }
    }

    fn script(&mut self) -> Result<Script, ParseError> {
        let mut script = Script::default();
        self.skip_semis();
        while !matches!(self.peek(), TokenKind::Eof) {
            // function definition: IDENT = function (
            if let TokenKind::Ident(_) = self.peek() {
                if matches!(self.peek2(), TokenKind::Assign)
                    && matches!(
                        self.tokens.get(self.pos + 2).map(|t| &t.kind),
                        Some(TokenKind::Function)
                    )
                {
                    script.functions.push(self.function_def()?);
                    self.skip_semis();
                    continue;
                }
            }
            script.body.push(self.statement()?);
            self.skip_semis();
        }
        Ok(script)
    }

    fn function_def(&mut self) -> Result<FunctionDef, ParseError> {
        self.links = 0;
        let (name, name_span) = self.ident_spanned("function name")?;
        self.eat(&TokenKind::Assign, "'='")?;
        self.eat(&TokenKind::Function, "'function'")?;
        self.eat(&TokenKind::LParen, "'('")?;
        let mut params = Vec::new();
        while !matches!(self.peek(), TokenKind::RParen) {
            let pname = self.ident("parameter name")?;
            let default = if matches!(self.peek(), TokenKind::Assign) {
                self.next();
                Some(self.expr()?)
            } else {
                None
            };
            params.push((pname, default));
            if matches!(self.peek(), TokenKind::Comma) {
                self.next();
            }
        }
        self.next(); // )
        self.eat(&TokenKind::Return, "'return'")?;
        self.eat(&TokenKind::LParen, "'('")?;
        let mut outputs = Vec::new();
        while !matches!(self.peek(), TokenKind::RParen) {
            outputs.push(self.ident("output name")?);
            if matches!(self.peek(), TokenKind::Comma) {
                self.next();
            }
        }
        self.next(); // )
        let body = self.block()?;
        Ok(FunctionDef {
            name,
            name_span,
            params,
            outputs,
            body,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.nested(|p| {
            if !matches!(p.peek(), TokenKind::LBrace) {
                // single-statement body
                return Ok(vec![p.statement()?]);
            }
            p.next();
            let mut body = Vec::new();
            p.skip_semis();
            while !matches!(p.peek(), TokenKind::RBrace | TokenKind::Eof) {
                body.push(p.statement()?);
                p.skip_semis();
            }
            p.eat(&TokenKind::RBrace, "'}'")?;
            Ok(body)
        })
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        self.links = 0;
        let start = self.start();
        match self.peek().clone() {
            TokenKind::If => {
                self.next();
                self.eat(&TokenKind::LParen, "'('")?;
                let cond = self.expr()?;
                self.eat(&TokenKind::RParen, "')'")?;
                let then_body = self.block()?;
                let else_body = if matches!(self.peek(), TokenKind::Else) {
                    self.next();
                    if matches!(self.peek(), TokenKind::If) {
                        vec![self.nested(Self::statement)?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::new(
                    StmtKind::If {
                        cond,
                        then_body,
                        else_body,
                    },
                    self.span_from(start),
                ))
            }
            TokenKind::For | TokenKind::ParFor => {
                let parallel = matches!(self.peek(), TokenKind::ParFor);
                self.next();
                self.eat(&TokenKind::LParen, "'('")?;
                let (var, var_span) = self.ident_spanned("loop variable")?;
                self.eat(&TokenKind::In, "'in'")?;
                let from = self.expr()?;
                self.eat(&TokenKind::Colon, "':'")?;
                let to = self.expr()?;
                let by = if matches!(self.peek(), TokenKind::Comma) {
                    self.next();
                    Some(self.expr()?)
                } else {
                    None
                };
                self.eat(&TokenKind::RParen, "')'")?;
                let body = self.block()?;
                Ok(Stmt::new(
                    StmtKind::For {
                        var,
                        var_span,
                        from,
                        to,
                        by,
                        body,
                        parallel,
                    },
                    self.span_from(start),
                ))
            }
            TokenKind::While => {
                self.next();
                self.eat(&TokenKind::LParen, "'('")?;
                let cond = self.expr()?;
                self.eat(&TokenKind::RParen, "')'")?;
                let body = self.block()?;
                Ok(Stmt::new(
                    StmtKind::While { cond, body },
                    self.span_from(start),
                ))
            }
            TokenKind::LBracket => {
                // multi-assign: [a, b] = call
                self.next();
                let mut targets = Vec::new();
                while !matches!(self.peek(), TokenKind::RBracket) {
                    targets.push(self.ident("assignment target")?);
                    if matches!(self.peek(), TokenKind::Comma) {
                        self.next();
                    }
                }
                self.next(); // ]
                self.eat(&TokenKind::Assign, "'='")?;
                let call = self.expr()?;
                if !matches!(call.kind, ExprKind::Call { .. }) {
                    return self.err("multi-assignment requires a function call");
                }
                Ok(Stmt::new(
                    StmtKind::MultiAssign { targets, call },
                    self.span_from(start),
                ))
            }
            TokenKind::Ident(name) => {
                // print/write statements, indexed assignment, or assignment
                if name == "print" && matches!(self.peek2(), TokenKind::LParen) {
                    self.next();
                    self.next();
                    let e = self.expr()?;
                    self.eat(&TokenKind::RParen, "')'")?;
                    return Ok(Stmt::new(StmtKind::Print(e), self.span_from(start)));
                }
                if name == "write" && matches!(self.peek2(), TokenKind::LParen) {
                    self.next();
                    self.next();
                    let e = self.expr()?;
                    self.eat(&TokenKind::Comma, "','")?;
                    let path = self.expr()?;
                    self.eat(&TokenKind::RParen, "')'")?;
                    return Ok(Stmt::new(StmtKind::Write(e, path), self.span_from(start)));
                }
                let target_span = self.cur_span();
                self.next();
                match self.peek().clone() {
                    TokenKind::Assign => {
                        self.next();
                        let value = self.expr()?;
                        Ok(Stmt::new(
                            StmtKind::Assign {
                                target: name,
                                target_span,
                                value,
                            },
                            self.span_from(start),
                        ))
                    }
                    TokenKind::LBracket => {
                        self.next();
                        let (rows, cols) = self.index_selectors()?;
                        self.eat(&TokenKind::Assign, "'='")?;
                        let value = self.expr()?;
                        Ok(Stmt::new(
                            StmtKind::IndexAssign {
                                target: name,
                                target_span,
                                rows,
                                cols,
                                value,
                            },
                            self.span_from(start),
                        ))
                    }
                    other => self.err(format!(
                        "expected '=' or '[' after '{name}', found {other:?}"
                    )),
                }
            }
            other => self.err(format!("unexpected token {other:?}")),
        }
    }

    /// Parses the inside of `[...]` up to and including the `]`.
    fn index_selectors(&mut self) -> Result<(IndexSel, IndexSel), ParseError> {
        let rows = if matches!(self.peek(), TokenKind::Comma) {
            IndexSel::All
        } else {
            self.index_sel()?
        };
        let cols = if matches!(self.peek(), TokenKind::Comma) {
            self.next();
            if matches!(self.peek(), TokenKind::RBracket) {
                IndexSel::All
            } else {
                self.index_sel()?
            }
        } else {
            IndexSel::All
        };
        self.eat(&TokenKind::RBracket, "']'")?;
        Ok((rows, cols))
    }

    fn index_sel(&mut self) -> Result<IndexSel, ParseError> {
        let a = self.expr_no_colon()?;
        if matches!(self.peek(), TokenKind::Colon) {
            self.next();
            let b = self.expr_no_colon()?;
            Ok(IndexSel::Range(Box::new(a), Box::new(b)))
        } else {
            Ok(IndexSel::Single(Box::new(a)))
        }
    }

    // ---------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    /// Inside index selectors `:` separates ranges, so it must not be eaten
    /// by expressions; the normal grammar has no binary `:` so this is the
    /// same parser, kept separate for clarity.
    fn expr_no_colon(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        let span = lhs.span.to(rhs.span);
        Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span)
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), TokenKind::Or) {
            self.link()?;
            let rhs = self.and_expr()?;
            lhs = Self::binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.not_expr()?;
        while matches!(self.peek(), TokenKind::And) {
            self.link()?;
            let rhs = self.not_expr()?;
            lhs = Self::binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if !matches!(self.peek(), TokenKind::Not) {
            return self.cmp_expr();
        }
        self.nested(|p| {
            let start = p.start();
            p.next();
            let inner = p.not_expr()?;
            let span = Span::new(start, inner.span.end);
            Ok(Expr::new(ExprKind::Not(Box::new(inner)), span))
        })
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Neq => BinOp::Neq,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.link()?;
        let rhs = self.add_expr()?;
        Ok(Self::binary(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.link()?;
            let rhs = self.mul_expr()?;
            lhs = Self::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.matmul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.link()?;
            let rhs = self.matmul_expr()?;
            lhs = Self::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn matmul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        while matches!(self.peek(), TokenKind::MatMul) {
            self.link()?;
            let rhs = self.unary_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(ExprKind::MatMul(Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if !matches!(self.peek(), TokenKind::Minus) {
            return self.pow_expr();
        }
        self.nested(|p| {
            let start = p.start();
            p.next();
            let inner = p.unary_expr()?;
            let span = Span::new(start, inner.span.end);
            // Fold negative literals.
            Ok(match inner.kind {
                ExprKind::Int(v) => Expr::new(ExprKind::Int(-v), span),
                ExprKind::Float(v) => Expr::new(ExprKind::Float(-v), span),
                other => Expr::new(ExprKind::Neg(Box::new(Expr::new(other, inner.span))), span),
            })
        })
    }

    fn pow_expr(&mut self) -> Result<Expr, ParseError> {
        let base = self.postfix_expr()?;
        if !matches!(self.peek(), TokenKind::Caret) {
            return Ok(base);
        }
        // Right-associative, and allows -1 exponents.
        let exp = self.nested(|p| {
            p.link()?;
            p.unary_expr()
        })?;
        Ok(Self::binary(BinOp::Pow, base, exp))
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        while matches!(self.peek(), TokenKind::LBracket) {
            let (rows, cols) = self.nested(|p| {
                p.link()?;
                p.index_selectors()
            })?;
            let span = self.span_from(e.span.start);
            e = Expr::new(
                ExprKind::Index {
                    base: Box::new(e),
                    rows,
                    cols,
                },
                span,
            );
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let start = self.start();
        let lit = |p: &Self, kind: ExprKind| Expr::new(kind, p.span_from(start));
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.next();
                Ok(lit(self, ExprKind::Int(v)))
            }
            TokenKind::Float(v) => {
                self.next();
                Ok(lit(self, ExprKind::Float(v)))
            }
            TokenKind::Str(s) => {
                self.next();
                Ok(lit(self, ExprKind::Str(s)))
            }
            TokenKind::True => {
                self.next();
                Ok(lit(self, ExprKind::Bool(true)))
            }
            TokenKind::False => {
                self.next();
                Ok(lit(self, ExprKind::Bool(false)))
            }
            TokenKind::LParen => self.nested(|p| {
                p.next();
                let e = p.expr()?;
                p.eat(&TokenKind::RParen, "')'")?;
                Ok(e)
            }),
            TokenKind::Ident(name) => {
                self.next();
                if !matches!(self.peek(), TokenKind::LParen) {
                    return Ok(Expr::new(ExprKind::Var(name), self.span_from(start)));
                }
                let args = self.nested(Self::call_args)?;
                Ok(Expr::new(
                    ExprKind::Call { name, args },
                    self.span_from(start),
                ))
            }
            other => self.err(format!("unexpected token {other:?} in expression")),
        }
    }

    /// Parses `(args)` of a call, the parentheses included.
    fn call_args(&mut self) -> Result<Vec<Arg>, ParseError> {
        self.next(); // (
        let mut args = Vec::new();
        while !matches!(self.peek(), TokenKind::RParen) {
            // named argument: IDENT '=' expr (but not '==')
            let name = match self.peek().clone() {
                TokenKind::Ident(n) if matches!(self.peek2(), TokenKind::Assign) => {
                    self.next();
                    self.next();
                    Some(n)
                }
                _ => None,
            };
            let value = self.expr()?;
            args.push(Arg { name, value });
            if matches!(self.peek(), TokenKind::Comma) {
                self.next();
            }
        }
        self.next(); // )
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::collapsible_match)] // nested matches read clearer in AST asserts
    use super::*;

    #[test]
    fn parses_assignments_and_precedence() {
        let s = parse("y = a + b * c ^ 2;").unwrap();
        match &s.body[0].kind {
            StmtKind::Assign { target, value, .. } => {
                assert_eq!(target, "y");
                // a + (b * (c ^ 2))
                match &value.kind {
                    ExprKind::Binary(BinOp::Add, _, rhs) => match &rhs.kind {
                        ExprKind::Binary(BinOp::Mul, _, rhs) => {
                            assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Pow, _, _)));
                        }
                        _ => panic!("expected mul"),
                    },
                    _ => panic!("expected add"),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn matmul_binds_tighter_than_mul() {
        let s = parse("z = a * b %*% c").unwrap();
        match &s.body[0].kind {
            StmtKind::Assign { value, .. } => match &value.kind {
                ExprKind::Binary(BinOp::Mul, _, rhs) => {
                    assert!(matches!(rhs.kind, ExprKind::MatMul(_, _)));
                }
                _ => panic!("expected * at top"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parses_indexing_forms() {
        let s = parse("a = X[1:10, 2]; b = X[, s]; c = X[i, ]; d = X[1:n, 1:k];").unwrap();
        assert_eq!(s.body.len(), 4);
        match &s.body[1].kind {
            StmtKind::Assign { value, .. } => match &value.kind {
                ExprKind::Index { rows, cols, .. } => {
                    assert_eq!(*rows, IndexSel::All);
                    assert!(
                        matches!(cols, IndexSel::Single(e) if matches!(&e.kind, ExprKind::Var(v) if v == "s"))
                    );
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
        match &s.body[2].kind {
            StmtKind::Assign { value, .. } => match &value.kind {
                ExprKind::Index { rows, cols, .. } => {
                    assert!(matches!(rows, IndexSel::Single(_)));
                    assert_eq!(*cols, IndexSel::All);
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parses_control_flow() {
        let src = "
            if (x > 1) { y = 1; } else if (x < 0) { y = 2; } else { y = 3; }
            for (i in 1:10) { s = s + i; }
            parfor (j in 1:4, 2) { t = j; }
            while (s < 100) s = s * 2;
        ";
        let s = parse(src).unwrap();
        assert_eq!(s.body.len(), 4);
        assert!(matches!(&s.body[0].kind, StmtKind::If { else_body, .. } if else_body.len() == 1));
        assert!(matches!(
            &s.body[1].kind,
            StmtKind::For {
                parallel: false,
                by: None,
                ..
            }
        ));
        assert!(matches!(
            &s.body[2].kind,
            StmtKind::For {
                parallel: true,
                by: Some(_),
                ..
            }
        ));
        assert!(matches!(&s.body[3].kind, StmtKind::While { .. }));
    }

    #[test]
    fn parses_function_definitions() {
        let src = "
            lm = function(X, y, reg = 1e-7) return (B) {
                A = t(X) %*% X;
                B = solve(A, t(X) %*% y);
            }
            B = lm(X, y);
        ";
        let s = parse(src).unwrap();
        assert_eq!(s.functions.len(), 1);
        let f = &s.functions[0];
        assert_eq!(f.name, "lm");
        assert_eq!(f.params.len(), 3);
        assert!(f.params[2].1.is_some());
        assert_eq!(f.outputs, vec!["B"]);
        assert_eq!(f.body.len(), 2);
        assert_eq!(s.body.len(), 1);
        // The name span points at `lm` in the source.
        let ns = f.name_span;
        assert_eq!(&src[ns.start as usize..ns.end as usize], "lm");
    }

    #[test]
    fn parses_multi_assign_and_named_args() {
        let src = "[evals, evects] = eigen(C); R = rand(rows=10, cols=5, seed=42);";
        let s = parse(src).unwrap();
        assert!(
            matches!(&s.body[0].kind, StmtKind::MultiAssign { targets, .. } if targets.len() == 2)
        );
        match &s.body[1].kind {
            StmtKind::Assign { value, .. } => match &value.kind {
                ExprKind::Call { name, args } => {
                    assert_eq!(name, "rand");
                    assert!(args.iter().all(|a| a.name.is_some()));
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
        assert!(parse("[a, b] = 3").is_err());
    }

    #[test]
    fn parses_indexed_assignment() {
        let s = parse("B[i, ] = t(beta); C[1:2, 3] = x;").unwrap();
        assert!(matches!(
            &s.body[0].kind,
            StmtKind::IndexAssign {
                cols: IndexSel::All,
                ..
            }
        ));
        assert!(matches!(
            &s.body[1].kind,
            StmtKind::IndexAssign {
                rows: IndexSel::Range(_, _),
                ..
            }
        ));
    }

    #[test]
    fn parses_print_write_and_comments() {
        let s = parse("# header\nprint('loss: ' + l);\nwrite(B, 'out.bin')").unwrap();
        assert!(matches!(&s.body[0].kind, StmtKind::Print(_)));
        assert!(matches!(&s.body[1].kind, StmtKind::Write(_, _)));
    }

    #[test]
    fn negative_literals_fold() {
        let s = parse("x = -3; y = -2.5; z = 2^-1").unwrap();
        assert!(matches!(
            &s.body[0].kind,
            StmtKind::Assign {
                value: Expr {
                    kind: ExprKind::Int(-3),
                    ..
                },
                ..
            }
        ));
        assert!(
            matches!(&s.body[1].kind, StmtKind::Assign { value, .. } if matches!(value.kind, ExprKind::Float(v) if v == -2.5))
        );
        match &s.body[2].kind {
            StmtKind::Assign { value, .. } => {
                assert!(
                    matches!(&value.kind, ExprKind::Binary(BinOp::Pow, _, e) if matches!(e.kind, ExprKind::Int(-1)))
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn error_messages_carry_lines() {
        let e = parse("x = 1\ny = @").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(parse("if x > 1 { }").is_err());
        assert!(parse("x 5").is_err());
    }

    #[test]
    fn statements_and_exprs_carry_spans() {
        let src = "x = 1 + 2;\nparfor (i in 1:4) { R[i, 1] = x; }";
        let s = parse(src).unwrap();
        let assign = &s.body[0];
        assert_eq!(
            &src[assign.span.start as usize..assign.span.end as usize],
            "x = 1 + 2"
        );
        match &assign.kind {
            StmtKind::Assign {
                target_span, value, ..
            } => {
                assert_eq!(
                    &src[target_span.start as usize..target_span.end as usize],
                    "x"
                );
                assert_eq!(
                    &src[value.span.start as usize..value.span.end as usize],
                    "1 + 2"
                );
            }
            _ => panic!(),
        }
        let loop_stmt = &s.body[1];
        assert_eq!(
            &src[loop_stmt.span.start as usize..loop_stmt.span.end as usize],
            "parfor (i in 1:4) { R[i, 1] = x; }"
        );
        match &loop_stmt.kind {
            StmtKind::For {
                var_span, parallel, ..
            } => {
                assert!(*parallel);
                assert_eq!(&src[var_span.start as usize..var_span.end as usize], "i");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn call_spans_cover_name_and_args() {
        let src = "y = solve(A, b)";
        let s = parse(src).unwrap();
        match &s.body[0].kind {
            StmtKind::Assign { value, .. } => {
                assert_eq!(
                    &src[value.span.start as usize..value.span.end as usize],
                    "solve(A, b)"
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_errors_carry_spans_and_codes() {
        let e = parse("x = 1\ny = @").unwrap_err();
        assert_eq!(e.code, "L0001"); // lexical: unexpected character
        assert!(e.span.in_bounds("x = 1\ny = @".len()));
        let e = parse("x 5").unwrap_err();
        assert_eq!(e.code, "L0002");
        assert_eq!(e.span, Span::of(2, 3)); // points at `5`
        let d = e.diagnostic();
        assert_eq!(d.code, "L0002");
        assert_eq!(d.primary, Some(Span::of(2, 3)));
        // EOF errors anchor to the end of input.
        let e = parse("x = ").unwrap_err();
        assert_eq!(e.span, Span::point(4));
    }
}
