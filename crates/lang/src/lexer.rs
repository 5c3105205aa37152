//! Lexer for the DML subset.
//!
//! Every token carries a byte-offset [`Span`] into the original source so
//! parse errors and downstream lint diagnostics can render caret snippets
//! (DESIGN.md §14). Lines are still tracked for legacy `line N:` messages.

use lima_core::Span;
use std::fmt;

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    True,
    False,
    If,
    Else,
    For,
    ParFor,
    While,
    In,
    Function,
    Return,
    // punctuation / operators
    Assign, // =
    Eq,     // ==
    Neq,    // !=
    Le,     // <=
    Ge,     // >=
    Lt,     // <
    Gt,     // >
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    MatMul, // %*%
    And,    // &
    Or,     // |
    Not,    // !
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Colon,
    Semicolon,
    Eof,
}

/// A token with its source line (1-based) and byte span for diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: usize,
    pub span: Span,
}

/// Lexing error, anchored to the offending byte range.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    pub line: usize,
    pub msg: String,
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes a script. `#` starts a line comment.
pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    let mut tokens = Vec::new();
    // Parallel arrays: chars plus the byte offset of each char; a sentinel
    // offset at the end maps `i == chars.len()` to `src.len()`.
    let mut chars: Vec<char> = Vec::new();
    let mut offs: Vec<usize> = Vec::new();
    for (off, c) in src.char_indices() {
        offs.push(off);
        chars.push(c);
    }
    offs.push(src.len());
    let mut i = 0;
    let mut line = 1;
    let err = |line: usize, msg: String, span: Span| LexError { line, msg, span };
    // The token of chars `a..b`.
    let tok = |kind, line, a: usize, b: usize| Token {
        kind,
        line,
        span: Span::of(offs[a], offs[b]),
    };
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '#' => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '0'..='9' | '.' if c != '.' || chars.get(i + 1).is_some_and(char::is_ascii_digit) => {
                let start = i;
                let mut is_float = false;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    if chars[i] == '.' {
                        is_float = true;
                    }
                    i += 1;
                }
                // exponent
                if i < chars.len() && (chars[i] == 'e' || chars[i] == 'E') {
                    let mut j = i + 1;
                    if j < chars.len() && (chars[j] == '+' || chars[j] == '-') {
                        j += 1;
                    }
                    if j < chars.len() && chars[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < chars.len() && chars[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let span = Span::of(offs[start], offs[i]);
                let text: String = chars[start..i].iter().collect();
                let kind = if is_float {
                    TokenKind::Float(
                        text.parse()
                            .map_err(|_| err(line, format!("bad number '{text}'"), span))?,
                    )
                } else {
                    TokenKind::Int(
                        text.parse()
                            .map_err(|_| err(line, format!("bad integer '{text}'"), span))?,
                    )
                };
                tokens.push(tok(kind, line, start, i));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let kind = match text.as_str() {
                    "TRUE" => TokenKind::True,
                    "FALSE" => TokenKind::False,
                    "if" => TokenKind::If,
                    "else" => TokenKind::Else,
                    "for" => TokenKind::For,
                    "parfor" => TokenKind::ParFor,
                    "while" => TokenKind::While,
                    "in" => TokenKind::In,
                    "function" => TokenKind::Function,
                    "return" => TokenKind::Return,
                    _ => TokenKind::Ident(text),
                };
                tokens.push(tok(kind, line, start, i));
            }
            '\'' | '"' => {
                let quote = c;
                let open = i;
                i += 1;
                let start = i;
                while i < chars.len() && chars[i] != quote && chars[i] != '\n' {
                    i += 1;
                }
                // A string ends on its line (`offs[i]` is `src.len()` at the end).
                if chars.get(i) != Some(&quote) {
                    let span = Span::of(offs[open], offs[i]);
                    return Err(err(line, "unterminated string".into(), span));
                }
                let text: String = chars[start..i].iter().collect();
                i += 1;
                tokens.push(tok(TokenKind::Str(text), line, open, i));
            }
            '%' => {
                // only %*% supported
                if chars.get(i + 1) == Some(&'*') && chars.get(i + 2) == Some(&'%') {
                    tokens.push(tok(TokenKind::MatMul, line, i, i + 3));
                    i += 3;
                } else {
                    return Err(err(
                        line,
                        "unsupported '%' operator (only %*%)".into(),
                        Span::of(offs[i], offs[i + 1]),
                    ));
                }
            }
            _ => {
                let two = |a: char| chars.get(i + 1) == Some(&a);
                let (kind, len) = match c {
                    '=' if two('=') => (TokenKind::Eq, 2),
                    '=' => (TokenKind::Assign, 1),
                    '!' if two('=') => (TokenKind::Neq, 2),
                    '!' => (TokenKind::Not, 1),
                    '<' if two('=') => (TokenKind::Le, 2),
                    '<' if two('-') => (TokenKind::Assign, 2), // R-style assign
                    '<' => (TokenKind::Lt, 1),
                    '>' if two('=') => (TokenKind::Ge, 2),
                    '>' => (TokenKind::Gt, 1),
                    '+' => (TokenKind::Plus, 1),
                    '-' => (TokenKind::Minus, 1),
                    '*' => (TokenKind::Star, 1),
                    '/' => (TokenKind::Slash, 1),
                    '^' => (TokenKind::Caret, 1),
                    '&' => (TokenKind::And, if two('&') { 2 } else { 1 }),
                    '|' => (TokenKind::Or, if two('|') { 2 } else { 1 }),
                    '(' => (TokenKind::LParen, 1),
                    ')' => (TokenKind::RParen, 1),
                    '[' => (TokenKind::LBracket, 1),
                    ']' => (TokenKind::RBracket, 1),
                    '{' => (TokenKind::LBrace, 1),
                    '}' => (TokenKind::RBrace, 1),
                    ',' => (TokenKind::Comma, 1),
                    ':' => (TokenKind::Colon, 1),
                    ';' => (TokenKind::Semicolon, 1),
                    other => {
                        return Err(err(
                            line,
                            format!("unexpected character '{other}'"),
                            Span::of(offs[i], offs[i + 1]),
                        ))
                    }
                };
                tokens.push(tok(kind, line, i, i + len));
                i += len;
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
        span: Span::point(src.len()),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn numbers_ints_and_floats() {
        assert_eq!(
            kinds("1 2.5 1e-5 10E3 7"),
            vec![
                TokenKind::Int(1),
                TokenKind::Float(2.5),
                TokenKind::Float(1e-5),
                TokenKind::Float(10e3),
                TokenKind::Int(7),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn identifiers_keywords_and_dots() {
        assert_eq!(
            kinds("for x as.scalar TRUE parfor"),
            vec![
                TokenKind::For,
                TokenKind::Ident("x".into()),
                TokenKind::Ident("as.scalar".into()),
                TokenKind::True,
                TokenKind::ParFor,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_both_quotes() {
        assert_eq!(
            kinds(r#"'abc' "d e f""#),
            vec![
                TokenKind::Str("abc".into()),
                TokenKind::Str("d e f".into()),
                TokenKind::Eof
            ]
        );
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn operators_and_matmul() {
        assert_eq!(
            kinds("a = b %*% c; a == b; a <= 1; x <- 2"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Assign,
                TokenKind::Ident("b".into()),
                TokenKind::MatMul,
                TokenKind::Ident("c".into()),
                TokenKind::Semicolon,
                TokenKind::Ident("a".into()),
                TokenKind::Eq,
                TokenKind::Ident("b".into()),
                TokenKind::Semicolon,
                TokenKind::Ident("a".into()),
                TokenKind::Le,
                TokenKind::Int(1),
                TokenKind::Semicolon,
                TokenKind::Ident("x".into()),
                TokenKind::Assign,
                TokenKind::Int(2),
                TokenKind::Eof
            ]
        );
        assert!(tokenize("a %% b").is_err());
    }

    #[test]
    fn comments_and_lines() {
        let toks = tokenize("a = 1 # comment\nb = 2").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[3].line, 2);
        assert_eq!(toks.len(), 7);
    }

    #[test]
    fn unexpected_characters_error() {
        assert!(tokenize("a @ b").is_err());
    }

    #[test]
    fn spans_are_byte_offsets() {
        let src = "ab = 12;\ncd = ab %*% ef";
        let toks = tokenize(src).unwrap();
        assert_eq!(toks[0].span, Span::of(0, 2)); // ab
        assert_eq!(toks[1].span, Span::of(3, 4)); // =
        assert_eq!(toks[2].span, Span::of(5, 7)); // 12
        assert_eq!(toks[3].span, Span::of(7, 8)); // ;
        assert_eq!(toks[4].span, Span::of(9, 11)); // cd
        assert_eq!(toks[7].span, Span::of(17, 20)); // %*%
        let eof = toks.last().unwrap();
        assert_eq!(eof.span, Span::point(src.len()));
        // Every span is in bounds and ordered.
        for t in &toks {
            assert!(t.span.in_bounds(src.len()), "{:?}", t);
        }
    }

    #[test]
    fn spans_handle_multibyte_chars() {
        // 'é' is 2 bytes; the string token's span must land on char
        // boundaries of the original source.
        let src = "s = 'éé'; t = 1";
        let toks = tokenize(src).unwrap();
        let str_tok = &toks[2];
        assert!(matches!(str_tok.kind, TokenKind::Str(_)));
        assert_eq!(
            &src[str_tok.span.start as usize..str_tok.span.end as usize],
            "'éé'"
        );
        for t in &toks {
            assert!(src.is_char_boundary(t.span.start as usize));
            assert!(src.is_char_boundary(t.span.end as usize));
        }
    }

    #[test]
    fn lex_errors_carry_spans() {
        let e = tokenize("a @ b").unwrap_err();
        assert_eq!(e.span, Span::of(2, 3));
        let e = tokenize("x = 'oops").unwrap_err();
        assert_eq!(e.span, Span::of(4, 9));
        let e = tokenize("a %% b").unwrap_err();
        assert_eq!(e.span, Span::of(2, 3));
    }
}
