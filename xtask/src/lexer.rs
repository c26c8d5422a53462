//! A minimal Rust lexer for the workspace analysis passes.
//!
//! No `syn` is available offline, and the passes only need token-level
//! facts (identifier occurrences, operators adjacent to float
//! literals), so this
//! hand-rolled scanner is sufficient — and honest: it never guesses
//! types, only reports lexical patterns, and the pass definitions in
//! `passes` are phrased at exactly that level.
//!
//! Handled: line/block comments (nested), string/char/byte literals
//! (with escapes), raw strings with hashes, byte-char literals
//! (`b'x'`), numeric literals (with `_`, exponents, suffixes),
//! identifiers, lifetimes-vs-char-literals, and multi-char operators.
//! Everything else comes out as single-char punctuation tokens.

/// One lexical token with its source line (1-based) and raw text.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// Token kind.
    pub kind: TokenKind,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// The raw source text of the token (for literals, the full
    /// literal including quotes/prefix).
    pub text: String,
}

/// Classification of a token.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal (no `.` or exponent), e.g. `42`, `0xFF`, `7u32`.
    Int,
    /// Float literal, e.g. `0.0`, `1e-6`, `2.5f64`.
    Float,
    /// Operator or punctuation, e.g. `==`, `!=`, `::`, `.`, `(`.
    Op(String),
    /// String, raw-string, char, byte, or lifetime literal.
    Literal,
}

/// Lex `src` into tokens, skipping comments and whitespace.
#[allow(clippy::too_many_lines)]
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    #[allow(clippy::naive_bytecount)] // sources are small; no bytecount dep
    let bump_lines = |from: usize, to: usize, line: &mut u32| {
        *line += b[from..to].iter().filter(|&&c| c == b'\n').count() as u32;
    };

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = i;
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                bump_lines(start, i.min(b.len()), &mut line);
            }
            // Escaped (non-raw) string and byte-string literals. `b"…"`
            // takes this path too: byte strings honour `\"` escapes,
            // which the raw-string scanner below must not apply.
            b'"' | b'b'
                if c == b'"' || (is_prefixed_literal(b, i) && b.get(i + 1) == Some(&b'"')) =>
            {
                let start = i;
                i += usize::from(c == b'b') + 1; // prefix + opening quote
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                let end = i.min(b.len());
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    line,
                    text: src[start..end].to_string(),
                });
                bump_lines(start, end, &mut line);
            }
            // Byte-char literal `b'x'` (with escapes).
            b'b' if is_prefixed_literal(b, i) && b.get(i + 1) == Some(&b'\'') => {
                let start = i;
                i += 2;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'\'' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    line,
                    text: src[start..i.min(b.len())].to_string(),
                });
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                let start = i;
                // Skip `r`/`br` prefix then count hashes.
                i += 1;
                if i < b.len() && b[i] == b'r' {
                    i += 1;
                }
                let mut hashes = 0usize;
                while i < b.len() && b[i] == b'#' {
                    hashes += 1;
                    i += 1;
                }
                i += 1; // opening quote
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                while i < b.len() && !b[i..].starts_with(&closer) {
                    i += 1;
                }
                i = (i + closer.len()).min(b.len());
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    line,
                    text: src[start..i].to_string(),
                });
                bump_lines(start, i, &mut line);
            }
            b'\'' => {
                // Char literal or lifetime. Lifetime: 'ident not
                // followed by a closing quote.
                let start = i;
                if is_lifetime(b, i) {
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                } else {
                    i += 1;
                    while i < b.len() {
                        match b[i] {
                            b'\\' => i += 2,
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    line,
                    text: src[start..i.min(b.len())].to_string(),
                });
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                let mut is_float = false;
                if c == b'0' && i + 1 < b.len() && matches!(b[i + 1], b'x' | b'o' | b'b') {
                    i += 2;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                } else {
                    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                        i += 1;
                    }
                    // Fractional part: a dot followed by a digit (not
                    // `..` or a method call like `1.max(..)`).
                    if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                        is_float = true;
                        i += 1;
                        while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                            i += 1;
                        }
                    } else if i < b.len()
                        && b[i] == b'.'
                        && (i + 1 >= b.len()
                            || !matches!(b[i + 1], b'.' | b'_') && !b[i + 1].is_ascii_alphabetic())
                    {
                        // Trailing-dot float like `1.`
                        is_float = true;
                        i += 1;
                    }
                    // Exponent.
                    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
                        let mut j = i + 1;
                        if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
                            j += 1;
                        }
                        if j < b.len() && b[j].is_ascii_digit() {
                            is_float = true;
                            i = j;
                            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                                i += 1;
                            }
                        }
                    }
                    // Suffix (`f64`, `u32`, ...).
                    let suffix_start = i;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    if src[suffix_start..i].starts_with('f') {
                        is_float = true;
                    }
                }
                tokens.push(Token {
                    kind: if is_float {
                        TokenKind::Float
                    } else {
                        TokenKind::Int
                    },
                    line,
                    text: src[start..i].to_string(),
                });
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(src[start..i].to_string()),
                    line,
                    text: src[start..i].to_string(),
                });
            }
            _ => {
                // Multi-char operators the passes care about, longest
                // first; everything else is single-char punctuation.
                const OPS: [&str; 10] =
                    ["==", "!=", "<=", ">=", "::", "->", "=>", "..", "&&", "||"];
                let rest = &src[i..];
                let mut matched = None;
                for op in OPS {
                    if rest.starts_with(op) {
                        matched = Some(op);
                        break;
                    }
                }
                let op = match matched {
                    Some(m) => m.to_string(),
                    // Safe single-char slice even for non-ASCII.
                    None => rest.chars().next().map(String::from).unwrap_or_default(),
                };
                i += op.len();
                tokens.push(Token {
                    kind: TokenKind::Op(op.clone()),
                    line,
                    text: op,
                });
            }
        }
    }
    tokens
}

/// Is the `b` at `i` a byte-literal prefix (`b"…"` or `b'…'`) rather
/// than the tail of an identifier like `grab`?
fn is_prefixed_literal(b: &[u8], i: usize) -> bool {
    b[i] == b'b' && !(i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_'))
}

/// Does position `i` start a *raw* string (`r"`, `r#"`, `br#"`)?
/// Escaped `b"…"` byte strings are handled by the string arm instead
/// (they honour backslash escapes; raw strings must not). Avoids
/// misreading identifiers like `regex` or `bytes`.
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // Must not be preceded by an identifier character.
    if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        return false;
    }
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        // Only `br…` is raw; bare `b"` is an escaped byte string.
        if j < b.len() && b[j] == b'r' {
            j += 1;
        } else {
            return false;
        }
    } else if b[j] == b'r' {
        j += 1;
    } else {
        return false;
    }
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

/// Is the `'` at `i` a lifetime rather than a char literal?
fn is_lifetime(b: &[u8], i: usize) -> bool {
    let Some(&first) = b.get(i + 1) else {
        return false;
    };
    if !(first.is_ascii_alphabetic() || first == b'_') {
        return false;
    }
    // `'a'` is a char; `'a,` / `'a>` / `'static` are lifetimes.
    let mut j = i + 1;
    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
        j += 1;
    }
    !(j < b.len() && b[j] == b'\'')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    fn literals(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_are_skipped() {
        let src = r##"
            // HashMap in a comment
            /* HashMap in a block /* nested */ comment */
            let s = "HashMap in a string";
            let r = r#"HashMap raw"#;
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|s| *s == "HashMap").count(), 1);
    }

    #[test]
    fn raw_strings_with_hashes_and_quotes() {
        // A raw string containing an unescaped quote and a `"#`-like
        // fragment closes only at the matching `"##`.
        let src = r###"let a = r##"has "quotes" and "# inside"##; let after = 1;"###;
        let lits = literals(src);
        assert_eq!(lits.len(), 1, "{lits:?}");
        assert!(lits[0].contains("quotes"));
        assert!(idents(src).contains(&"after".to_string()));
    }

    #[test]
    fn multiline_raw_string_keeps_line_numbers() {
        let src = "let a = r#\"line1\nline2\nline3\"#;\nlet tail = 2;";
        let toks = lex(src);
        let tail = toks
            .iter()
            .find(|t| t.kind == TokenKind::Ident("tail".into()))
            .unwrap();
        assert_eq!(tail.line, 4);
    }

    #[test]
    fn byte_strings_honour_escapes() {
        // `b"\""` is a complete byte string; the old raw-string path
        // closed it at the escaped quote and mis-tokenized the rest.
        let src = r#"let a = b"\""; let after = 1;"#;
        let lits = literals(src);
        assert_eq!(lits, vec!["b\"\\\"\"".to_string()], "{lits:?}");
        assert!(idents(src).contains(&"after".to_string()));
    }

    #[test]
    fn byte_char_literals_lex_as_one_literal() {
        let src = r"let a = b'r'; let b_ = b'\''; let c = grab;";
        let lits = literals(src);
        assert_eq!(lits, vec!["b'r'".to_string(), r"b'\''".to_string()]);
        // `grab` must stay one identifier, not `gra` + `b…`.
        assert!(idents(src).contains(&"grab".to_string()));
    }

    #[test]
    fn raw_byte_strings_are_raw() {
        // `br#"…"#` must NOT honour backslash escapes.
        let src = r##"let a = br#"back\slash"#; let after = 1;"##;
        let lits = literals(src);
        assert_eq!(lits.len(), 1, "{lits:?}");
        assert!(lits[0].contains("back\\slash"));
        assert!(idents(src).contains(&"after".to_string()));
    }

    #[test]
    fn nested_block_comments_balance() {
        let src = "/* a /* b /* c */ */ still comment */ let x = 1;";
        let ids = idents(src);
        assert_eq!(ids, vec!["let".to_string(), "x".to_string()]);
        // Unterminated nesting consumes to EOF without panicking.
        assert!(lex("/* open /* deeper */ never closed").is_empty());
    }

    #[test]
    fn float_vs_int_literals() {
        let toks = lex("let a = 1; let b = 2.5; let c = 1e-6; let d = 3f64; let e = 0x1F;");
        let floats = toks.iter().filter(|t| t.kind == TokenKind::Float).count();
        let ints = toks.iter().filter(|t| t.kind == TokenKind::Int).count();
        assert_eq!(floats, 3, "{toks:?}");
        assert_eq!(ints, 2, "{toks:?}");
    }

    #[test]
    fn numeric_tokens_carry_their_text() {
        let toks = lex("0.0 1e-6 42 0xFF");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["0.0", "1e-6", "42", "0xFF"]);
    }

    #[test]
    fn method_call_on_int_is_not_float() {
        let toks = lex("let x = 1.max(2);");
        assert!(toks.iter().all(|t| t.kind != TokenKind::Float));
    }

    #[test]
    fn range_on_int_is_not_float() {
        let toks = lex("for i in 0..10 {}");
        assert!(toks.iter().all(|t| t.kind != TokenKind::Float));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Op("..".to_string())));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n  c == 0.0");
        let c = toks
            .iter()
            .find(|t| t.kind == TokenKind::Ident("c".into()))
            .unwrap();
        assert_eq!(c.line, 3);
        let eq = toks
            .iter()
            .find(|t| t.kind == TokenKind::Op("==".into()))
            .unwrap();
        assert_eq!(eq.line, 3);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x';");
        // All three lifetime sites plus one char literal.
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokenKind::Literal).count(),
            4
        );
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident("str".into())));
    }

    #[test]
    fn lifetime_edge_cases() {
        // 'static at EOF, '_ anonymous, escaped quote char, char with
        // an alphabetic body followed by a quote.
        assert_eq!(literals("&'static"), vec!["'static".to_string()]);
        assert_eq!(literals("&'_ str"), vec!["'_".to_string()]);
        assert_eq!(literals(r"let c = '\'';"), vec![r"'\''".to_string()]);
        assert_eq!(literals("let c = 'q';"), vec!["'q'".to_string()]);
    }

    #[test]
    fn operators_lex_whole() {
        let toks = lex("a == b != c :: d");
        let ops: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Op(o) => Some(o.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec!["==", "!=", "::"]);
    }
}
