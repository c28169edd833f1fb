//! A hand-rolled token-level Rust lexer.
//!
//! The analyzer's passes (units hygiene and the two lock rules) consume
//! a real token stream instead of per-line regex channels. The lexer
//! handles the full surface the rules care about: raw strings with `#`
//! fences, byte strings and byte chars (including `b'\''`), char
//! literals vs lifetimes, nested block comments, doc comments, numeric
//! literals with underscores / type suffixes / exponents (`1e-6`,
//! `8.0`, `100_000u64`, `0x1F`), and maximal-munch multi-character
//! operators (`::`, `->`, `..=`, `<<=`, …).
//!
//! String/char literal *content* is never materialized into a token:
//! a literal lexes to a [`TokKind::Str`]/[`TokKind::Char`] token with
//! empty text, so nothing inside a literal can ever trip a rule.
//! Comments are not tokens at all: the lexer skips them.

/// Token kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unwrap`, `HashMap`, `as`, …).
    Ident,
    /// Lifetime (`'a`); text excludes the quote.
    Lifetime,
    /// Numeric literal; text is the raw literal (`1e-6`, `100_000u64`).
    Num,
    /// String-like literal (string, raw string, byte string). Text empty.
    Str,
    /// Char-like literal (`'x'`, `b'\''`). Text empty.
    Char,
    /// Operator / punctuation; text is the maximal-munch operator.
    Punct,
    /// Opening delimiter `(`, `[` or `{`.
    Open,
    /// Closing delimiter `)`, `]` or `}`.
    Close,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Token text (empty for literals — see module docs).
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// Brace (`{}`) depth *before* this token.
    pub depth: u32,
    /// Total delimiter (`()[]{}`) depth *before* this token.
    pub nest: u32,
}

impl Tok {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this a punct/delimiter with exactly this text?
    pub fn is_punct(&self, s: &str) -> bool {
        matches!(self.kind, TokKind::Punct | TokKind::Open | TokKind::Close) && self.text == s
    }
}

/// Lexer output: the token stream plus per-line brace depths.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All code tokens in source order.
    pub toks: Vec<Tok>,
    /// Brace depth at the start of each line (index = line − 1).
    pub line_depth: Vec<u32>,
    /// Number of source lines.
    pub n_lines: usize,
}

/// Multi-character operators, longest first (maximal munch).
const OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

/// Lex a Rust source text.
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut out = Lexed {
        n_lines: source.lines().count().max(1),
        ..Lexed::default()
    };
    out.line_depth = vec![0; out.n_lines + 1];

    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut depth: u32 = 0;
    let mut nest: u32 = 0;

    macro_rules! push {
        ($kind:expr, $text:expr) => {
            out.toks.push(Tok {
                kind: $kind,
                text: $text,
                line,
                depth,
                nest,
            })
        };
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();

        if c == '\n' {
            line += 1;
            if (line as usize) <= out.line_depth.len() {
                out.line_depth[line as usize - 1] = depth;
            }
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }

        // --- comments -------------------------------------------------
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && next == Some('*') {
            let mut d = 1u32;
            i += 2;
            while i < chars.len() && d > 0 {
                let c = chars[i];
                let n = chars.get(i + 1).copied();
                if c == '/' && n == Some('*') {
                    d += 1;
                    i += 2;
                } else if c == '*' && n == Some('/') {
                    d -= 1;
                    i += 2;
                } else {
                    if c == '\n' {
                        line += 1;
                        if (line as usize) <= out.line_depth.len() {
                            out.line_depth[line as usize - 1] = depth;
                        }
                    }
                    i += 1;
                }
            }
            continue;
        }

        // --- string / char literals ------------------------------------
        // Raw strings: r"..." / r#"..."# (and br variants).
        if (c == 'r' && matches!(next, Some('"') | Some('#')))
            || (c == 'b' && next == Some('r') && matches!(chars.get(i + 2), Some('"') | Some('#')))
        {
            let at = if c == 'r' { i + 1 } else { i + 2 };
            if let Some(hashes) = raw_open(&chars, at) {
                let mut j = at + hashes + 1; // first content char
                loop {
                    match chars.get(j) {
                        None => break,
                        Some('"') if raw_close(&chars, j + 1, hashes) => {
                            j += 1 + hashes;
                            break;
                        }
                        Some('\n') => {
                            line += 1;
                            if (line as usize) <= out.line_depth.len() {
                                out.line_depth[line as usize - 1] = depth;
                            }
                            j += 1;
                        }
                        Some(_) => j += 1,
                    }
                }
                push!(TokKind::Str, String::new());
                i = j;
                continue;
            }
        }
        // Byte strings / byte chars.
        if c == 'b' && next == Some('"') {
            i = skip_quoted(&chars, i + 2, '"', &mut line, &mut out, depth);
            push!(TokKind::Str, String::new());
            continue;
        }
        if c == 'b' && next == Some('\'') {
            i = skip_quoted(&chars, i + 2, '\'', &mut line, &mut out, depth);
            push!(TokKind::Char, String::new());
            continue;
        }
        if c == '"' {
            i = skip_quoted(&chars, i + 1, '"', &mut line, &mut out, depth);
            push!(TokKind::Str, String::new());
            continue;
        }
        if c == '\'' {
            // Char literal vs lifetime.
            if is_char_literal(&chars, i) {
                i = skip_quoted(&chars, i + 1, '\'', &mut line, &mut out, depth);
                push!(TokKind::Char, String::new());
            } else {
                let mut j = i + 1;
                let mut text = String::new();
                while j < chars.len() && is_ident_char(chars[j]) {
                    text.push(chars[j]);
                    j += 1;
                }
                push!(TokKind::Lifetime, text);
                i = j;
            }
            continue;
        }

        // --- identifiers ------------------------------------------------
        if c.is_alphabetic() || c == '_' {
            let mut j = i;
            let mut text = String::new();
            while j < chars.len() && is_ident_char(chars[j]) {
                text.push(chars[j]);
                j += 1;
            }
            push!(TokKind::Ident, text);
            i = j;
            continue;
        }

        // --- numbers ----------------------------------------------------
        if c.is_ascii_digit() {
            let mut j = i;
            let mut text = String::new();
            let mut seen_exp = false;
            while j < chars.len() {
                let d = chars[j];
                if d.is_ascii_alphanumeric() || d == '_' {
                    if (d == 'e' || d == 'E') && !text.starts_with("0x") && !text.starts_with("0b")
                    {
                        seen_exp = true;
                    }
                    text.push(d);
                    j += 1;
                } else if d == '.'
                    && chars.get(j + 1).is_some_and(|n| n.is_ascii_digit())
                    && !text.contains('.')
                {
                    // `1.5` but not the range `1..5` or method call `1.max(2)`.
                    text.push(d);
                    j += 1;
                } else if (d == '+' || d == '-')
                    && seen_exp
                    && matches!(text.chars().last(), Some('e') | Some('E'))
                {
                    text.push(d);
                    j += 1;
                } else {
                    break;
                }
            }
            push!(TokKind::Num, text);
            i = j;
            continue;
        }

        // --- delimiters and operators -----------------------------------
        match c {
            '(' | '[' | '{' => {
                push!(TokKind::Open, c.to_string());
                nest += 1;
                if c == '{' {
                    depth += 1;
                }
                i += 1;
                continue;
            }
            ')' | ']' | '}' => {
                nest = nest.saturating_sub(1);
                if c == '}' {
                    depth = depth.saturating_sub(1);
                }
                // `depth`/`nest` fields record the state *before* the
                // token for Open (outside the region) — for Close we
                // record the state *after* popping, i.e. also outside,
                // so matching Open/Close pairs carry equal depths.
                push!(TokKind::Close, c.to_string());
                i += 1;
                continue;
            }
            _ => {}
        }
        if let Some(op) = OPS.iter().find(|op| source_match(&chars, i, op)).copied() {
            push!(TokKind::Punct, op.to_string());
            i += op.chars().count();
            continue;
        }
        push!(TokKind::Punct, c.to_string());
        i += 1;
    }
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Skip a quoted literal starting at the first *content* char; returns
/// the index just past the closing quote. Tracks newlines.
fn skip_quoted(
    chars: &[char],
    mut i: usize,
    quote: char,
    line: &mut u32,
    out: &mut Lexed,
    depth: u32,
) -> usize {
    let mut escaped = false;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            *line += 1;
            if (*line as usize) <= out.line_depth.len() {
                out.line_depth[*line as usize - 1] = depth;
            }
        }
        i += 1;
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == quote {
            break;
        }
    }
    i
}

/// At `chars[at..]`, match `#*"` and return the hash count if this opens
/// a raw string.
fn raw_open(chars: &[char], at: usize) -> Option<usize> {
    let mut hashes = 0usize;
    let mut j = at;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some(hashes)
}

/// At `chars[at..]`, are there `hashes` consecutive `#`s?
fn raw_close(chars: &[char], at: usize, hashes: usize) -> bool {
    (0..hashes).all(|k| chars.get(at + k) == Some(&'#'))
}

/// Distinguish `'a'` / `'\n'` (char literal) from `'a` (lifetime).
fn is_char_literal(chars: &[char], at: usize) -> bool {
    match chars.get(at + 1) {
        Some('\\') => true,
        Some(&c) if c != '\'' => chars.get(at + 2) == Some(&'\''),
        _ => false,
    }
}

fn source_match(chars: &[char], at: usize, pat: &str) -> bool {
    pat.chars()
        .enumerate()
        .all(|(k, p)| chars.get(at + k) == Some(&p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_and_ops() {
        let t = texts("fn f() -> u32 { a::b += 1 }");
        assert!(t.contains(&(TokKind::Punct, "->".into())));
        assert!(t.contains(&(TokKind::Punct, "::".into())));
        assert!(t.contains(&(TokKind::Punct, "+=".into())));
    }

    #[test]
    fn strings_hide_content() {
        let t = texts("let x = \"call .unwrap() now\"; y()");
        assert!(!t.iter().any(|(_, s)| s.contains("unwrap")));
        assert!(t.contains(&(TokKind::Ident, "y".into())));
    }

    #[test]
    fn raw_strings_with_fences() {
        let t = texts("let x = r#\"a \" .unwrap() \"# ; done()");
        assert!(!t.iter().any(|(_, s)| s.contains("unwrap")));
        assert!(t.contains(&(TokKind::Ident, "done".into())));
    }

    #[test]
    fn byte_char_with_escaped_quote() {
        let t = texts("let c = b'\\''; after()");
        assert!(t.contains(&(TokKind::Char, String::new())));
        assert!(t.contains(&(TokKind::Ident, "after".into())));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let t = texts("fn f<'a>(x: &'a str) { let c = 'z'; }");
        assert!(t.contains(&(TokKind::Lifetime, "a".into())));
        assert!(t.contains(&(TokKind::Char, String::new())));
    }

    #[test]
    fn nested_block_comments() {
        let lx = lex("a /* x /* y */ z */ b\nc // tail\n");
        let idents: Vec<&str> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["a", "b", "c"]);
    }

    #[test]
    fn multiline_block_comment_tracks_lines() {
        let lx = lex("a /* one\ntwo\nthree */ b\n");
        assert!(!lx.toks.iter().any(|t| t.is_ident("two")));
        let b = lx.toks.iter().find(|t| t.is_ident("b")).expect("b token");
        assert_eq!(b.line, 3);
    }

    #[test]
    fn numbers_with_exponents_and_suffixes() {
        let t = texts("let a = 1e-6; let b = 100_000u64; let c = 8.0; let d = 0x1F;");
        let nums: Vec<&str> = t
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(nums, ["1e-6", "100_000u64", "8.0", "0x1F"]);
    }

    #[test]
    fn ranges_do_not_glue_to_floats() {
        let t = texts("for i in 0..10 { x[i] }");
        assert!(t.contains(&(TokKind::Num, "0".into())));
        assert!(t.contains(&(TokKind::Punct, "..".into())));
        assert!(t.contains(&(TokKind::Num, "10".into())));
    }

    #[test]
    fn depth_and_nest_tracking() {
        let lx = lex("mod m {\nfn f(a: u32) {}\n}\nfn g() {}\n");
        let f = lx.toks.iter().find(|t| t.is_ident("f")).expect("f");
        assert_eq!(f.depth, 1);
        let a = lx.toks.iter().find(|t| t.is_ident("a")).expect("a");
        assert_eq!(a.nest, 2); // inside mod brace + param paren
        assert_eq!(lx.line_depth[0], 0);
        assert_eq!(lx.line_depth[1], 1);
        assert_eq!(lx.line_depth[3], 0);
    }

    #[test]
    fn braces_in_strings_do_not_count() {
        let lx = lex("let s = \"{{{\";\nnext\n");
        assert_eq!(lx.line_depth[1], 0);
    }

    #[test]
    fn doc_comments_are_comments() {
        let lx = lex("/// says panic! here\nfn ok() {}\n");
        assert!(!lx.toks.iter().any(|t| t.is_ident("panic")));
    }
}
