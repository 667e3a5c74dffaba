//! Minimal Rust lexer: just enough token structure for the audit lints.
//!
//! No `syn` (the build box is offline), so this is a hand-rolled scanner
//! that classifies source text into identifiers, punctuation, and opaque
//! literal/comment blobs. The invariants the lints lean on:
//!
//! * nothing inside a string, char, raw-string, or comment ever becomes a
//!   code token (so `"tahoma_faults"` in a message never trips A7);
//! * comments are captured separately with their line span and doc-ness
//!   (`///`/`//!`/`/**` are doc, `//`/`/*` are not — A7's `// FAULT:`
//!   marker counts only plain comments);
//! * every token carries its 1-based source line.
//!
//! Number lexing deliberately consumes `.` only when a digit follows, so a
//! tuple-index method chain like `c.0.add(x)` still yields the `.`/`add`
//! tokens the raw-pointer lint (A5) looks for.

/// Token classes the lints distinguish. Literal payloads are dropped —
/// no lint looks inside a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers are normalized: `r#fn` → `fn`).
    Ident(String),
    /// Single punctuation character (multi-char operators arrive as
    /// consecutive tokens).
    Punct(char),
    /// Numeric literal (integer or float, any base, with suffix).
    Num,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`, `c"…"`).
    Str,
    /// Char or byte-char literal.
    CharLit,
    /// Lifetime or loop label (`'a`, `'static`, `'outer`).
    Lifetime,
}

/// One code token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub line: u32,
}

/// One comment with its line span and doc-ness; `text` keeps the comment
/// markers (`//`, `/*`) so callers can pattern-match the raw shape.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Line the comment starts on.
    pub line: u32,
    /// Line the comment ends on (== `line` for `//` comments).
    pub end_line: u32,
    /// True for `///`, `//!`, `/**`, `/*!` (rustdoc) comments.
    pub doc: bool,
    pub text: String,
}

/// Lexer output: code tokens and comments, in source order.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    /// Total line count of the file.
    pub n_lines: u32,
}

impl Lexed {
    /// Convenience: the identifier text of token `i`, if it is one.
    pub fn ident(&self, i: usize) -> Option<&str> {
        match self.toks.get(i).map(|t| &t.kind) {
            Some(TokKind::Ident(s)) => Some(s),
            _ => None,
        }
    }

    /// True when token `i` is the punctuation `c`.
    pub fn punct(&self, i: usize, c: char) -> bool {
        matches!(self.toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
    }
}

/// Lex `src`. Unterminated literals/comments are tolerated (they swallow
/// the rest of the file) — the audit runs on code that already compiles,
/// so this only matters for fuzzed inputs, where "no panic" is the bar.
pub fn lex(src: &str) -> Lexed {
    let c: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < c.len() {
        let ch = c[i];
        match ch {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if peek(&c, i + 1) == Some('/') => {
                let mut j = i;
                while j < c.len() && c[j] != '\n' {
                    j += 1;
                }
                let text: String = c[i..j].iter().collect();
                let doc = (text.starts_with("///") && !text.starts_with("////"))
                    || text.starts_with("//!");
                out.comments.push(Comment {
                    line,
                    end_line: line,
                    doc,
                    text,
                });
                i = j;
            }
            '/' if peek(&c, i + 1) == Some('*') => {
                let start_line = line;
                let mut depth = 1u32;
                let mut j = i + 2;
                while j < c.len() && depth > 0 {
                    if c[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if c[j] == '/' && peek(&c, j + 1) == Some('*') {
                        depth += 1;
                        j += 2;
                    } else if c[j] == '*' && peek(&c, j + 1) == Some('/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let text: String = c[i..j.min(c.len())].iter().collect();
                let doc = (text.starts_with("/**") && !text.starts_with("/***") && text != "/**/")
                    || text.starts_with("/*!");
                out.comments.push(Comment {
                    line: start_line,
                    end_line: line,
                    doc,
                    text,
                });
                i = j;
            }
            '"' => {
                let start_line = line;
                i = scan_string(&c, i, &mut line);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    line: start_line,
                });
            }
            '\'' => {
                let start_line = line;
                if peek(&c, i + 1) == Some('\\') {
                    // Escaped char literal: skip to the closing quote.
                    let mut j = i + 2;
                    while j < c.len() {
                        match c[j] {
                            '\\' => j += 2,
                            '\'' => {
                                j += 1;
                                break;
                            }
                            '\n' => {
                                line += 1;
                                j += 1;
                            }
                            _ => j += 1,
                        }
                    }
                    i = j;
                    out.toks.push(Tok {
                        kind: TokKind::CharLit,
                        line: start_line,
                    });
                } else if peek(&c, i + 2) == Some('\'') && peek(&c, i + 1) != Some('\'') {
                    // Plain 'x' char literal.
                    i += 3;
                    out.toks.push(Tok {
                        kind: TokKind::CharLit,
                        line: start_line,
                    });
                } else {
                    // Lifetime or loop label.
                    let mut j = i + 1;
                    while j < c.len() && (c[j] == '_' || c[j].is_alphanumeric()) {
                        j += 1;
                    }
                    i = j;
                    out.toks.push(Tok {
                        kind: TokKind::Lifetime,
                        line: start_line,
                    });
                }
            }
            _ if ch == '_' || ch.is_alphabetic() => {
                let mut j = i + 1;
                while j < c.len() && (c[j] == '_' || c[j].is_alphanumeric()) {
                    j += 1;
                }
                let word: String = c[i..j].iter().collect();
                i = lex_after_word(&c, j, &word, line, &mut out, &mut |l| line = l);
                // `lex_after_word` may have consumed a literal; `line` was
                // updated through the closure when it crossed newlines.
            }
            _ if ch.is_ascii_digit() => {
                let start_line = line;
                let mut j = i + 1;
                loop {
                    match peek(&c, j) {
                        Some(d) if d == '_' || d.is_ascii_alphanumeric() => j += 1,
                        Some('.') if peek(&c, j + 1).is_some_and(|n| n.is_ascii_digit()) => {
                            j += 2;
                        }
                        _ => break,
                    }
                }
                i = j;
                out.toks.push(Tok {
                    kind: TokKind::Num,
                    line: start_line,
                });
            }
            _ => {
                out.toks.push(Tok {
                    kind: TokKind::Punct(ch),
                    line,
                });
                i += 1;
            }
        }
    }
    out.n_lines = line;
    out
}

fn peek(c: &[char], i: usize) -> Option<char> {
    c.get(i).copied()
}

/// A word was just lexed ending at index `j`; decide whether it is a
/// string-literal prefix (`r`, `b`, `br`, `c`, `cr`), a raw identifier
/// (`r#name`), a byte-char prefix (`b'x'`), or a plain identifier.
/// Returns the index to continue from; pushes the token(s) produced.
fn lex_after_word(
    c: &[char],
    j: usize,
    word: &str,
    line: u32,
    out: &mut Lexed,
    set_line: &mut dyn FnMut(u32),
) -> usize {
    let raw_capable = matches!(word, "r" | "br" | "cr");
    match (word, peek(c, j)) {
        // Plain string with escapes after a `b`/`c` prefix.
        ("b" | "c", Some('"')) => {
            let mut l = line;
            let next = scan_string(c, j, &mut l);
            set_line(l);
            out.toks.push(Tok {
                kind: TokKind::Str,
                line,
            });
            next
        }
        // Byte-char literal `b'x'` / `b'\n'`.
        ("b", Some('\'')) => {
            let mut k = j + 1;
            while k < c.len() {
                match c[k] {
                    '\\' => k += 2,
                    '\'' => {
                        k += 1;
                        break;
                    }
                    _ => k += 1,
                }
            }
            out.toks.push(Tok {
                kind: TokKind::CharLit,
                line,
            });
            k
        }
        // Raw string (`r"…"`, `r#"…"#`, `br#"…"#`, …).
        (_, Some('"')) if raw_capable => scan_raw_string(c, j, 0, line, out, set_line),
        (_, Some('#')) if raw_capable => {
            let mut hashes = 0usize;
            let mut k = j;
            while peek(c, k) == Some('#') {
                hashes += 1;
                k += 1;
            }
            if peek(c, k) == Some('"') {
                scan_raw_string(c, k, hashes, line, out, set_line)
            } else if word == "r" {
                // Raw identifier `r#name`: normalize to `name`.
                let mut e = j + 1;
                while e < c.len() && (c[e] == '_' || c[e].is_alphanumeric()) {
                    e += 1;
                }
                let name: String = c[j + 1..e].iter().collect();
                out.toks.push(Tok {
                    kind: TokKind::Ident(name),
                    line,
                });
                e
            } else {
                out.toks.push(Tok {
                    kind: TokKind::Ident(word.to_string()),
                    line,
                });
                j
            }
        }
        _ => {
            out.toks.push(Tok {
                kind: TokKind::Ident(word.to_string()),
                line,
            });
            j
        }
    }
}

/// Scan a `"…"` string with escapes starting at the opening quote index;
/// returns the index past the closing quote and updates `line`.
fn scan_string(c: &[char], start: usize, line: &mut u32) -> usize {
    let mut j = start + 1;
    while j < c.len() {
        match c[j] {
            '\\' => j += 2,
            '"' => return j + 1,
            '\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// Scan a raw string whose opening quote is at `quote` with `hashes`
/// leading `#`s; pushes the `Str` token and returns the index past the
/// closing delimiter.
fn scan_raw_string(
    c: &[char],
    quote: usize,
    hashes: usize,
    line: u32,
    out: &mut Lexed,
    set_line: &mut dyn FnMut(u32),
) -> usize {
    let mut l = line;
    let mut j = quote + 1;
    'outer: while j < c.len() {
        if c[j] == '\n' {
            l += 1;
            j += 1;
            continue;
        }
        if c[j] == '"' {
            for k in 0..hashes {
                if peek(c, j + 1 + k) != Some('#') {
                    j += 1;
                    continue 'outer;
                }
            }
            j += 1 + hashes;
            break;
        }
        j += 1;
    }
    set_line(l);
    out.toks.push(Tok {
        kind: TokKind::Str,
        line,
    });
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        let src = r##"
            let a = "unsafe { }"; // unsafe in comment
            /* unsafe block comment */
            let b = r#"partial_cmp().unwrap()"#;
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|s| s == "unsafe"));
        assert!(!ids.iter().any(|s| s == "partial_cmp"));
        assert_eq!(lex(src).comments.len(), 2);
    }

    #[test]
    fn tuple_index_chain_keeps_method_tokens() {
        let lx = lex("c.0.add(1)");
        let kinds: Vec<&TokKind> = lx.toks.iter().map(|t| &t.kind).collect();
        assert!(kinds.contains(&&TokKind::Ident("add".to_string())));
        // The number stops before `.add` — exactly one Num token.
        assert_eq!(
            kinds.iter().filter(|k| ***k == TokKind::Num).count(),
            2 // `0` and `1`
        );
    }

    #[test]
    fn float_literal_is_one_token() {
        let lx = lex("let x = 1.5e3f64;");
        assert_eq!(lx.toks.iter().filter(|t| t.kind == TokKind::Num).count(), 1);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lx = lex("fn f<'a>(x: &'a u8) { let c = 'x'; let d = '\\n'; }");
        let lifetimes = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::CharLit)
            .count();
        assert_eq!((lifetimes, chars), (2, 2));
    }

    #[test]
    fn doc_vs_plain_comments() {
        let src = "/// doc\n//! inner doc\n// plain\n//// not doc\nfn f() {}\n";
        let lx = lex(src);
        let docs: Vec<bool> = lx.comments.iter().map(|c| c.doc).collect();
        assert_eq!(docs, vec![true, true, false, false]);
    }

    #[test]
    fn nested_block_comments() {
        let lx = lex("/* outer /* inner */ still comment */ fn f() {}");
        assert_eq!(lx.comments.len(), 1);
        assert_eq!(idents("/* /* */ unsafe */ ok"), vec!["ok"]);
    }

    #[test]
    fn raw_identifier_normalizes() {
        assert_eq!(idents("let r#fn = 1;"), vec!["let", "fn"]);
    }
}
