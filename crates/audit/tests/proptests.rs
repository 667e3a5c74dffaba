//! Property tests for the audit tokenizer: for randomized source shapes,
//! literals and comments must hide their contents from the token stream
//! (a `tahoma_faults` inside a string must never trip lint A7), line numbers
//! must stay exact, and the lexer must never panic on any input it is
//! handed.

use proptest::prelude::*;
use tahoma_audit::lexer::{lex, TokKind};

/// Deterministic word picker (splitmix64) — the vendored proptest has no
/// string strategies, so string shapes are derived from integer seeds.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Junk that looks like the things the lints hunt for, safe to embed in
/// any literal or comment (no quotes, hashes, backslashes, or `*/`).
fn spicy_junk(seed: u64, words: usize) -> String {
    const WORDS: &[&str] = &[
        "unsafe",
        ".add(p)",
        ".offset(1)",
        "from_raw_parts",
        "partial_cmp(b).unwrap()",
        "lock().expect(x)",
        "Mutex<u32>",
        "SAFETY:",
    ];
    (0..words)
        .map(|i| WORDS[(mix(seed ^ i as u64) % WORDS.len() as u64) as usize])
        .collect::<Vec<_>>()
        .join(" ")
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Anything inside a plain string literal is invisible: the only
    /// `unsafe` the lexer reports is the real one outside the string.
    #[test]
    fn string_literals_hide_their_contents(seed in 0u64..1_000_000, words in 1usize..8) {
        let junk = spicy_junk(seed, words);
        let src = format!("let s = \"{junk}\";\nunsafe {{ () }}\n");
        let ids = idents(&src);
        prop_assert_eq!(ids.iter().filter(|s| *s == "unsafe").count(), 1);
        prop_assert!(!ids.iter().any(|s| s == "from_raw_parts"));
        let lx = lex(&src);
        prop_assert!(lx.toks.iter().any(|t| t.kind == TokKind::Str));
        // The real `unsafe` sits on line 2, wherever the junk ended.
        let line = lx.toks.iter()
            .find(|t| matches!(&t.kind, TokKind::Ident(s) if s == "unsafe"))
            .map(|t| t.line);
        prop_assert_eq!(line, Some(2));
    }

    /// Raw strings with any hash depth hide quotes and junk alike.
    #[test]
    fn raw_strings_hide_their_contents(seed in 0u64..1_000_000, hashes in 1usize..5) {
        let h = "#".repeat(hashes);
        // Embedded plain quotes are legal inside r#"…"# for hashes >= 1.
        let junk = format!("say \"{}\" loudly", spicy_junk(seed, 3));
        let src = format!("let s = r{h}\"{junk}\"{h};\nfn tail() {{}}\n");
        let ids = idents(&src);
        prop_assert!(!ids.iter().any(|s| s == "unsafe"), "leaked from {src}");
        prop_assert!(ids.iter().any(|s| s == "tail"), "lost the code after: {src}");
    }

    /// Block comments nest to arbitrary depth; their contents never
    /// become tokens and the line counter stays exact.
    #[test]
    fn nested_block_comments_hide_contents(seed in 0u64..1_000_000, depth in 1usize..6) {
        let open = "/*".repeat(depth);
        let close = "*/".repeat(depth);
        let junk = spicy_junk(seed, 4);
        let src = format!("{open} {junk}\nstill hidden {close}\nfn tail() {{}}\n");
        let lx = lex(&src);
        let ids = idents(&src);
        prop_assert!(!ids.iter().any(|s| s == "unsafe"));
        prop_assert!(ids.iter().any(|s| s == "tail"));
        prop_assert_eq!(lx.comments.len(), 1);
        prop_assert_eq!(lx.comments[0].line, 1);
        prop_assert_eq!(lx.comments[0].end_line, 2);
        // `fn` of the tail is on line 3.
        let fn_line = lx.toks.iter()
            .find(|t| matches!(&t.kind, TokKind::Ident(s) if s == "fn"))
            .map(|t| t.line);
        prop_assert_eq!(fn_line, Some(3));
    }

    /// `//` vs `///` classification: the `FAULT:`-comment lint (A7) must see
    /// plain comments as plain and doc comments as doc, whatever follows.
    #[test]
    fn line_comment_docness(seed in 0u64..1_000_000, style in 0usize..3) {
        let marker = ["//", "///", "//!"][style];
        let src = format!("{marker} SAFETY: {}\n", spicy_junk(seed, 2));
        let lx = lex(&src);
        prop_assert_eq!(lx.comments.len(), 1);
        prop_assert_eq!(lx.comments[0].doc, style != 0);
        prop_assert!(lx.toks.is_empty(), "comment leaked tokens: {src}");
    }

    /// Tuple-index chains: for any index, `x.N.add(y)` must still yield
    /// the `.`/`add` tokens A5 hunts for (float lexing must not eat them).
    #[test]
    fn tuple_index_chain_keeps_method_tokens(n in 0u32..10_000) {
        let src = format!("let v = x.{n}.add(y);\n");
        let ids = idents(&src);
        prop_assert!(ids.iter().any(|s| s == "add"), "lost .add in {src}");
        // And a genuine float with the same digits stays one number: no
        // spurious `add` appears from `{n}.5f32`.
        let float_src = format!("let f = {n}.5f32;\n");
        let lx = lex(&float_src);
        prop_assert!(lx.toks.iter().any(|t| t.kind == TokKind::Num));
        prop_assert!(!idents(&float_src).iter().any(|s| s == "add"));
    }

    /// Lifetimes vs char literals: `'a` stays a lifetime token, `'a'`
    /// stays a char literal, for every ASCII letter.
    #[test]
    fn lifetime_vs_char_disambiguation(letter in 0u8..26) {
        let ch = (b'a' + letter) as char;
        let lt = format!("fn f<'{ch}>(x: &'{ch} u32) {{}}\n");
        let lx = lex(&lt);
        prop_assert!(lx.toks.iter().any(|t| t.kind == TokKind::Lifetime));
        prop_assert!(!lx.toks.iter().any(|t| t.kind == TokKind::CharLit));
        let cl = format!("let c = '{ch}';\n");
        let lx = lex(&cl);
        prop_assert!(lx.toks.iter().any(|t| t.kind == TokKind::CharLit));
        prop_assert!(!lx.toks.iter().any(|t| t.kind == TokKind::Lifetime));
    }

    /// Robustness: random byte soup (printable-ish) never panics the
    /// lexer, and reported line numbers never exceed the line count.
    #[test]
    fn arbitrary_soup_never_panics(seed in 0u64..1_000_000, len in 0usize..400) {
        const ALPHABET: &[u8] =
            b"abz_ '\"\\/*#!.019{}()<>;:,&r\n\t-+=%^|?@$[]~`";
        let src: String = (0..len)
            .map(|i| ALPHABET[(mix(seed ^ i as u64) % ALPHABET.len() as u64) as usize] as char)
            .collect();
        let lx = lex(&src);
        for t in &lx.toks {
            prop_assert!(t.line >= 1 && t.line <= lx.n_lines.max(1));
        }
        for c in &lx.comments {
            prop_assert!(c.line <= c.end_line);
        }
    }
}
