//! A minimal Rust lexer for the lint pass.
//!
//! The rules in this crate are token-pattern matchers, not AST walkers,
//! so the lexer's only job is to present the *significant* tokens of a
//! source file — identifiers and punctuation, each tagged with its
//! 1-based line — with everything that could cause false positives
//! stripped out:
//!
//! * line comments, doc comments and (nested) block comments,
//! * the contents of string literals, including raw (`r#"…"#`) and
//!   byte (`b"…"`) forms: each literal leaves one `"` punctuation token,
//!   so a rule can see *that* a string stands somewhere, never what it
//!   says,
//! * character literals (disambiguated from lifetimes),
//! * numeric literals (they carry no lint signal).
//!
//! Stripping strings and comments is what makes the rules trustworthy:
//! `"Instant::now"` inside a test assertion message or a doc example
//! mentioning `BinaryHeap` must never fire a rule. The flip side is
//! that waivers and hot-path markers *live* in comments, so the lexer
//! collects every comment that begins with `ag-lint:` as a
//! [`LintComment`] for the rule layer to parse.

/// One significant token: an identifier-like word or a single
/// punctuation character.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`HashMap`, `fn`, `use`, …).
    Ident(String),
    /// A single punctuation character (`:`, `.`, `{`, `!`, …).
    Punct(char),
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based line number.
    pub line: u32,
}

/// A comment that begins with `ag-lint:` (a waiver or a hot-path
/// marker), kept verbatim for the rule layer to parse and validate.
#[derive(Debug, Clone)]
pub struct LintComment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// The comment text from the `ag-lint` prefix onward.
    pub body: String,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Significant tokens in source order.
    pub tokens: Vec<Token>,
    /// Every `ag-lint:` comment, in source order.
    pub comments: Vec<LintComment>,
}

/// Prefix that introduces a lint comment. The colon is
/// deliberately not part of the prefix so `// ag-lint allow(…)` (the
/// colon forgotten) is still collected and parsed instead of silently
/// ignored.
const LINT_PREFIX: &str = "ag-lint";

/// Lexes `src`, stripping comments, strings and literals.
pub fn lex(src: &str) -> Lexed {
    let c: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < c.len() {
        let ch = c[i];
        if ch == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if ch.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also covers `///` and `//!` doc comments).
        if ch == '/' && c.get(i + 1) == Some(&'/') {
            let start = i;
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
            record_lint_comment(&c[start..i], line, &mut out.comments);
            continue;
        }
        // Block comment, nested per Rust's rules.
        if ch == '/' && c.get(i + 1) == Some(&'*') {
            let start = i;
            let start_line = line;
            i += 2;
            let mut depth = 1usize;
            while i < c.len() && depth > 0 {
                if c[i] == '/' && c.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if c[i] == '*' && c.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if c[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            record_lint_comment(&c[start..i.min(c.len())], start_line, &mut out.comments);
            continue;
        }
        // Raw / byte string literals: r"…", r#"…"#, b"…", br#"…"#.
        if (ch == 'r' || ch == 'b') && string_prefix_len(&c, i).is_some() {
            out.tokens.push(Token {
                tok: Tok::Punct('"'),
                line,
            });
            i = skip_prefixed_string(&c, i, &mut line);
            continue;
        }
        if ch == '"' {
            out.tokens.push(Token {
                tok: Tok::Punct('"'),
                line,
            });
            i = skip_plain_string(&c, i, &mut line);
            continue;
        }
        // Char literal vs lifetime.
        if ch == '\'' {
            if c.get(i + 1) == Some(&'\\') {
                // Escaped char literal: '\n', '\u{…}', …
                i += 2;
                while i < c.len() && c[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if c.get(i + 2) == Some(&'\'') {
                // Plain char literal: 'x'.
                i += 3;
            } else {
                // Lifetime: consume the quote; the name lexes as an
                // identifier, which no rule pattern matches.
                i += 1;
            }
            continue;
        }
        if ch.is_alphabetic() || ch == '_' {
            let start = i;
            while i < c.len() && (c[i].is_alphanumeric() || c[i] == '_') {
                i += 1;
            }
            out.tokens.push(Token {
                tok: Tok::Ident(c[start..i].iter().collect()),
                line,
            });
            continue;
        }
        if ch.is_ascii_digit() {
            // Numeric literal (including suffixed forms like `10u64`);
            // `.` stays a separate punct so ranges lex sanely.
            while i < c.len() && (c[i].is_alphanumeric() || c[i] == '_') {
                i += 1;
            }
            continue;
        }
        out.tokens.push(Token {
            tok: Tok::Punct(ch),
            line,
        });
        i += 1;
    }
    out
}

/// Records a [`LintComment`] if the comment *begins* with the prefix
/// (after its `//`/`///`/`//!`/`/*` opener). Anchoring to the start is
/// what lets prose and doc examples *mention* `ag-lint:` without being
/// parsed as lint comments — a doc example shows the comment syntax itself
/// (`// ag-lint: …`), so after the doc opener it starts with `//`, not
/// with the prefix.
fn record_lint_comment(comment: &[char], line: u32, comments: &mut Vec<LintComment>) {
    let text: String = comment.iter().collect();
    let body = text.trim_start_matches(['/', '*', '!']).trim_start();
    if body.starts_with(LINT_PREFIX) {
        // Cut at the next newline so only the prefix's own line counts
        // inside a multi-line block comment.
        let body = body.split('\n').next().unwrap_or(body);
        comments.push(LintComment {
            line,
            body: body.trim_end().to_string(),
        });
    }
}

/// Returns the length of a raw/byte string prefix starting at `i`
/// (`r"`, `r#`, `b"`, `br"`, `br#`), or `None` if `c[i]` starts an
/// ordinary identifier.
fn string_prefix_len(c: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if c.get(j) == Some(&'b') {
        j += 1;
    }
    let raw = c.get(j) == Some(&'r');
    if raw {
        j += 1;
    }
    while c.get(j) == Some(&'#') {
        if !raw {
            return None; // `b#` is not a string prefix
        }
        j += 1;
    }
    (c.get(j) == Some(&'"') && j > i).then_some(j - i)
}

/// Skips a raw or byte string starting at `i`; returns the index past
/// its closing delimiter.
fn skip_prefixed_string(c: &[char], mut i: usize, line: &mut u32) -> usize {
    if c.get(i) == Some(&'b') {
        i += 1;
    }
    let raw = c.get(i) == Some(&'r');
    if raw {
        i += 1;
    }
    let mut hashes = 0usize;
    while c.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(c.get(i), Some(&'"'), "prefix scan promised a quote");
    i += 1;
    if raw {
        // No escapes: the string ends at `"` followed by `hashes` #s.
        while i < c.len() {
            if c[i] == '\n' {
                *line += 1;
            }
            if c[i] == '"'
                && c[i + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&h| h == '#')
                    .count()
                    == hashes
            {
                return i + 1 + hashes;
            }
            i += 1;
        }
        i
    } else {
        skip_plain_string(c, i, line)
    }
}

/// Skips a plain (escapable) string whose opening quote is at `i`;
/// returns the index past the closing quote.
fn skip_plain_string(c: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < c.len() {
        match c[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            ch => {
                if ch == '\n' {
                    *line += 1;
                }
                i += 1;
            }
        }
    }
    i
}

/// True if token `i` is the identifier `name`.
pub fn is_ident(tokens: &[Token], i: usize, name: &str) -> bool {
    matches!(tokens.get(i), Some(Token { tok: Tok::Ident(s), .. }) if s == name)
}

/// True if token `i` is the punctuation character `p`.
pub fn is_punct(tokens: &[Token], i: usize, p: char) -> bool {
    matches!(tokens.get(i), Some(Token { tok: Tok::Punct(q), .. }) if *q == p)
}

/// Matches a token-pattern starting at `i`. Each pattern element is an
/// identifier string, or a single punctuation character written as a
/// one-char string (`":"`, `"."`, `"!"`). Write `::` as two `":"`s.
pub fn match_seq(tokens: &[Token], i: usize, pattern: &[&str]) -> bool {
    pattern.iter().enumerate().all(|(k, want)| {
        let mut chars = want.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) if !c.is_alphanumeric() && c != '_' => is_punct(tokens, i + k, c),
            _ => is_ident(tokens, i + k, want),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                Tok::Punct(_) => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r##"
            // Instant::now in a comment
            /* HashMap::new in /* a nested */ block */
            let msg = "Instant::now in a string";
            let raw = r#"HashMap "quoted" inside raw"#;
            let byte = b"SystemTime";
            let tick = 'x';
            fn real() {}
        "##;
        let ids = idents(src);
        assert!(!ids
            .iter()
            .any(|s| s == "Instant" || s == "HashMap" || s == "SystemTime"));
        assert!(ids.iter().any(|s| s == "real"));
    }

    #[test]
    fn lifetimes_do_not_eat_following_tokens() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(ids.iter().filter(|s| *s == "str").count(), 2);
    }

    #[test]
    fn waiver_comments_are_collected_with_lines() {
        let src = "fn a() {}\n// ag-lint: allow(det-hash) -- reason here\nfn b() {}\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].body.starts_with("ag-lint:"));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let s = \"one\ntwo\nthree\";\nfn after() {}\n";
        let lexed = lex(src);
        let after = lexed
            .tokens
            .iter()
            .find(|t| matches!(&t.tok, Tok::Ident(s) if s == "after"))
            .expect("token present");
        assert_eq!(after.line, 4);
    }

    #[test]
    fn match_seq_spells_paths() {
        let lexed = lex("let t = Instant::now();");
        let hit = (0..lexed.tokens.len())
            .any(|i| match_seq(&lexed.tokens, i, &["Instant", ":", ":", "now"]));
        assert!(hit);
    }
}
