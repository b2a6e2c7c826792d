//! The structural layer on top of the token stream: everything pflint's
//! rules need to reason about a source file without a full parse.
//!
//! A [`SourceFile`] is loaded once per file and precomputes:
//!
//! * **Masked lines** — the source with every comment, string, and char
//!   literal blanked to spaces (newlines preserved). Rule needles match
//!   against these, so `"Instant::now"` in a string literal or a rule
//!   keyword in a block comment can never produce a phantom finding, and
//!   a `{` inside a string can never desynchronize body extraction.
//! * **Item-scoped `#[cfg(test)]` ranges** — the old engine treated the
//!   first `#[cfg(test)]` to end-of-file as test code; this one tracks the
//!   actual item extent, so a mid-file test module no longer exempts the
//!   production code after it.
//! * **Suppressions** — `// pflint::allow(<rule>)` markers, read from
//!   comment *tokens* (same line, or standalone on the line above).
//! * **Functions** — token-accurate body spans via bracket matching, plus
//!   the `// pflint::hot` annotation that opts a body into the
//!   `hot-path-alloc` rule.
//! * **Indexing and division sites** — token-level facts for the
//!   `panic-freedom` rule.

use crate::lexer::{lex, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One function found in the file. Lines are 1-based and inclusive.
#[derive(Clone, Debug)]
pub struct FnSpan {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Line of the opening `{` (0 when the fn has no body).
    pub body_start: usize,
    /// Line of the matching `}` (0 when the fn has no body).
    pub body_end: usize,
    /// Annotated `// pflint::hot` (see STATIC_ANALYSIS.md).
    pub hot: bool,
}

/// A loaded, lexed, and indexed source file.
pub struct SourceFile {
    /// Masked lines (comments/strings blanked), 0-indexed.
    pub lines: Vec<String>,
    /// Original lines, 0-indexed.
    pub raw_lines: Vec<String>,
    /// Per-line: is this line inside an item-scoped `#[cfg(test)]`?
    test_lines: Vec<bool>,
    /// (0-based line) -> rules suppressed on that line.
    suppressed: BTreeMap<usize, BTreeSet<String>>,
    /// Every function with a body, in source order (nested fns included).
    pub fns: Vec<FnSpan>,
    /// Standalone `// pflint::hot` annotation lines (1-based) that did not
    /// attach to any function — almost certainly a mistake.
    pub dangling_hot: Vec<usize>,
    /// 0-based lines containing an indexing expression (`expr[...]`).
    index_lines: Vec<usize>,
    /// 0-based lines containing a `/` or `%` with a non-literal divisor.
    div_lines: Vec<usize>,
}

impl SourceFile {
    pub fn load(path: &Path) -> std::io::Result<SourceFile> {
        Ok(SourceFile::parse(&std::fs::read_to_string(path)?))
    }

    /// Build the full index from source text.
    pub fn parse(text: &str) -> SourceFile {
        let tokens = lex(text);
        let n_lines = text.split('\n').count();

        let lines = masked_lines(text, &tokens);
        let raw_lines: Vec<String> = text.split('\n').map(|l| l.to_string()).collect();
        let suppressed = collect_suppressions(&tokens);
        let test_lines = collect_test_lines(&tokens, n_lines);
        let hot_lines = collect_hot_lines(&tokens);
        let (fns, dangling_hot) = collect_fns(&tokens, &raw_lines, &hot_lines);
        let (index_lines, div_lines) = collect_panic_sites(&tokens);

        SourceFile {
            lines,
            raw_lines,
            test_lines,
            suppressed,
            fns,
            dangling_hot,
            index_lines,
            div_lines,
        }
    }

    /// Is 0-based line `idx` inside an item-scoped `#[cfg(test)]`?
    pub fn is_test_line(&self, idx: usize) -> bool {
        self.test_lines.get(idx).copied().unwrap_or(false)
    }

    /// Is `rule` suppressed on 0-based line `idx`? Markers count on the
    /// offending line itself or standalone on the line above.
    pub fn is_suppressed(&self, idx: usize, rule: &str) -> bool {
        self.suppressed.get(&idx).is_some_and(|s| s.contains(rule))
    }

    /// 0-based lines with `expr[...]` indexing (can panic on out-of-range).
    pub fn index_lines(&self) -> &[usize] {
        &self.index_lines
    }

    /// 0-based lines with `/` or `%` whose divisor is neither a numeric
    /// literal nor provably float arithmetic (can panic on zero).
    pub fn div_lines(&self) -> &[usize] {
        &self.div_lines
    }
}

/// Word-boundary-aware needle search on one masked line. When the needle
/// starts (resp. ends) with an identifier character, the match must not be
/// preceded (resp. followed) by one — so `assert!` never matches inside
/// `debug_assert!`, and `Vec::new(` never matches `MyVec::new(`.
pub fn contains_word(hay: &str, needle: &str) -> bool {
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let (first, last) = match (needle.bytes().next(), needle.bytes().last()) {
        (Some(f), Some(l)) => (f, l),
        _ => return false,
    };
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        from = at + 1;
        if is_word(first) && at > 0 && is_word(bytes[at - 1]) {
            continue;
        }
        let end = at + needle.len();
        if is_word(last) && end < bytes.len() && is_word(bytes[end]) {
            continue;
        }
        return true;
    }
    false
}

/// Blank every non-code token (comments, strings, chars) to spaces,
/// preserving newlines, then split into lines.
fn masked_lines(text: &str, tokens: &[Token<'_>]) -> Vec<String> {
    let mut masked = text.as_bytes().to_vec();
    for t in tokens {
        if t.kind.is_code() {
            continue;
        }
        for b in &mut masked[t.start..t.start + t.text.len()] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }
    // Masking writes only ASCII spaces over complete tokens, so the result
    // is valid UTF-8 whenever the input was.
    String::from_utf8_lossy(&masked)
        .split('\n')
        .map(|l| l.to_string())
        .collect()
}

/// Significant tokens: everything that is code structure (not whitespace,
/// not comments). String/char literals stay in as opaque atoms so their
/// contents can never be mistaken for structure.
fn significant<'a, 'b>(tokens: &'b [Token<'a>]) -> Vec<&'b Token<'a>> {
    tokens
        .iter()
        .filter(|t| t.kind != TokKind::Whitespace && !t.kind.is_comment())
        .collect()
}

const ALLOW_MARKER: &str = "pflint::allow(";
const HOT_MARKER: &str = "// pflint::hot";

fn collect_suppressions(tokens: &[Token<'_>]) -> BTreeMap<usize, BTreeSet<String>> {
    let mut out: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    let mut last_code_line = 0usize; // no code yet
    for t in tokens {
        if t.kind == TokKind::Whitespace {
            continue;
        }
        if !t.kind.is_comment() {
            last_code_line = t.line + t.text.matches('\n').count();
            continue;
        }
        let standalone = last_code_line != t.line;
        let end_line = t.line + t.text.matches('\n').count();
        let mut from = 0;
        while let Some(pos) = t.text[from..].find(ALLOW_MARKER) {
            let at = from + pos;
            from = at + ALLOW_MARKER.len();
            let rest = &t.text[from..];
            let Some(close) = rest.find(')') else { break };
            let rule = rest[..close].trim().to_string();
            if rule.is_empty() {
                continue;
            }
            let marker_line = t.line + t.text[..at].matches('\n').count();
            // 1-based -> 0-based.
            out.entry(marker_line - 1).or_default().insert(rule.clone());
            if standalone {
                out.entry(end_line).or_default().insert(rule);
            }
        }
    }
    out
}

/// Standalone `// pflint::hot` comment lines (1-based).
fn collect_hot_lines(tokens: &[Token<'_>]) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    let mut last_code_line = 0usize;
    for t in tokens {
        if t.kind == TokKind::Whitespace {
            continue;
        }
        if !t.kind.is_comment() {
            last_code_line = t.line + t.text.matches('\n').count();
            continue;
        }
        if t.kind == TokKind::LineComment
            && last_code_line != t.line
            && (t.text.trim_end() == HOT_MARKER || t.text.starts_with("// pflint::hot "))
        {
            out.insert(t.line);
        }
    }
    out
}

/// Every attribute in `text` as `(line, inner, body)`: `#[body]`, or
/// `#![body]` when `inner`. `body` joins the code tokens between the
/// brackets without whitespace, comments or literals, so
/// `#[expect(unsafe_code, reason = "…")]` has `expect(unsafe_code,reason=)`.
pub fn attributes(text: &str) -> Vec<(usize, bool, String)> {
    let tokens = lex(text);
    let s = significant(&tokens);
    let mut out = Vec::new();
    for j in 0..s.len() {
        let inner = s.get(j + 1).is_some_and(|t| t.text == "!");
        let open = j + 1 + usize::from(inner);
        if s[j].text == "#" && s.get(open).is_some_and(|t| t.text == "[") {
            let body = s[open + 1..attr_end(&s, open)]
                .iter()
                .filter(|t| t.kind.is_code());
            out.push((s[j].line, inner, body.map(|t| t.text).collect()));
        }
    }
    out
}

/// Index of the `]` closing the `[` at `open`, or `s.len()` if none does.
fn attr_end(s: &[&Token<'_>], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in s.iter().enumerate().skip(open) {
        depth += match t.text {
            "[" => 1,
            "]" => -1,
            _ => 0,
        };
        if depth == 0 {
            return k;
        }
    }
    s.len()
}

/// Mark every line covered by an item-scoped `#[cfg(test)]`: from the
/// attribute through the item's closing `}` (or terminating `;`).
fn collect_test_lines(tokens: &[Token<'_>], n_lines: usize) -> Vec<bool> {
    let s = significant(tokens);
    let mut test = vec![false; n_lines];
    let mut j = 0;
    while j < s.len() {
        if s[j].text != "#" || j + 1 >= s.len() || s[j + 1].text != "[" {
            j += 1;
            continue;
        }
        let attr_start = j;
        let k = attr_end(&s, j + 1);
        let is_cfg_test = {
            let body = &s[j + 2..k];
            body.iter().any(|t| t.text == "cfg") && body.iter().any(|t| t.text == "test")
        };
        j = (k + 1).min(s.len());
        if !is_cfg_test {
            continue;
        }
        // Skip any further attributes on the same item.
        while j + 1 < s.len() && s[j].text == "#" && s[j + 1].text == "[" {
            j = (attr_end(&s, j + 1) + 1).min(s.len());
        }
        // The item extends to the matching `}` of its first top-level `{`,
        // or to a `;` before any brace opens (e.g. `#[cfg(test)] mod t;`).
        let (mut dp, mut db, mut dbr) = (0i32, 0i32, 0i32);
        let mut entered = false;
        let mut end = j;
        while end < s.len() {
            match s[end].text {
                "(" => dp += 1,
                ")" => dp -= 1,
                "[" => dbr += 1,
                "]" => dbr -= 1,
                "{" => {
                    db += 1;
                    entered = true;
                }
                "}" => {
                    db -= 1;
                    if entered && db == 0 {
                        break;
                    }
                }
                ";" if dp == 0 && dbr == 0 && db == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let start_line = s[attr_start].line;
        let end_line = if end < s.len() {
            s[end].line + s[end].text.matches('\n').count()
        } else {
            n_lines
        };
        for t in test
            .iter_mut()
            .take(end_line.min(n_lines))
            .skip(start_line - 1)
        {
            *t = true;
        }
        j = (end + 1).min(s.len());
    }
    test
}

/// Extract every `fn` with a body, attaching `// pflint::hot` annotations
/// by scanning upward over blank lines, comments, and single-line
/// attributes from the `fn` line.
fn collect_fns(
    tokens: &[Token<'_>],
    raw_lines: &[String],
    hot_lines: &BTreeSet<usize>,
) -> (Vec<FnSpan>, Vec<usize>) {
    let s = significant(tokens);
    let mut fns = Vec::new();
    let mut consumed: BTreeSet<usize> = BTreeSet::new();
    for (j, tok) in s.iter().enumerate() {
        if tok.kind != TokKind::Ident || tok.text != "fn" {
            continue;
        }
        let name = s[j + 1..]
            .iter()
            .find(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.to_string())
            .unwrap_or_default();
        // Find the body's `{`: the first top-level one before a `;`.
        let mut depth = 0i32;
        let mut body_open: Option<usize> = None;
        for (k, t) in s.iter().enumerate().skip(j + 1) {
            match t.text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    body_open = Some(k);
                    break;
                }
                ";" if depth == 0 => break,
                "}" if depth == 0 => break, // ran off the enclosing item
                _ => {}
            }
        }
        let Some(open) = body_open else { continue };
        let mut braces = 0i32;
        let mut close = open;
        for (k, t) in s.iter().enumerate().skip(open) {
            match t.text {
                "{" => braces += 1,
                "}" => {
                    braces -= 1;
                    if braces == 0 {
                        close = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        // Upward scan for the hot annotation.
        let mut hot = false;
        let mut l = tok.line; // 1-based; examine l-1 upward
        while l > 1 {
            let above = raw_lines[l - 2].trim();
            if hot_lines.contains(&(l - 1)) {
                hot = true;
                consumed.insert(l - 1);
                break;
            }
            let skip = above.is_empty()
                || above.starts_with("//")
                || (above.starts_with("#[") && above.ends_with("]"));
            if !skip {
                break;
            }
            l -= 1;
        }
        fns.push(FnSpan {
            name,
            line: tok.line,
            body_start: s[open].line,
            body_end: s[close].line + s[close].text.matches('\n').count(),
            hot,
        });
    }
    let dangling = hot_lines.difference(&consumed).copied().collect();
    (fns, dangling)
}

/// Keywords that may legitimately precede a `[` (array literals, types).
const NON_INDEX_PREV: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// Is this token a float literal (`1.5`, `1e9`, `2.5E-3`)?
fn is_float_literal(t: &Token<'_>) -> bool {
    t.kind == TokKind::Num
        && !t.text.starts_with("0x")
        && !t.text.starts_with("0X")
        && (t.text.contains('.') || t.text.contains('e') || t.text.contains('E'))
}

/// Token-level panic-surface detection: indexing expressions and
/// non-literal divisions. Returns `(index_lines, div_lines)`, 0-based.
fn collect_panic_sites(tokens: &[Token<'_>]) -> (Vec<usize>, Vec<usize>) {
    let s = significant(tokens);
    let mut index_lines = BTreeSet::new();
    let mut div_lines = BTreeSet::new();
    for (k, t) in s.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        let prev = if k > 0 { Some(s[k - 1]) } else { None };
        match t.text {
            "[" => {
                // `expr[...]`: the previous token ends an expression —
                // an identifier (not a keyword), `)`, or `]`.
                let indexes = prev.is_some_and(|p| {
                    (p.kind == TokKind::Ident && !NON_INDEX_PREV.contains(&p.text))
                        || p.text == ")"
                        || p.text == "]"
                });
                if indexes {
                    index_lines.insert(t.line - 1);
                }
            }
            "/" | "%" => {
                // Float arithmetic cannot panic; integer division by a
                // non-literal can. Heuristic: skip when the left operand
                // is an `as f64`/`as f32` cast or a float literal, or the
                // divisor is a numeric literal.
                let lhs_float = prev.is_some_and(|p| {
                    (p.kind == TokKind::Ident && (p.text == "f64" || p.text == "f32"))
                        || is_float_literal(p)
                });
                if lhs_float {
                    continue;
                }
                // Skip the `=` of a compound `/=` when finding the divisor.
                let mut r = k + 1;
                if s.get(r).is_some_and(|t| t.text == "=") {
                    r += 1;
                }
                let rhs_literal = s.get(r).is_some_and(|t| t.kind == TokKind::Num);
                if !rhs_literal {
                    div_lines.insert(t.line - 1);
                }
            }
            _ => {}
        }
    }
    (
        index_lines.into_iter().collect(),
        div_lines.into_iter().collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_strings_and_comments() {
        let src = "let a = \"HashMap { b\"; /* Instant::now */ let c = 1; // thread_rng\n";
        let f = SourceFile::parse(src);
        let line = &f.lines[0];
        assert!(!line.contains("HashMap"));
        assert!(!line.contains("Instant"));
        assert!(!line.contains("thread_rng"));
        assert!(line.contains("let a ="));
        assert!(line.contains("let c = 1;"));
        assert_eq!(line.len(), src.trim_end_matches('\n').len());
    }

    #[test]
    fn cfg_test_is_item_scoped_not_to_eof() {
        let src = "fn prod_a() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() {}\n\
                   }\n\
                   fn prod_b() {}\n";
        let f = SourceFile::parse(src);
        assert!(!f.is_test_line(0), "code before the module is production");
        assert!(f.is_test_line(1), "the attribute line itself");
        assert!(f.is_test_line(3), "inside the module");
        assert!(f.is_test_line(4), "the closing brace");
        assert!(
            !f.is_test_line(5),
            "code after a mid-file test module is production again"
        );
    }

    #[test]
    fn cfg_test_on_single_items_and_semicolon_items() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn prod() {}\n";
        let f = SourceFile::parse(src);
        assert!(f.is_test_line(1));
        assert!(!f.is_test_line(2));

        let src = "#[cfg(test)]\n#[derive(Debug)]\nstruct T { x: u32 }\nfn prod() {}\n";
        let f = SourceFile::parse(src);
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn braces_in_strings_do_not_break_fn_extraction() {
        let src = "fn a() {\n    let s = \"} trailing\";\n    body();\n}\nfn b() {}\n";
        let f = SourceFile::parse(src);
        let a = f.fns.iter().find(|f| f.name == "a").unwrap();
        assert_eq!((a.body_start, a.body_end), (1, 4));
        let b = f.fns.iter().find(|f| f.name == "b").unwrap();
        assert_eq!(b.line, 5);
    }

    #[test]
    fn hot_annotation_attaches_through_docs_and_attrs() {
        let src = "// pflint::hot\n\
                   /// Doc line.\n\
                   #[inline]\n\
                   pub fn tick() {\n}\n\
                   fn cold() {}\n";
        let f = SourceFile::parse(src);
        let tick = f.fns.iter().find(|f| f.name == "tick").unwrap();
        assert!(tick.hot);
        let cold = f.fns.iter().find(|f| f.name == "cold").unwrap();
        assert!(!cold.hot);
        assert!(f.dangling_hot.is_empty());
    }

    #[test]
    fn dangling_hot_annotation_is_reported() {
        let src = "// pflint::hot\nstruct NotAFn;\n";
        let f = SourceFile::parse(src);
        assert_eq!(f.dangling_hot, vec![1]);
    }

    #[test]
    fn suppression_same_line_and_standalone_above() {
        let src = "let s = format!(\"x\"); // pflint::allow(hot-path-alloc)\n\
                   // pflint::allow(panic-freedom)\n\
                   let a = xs[i];\n\
                   let b = ys[j];\n";
        let f = SourceFile::parse(src);
        assert!(f.is_suppressed(0, "hot-path-alloc"));
        assert!(f.is_suppressed(2, "panic-freedom"));
        assert!(!f.is_suppressed(3, "panic-freedom"));
        assert!(!f.is_suppressed(3, "hot-path-alloc"));
    }

    #[test]
    fn marker_text_inside_a_string_is_not_a_suppression() {
        let src = "let s = \"pflint::allow(hot-path-alloc)\";\nlet t = format!(\"x\");\n";
        let f = SourceFile::parse(src);
        assert!(!f.is_suppressed(1, "hot-path-alloc"));
    }

    #[test]
    fn index_sites_flag_indexing_but_not_types_or_literals() {
        let src = "let a = xs[i];\n\
                   let b: [u8; 4] = [0; 4];\n\
                   let c = vec![1, 2];\n\
                   let d = (e)[0];\n\
                   #[derive(Debug)]\n\
                   return [1];\n";
        let f = SourceFile::parse(src);
        assert_eq!(f.index_lines(), &[0, 3]);
    }

    #[test]
    fn div_sites_skip_floats_and_literal_divisors() {
        let src = "let a = x / y;\n\
                   let b = x as f64 / y as f64;\n\
                   let c = x / 8;\n\
                   let d = 1.5 / z;\n\
                   t %= n;\n";
        let f = SourceFile::parse(src);
        assert_eq!(f.div_lines(), &[0, 4]);
    }

    #[test]
    fn word_boundaries_in_needle_search() {
        assert!(contains_word("assert!(x)", "assert!"));
        assert!(!contains_word("debug_assert!(x)", "assert!"));
        assert!(contains_word("let v = Vec::new();", "Vec::new("));
        assert!(!contains_word("let v = MyVec::new();", "Vec::new("));
        assert!(contains_word("xs.to_vec()", ".to_vec("));
    }
}
