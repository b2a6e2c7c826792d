// pflint fixture: needles that live only in comments, strings, and char
// literals — the lexer masks them all. The old line-regex scanner
// produced phantom findings on every line below.
/* port: FifoServer, format!(), Vec::new() — all prose. */
// pflint::hot
pub fn doc_only() -> &'static str {
    "format!() and vec![] and .collect() { String::new()"
}

// pflint::hot
pub fn braces(input: &str) -> usize {
    let open = '{';
    input.matches(open).count() + "}".len()
}
