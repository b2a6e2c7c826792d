// pflint fixture: panic surfaces in a daemon-path module, beside the
// misparse class the line-regex engine got wrong: needles in block
// comments, strings and char literals are inert, and a suppression
// marker inside a string literal does not soothe the real hazard.
pub fn summarize(xs: &[u64], n: u64) -> (u64, &'static str, char) {
    /* xs[0] / n and assert!(n > 0) are documentation here, */
    let masked = "xs[1] / n; assert!(false) }";
    let close = '}';
    let second = xs[1];
    let ratio = second / n;
    assert!(ratio > 0, "pflint::allow(panic-freedom)");
    (ratio, masked, close)
}
