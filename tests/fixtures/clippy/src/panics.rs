//! A daemon-path module: the panic-family lints are denied for its
//! non-test code, as in fleetd, obs and the input-facing files, and the
//! daemon roots' indexing, slicing, division and assert lints for its
//! release code, as in fleetd and obs.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::integer_division_remainder_used,
        clippy::disallowed_macros
    )
)]

pub fn parse(line: &str) -> u64 {
    line.trim().parse::<u64>().unwrap()
}

pub fn open(path: &str) -> std::fs::File {
    std::fs::File::open(path).expect("open")
}

pub fn window(start: u64, end: u64) -> (u64, u64) {
    if end <= start {
        panic!("empty window");
    }
    (start, end)
}

pub fn class(code: u8) -> &'static str {
    match code {
        0 => "ok",
        1 => unreachable!(),
        2 => todo!(),
        _ => unimplemented!(),
    }
}

pub fn first(xs: &[u64]) -> u64 {
    xs[0]
}

pub fn prefix(name: &str) -> &str {
    &name[1..]
}

pub fn mean(total: u64, n: u64) -> (u64, u64) {
    let whole = total / n;
    (whole, total % n)
}

pub fn checked(n: u64) -> u64 {
    assert!(n > 0);
    assert_eq!(n & 1, 0);
    assert_ne!(n, 2);
    debug_assert!(n > 4);
    n
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_expect_panic_index_divide_and_assert() {
        assert_eq!(super::parse("7"), 7);
        let n: Option<u64> = "8".parse().ok();
        assert_eq!(n.expect("parses"), 8);
        if n.unwrap() != 8 {
            panic!("eight");
        }
        let xs = [6u64, 7];
        assert_ne!(xs[1] / xs[0], 0);
        assert_eq!(&"ab"[1..], "b");
    }
}
