//! A daemon-path module: the panic-family lints are denied for its
//! non-test code, as in fleetd, obs and the input-facing files.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
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

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_expect_and_panic() {
        assert_eq!(super::parse("7"), 7);
        let n: Option<u64> = "8".parse().ok();
        assert_eq!(n.expect("parses"), 8);
        if n.unwrap() != 8 {
            panic!("eight");
        }
    }
}
