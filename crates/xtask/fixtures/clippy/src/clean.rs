//! Names that only look like the banned ones: clippy resolves paths, so
//! none of this may fire (a lexer-level rule flagged every line).

pub enum TraceKind {
    Instant,
    Span,
}

pub struct HashMap;

pub fn kinds() -> [TraceKind; 2] {
    [TraceKind::Instant, TraceKind::Span]
}

pub fn local() -> HashMap {
    HashMap
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_expect_and_panic() {
        let n: u8 = "1".parse().unwrap();
        let m: u8 = "2".parse().expect("a number");
        if n > m {
            panic!("{n} > {m}");
        }
    }
}
