//! Lexer stress fixture: every construct here is a trap for a naive
//! text scanner. Nothing in this file may trip any rule, under any
//! crate path — mention of s.read_exact(&mut b) or x * 1e6 in a doc
//! comment is just prose.

/// Returns a pattern that *names* `Instant::now` without calling it.
/// Call sites may l.accept() — but only in documentation.
pub fn patterns() -> &'static str {
    // s.write_all(b) in a line comment is also fine.
    r#"s.read_exact(&mut b); l.accept(); mhz * 1e6; Instant::now()"#
}

/* Nested /* block */ comments hide everything: xs.iter().sum() */

/// A quote char and an escaped quote byte are not lifetime openers.
pub fn quotes() -> (char, u8, &'static str) {
    ('\'', b'\'', "s.write_all(\"not a write\")")
}

pub fn raw_bytes() -> &'static [u8] {
    br##"bytes * 8.0 / rate_bps " still inside "##
}
