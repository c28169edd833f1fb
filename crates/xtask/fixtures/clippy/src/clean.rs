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

/// The deadline wrappers are what the blocking bans point to.
pub fn bounded(s: &mut std::net::TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
    let deadline = std::time::Duration::from_millis(10);
    faultlab::io::read_exact_deadline(s, buf, deadline)?;
    faultlab::io::write_all_deadline(s, buf, deadline)
}

/// A method named like a banned one is not `std::io::Read::read_exact`.
pub struct Wire;

impl Wire {
    pub fn read_exact(&mut self, buf: &mut [u8]) -> usize {
        buf.len()
    }
}

pub fn wire(w: &mut Wire) -> usize {
    w.read_exact(&mut [0; 4])
}

/// An ordered map iterates in key order: no finding.
pub fn ordered(m: &std::collections::BTreeMap<u8, u8>) -> u32 {
    let mut order = 0;
    for (k, v) in m {
        order = order * 31 + u32::from(*k ^ *v);
    }
    order
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
