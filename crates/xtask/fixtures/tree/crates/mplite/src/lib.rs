//! Fixture library crate: an annotation without a reason, manifest
//! lacks the `[lints]` table. Never compiled.

pub fn recv(s: &mut std::net::TcpStream, buf: &mut [u8]) -> std::io::Result<usize> {
    // lint:allow(units)
    s.read(buf)
}
