//! Fixture library crate: clean source, but the manifest lacks the
//! `[lints]` table. Never compiled.

pub fn recv(s: &mut std::net::TcpStream, buf: &mut [u8]) -> std::io::Result<usize> {
    s.read(buf)
}
