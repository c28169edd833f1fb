//! Fixture library crate: one blocking-hygiene violation, manifest lacks
//! the `[lints]` table. Never compiled.

pub fn recv(s: &mut std::net::TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
    s.read_exact(buf)
}
