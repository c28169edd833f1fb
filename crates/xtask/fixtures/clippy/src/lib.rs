//! One violation per rule clippy took over from `xtask analyze`, under
//! the crate-root scope the library crates use, plus rustc's
//! `unreachable_pub`, which the workspace's lints table turns on. Each
//! line that must fire names its lint in a trailing `fires:` marker.
#![deny(clippy::disallowed_methods, clippy::disallowed_types, clippy::unwrap_used)]
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::iter_over_hash_type)]
#![deny(unreachable_pub)]

pub mod clean;

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Instant, SystemTime};

pub fn wall_clock() -> (Instant, SystemTime) {
    let t = Instant::now(); // fires: clippy::disallowed_methods
    (t, SystemTime::now()) // fires: clippy::disallowed_methods
}
pub fn sleep() {
    std::thread::sleep(std::time::Duration::ZERO); // fires: clippy::disallowed_methods
}
pub fn blocking(s: &mut TcpStream, l: &TcpListener, buf: &mut [u8]) -> std::io::Result<()> {
    s.read_exact(buf)?; // fires: clippy::disallowed_methods
    s.write_all(buf)?; // fires: clippy::disallowed_methods
    l.accept().map(drop) // fires: clippy::disallowed_methods
}
pub fn hash_order(m: &HashContainer) -> u32 {
    let mut order = 0;
    for (k, v) in m { // fires: clippy::iter_over_hash_type
        order = order * 31 + u32::from(*k ^ *v);
    }
    order
}
pub type AmbientRng = std::hash::RandomState; // fires: clippy::disallowed_types
pub type HashContainer = std::collections::HashMap<u8, u8>; // fires: clippy::disallowed_types
pub type HashSetContainer = std::collections::HashSet<u8>; // fires: clippy::disallowed_types
pub type TraceHygiene = tracelab::WallTracer; // fires: clippy::disallowed_types
pub type TraceStamp = tracelab::WallStamp; // fires: clippy::disallowed_types
pub fn unwrap(x: Option<u8>) -> u8 {
    x.unwrap() // fires: clippy::unwrap_used
}
pub fn expect(x: Result<u8, ()>) -> u8 {
    x.expect("present") // fires: clippy::expect_used
}
pub fn panics(x: u8) {
    match x {
        0 => panic!("zero"),            // fires: clippy::panic
        1 => unreachable!("one"),       // fires: clippy::unreachable
        _ => unimplemented!("the rest"), // fires: clippy::unimplemented
    }
}
pub fn print(x: u8) -> u8 {
    println!("x"); // fires: clippy::print_stdout
    eprintln!("x"); // fires: clippy::print_stderr
    dbg!(x) // fires: clippy::dbg_macro
}
mod unexported {
    pub fn answer() -> u8 { // fires: unreachable_pub
        42
    }
}
pub fn reexported() -> u8 {
    unexported::answer()
}
