//! One violation per rule clippy took over from `xtask analyze`, under
//! the crate-root scope the library crates use. Each line that must
//! fire names its lint in a trailing `fires:` marker.
#![deny(clippy::disallowed_methods, clippy::disallowed_types, clippy::unwrap_used)]
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod clean;

use std::time::{Instant, SystemTime};

pub fn wall_clock() -> (Instant, SystemTime) {
    let t = Instant::now(); // fires: clippy::disallowed_methods
    (t, SystemTime::now()) // fires: clippy::disallowed_methods
}
pub fn sleep() {
    std::thread::sleep(std::time::Duration::ZERO); // fires: clippy::disallowed_methods
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
