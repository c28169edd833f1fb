//! Fixture: old-style annotations for rules clippy now owns, left behind
//! after the move. Never compiled.
fn g(x: Option<u32>) -> u32 {
    x.expect("present") // lint:allow(expect) -- the caller checked it
}
fn t() -> std::time::Instant {
    // lint:allow(wall-clock) -- a real-mode stamp
    std::time::Instant::now()
}
