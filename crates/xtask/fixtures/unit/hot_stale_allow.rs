// A well-formed hot-cost allow whose allocation has since been
// removed: stale, and must be reported like any other stale allow.

// analyze: hot
pub fn entry() {
    work();
}

fn work() {
    // lint:allow(hot-cost) -- covers an allocation that no longer exists
    let n = 1;
    let _ = n;
}
