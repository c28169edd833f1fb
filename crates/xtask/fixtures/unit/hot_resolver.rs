// Resolution is by call shape. `wire::send(` names the free function
// `send` in module `wire`; the method `Other::send` shares the bare
// name but is never reached, and neither is `Other::new` behind it.

// analyze: hot
pub fn entry(buf: &[u8]) {
    wire::send(buf);
}

pub mod wire {
    pub fn send(buf: &[u8]) -> Vec<u8> {
        buf.to_vec()
    }
}

pub struct Other {
    log: Vec<u8>,
}

impl Other {
    pub fn new() -> Other {
        Other { log: Vec::new() }
    }

    pub fn send(&self) -> Other {
        let copy = self.log.clone();
        drop(copy);
        Other::new()
    }
}
