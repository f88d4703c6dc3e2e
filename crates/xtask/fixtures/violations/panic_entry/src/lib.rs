//! RUSH-L009 fixture: panic sites buried behind calls from the declared
//! entry points — the bare-name `connection_loop` and the `Type::name`
//! root `Reactor::run`. The deep lint must walk the call graph and report
//! each with a witness path; `unreached` and `Janitor::run` (same method
//! name, another type) must stay silent.

pub fn connection_loop(frames: &[u32]) {
    for f in frames {
        handle(*f, frames);
    }
}

fn handle(op: u32, frames: &[u32]) {
    let first = frames[op as usize];
    decode(first).unwrap();
    deep_step();
}

fn deep_step() {
    panic!("kernel invariant violated");
}

fn decode(v: u32) -> Option<u32> {
    if v < 16 {
        Some(v)
    } else {
        None
    }
}

pub struct Reactor;

impl Reactor {
    pub fn run(&self) {
        reactor_step();
    }
}

fn reactor_step() {
    decode(3).expect("a slip on the event loop");
}

pub struct Janitor;

impl Janitor {
    /// `Reactor::run` names a method of `Reactor` only: NOT a root.
    pub fn run(&self) {
        unreachable!("offline sweep")
    }
}

/// Never called from the entry point: its panic is NOT a finding.
pub fn unreached() {
    todo!("offline maintenance path")
}

#[cfg(test)]
mod tests {
    /// Test code panics freely without tripping the rule.
    #[test]
    fn test_path_may_panic() {
        super::decode(99).expect("test-only expect");
    }
}
