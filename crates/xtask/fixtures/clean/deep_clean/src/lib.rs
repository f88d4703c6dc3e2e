//! Deep-rule clean fixture: the fixed shape of everything the violations
//! corpus trips, the deep rules that scope by crate all active in one.
//!
//! * L009: nothing reachable from `serve_loop` panics or indexes.
//! * L010: slot/capacity arithmetic is saturating.
//! * L011: every function takes `jobs` before `plans`; guards are
//!   dropped before socket writes.
//! * L013: `serve_loop` doubles as a declared reactor loop (nothing it
//!   reaches blocks — `report` and its `write_all` are not called from
//!   it), and the whole file is declared panic-free.

use std::io::Write;
use std::sync::Mutex;

pub enum Frame {
    Hello,
    Data,
    Bye,
}

pub struct Shared {
    pub jobs: Mutex<u64>,
    pub plans: Mutex<u64>,
}

pub fn serve_loop(s: &Shared, frames: &[Frame]) -> u64 {
    let mut total: u64 = 0;
    for f in frames {
        total = total.saturating_add(u64::from(dispatch(f)));
    }
    total.saturating_add(tally(s))
}

pub fn dispatch(f: &Frame) -> u8 {
    match f {
        Frame::Hello => 0,
        Frame::Data => 1,
        Frame::Bye => 2,
    }
}

pub fn free_slots(capacity: u64, used_slots: u64) -> u64 {
    capacity.saturating_sub(used_slots)
}

fn tally(s: &Shared) -> u64 {
    let j = s.jobs.lock().unwrap_or_else(|e| e.into_inner());
    let p = s.plans.lock().unwrap_or_else(|e| e.into_inner());
    j.saturating_add(*p)
}

/// Same `jobs` → `plans` order as `tally`, and the guard is released
/// before the blocking write.
pub fn report(s: &Shared, stream: &mut std::net::TcpStream) {
    let j = s.jobs.lock().unwrap_or_else(|e| e.into_inner());
    let p = s.plans.lock().unwrap_or_else(|e| e.into_inner());
    let bytes = j.saturating_add(*p).to_le_bytes();
    drop(p);
    drop(j);
    stream.write_all(&bytes).ok();
}
