//! Clean corpus: idiomatic RUSH code. `cargo xtask lint` must report zero
//! findings here (pragma- and allowlist-suppressed sites are exercised on
//! purpose). This file is never compiled.

use std::collections::BTreeMap;

pub struct State {
    pub index: BTreeMap<u64, u64>,
}

pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

pub fn ordered(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.total_cmp(b));
}

pub fn head(xs: &[u8]) -> u8 {
    // bound: caller guarantees a non-empty slice
    xs[0]
}

pub fn sentinel(x: f64) -> bool {
    // rush-lint: allow(RUSH-L002): exact sentinel comparison is intended
    x == -1.0
}

pub fn grandfathered(x: Option<u8>) -> u8 {
    x.expect("seed-era invariant")
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        assert_eq!(Some(3u8).unwrap(), 3);
    }
}
