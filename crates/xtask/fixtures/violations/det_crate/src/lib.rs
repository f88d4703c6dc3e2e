//! Seeded-violation corpus: every line below that names a rule code in a
//! comment must be flagged by that rule. This file is never compiled.

use std::collections::HashMap; // RUSH-L001
use std::collections::hash_map::Entry; // RUSH-L001 (hash_map import)

pub struct State {
    pub index: HashMap<u64, u64>, // RUSH-L001
}

pub fn float_eq(x: f64) -> bool {
    x == 1.0 // RUSH-L002
}

pub fn float_ne(x: f64) -> bool {
    0.5 != x // RUSH-L002
}

pub fn nan_unwrap(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap() // RUSH-L002
}

pub fn nan_expect(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).expect("finite") // RUSH-L002 (and RUSH-L003 expect)
}

pub fn take(x: Option<u8>) -> u8 {
    x.unwrap() // RUSH-L003
}

pub fn boom() {
    panic!("seeded"); // RUSH-L003
}

pub fn head(xs: &[u8]) -> u8 {
    xs[0] // RUSH-L003 (literal index, undocumented)
}

#[cfg(test)]
mod tests {
    // Test code is exempt from L1/L2/L3: none of these may be flagged.
    use std::collections::HashMap;

    #[test]
    fn exempt() {
        let m: HashMap<u8, u8> = HashMap::new();
        assert!(m.len() as f64 == 0.0);
        let _ = Some(1u8).unwrap();
    }
}
