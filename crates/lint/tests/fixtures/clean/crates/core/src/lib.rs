//! Fixture: a fully conforming library file — the clean-pass baseline.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

pub struct State {
    pub map: BTreeMap<u32, u32>,
    // lint: allow(determinism): keyed lookup only, never iterated
    pub index: std::collections::HashMap<u32, u32>,
}

pub fn lookup(s: &State, k: u32) -> Option<u32> {
    s.map.get(&k).copied()
}

pub fn must(x: Option<u32>) -> u32 {
    x.expect("caller guarantees the key was inserted during setup")
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        Some(1u32).unwrap();
    }
}

pub struct DenseState {
    pub resident: icache_core::IdSlab<u32>,
    pub members: icache_types::IdSet,
}

pub fn resident_count(s: &DenseState) -> usize {
    s.resident.len() + s.members.len()
}
