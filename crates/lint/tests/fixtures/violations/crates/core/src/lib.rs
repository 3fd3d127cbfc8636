//! Fixture: one violation per rule family, at positions the integration
//! tests pin exactly. This file is never compiled — `icache_lint` lexes
//! it straight off disk. (Missing `#![forbid(unsafe_code)]` here is the
//! hygiene violation.)

use std::collections::HashMap;

pub struct State {
    pub map: HashMap<u32, u32>,
}

pub fn lookup(s: &State, k: u32) -> u32 {
    *s.map.get(&k).unwrap()
}

pub fn classify(v: u32) -> &'static str {
    match v {
        0 => "zero",
        _ => panic!("bad value"),
    }
}

pub fn tiny(x: Option<u32>) -> u32 {
    x.expect("no")
}

pub fn debugging(v: u32) -> u32 {
    dbg!(v)
}

pub fn hatched() -> u32 {
    unreachable!() // lint: allow(panic)
}

pub struct Dedup {
    pub seen: std::collections::HashSet<u32>,
}
