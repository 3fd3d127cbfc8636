//! Stress tests for the two lock-striped structures that are still
//! raced by design (`StripedMap`, `FreshPool`): each spawns threads
//! over one shared structure, a fixed number of times on fresh state,
//! and then asserts the structure's internal invariants — the striped
//! position map (`fresh[pos[id]] == id`), stripe-local id ownership and
//! the atomic length counters — survived the interleaving. A pass is
//! evidence, not proof: one OS schedule per round.
//!
//! The H-heap and the prefetch window are not here because nothing
//! races them: the heap lives inside the admit mutex (pinned by
//! `concurrent::manager`'s differential and racing-admission tests),
//! and `InflightWindow` is single-owner `&mut self` state whose
//! no-double-issue / no-double-delivery / depth-bound invariants are
//! covered by its unit tests and the window proptest in
//! `tests/properties.rs`.

use icache_core::{FreshPool, StripedMap};
use icache_types::{SampleId, SeedSequence};

/// Rounds per test, each on fresh state.
const ROUNDS: usize = 64;

#[test]
fn striped_map_survives_racing_inserts_and_removes() {
    for _ in 0..ROUNDS {
        let map = StripedMap::<u32>::new(4);
        std::thread::scope(|s| {
            // Two writers over overlapping id ranges plus a remover.
            s.spawn(|| {
                for i in 0..60u64 {
                    map.insert(SampleId(i), 1);
                }
            });
            s.spawn(|| {
                for i in 30..90u64 {
                    map.insert(SampleId(i), 2);
                }
            });
            s.spawn(|| {
                for i in (0..90u64).step_by(3) {
                    map.remove(SampleId(i));
                }
            });
        });
        assert!(map.check_invariants(), "striped map invariants violated");
        // Everything never touched by the remover must be present.
        for i in 0..60u64 {
            if i % 3 != 0 {
                assert!(map.contains(SampleId(i)), "lost sample {i}");
            }
        }
    }
}

#[test]
fn fresh_pool_position_map_survives_draw_push_race() {
    for _ in 0..ROUNDS {
        let pool = FreshPool::new(4);
        for i in 0..40u64 {
            pool.push(SampleId(i));
        }
        let drawn = std::thread::scope(|s| {
            let pusher = s.spawn(|| {
                for i in 40..80u64 {
                    pool.push(SampleId(i));
                }
            });
            let drawer = s.spawn(|| {
                let mut rng = SeedSequence::new(7).rng("model-drawer");
                let mut drawn = Vec::new();
                for _ in 0..30 {
                    if let Some(id) = pool.draw(&mut rng) {
                        drawn.push(id);
                    }
                }
                drawn
            });
            let remover = s.spawn(|| {
                for i in (0..40u64).step_by(4) {
                    pool.remove(SampleId(i));
                }
            });
            pusher.join().expect("pusher thread panicked");
            remover.join().expect("remover thread panicked");
            drawer.join().expect("drawer thread panicked")
        });
        assert!(pool.check_invariants(), "fresh-pool position map broken");
        // A draw removes: no drawn id may still be in the pool, and no
        // id is drawn twice.
        let mut seen = std::collections::BTreeSet::new();
        for id in drawn {
            assert!(seen.insert(id), "sample {id} drawn twice");
            assert!(!pool.remove(id), "drawn sample {id} still pooled");
        }
    }
}
