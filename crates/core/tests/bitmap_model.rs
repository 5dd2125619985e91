//! Property test: hash-division's word-at-a-time bit map — a quotient
//! candidate's aggregate in the group table, with its count — against a
//! `HashSet` model.

use proptest::prelude::*;
use reldiv_exec::groups::{Aggregate, GroupTable};
use reldiv_exec::hash_table::Tally;
use reldiv_rel::schema::Field;
use reldiv_rel::tuple::ints;
use reldiv_rel::Schema;
use reldiv_storage::MemoryPool;
use std::collections::HashSet;

/// One candidate with a map of `bits` bits, and, under `count`, a count
/// of those set (without, completeness is the map's zero test).
fn candidate(bits: usize, count: bool) -> GroupTable {
    let schema = Schema::new(vec![Field::int("q")]);
    let agg = Aggregate::BitMap { bits, count };
    let mut table = GroupTable::new(&MemoryPool::unbounded(), &schema, agg).unwrap();
    let key = ints(&[7]);
    table
        .insert(key.hash_on(&[0]), (&key, &[0][..]), None)
        .unwrap();
    table
}

/// Whether bit `i` of the candidate's map is set.
fn get(table: &GroupTable, i: usize) -> bool {
    table.words(0)[i / 64] & (1 << (i % 64)) != 0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitmap_matches_a_set_model(
        bits in 1usize..300,
        ops in prop::collection::vec((any::<u16>(), any::<bool>()), 0..400),
    ) {
        let (mut bm, mut tally) = (candidate(bits, true), Tally::default());
        let mut model: HashSet<usize> = HashSet::new();
        for (raw, probe) in ops {
            let i = raw as usize % bits;
            if probe {
                prop_assert_eq!(get(&bm, i), model.contains(&i), "get({})", i);
            } else {
                let new = bm.absorb(0, i as u32, &mut tally);
                prop_assert_eq!(new, model.insert(i), "set({}) prior value", i);
            }
            prop_assert_eq!(bm.count(0) as usize, model.len());
            prop_assert_eq!(bm.complete(0, bits as u32), model.len() == bits);
        }
    }

    /// Completing a map in an arbitrary order flips `all_set` exactly at
    /// the last distinct index.
    #[test]
    fn all_set_flips_exactly_once(order in prop::collection::vec(any::<u16>(), 1..200)) {
        let bits = 64 + (order[0] as usize % 100); // straddle word boundary
        let (mut bm, mut tally) = (candidate(bits, false), Tally::default());
        let mut distinct: HashSet<usize> = HashSet::new();
        // Visit given order first, then fill the remainder ascending.
        let sequence: Vec<usize> = order
            .iter()
            .map(|&r| r as usize % bits)
            .chain(0..bits)
            .collect();
        for i in sequence {
            prop_assert!(!bm.complete(0, bits as u32) || distinct.len() == bits);
            bm.absorb(0, i as u32, &mut tally);
            distinct.insert(i);
            if distinct.len() == bits {
                prop_assert!(bm.complete(0, bits as u32), "all bits set but incomplete");
            }
        }
        prop_assert!(bm.complete(0, bits as u32));
    }
}
