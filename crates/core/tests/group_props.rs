//! Property tests for the slab offset math of `arc_register::group`.
//!
//! The whole safety argument of the group composes from disjointness: a
//! register's writer can only name slab positions derived from
//! `layout::slot_index` / `layout::arena_offset` with its own `k`, so if
//! those ranges never overlap across registers, the single-register proof
//! applies unchanged. These properties pin exactly that — including the
//! inline/arena placement flip and the K = 1 degenerate case.

use arc_register::group::layout;
use arc_register::{ArcGroup, INLINE_CAP};
use proptest::prelude::*;

proptest! {
    #[test]
    fn slot_ranges_of_distinct_registers_are_disjoint(
        a in 0..10_000usize,
        b in 0..10_000usize,
        n_slots in 3..66usize,
    ) {
        prop_assume!(a != b);
        let ra = layout::slot_range(a, n_slots);
        let rb = layout::slot_range(b, n_slots);
        prop_assert!(
            ra.end <= rb.start || rb.end <= ra.start,
            "slot ranges {ra:?} and {rb:?} overlap"
        );
    }

    #[test]
    fn every_slot_index_stays_in_its_register_range(
        k in 0..10_000usize,
        n_slots in 3..66usize,
        slot in 0..66usize,
    ) {
        prop_assume!(slot < n_slots);
        let idx = layout::slot_index(k, n_slots, slot);
        let range = layout::slot_range(k, n_slots);
        prop_assert!(range.contains(&idx));
        // And the map is injective within the register.
        prop_assert_eq!(idx - range.start, slot);
    }

    #[test]
    fn arena_ranges_of_distinct_registers_are_disjoint(
        a in 0..10_000usize,
        b in 0..10_000usize,
        n_slots in 3..66usize,
        capacity in 1..100_000usize,
    ) {
        prop_assume!(a != b);
        let ra = layout::arena_range(a, n_slots, capacity);
        let rb = layout::arena_range(b, n_slots, capacity);
        prop_assert!(
            ra.end <= rb.start || rb.end <= ra.start,
            "arena ranges {ra:?} and {rb:?} overlap"
        );
    }

    #[test]
    fn arena_slot_regions_are_disjoint_within_a_register(
        k in 0..10_000usize,
        n_slots in 3..66usize,
        capacity in 1..100_000usize,
        s1 in 0..66usize,
        s2 in 0..66usize,
    ) {
        prop_assume!(s1 < n_slots && s2 < n_slots && s1 != s2);
        let o1 = layout::arena_offset(k, n_slots, capacity, s1);
        let o2 = layout::arena_offset(k, n_slots, capacity, s2);
        // Each slot owns [offset, offset + capacity); disjoint iff the
        // starts differ by at least `capacity`.
        prop_assert!(o1.abs_diff(o2) >= capacity, "slot regions {s1}/{s2} overlap");
        // And each stays inside the register's arena range.
        let range = layout::arena_range(k, n_slots, capacity);
        prop_assert!(range.contains(&o1) && o1 + capacity <= range.end);
    }

    #[test]
    fn k1_layout_degenerates_to_single_register(
        n_slots in 3..66usize,
        capacity in 1..100_000usize,
        slot in 0..66usize,
    ) {
        prop_assume!(slot < n_slots);
        // With one register (the layout under ArcRegister and TypedArc)
        // the slab map is the identity: slot s at index s, arena region
        // s*capacity.
        prop_assert_eq!(layout::slot_index(0, n_slots, slot), slot);
        prop_assert_eq!(layout::arena_offset(0, n_slots, capacity, slot), slot * capacity);
        prop_assert_eq!(layout::slot_range(0, n_slots), 0..n_slots);
        prop_assert_eq!(layout::arena_range(0, n_slots, capacity), 0..n_slots * capacity);
    }

    #[test]
    fn placement_flip_roundtrips_across_the_boundary(
        k in 0..32usize,
        len in 0..256usize,
    ) {
        // A built group must route exactly the lengths <= INLINE_CAP
        // through the slot line and the rest through the arena, and the
        // bytes must round-trip either way on a non-zero register index.
        let g = ArcGroup::builder(32, 1, 256).build().unwrap();
        let mut w = g.writer(k).unwrap();
        let mut r = g.reader(k).unwrap();
        let v: Vec<u8> = (0..len).map(|i| (i * 31 + k + len) as u8).collect();
        w.write(&v);
        let snap = r.read();
        prop_assert_eq!(&*snap, &v[..]);
        prop_assert_eq!(snap.inline(), len <= INLINE_CAP);
    }

    #[test]
    fn group_values_never_bleed_between_registers(
        seed in any::<u64>(),
        n in 2..24usize,
        len in 1..200usize,
    ) {
        // Fill every register with a distinct pattern through the batch
        // writer, then verify each register returns exactly its own bytes
        // — any offset-math overlap (slot or arena) would splice patterns.
        let g = ArcGroup::builder(n, 1, 256).build().unwrap();
        let mut set = g.writer_set().unwrap();
        let make = |k: usize| -> Vec<u8> {
            (0..len).map(|i| (seed as usize ^ (k * 131) ^ (i * 7)) as u8).collect()
        };
        let values: Vec<Vec<u8>> = (0..n).map(make).collect();
        let ops: Vec<(usize, &[u8])> =
            values.iter().enumerate().map(|(k, v)| (k, v.as_slice())).collect();
        set.write_batch(&ops);
        let mut readers = g.reader_set().unwrap();
        for (k, v) in values.iter().enumerate() {
            prop_assert_eq!(&*readers.read(k), v.as_slice(), "register {} corrupted", k);
        }
    }
}
