//! Differential test of the trie entry points: `range1`, `range2`,
//! `children_of`, `distinct_l0` and `locate` must agree with a naive scan
//! of the sorted rows, on every order and layout, for the shapes that
//! stress a prefix lookup — few predicates under many subjects, a single
//! hub object, an empty index, id 0, ids past the largest level-0 id,
//! `u32::MAX` — and through a delta overlay.

use std::collections::BTreeMap;

use kgoa_index::{IndexOrder, Layout, RowRange, TrieIndex};
use kgoa_rdf::Triple;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn t(s: u32, p: u32, o: u32) -> Triple {
    Triple::from([s, p, o])
}

fn dedup(mut ts: Vec<Triple>) -> Vec<Triple> {
    ts.sort_unstable();
    ts.dedup();
    ts
}

/// The naive oracle: one pass over sorted rows recording, per 1- and
/// 2-value prefix, the rows from its first to its last occurrence.
#[derive(Default)]
struct Scan {
    r1: BTreeMap<u32, RowRange>,
    r2: BTreeMap<(u32, u32), RowRange>,
}

impl Scan {
    fn of(rows: &[[u32; 3]]) -> Scan {
        let mut scan = Scan::default();
        for (i, r) in rows.iter().enumerate() {
            let i = i as u32;
            scan.r1.entry(r[0]).or_insert(RowRange { start: i, end: i }).end = i + 1;
            scan.r2.entry((r[0], r[1])).or_insert(RowRange { start: i, end: i }).end = i + 1;
        }
        scan
    }

    fn range1(&self, a: u32) -> RowRange {
        self.r1.get(&a).copied().unwrap_or(RowRange::EMPTY)
    }

    fn range2(&self, a: u32, b: u32) -> RowRange {
        self.r2.get(&(a, b)).copied().unwrap_or(RowRange::EMPTY)
    }

    fn children_of(&self, a: u32) -> usize {
        self.r2.range((a, 0)..=(a, u32::MAX)).count()
    }
}

/// Every id worth probing at a level: the stored ones, their neighbours,
/// 0, the ids just past the largest, and the top of the id space.
fn probe_ids(stored: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut ids: Vec<u32> = stored.flat_map(|v| [v, v.saturating_add(1)]).collect();
    let max = ids.iter().copied().max().unwrap_or(0);
    ids.extend([0, 1, max.saturating_add(1), max.saturating_add(2), u32::MAX - 1, u32::MAX]);
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Checks every entry point of `idx` against a scan of `rows` (the
/// index's main rows, sorted in its order).
fn check_main(idx: &TrieIndex, rows: &[[u32; 3]], what: &str) {
    assert_eq!(idx.to_rows(), rows, "{what}: rows");
    let scan = Scan::of(rows);
    assert_eq!(idx.distinct_l0(), scan.r1.len(), "{what}: distinct_l0");
    let a_ids = probe_ids(rows.iter().map(|r| r[0]));
    let b_ids = probe_ids(rows.iter().map(|r| r[1]));
    for &a in &a_ids {
        assert_eq!(idx.range1(a), scan.range1(a), "{what}: range1({a})");
        assert_eq!(idx.children_of(a) as usize, scan.children_of(a), "{what}: children_of({a})");
        for &b in &b_ids {
            assert_eq!(idx.range2(a, b), scan.range2(a, b), "{what}: range2({a}, {b})");
        }
    }
    for (pos, r) in rows.iter().enumerate() {
        assert_eq!(idx.locate(r[0], r[1], r[2]), Some(pos as u32), "{what}: locate {r:?}");
        for c in [r[2].wrapping_sub(1), r[2].wrapping_add(1), 0, u32::MAX] {
            let expect = rows.binary_search(&[r[0], r[1], c]).ok().map(|p| p as u32);
            assert_eq!(idx.locate(r[0], r[1], c), expect, "{what}: locate ({},{},{c})", r[0], r[1]);
        }
    }
    for a in [0, u32::MAX] {
        assert_eq!(idx.locate(a, 0, 0), rows.binary_search(&[a, 0, 0]).ok().map(|p| p as u32));
    }
}

fn sorted_rows(order: IndexOrder, triples: &[Triple]) -> Vec<[u32; 3]> {
    let mut rows: Vec<[u32; 3]> = triples.iter().map(|t| order.permute(*t)).collect();
    rows.sort_unstable();
    rows
}

/// Builds `triples` in every layout and each of `orders`, and checks it.
fn check_shape(name: &str, triples: &[Triple], orders: &[IndexOrder]) {
    for &order in orders {
        let rows = sorted_rows(order, triples);
        for layout in Layout::ALL {
            let idx = TrieIndex::build_with_layout(order, triples, layout);
            check_main(&idx, &rows, &format!("{name} {order} {layout}"));
        }
    }
}

#[test]
fn few_predicates_under_many_subjects() {
    // The pattern behind the packed-key hash defect: (s, p) keys whose low
    // half takes only 40 values.
    let mut rng = SmallRng::seed_from_u64(0xE7_0001);
    let triples = dedup(
        (0..6_000)
            .map(|_| {
                t(rng.gen_range(0..1_500), 2_000 + rng.gen_range(0..40u32), rng.gen_range(0..3_000))
            })
            .collect(),
    );
    check_shape("few-predicates", &triples, &IndexOrder::ALL);
}

#[test]
fn single_hub_object() {
    let mut triples: Vec<Triple> = (1..2_000).map(|s| t(s, 5_000, 7_000)).collect();
    triples.extend((1..300).map(|s| t(s, 5_001, 7_000)));
    triples.push(t(3, 5_002, 7_001));
    check_shape("hub", &dedup(triples), &IndexOrder::ALL);
}

#[test]
fn empty_index() {
    check_shape("empty", &[], &IndexOrder::ALL);
}

#[test]
fn id_zero_and_sparse_ids() {
    // Id 0 in every position, and level-0 ids with wide gaps between them.
    let triples = dedup(vec![
        t(0, 0, 0),
        t(0, 0, 9),
        t(0, 4, 0),
        t(9, 0, 0),
        t(1_000, 4, 9),
        t(65_536, 4, 0),
    ]);
    check_shape("zero", &triples, &IndexOrder::ALL);
}

#[test]
fn top_of_id_space_below_level_zero() {
    // `u32::MAX` stored as an object, in the orders that keep the object
    // out of level 0: the level-0 table has one slot per id up to the
    // largest, which dense dictionary ids keep small. Probing `u32::MAX`
    // (and everything past the largest level-0 id) runs in every shape.
    let triples =
        dedup(vec![t(1, 2, u32::MAX), t(1, 2, u32::MAX - 1), t(1, 3, u32::MAX), t(4, 2, 0)]);
    let orders: Vec<IndexOrder> = IndexOrder::ALL
        .into_iter()
        .filter(|o| o.permute(t(0, 0, u32::MAX))[0] != u32::MAX)
        .collect();
    assert_eq!(orders.len(), 4);
    check_shape("u32-max", &triples, &orders);
}

#[test]
fn delta_overlay_entry_points() {
    let mut rng = SmallRng::seed_from_u64(0xE7_0002);
    let main = dedup(
        (0..3_000)
            .map(|_| {
                t(rng.gen_range(0..800), 1_000 + rng.gen_range(0..30u32), rng.gen_range(0..900))
            })
            .collect(),
    );
    let deletes: Vec<Triple> = main.iter().step_by(7).copied().collect();
    // Inserts reach past the main's largest ids at every level, and repeat
    // some live main rows (which the overlay drops).
    let mut inserts: Vec<Triple> = (0..400)
        .map(|_| {
            t(rng.gen_range(0..1_200), 1_000 + rng.gen_range(0..40u32), rng.gen_range(0..1_300))
        })
        .collect();
    inserts.extend(main.iter().skip(3).step_by(11).filter(|x| !deletes.contains(x)));
    let inserts = dedup(inserts);
    let mut live: Vec<Triple> =
        main.iter().filter(|x| !deletes.contains(x)).chain(inserts.iter()).copied().collect();
    live = dedup(live);

    for order in IndexOrder::ALL {
        let main_rows = sorted_rows(order, &main);
        let adds: Vec<Triple> = inserts.iter().filter(|x| !main.contains(x)).copied().collect();
        let add_rows = sorted_rows(order, &adds);
        let live_rows = sorted_rows(order, &live);
        for layout in Layout::ALL {
            let what = format!("delta {order} {layout}");
            let idx =
                TrieIndex::build_with_layout(order, &main, layout).with_delta(&inserts, &deletes);
            // The plain entry points still address the main part alone.
            check_main(&idx, &main_rows, &what);
            let (main_scan, add_scan) = (Scan::of(&main_rows), Scan::of(&add_rows));
            let live_scan = Scan::of(&live_rows);
            let a_ids = probe_ids(live_rows.iter().map(|r| r[0]));
            let b_ids = probe_ids(live_rows.iter().map(|r| r[1]));
            for &a in &a_ids {
                let r = idx.range1_live(a);
                assert_eq!(r.main, main_scan.range1(a), "{what}: main range1({a})");
                assert_eq!(r.delta, add_scan.range1(a), "{what}: adds range1({a})");
                let mut got: Vec<[u32; 3]> = idx.positions(r).map(|p| idx.row(p)).collect();
                got.sort_unstable();
                assert_eq!(got, live_rows[live_scan.range1(a).as_usize()], "{what}: live {a}");
                for &b in &b_ids {
                    let r = idx.range2_live(a, b);
                    assert_eq!(r.main, main_scan.range2(a, b), "{what}: main range2({a},{b})");
                    assert_eq!(r.delta, add_scan.range2(a, b), "{what}: adds range2({a},{b})");
                    let n = live_scan.range2(a, b).len();
                    assert_eq!(r.len(), n, "{what}: live range2({a},{b})");
                }
            }
            for r in &live_rows {
                let pos = idx.locate_live(r[0], r[1], r[2]).expect("live row located");
                assert_eq!(idx.row(pos), *r, "{what}: locate_live {r:?}");
            }
            for d in &deletes {
                let r = order.permute(*d);
                let expect = live_rows.binary_search(&r).is_ok();
                assert_eq!(idx.locate_live(r[0], r[1], r[2]).is_some(), expect, "{what}: {r:?}");
            }
        }
    }
}
