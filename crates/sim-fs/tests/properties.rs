//! Randomized tests for allocation and extent mapping: no two files
//! ever share a block, lookups agree with range queries, and the
//! vector-backed extent map answers exactly like an ordered-tree model.
//! Driven by `SimRng` so the case set is deterministic and
//! dependency-free.

use std::collections::BTreeMap;

use sim_core::rng::SimRng;
use sim_core::{BlockNo, FileId};
use sim_fs::alloc::{Allocator, Extent, ExtentMap};

/// Blocks handed out by the allocator never overlap, across any
/// interleaving of files and sizes.
#[test]
fn allocator_never_overlaps() {
    let mut rng = SimRng::seed_from_u64(0xA110C);
    for _ in 0..64 {
        let n = 1 + rng.gen_range(59) as usize;
        let grants: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(8), 1 + rng.gen_range(499)))
            .collect();
        let mut a = Allocator::new(0, 1 << 24, 256, 42);
        let mut used: std::collections::HashSet<u64> = Default::default();
        for (file, n) in grants {
            for (start, len) in a.alloc(FileId(file), n) {
                for b in start.raw()..start.raw() + len {
                    assert!(used.insert(b), "block {b} double-allocated");
                }
            }
        }
    }
}

/// Scattered allocation also never overlaps and covers the request.
#[test]
fn scattered_allocation_is_exact() {
    let mut rng = SimRng::seed_from_u64(0x5CA77);
    for _ in 0..64 {
        let n = 1 + rng.gen_range(19) as usize;
        let sizes: Vec<u64> = (0..n).map(|_| 1 + rng.gen_range(1999)).collect();
        let mut a = Allocator::new(0, 1 << 26, 256, 7);
        let mut used: std::collections::HashSet<u64> = Default::default();
        for n in sizes {
            let runs = a.alloc_scattered(n, 64);
            let total: u64 = runs.iter().map(|r| r.1).sum();
            assert_eq!(total, n);
            for (start, len) in runs {
                for b in start.raw()..start.raw() + len {
                    assert!(used.insert(b));
                }
            }
        }
    }
}

/// `lookup` and `extents_for` agree page by page.
#[test]
fn extent_map_lookup_matches_ranges() {
    let mut rng = SimRng::seed_from_u64(0xE47E47);
    for _ in 0..64 {
        let n = 1 + rng.gen_range(14) as usize;
        let inserts: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(100), 1 + rng.gen_range(19)))
            .collect();
        let query = (rng.gen_range(150), 1 + rng.gen_range(39));
        let mut m = ExtentMap::new();
        let mut next_block = 1000u64;
        let mut covered: std::collections::BTreeMap<u64, u64> = Default::default();
        for (page, len) in inserts {
            // Skip overlapping inserts (the fs never produces them).
            if (page..page + len).any(|p| covered.contains_key(&p)) {
                continue;
            }
            m.insert(page, sim_core::BlockNo(next_block), len);
            for (i, p) in (page..page + len).enumerate() {
                covered.insert(p, next_block + i as u64);
            }
            next_block += len + 10;
        }
        let (qp, ql) = query;
        let extents = m.extents_for(qp, ql);
        // Every page the range query covers must match lookup, and
        // vice versa.
        let mut from_ranges: std::collections::BTreeMap<u64, u64> = Default::default();
        for e in &extents {
            for i in 0..e.len {
                from_ranges.insert(e.page + i, e.start.raw() + i);
            }
        }
        for p in qp..qp + ql {
            assert_eq!(
                m.lookup(p).map(|b| b.raw()),
                from_ranges.get(&p).copied(),
                "disagreement at page {p}"
            );
            assert_eq!(
                m.lookup(p).map(|b| b.raw()),
                covered.get(&p).copied(),
                "model disagreement at page {p}"
            );
        }
    }
}

/// Reference extent map: runs in an ordered tree keyed by first page,
/// each query answered the plain way (holes page by page).
#[derive(Default)]
struct TreeModel {
    runs: BTreeMap<u64, (u64, u64)>,
}

impl TreeModel {
    fn lookup(&self, page: u64) -> Option<u64> {
        let (&p0, &(b0, len)) = self.runs.range(..=page).next_back()?;
        (page < p0 + len).then_some(b0 + (page - p0))
    }

    fn extents_for(&self, page: u64, len: u64) -> Vec<Extent> {
        let end = page + len;
        let mut out: Vec<Extent> = Vec::new();
        for p in page..end {
            let Some(b) = self.lookup(p) else { continue };
            match out.last_mut() {
                // Extend only within one run: adjacent runs stay separate
                // extents even when their blocks happen to be contiguous.
                Some(e) if e.page_end() == p && self.run_start(p) != Some(p) => e.len += 1,
                _ => out.push(Extent {
                    page: p,
                    start: BlockNo(b),
                    len: 1,
                }),
            }
        }
        out
    }

    fn run_start(&self, page: u64) -> Option<u64> {
        self.runs.range(..=page).next_back().map(|(&p0, _)| p0)
    }

    fn holes(&self, page: u64, len: u64) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for p in page..page + len {
            if self.lookup(p).is_some() {
                continue;
            }
            match out.last_mut() {
                Some((h, n)) if *h + *n == p => *n += 1,
                _ => out.push((p, 1)),
            }
        }
        out
    }

    /// Longest run that fits at `page` without overlapping another run
    /// (other than one keyed exactly at `page`, which it would replace).
    fn room_at(&self, page: u64, limit: u64) -> u64 {
        if let Some((&p0, &(_, len))) = self.runs.range(..page).next_back() {
            if p0 + len > page {
                return 0;
            }
        }
        let next = self
            .runs
            .range(page + 1..)
            .next()
            .map_or(u64::MAX, |(&p, _)| p);
        (next - page).min(limit)
    }
}

/// The sorted-vector extent map agrees with the ordered-tree model on
/// every query, across appends, out-of-order inserts and equal-key
/// replacements, on random windows (holes, run edges, past the end).
#[test]
fn extent_map_matches_tree_model() {
    const SPACE: u64 = 4096;
    for seed in 0..48u64 {
        let mut rng = SimRng::seed_from_u64(0xE47E_0000 ^ seed);
        let in_order = seed % 2 == 0;
        let mut m = ExtentMap::new();
        let mut model = TreeModel::default();
        let mut next_block = 10_000u64;
        // In-order cases lay runs out front to back (every insert is an
        // append); the others pick random free positions.
        let mut cursor = 0u64;
        for step in 0..300 {
            let replace = !model.runs.is_empty() && rng.gen_range(5) == 0;
            let page = if replace {
                let keys: Vec<u64> = model.runs.keys().copied().collect();
                keys[rng.gen_range(keys.len() as u64) as usize]
            } else if in_order {
                cursor += rng.gen_range(8);
                cursor
            } else {
                rng.gen_range(SPACE)
            };
            let room = model.room_at(page, 1 + rng.gen_range(40));
            if room > 0 {
                let len = 1 + rng.gen_range(room);
                m.insert(page, BlockNo(next_block), len);
                model.runs.insert(page, (next_block, len));
                next_block += len + 1 + rng.gen_range(3);
                if in_order && !replace {
                    cursor = page + len;
                }
            }
            if step % 10 != 0 {
                continue;
            }
            for _ in 0..8 {
                let qp = rng.gen_range(SPACE + 64);
                let ql = 1 + rng.gen_range(200);
                for p in qp..qp + ql {
                    assert_eq!(
                        m.lookup(p).map(|b| b.raw()),
                        model.lookup(p),
                        "lookup {p} (seed {seed})"
                    );
                }
                let mut got = vec![Extent {
                    page: 0,
                    start: BlockNo(0),
                    len: 0,
                }];
                m.extents_for_into(qp, ql, &mut got);
                assert_eq!(got, model.extents_for(qp, ql), "extents (seed {seed})");
                let mut holes = vec![(7, 7)];
                m.holes_into(qp, ql, &mut holes);
                let want = model.holes(qp, ql);
                assert_eq!(holes, want, "holes [{qp}, +{ql}) (seed {seed})");
                assert_eq!(
                    m.fully_allocated(qp, ql),
                    want.is_empty(),
                    "fully_allocated (seed {seed})"
                );
            }
        }
    }
}
