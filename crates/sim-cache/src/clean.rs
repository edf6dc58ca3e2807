//! Clean-page residency with LRU eviction.
//!
//! Semantically this is an exact page-granular LRU: every resident page
//! has a recency position, touches move a page to the MRU end, eviction
//! removes the LRU page. The representation is extent-compressed: a run
//! of pages filled consecutively (one streaming read) occupies a single
//! list node covering `[start, start+len)`, because consecutive inserts
//! are adjacent in recency order and stay adjacent until an individual
//! page is touched — at which point the run splits. Eviction shrinks the
//! tail run from its oldest page. Every operation therefore does exactly
//! what the per-page LRU would do (property-tested against a naive model
//! below), but a 256-page fill costs one node and a few chunk-slice writes
//! instead of 256 list splices.
//!
//! Residency lookup is two array indexes: each file has a directory of
//! [`CHUNK`]-page chunks, and a chunk holds one slot per page naming the
//! covering node. A chunk exists only while some page in it is resident;
//! chunks live in one pooled `Vec<u32>` and are recycled through a free
//! list, so the index costs memory in proportion to the resident pages,
//! not to the highest page of the file (a 1 GiB file with 300 resident
//! pages costs a 16 KiB directory plus at most 300 chunks of 256 bytes).
//! The per-page hot path does no hashing. The only hash left is one
//! [`FastMap`] probe per *call* to resolve the file, and the range entry
//! points ([`CleanCache::fill_range`], [`CleanCache::touch_at`]) hoist
//! even that out of page loops. At capacity, fills recycle evicted
//! nodes and chunks, so the streaming steady state touches the allocator
//! not at all.

use sim_core::{FastMap, FileId};

/// Sentinel "null" link / empty slot / missing chunk.
const NIL: u32 = u32::MAX;

/// log2 of [`CHUNK`].
const CHUNK_SHIFT: u32 = 6;
/// Pages per residency chunk. Small enough that a scattered resident
/// page costs 256 bytes of index, large enough that a 256-page
/// streaming fill touches only four or five chunks.
const CHUNK: u64 = 1 << CHUNK_SHIFT;

/// Index into the chunk pool of chunk `c`'s first slot.
#[inline]
fn chunk_base(c: u32) -> usize {
    (c as usize) << CHUNK_SHIFT
}

/// One run of consecutively-filled pages `[start, start+len)` of one
/// file. Within a run, `start` is the oldest page (runs are created by
/// ascending fills); `prev` points toward MRU, `next` toward LRU.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Handle into `files` (index of the owning file's residency directory).
    fh: u32,
    start: u64,
    len: u64,
    prev: u32,
    next: u32,
}

/// Per-file residency directory: `dir[page / CHUNK]` is the chunk
/// holding `page`'s slot, or `NIL` when no page of that chunk is resident.
#[derive(Debug, Default)]
struct FileSlots {
    file: FileId,
    dir: Vec<u32>,
}

/// Slot ranges of the chunks `[start, start+len)` crosses, as
/// `(directory index, first slot, one past the last slot)` within the chunk.
#[inline]
fn chunk_spans(start: u64, len: u64) -> impl Iterator<Item = (usize, usize, usize)> {
    let end = start + len;
    let mut p = start;
    std::iter::from_fn(move || {
        if p >= end {
            return None;
        }
        let ci = p >> CHUNK_SHIFT;
        let to = end.min((ci + 1) << CHUNK_SHIFT);
        let span = (
            ci as usize,
            (p & (CHUNK - 1)) as usize,
            (to - (ci << CHUNK_SHIFT)) as usize,
        );
        p = to;
        Some(span)
    })
}

/// LRU-managed set of resident clean pages.
#[derive(Debug)]
pub struct CleanCache {
    capacity_pages: u64,
    /// File -> handle into `files`.
    handles: FastMap<FileId, u32>,
    files: Vec<FileSlots>,
    /// Chunk storage: chunk `c` is `pool[c * CHUNK..(c + 1) * CHUNK]`.
    pool: Vec<u32>,
    /// Resident pages per chunk; a chunk returns to `free_chunks` (all
    /// slots `NIL`) when this drops to zero.
    chunk_live: Vec<u32>,
    free_chunks: Vec<u32>,
    /// Run-node storage; `free` recycles vacated nodes.
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Most-recently-used end of the list.
    head: u32,
    /// Least-recently-used end (eviction victim).
    tail: u32,
    /// Resident pages (sum of node lengths).
    len: u64,
}

impl CleanCache {
    /// Cache holding at most `capacity_pages` pages.
    pub fn new(capacity_pages: u64) -> Self {
        CleanCache {
            capacity_pages: capacity_pages.max(1),
            handles: FastMap::default(),
            files: Vec::new(),
            pool: Vec::new(),
            chunk_live: Vec::new(),
            free_chunks: Vec::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Resident page count.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resolve (or create) the residency handle for `file`.
    fn handle(&mut self, file: FileId) -> u32 {
        if let Some(&h) = self.handles.get(&file) {
            return h;
        }
        let h = self.files.len() as u32;
        self.files.push(FileSlots {
            file,
            dir: Vec::new(),
        });
        self.handles.insert(file, h);
        h
    }

    /// Node covering `page`, or `NIL`.
    #[inline]
    fn node_at(&self, fh: u32, page: u64) -> u32 {
        let dir = &self.files[fh as usize].dir;
        match dir.get((page >> CHUNK_SHIFT) as usize) {
            Some(&c) if c != NIL => self.pool[chunk_base(c) + (page & (CHUNK - 1)) as usize],
            _ => NIL,
        }
    }

    /// Slots of chunk `c` from `from` to `to` (chunk-relative).
    #[inline]
    fn chunk_slots(&mut self, c: u32, from: usize, to: usize) -> &mut [u32] {
        &mut self.pool[chunk_base(c) + from..chunk_base(c) + to]
    }

    /// Point resident pages `[start, start+len)` of file `fh` at node `i`
    /// (their chunks exist).
    #[inline]
    fn set_slots(&mut self, fh: u32, start: u64, len: u64, i: u32) {
        for (ci, from, to) in chunk_spans(start, len) {
            let c = self.files[fh as usize].dir[ci];
            self.chunk_slots(c, from, to).fill(i);
        }
    }

    /// Point non-resident pages `[start, start+len)` of file `fh` at node
    /// `i`, taking a chunk for each one that has none.
    #[inline]
    fn occupy_slots(&mut self, fh: u32, start: u64, len: u64, i: u32) {
        for (ci, from, to) in chunk_spans(start, len) {
            let c = match self.files[fh as usize].dir.get(ci) {
                Some(&c) if c != NIL => c,
                _ => self.new_chunk(fh, ci),
            };
            self.chunk_slots(c, from, to).fill(i);
            self.chunk_live[c as usize] += (to - from) as u32;
        }
    }

    /// Mark resident pages `[start, start+len)` of file `fh` non-resident,
    /// releasing every chunk left with no resident page.
    #[inline]
    fn clear_slots(&mut self, fh: u32, start: u64, len: u64) {
        for (ci, from, to) in chunk_spans(start, len) {
            let c = self.files[fh as usize].dir[ci];
            self.chunk_slots(c, from, to).fill(NIL);
            let live = &mut self.chunk_live[c as usize];
            *live -= (to - from) as u32;
            if *live == 0 {
                self.files[fh as usize].dir[ci] = NIL;
                self.free_chunks.push(c);
            }
        }
    }

    /// Attach an all-`NIL` chunk at directory index `ci` of file `fh`.
    #[cold]
    fn new_chunk(&mut self, fh: u32, ci: usize) -> u32 {
        let c = self.free_chunks.pop().unwrap_or_else(|| {
            let c = self.chunk_live.len() as u32;
            self.pool.resize(self.pool.len() + CHUNK as usize, NIL);
            self.chunk_live.push(0);
            c
        });
        let dir = &mut self.files[fh as usize].dir;
        if dir.len() <= ci {
            dir.resize(ci + 1, NIL);
        }
        dir[ci] = c;
        c
    }

    /// Slots the residency index holds: pooled chunk slots plus every
    /// file's directory entries.
    #[cfg(test)]
    pub(crate) fn index_slots(&self) -> usize {
        self.pool.len() + self.files.iter().map(|f| f.dir.len()).sum::<usize>()
    }

    /// Unlink node `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Link node `i` at the MRU head.
    fn link_front(&mut self, i: u32) {
        let old = self.head;
        self.nodes[i as usize].prev = NIL;
        self.nodes[i as usize].next = old;
        if old != NIL {
            self.nodes[old as usize].prev = i;
        } else {
            self.tail = i;
        }
        self.head = i;
    }

    /// Link node `i` immediately MRU-ward of `at` (between `at` and
    /// `at`'s prev).
    fn link_before(&mut self, i: u32, at: u32) {
        let prev = self.nodes[at as usize].prev;
        if prev == NIL {
            self.link_front(i);
            return;
        }
        self.nodes[i as usize].prev = prev;
        self.nodes[i as usize].next = at;
        self.nodes[prev as usize].next = i;
        self.nodes[at as usize].prev = i;
    }

    /// Allocate a node (recycling freed ones).
    fn alloc_node(&mut self, node: Node) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Evict `k` LRU pages (oldest first, shrinking tail runs).
    fn evict_pages(&mut self, mut k: u64) {
        while k > 0 {
            let t = self.tail;
            debug_assert_ne!(t, NIL);
            let Node { fh, start, len, .. } = self.nodes[t as usize];
            if len <= k {
                self.clear_slots(fh, start, len);
                self.unlink(t);
                self.free.push(t);
                self.len -= len;
                k -= len;
            } else {
                self.clear_slots(fh, start, k);
                let n = &mut self.nodes[t as usize];
                n.start += k;
                n.len -= k;
                self.len -= k;
                k = 0;
            }
        }
    }

    /// Move resident page `page` (covered by node `i`) to the MRU head,
    /// splitting its run if it sits in the middle.
    fn touch_node(&mut self, fh: u32, i: u32, page: u64) {
        let Node { start, len, .. } = self.nodes[i as usize];
        debug_assert!(page >= start && page < start + len);
        if len == 1 {
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return;
        }
        if page == start {
            // Oldest page of the run: run keeps [start+1, end).
            self.nodes[i as usize].start += 1;
            self.nodes[i as usize].len -= 1;
        } else if page == start + len - 1 {
            // Newest page: run keeps [start, end-1).
            self.nodes[i as usize].len -= 1;
        } else {
            // Middle: the run keeps its older half [start, page); the
            // newer half [page+1, end) becomes a node just MRU-ward of it
            // (those pages were filled later, so they are adjacent on the
            // recency axis).
            let upper_len = start + len - page - 1;
            self.nodes[i as usize].len = page - start;
            let u = self.alloc_node(Node {
                fh,
                start: page + 1,
                len: upper_len,
                prev: NIL,
                next: NIL,
            });
            self.link_before(u, i);
            self.set_slots(fh, page + 1, upper_len, u);
        }
        let single = self.alloc_node(Node {
            fh,
            start: page,
            len: 1,
            prev: NIL,
            next: NIL,
        });
        self.link_front(single);
        self.set_slots(fh, page, 1, single);
    }

    /// Insert (or refresh) a page, evicting the least-recently-used pages
    /// if over capacity.
    pub fn insert(&mut self, file: FileId, page: u64) {
        let fh = self.handle(file);
        self.insert_range_at(fh, page, 1);
    }

    /// Insert (or refresh) `len` consecutive pages in ascending order —
    /// exactly as repeated [`CleanCache::insert`] calls would, but one
    /// run node per stretch of non-resident pages.
    pub fn fill_range(&mut self, file: FileId, page: u64, len: u64) {
        let fh = self.handle(file);
        self.insert_range_at(fh, page, len);
    }

    fn insert_range_at(&mut self, fh: u32, page: u64, len: u64) {
        let end = page + len;
        let mut run_start = None;
        let mut p = page;
        while p < end {
            let i = self.node_at(fh, p);
            if i != NIL {
                if let Some(s) = run_start.take() {
                    self.push_run(fh, s, p - s);
                }
                self.touch_node(fh, i, p);
                p += 1;
            } else {
                if run_start.is_none() {
                    run_start = Some(p);
                }
                // Cross the rest of the non-resident stretch in one slice
                // walk (the common case: a streaming fill of fresh pages).
                p += 1 + self.miss_run_len(fh, p + 1, end - p - 1);
            }
        }
        if let Some(s) = run_start {
            self.push_run(fh, s, end - s);
        }
        if self.len > self.capacity_pages {
            self.evict_pages(self.len - self.capacity_pages);
        }
    }

    /// Place a fresh run `[start, start+len)` at the MRU head.
    fn push_run(&mut self, fh: u32, start: u64, len: u64) {
        let i = self.alloc_node(Node {
            fh,
            start,
            len,
            prev: NIL,
            next: NIL,
        });
        self.link_front(i);
        self.occupy_slots(fh, start, len, i);
        self.len += len;
    }

    /// If resident, refresh recency and return true.
    pub fn touch(&mut self, file: FileId, page: u64) -> bool {
        let Some(&fh) = self.handles.get(&file) else {
            return false;
        };
        self.touch_at(fh, page)
    }

    /// Residency handle of `file`, if it ever held pages. Lets range
    /// scans pay the file lookup once (see [`CleanCache::touch_at`]).
    pub(crate) fn file_handle(&self, file: FileId) -> Option<u32> {
        self.handles.get(&file).copied()
    }

    /// Length of the non-resident run starting at `page`, capped at `max`
    /// pages: range scans use it to cross a miss stretch in one slice walk
    /// instead of a probe call per page. Read-only — misses don't touch
    /// the LRU, so skipping them wholesale is observationally identical.
    pub(crate) fn miss_run_len(&self, fh: u32, page: u64, max: u64) -> u64 {
        let dir = &self.files[fh as usize].dir;
        let mut skipped = 0;
        for (ci, from, to) in chunk_spans(page, max) {
            // Past the directory: nothing there is resident.
            let Some(&c) = dir.get(ci) else {
                return max;
            };
            // A missing chunk is a whole chunk of misses.
            if c != NIL {
                let slots = &self.pool[chunk_base(c) + from..chunk_base(c) + to];
                if let Some(n) = slots.iter().position(|&s| s != NIL) {
                    return skipped + n as u64;
                }
            }
            skipped += (to - from) as u64;
        }
        max
    }

    /// [`CleanCache::touch`] through a prefetched handle: no hashing.
    pub(crate) fn touch_at(&mut self, fh: u32, page: u64) -> bool {
        let i = self.node_at(fh, page);
        if i == NIL {
            return false;
        }
        self.touch_node(fh, i, page);
        true
    }

    /// Drop all pages of `file`. Its chunks return to the pool; the
    /// directory is kept (all `NIL`) so a later re-fill reuses it.
    pub fn remove_file(&mut self, file: FileId) {
        let Some(&fh) = self.handles.get(&file) else {
            return;
        };
        // Walk the recency list collecting this file's runs (the list has
        // one entry per run, not per page).
        let mut i = self.head;
        while i != NIL {
            let next = self.nodes[i as usize].next;
            let Node {
                fh: owner,
                start,
                len,
                ..
            } = self.nodes[i as usize];
            if owner == fh {
                self.clear_slots(fh, start, len);
                self.len -= len;
                self.unlink(i);
                self.free.push(i);
            }
            i = next;
        }
        debug_assert!(self.files[fh as usize].dir.iter().all(|&c| c == NIL));
        debug_assert_eq!(self.files[fh as usize].file, file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimRng;

    #[test]
    fn insert_and_touch() {
        let mut c = CleanCache::new(4);
        c.insert(FileId(1), 0);
        assert!(c.touch(FileId(1), 0));
        assert!(!c.touch(FileId(1), 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = CleanCache::new(3);
        c.insert(FileId(1), 0);
        c.insert(FileId(1), 1);
        c.insert(FileId(1), 2);
        // Touch page 0 so page 1 becomes the LRU victim.
        c.touch(FileId(1), 0);
        c.insert(FileId(1), 3);
        assert!(c.touch(FileId(1), 0));
        assert!(!c.touch(FileId(1), 1), "page 1 should have been evicted");
        assert!(c.touch(FileId(1), 2));
        assert!(c.touch(FileId(1), 3));
    }

    #[test]
    fn remove_file_clears_only_that_file() {
        let mut c = CleanCache::new(10);
        c.insert(FileId(1), 0);
        c.insert(FileId(2), 0);
        c.remove_file(FileId(1));
        assert!(!c.touch(FileId(1), 0));
        assert!(c.touch(FileId(2), 0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_refreshes_rather_than_duplicates() {
        let mut c = CleanCache::new(2);
        c.insert(FileId(1), 0);
        c.insert(FileId(1), 0);
        c.insert(FileId(1), 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn fill_range_matches_per_page_inserts() {
        let mut a = CleanCache::new(5);
        let mut b = CleanCache::new(5);
        a.fill_range(FileId(1), 10, 8);
        for p in 10..18 {
            b.insert(FileId(1), p);
        }
        for p in 0..20 {
            assert_eq!(a.touch(FileId(1), p), b.touch(FileId(1), p), "page {p}");
        }
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn middle_touch_splits_run_without_losing_pages() {
        let mut c = CleanCache::new(100);
        c.fill_range(FileId(1), 0, 10);
        assert!(c.touch(FileId(1), 5));
        assert_eq!(c.len(), 10);
        for p in 0..10 {
            assert!(c.touch(FileId(1), p), "page {p} lost in split");
        }
    }

    #[test]
    fn steady_state_stream_recycles_nodes() {
        let mut c = CleanCache::new(512);
        for chunk in 0..200u64 {
            c.fill_range(FileId(1), chunk * 256, 256);
        }
        assert_eq!(c.len(), 512);
        assert!(
            c.nodes.len() < 16,
            "node slab grew past a handful of runs: {}",
            c.nodes.len()
        );
        // The newest two chunks are resident, older ones are gone.
        assert!(c.touch(FileId(1), 199 * 256));
        assert!(!c.touch(FileId(1), 197 * 256));
    }

    /// Exact-LRU reference model: a vector ordered MRU-first.
    #[derive(Default)]
    struct ModelLru {
        cap: usize,
        order: Vec<(FileId, u64)>,
    }

    impl ModelLru {
        fn insert(&mut self, file: FileId, page: u64) {
            if let Some(pos) = self.order.iter().position(|&k| k == (file, page)) {
                self.order.remove(pos);
            } else if self.order.len() >= self.cap {
                self.order.pop();
            }
            self.order.insert(0, (file, page));
        }

        fn touch(&mut self, file: FileId, page: u64) -> bool {
            match self.order.iter().position(|&k| k == (file, page)) {
                Some(pos) => {
                    let k = self.order.remove(pos);
                    self.order.insert(0, k);
                    true
                }
                None => false,
            }
        }

        fn remove_file(&mut self, file: FileId) {
            self.order.retain(|&(f, _)| f != file);
        }
    }

    /// Drive `real` and the naive model through fuzzed fills, touches
    /// and removals at the pages `pick` draws (with the most pages a fill
    /// from there may add past the first), asserting identical answers
    /// and a chunk index that accounts for every resident page.
    fn run_differential(salt: u64, pick: fn(&mut SimRng) -> (u64, u64)) {
        for seed in 0..12u64 {
            let mut rng = SimRng::seed_from_u64(salt ^ seed);
            let cap = 1 + rng.gen_range(96);
            let mut real = CleanCache::new(cap);
            let mut model = ModelLru {
                cap: cap as usize,
                order: Vec::new(),
            };
            for _ in 0..2_000 {
                let file = FileId(1 + rng.gen_range(3));
                let (page, max_extra) = pick(&mut rng);
                match rng.gen_range(10) {
                    0 => {
                        real.remove_file(file);
                        model.remove_file(file);
                    }
                    1..=4 => {
                        let len = 1 + rng.gen_range(24).min(max_extra);
                        real.fill_range(file, page, len);
                        for p in page..page + len {
                            model.insert(file, p);
                        }
                    }
                    5..=7 => {
                        assert_eq!(
                            real.touch(file, page),
                            model.touch(file, page),
                            "touch divergence (seed {seed})"
                        );
                    }
                    _ => {
                        real.insert(file, page);
                        model.insert(file, page);
                    }
                }
                assert_eq!(real.len(), model.order.len() as u64, "len (seed {seed})");
                let live: u64 = real.chunk_live.iter().map(|&n| n as u64).sum();
                assert_eq!(live, real.len(), "chunk counts (seed {seed})");
            }
            // Final sweep: every key agrees. Probe in model order so the
            // touches themselves cannot cause divergence.
            let final_keys = model.order.clone();
            for (f, p) in final_keys {
                assert!(real.touch(f, p), "page ({f:?},{p}) missing (seed {seed})");
                assert!(model.touch(f, p));
            }
            // Emptying the cache hands every chunk back to the pool.
            for f in 1..=3 {
                real.remove_file(FileId(f));
            }
            assert!(real.is_empty());
            assert_eq!(real.free_chunks.len(), real.chunk_live.len(), "seed {seed}");
        }
    }

    /// The extent-compressed cache must be observationally identical to
    /// the naive page LRU under fuzzed fills, touches, and removals.
    #[test]
    fn differential_against_naive_page_lru() {
        run_differential(0xc1ea_ca0e, |rng| {
            let page = rng.gen_range(64);
            (page, 63 - page)
        });
    }

    /// The same over sparse pages: both sides of chunk boundaries, pages
    /// above 2^20 and 2^22, with fills crossing chunks and eviction
    /// shrinking runs that span them.
    #[test]
    fn differential_sparse_pages_against_naive_page_lru() {
        const ANCHORS: [u64; 6] = [0, CHUNK, 3 * CHUNK, 1 << 20, (1 << 20) + CHUNK, 5 << 22];
        run_differential(0x5ba5_e000, |rng| {
            let anchor = ANCHORS[rng.gen_range(ANCHORS.len() as u64) as usize];
            ((anchor + rng.gen_range(40)).saturating_sub(16), u64::MAX)
        });
    }

    /// Scattered single pages cost at most one chunk each plus the
    /// directory, not a slot per page up to the highest one touched; and
    /// under eviction the pool stays sized by what is resident.
    #[test]
    fn index_footprint_follows_resident_pages() {
        const FILE_PAGES: u64 = 4 << 20;
        let dir = (FILE_PAGES / CHUNK) as usize;
        let mut rng = SimRng::seed_from_u64(0xf00d);
        let mut c = CleanCache::new(1_000);
        for _ in 0..300 {
            c.insert(FileId(1), rng.gen_range(FILE_PAGES));
        }
        assert!(
            c.index_slots() <= 300 * CHUNK as usize + dir,
            "index holds {} slots",
            c.index_slots()
        );
        let mut c = CleanCache::new(300);
        for _ in 0..3_000 {
            c.insert(FileId(1), rng.gen_range(FILE_PAGES));
        }
        assert_eq!(c.len(), 300);
        assert!(
            c.index_slots() <= 301 * CHUNK as usize + dir,
            "index holds {} slots",
            c.index_slots()
        );
    }
}
