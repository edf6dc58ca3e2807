//! World-build allocation audit for the event queue (build with
//! `--features alloc-count`).
//!
//! Every simulated world owns an `EventQueue`, and the check harness
//! and the fleet build thousands of short-lived worlds, so building,
//! filling and dropping a queue must cost a small constant number of
//! allocations — the slot-head table plus the log2 growth steps of the
//! node arena and the cursor buffer — not one per wheel slot touched.
//! This test counts them with the counting global allocator across
//! `new()`, 2,000 pushes spread over the whole wheel, the pops, and the
//! drop, and requires every allocation to be freed again.
//!
//! The file contains exactly one test on purpose: the counters are
//! process-wide, so a concurrently running test in the same binary
//! would pollute the window.

#![cfg(feature = "alloc-count")]

use sim_core::{alloc_count, EventQueue, SimTime};

/// Events pushed: enough to touch every region of the ~1.07 s wheel.
const EVENTS: u64 = 2_000;
/// The slot-head table, the node arena's doublings up to `EVENTS`
/// nodes (ceil(log2(2000)) = 11), and a few for the cursor-slot buffer.
const MAX_ALLOCS: u64 = 1 + 11 + 4;

#[test]
fn building_filling_and_dropping_a_queue_allocates_a_constant() {
    let before = alloc_count::snapshot();
    let mut q: EventQueue<u64> = EventQueue::new();
    // 2,000 events 0.5 ms apart span 1 s of the wheel's 1.07 s horizon,
    // so nearly every push lands in a slot no earlier push touched.
    for i in 0..EVENTS {
        q.schedule(SimTime::from_nanos(i * 500_000 + (i * 7919) % 1000), i);
    }
    let mut popped = 0;
    while let Some(e) = q.pop() {
        assert_eq!(e.payload, popped, "events pop in time order");
        popped += 1;
    }
    assert_eq!(popped, EVENTS);
    drop(q);
    let after = alloc_count::snapshot();
    let allocs = after.allocs - before.allocs;
    assert!(
        allocs <= MAX_ALLOCS,
        "queue lifetime allocated {allocs} times (bound {MAX_ALLOCS})"
    );
    assert_eq!(
        after.frees - before.frees,
        allocs,
        "every queue allocation is freed on drop"
    );
}
