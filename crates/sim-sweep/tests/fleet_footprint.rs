//! Fleet memory-footprint audit (build with `--features alloc-count`).
//!
//! A fleet builds one full kernel world per shard, so every per-file
//! structure a world keeps is multiplied by the kernel count. Those
//! structures must cost in proportion to what a world touches: the
//! extent map of a scattered 1 GiB file is one vector of runs, and the
//! clean-page residency index holds chunks only where pages are
//! resident. This test bounds, with the counting global allocator, the
//! allocations and peak live bytes of building one default-config shard
//! and the peak live bytes of a 12-kernel flash-crowd fleet run for one
//! simulated second. The bounds sit between the measured values and
//! what an extent tree (a heap node per few extents) or a per-page
//! residency table sized by file length cost.
//!
//! The file contains exactly one test on purpose: the counters are
//! process-wide, so a concurrently running test in the same binary
//! would pollute the window.

#![cfg(feature = "alloc-count")]

use sim_cluster::shard::Shard;
use sim_cluster::{run_cluster, ArrivalKind, ClusterConfig};
use sim_core::{alloc_count, SimDuration};

/// Allocations of building one default-config shard (measured 52; an
/// extent tree costs over 1,000).
const SHARD_BUILD_MAX_ALLOCS: u64 = 104;
/// Peak live bytes of building one default-config shard (measured
/// 237 KB, most of it the 6,144 runs of its two scattered files; an
/// extent tree costs 373 KB).
const SHARD_BUILD_MAX_BYTES: u64 = 350_000;
/// Peak live bytes of the 12-kernel, 1-simulated-second flash fleet on
/// the sequential executor (measured 2.7 MB; per-page residency tables
/// cost 25 MB).
const FLEET_RUN_MAX_BYTES: u64 = 5_500_000;

/// Peak live bytes `f` adds above what was live when it started.
fn peak_above_live<T>(f: impl FnOnce() -> T) -> (T, u64) {
    alloc_count::reset_peak();
    let before = alloc_count::snapshot().current_bytes;
    let out = f();
    (out, alloc_count::snapshot().peak_bytes - before)
}

#[test]
fn shard_build_and_small_fleet_stay_within_footprint() {
    let cfg = ClusterConfig::default();
    let allocs_before = alloc_count::snapshot().allocs;
    let (shard, shard_peak) = peak_above_live(|| Shard::new(&cfg, 0));
    let shard_allocs = alloc_count::snapshot().allocs - allocs_before;
    drop(shard);
    assert!(
        shard_allocs <= SHARD_BUILD_MAX_ALLOCS,
        "building one shard made {shard_allocs} allocations (bound {SHARD_BUILD_MAX_ALLOCS})"
    );
    assert!(
        shard_peak <= SHARD_BUILD_MAX_BYTES,
        "building one shard peaked at {shard_peak} live bytes (bound {SHARD_BUILD_MAX_BYTES})"
    );

    let fleet = ClusterConfig {
        kernels: 12,
        arrival: ArrivalKind::parse("flash", 20.0).expect("known arrival"),
        duration: SimDuration::from_secs(1),
        ..ClusterConfig::default()
    };
    let (report, fleet_peak) = peak_above_live(|| run_cluster(&fleet, 1));
    assert!(report.events > 0, "the fleet ran");
    assert!(
        fleet_peak <= FLEET_RUN_MAX_BYTES,
        "the 12-kernel fleet peaked at {fleet_peak} live bytes (bound {FLEET_RUN_MAX_BYTES})"
    );
}
