//! Fast guards for the two consumers that build many short-lived worlds:
//! the replicated fleet and the differential check harness. Both
//! contracts are enforced at full scale elsewhere (the fleet's CI smoke
//! run, `runner check`); these small instances keep them in the plain
//! `cargo test` run.

use sim_check::{generate, GenConfig};
use sim_cluster::{run_cluster, ArrivalKind, ClusterConfig};
use sim_core::rng::SimRng;
use sim_core::SimDuration;
use sim_sweep::check::check_program;

/// A 12-kernel flash-crowd fleet prints the same report, byte for byte,
/// on the sequential executor and on two workers.
#[test]
fn small_fleet_is_byte_identical_across_jobs() {
    let cfg = ClusterConfig {
        kernels: 12,
        arrival: ArrivalKind::parse("flash", 20.0).expect("known arrival"),
        duration: SimDuration::from_secs(1),
        ..ClusterConfig::default()
    };
    let seq = run_cluster(&cfg, 1);
    let par = run_cluster(&cfg, 2);
    assert!(seq.events > 0 && !seq.samples.is_empty(), "the fleet ran");
    assert_eq!(seq.late, 0, "lookahead contract held");
    assert_eq!(seq.render(), par.render());
    assert_eq!(seq.events, par.events);
}

/// Generated programs 0-9 at root seed 0 pass the full scheduler x
/// device matrix: no auditor violation and no divergence from the noop
/// reference.
#[test]
fn first_generated_programs_pass_the_check_matrix() {
    for idx in 0..10 {
        let spec = generate(&mut SimRng::stream(0, idx), &GenConfig::default());
        let problems = check_program(&spec);
        assert!(problems.is_empty(), "program {idx}: {problems:#?}");
    }
}
