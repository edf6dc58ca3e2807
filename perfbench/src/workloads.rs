//! The four workloads. Each builds its inputs from the seed, runs once
//! per call of [`run_rep`], and returns host timings next to the
//! simulated results and a digest of them.
//!
//! A rep is set-up (everything up to the first timed event) followed by
//! the measured run. In a traced rep the benchmark's wrappers time each
//! layer boundary and the simulator's own profiler is installed; the
//! simulated output must not change.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use sim_block::IoPrio;
use sim_check::{generate, GenConfig, ProgramSpec};
use sim_cluster::shard::Shard;
use sim_cluster::{run_cluster, ArrivalKind, ClusterConfig, ClusterDevice, ClusterSched};
use sim_core::prof::{self, Phase, ProfSnapshot, Profiler};
use sim_core::{KernelId, SimDuration, SimRng};
use sim_device::{DiskModel, HddModel, SsdModel};
use sim_experiments::fig_layers::tenant_tree;
use sim_experiments::setup::{
    kernel_config, resolve_layer_child, DeviceChoice, SchedChoice, Setup,
};
use sim_experiments::{GB, KB, MB};
use sim_kernel::{DeviceKind, ProcessLogic, World};
use sim_sweep::check::{ALL_DEVICES, ALL_SCHEDS};
use sim_workloads::{FsyncAppender, RandReader, RandWriter, SeqReader, SeqWriter};
use split_core::IoSched;
use split_layered::{Layered, LayeredConfig};

use crate::alloc;
use crate::spans::Tracer;
use crate::wrap::{OpLog, OpShape, OpStats, TimedDisk, TimedProc, TimedSched};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 1 made continuous: HDD, serial plane, CFQ, ext4.
    WriteBurst,
    /// The `fig_layers` tenants under the layered arbiter on SSD, qd 8.
    FsyncTenants,
    /// A 64-kernel replicated fleet under a flash crowd.
    FleetFlash,
    /// Generated programs through the 10-scheduler x 2-device checker.
    CheckMatrix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::WriteBurst,
        Workload::FsyncTenants,
        Workload::FleetFlash,
        Workload::CheckMatrix,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WriteBurst => "write_burst",
            Workload::FsyncTenants => "fsync_tenants",
            Workload::FleetFlash => "fleet_flash",
            Workload::CheckMatrix => "check_matrix",
        }
    }

    /// Look a workload up by name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much simulated work one rep does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Simulated seconds (single-kernel and fleet workloads).
    pub sim_secs: u64,
    /// Fleet kernels.
    pub kernels: usize,
    /// Programs per rep (check_matrix).
    pub programs: usize,
}

impl Size {
    /// The measured size of `w`.
    pub fn full(w: Workload) -> Size {
        match w {
            Workload::WriteBurst => Size::secs(300),
            Workload::FsyncTenants => Size::secs(60),
            Workload::FleetFlash => Size {
                kernels: 64,
                ..Size::secs(5)
            },
            Workload::CheckMatrix => Size {
                programs: 1000,
                ..Size::secs(0)
            },
        }
    }

    /// A short size for the self-tests.
    #[cfg(test)]
    pub fn short(w: Workload) -> Size {
        match w {
            Workload::WriteBurst => Size::secs(15),
            Workload::FsyncTenants => Size::secs(3),
            Workload::FleetFlash => Size {
                kernels: 12,
                ..Size::secs(1)
            },
            Workload::CheckMatrix => Size {
                programs: 4,
                ..Size::secs(0)
            },
        }
    }

    fn secs(s: u64) -> Size {
        Size {
            sim_secs: s,
            kernels: 0,
            programs: 0,
        }
    }
}

/// How a rep is run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No wrappers, no profiler.
    Plain,
    /// Timing wrappers and the simulator's profiler installed.
    Traced,
}

/// The traced part of a rep.
pub struct Trace {
    /// Span totals (single-kernel workloads; empty otherwise).
    pub spans: Rc<Tracer>,
    /// Profiler phases and gauges, steady state only.
    pub prof: ProfSnapshot,
}

/// Op measurements of a rep, already reduced to what the report needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ops {
    /// Ops started.
    pub attempted: u64,
    /// Ops that completed with an error or that the checker flagged.
    pub failed: u64,
    /// Ops still running when the run ended.
    pub unfinished: u64,
    /// Latencies of completed ops, ms, in completion order.
    pub latency_ms: Vec<f64>,
    /// Bytes the completed ops moved (write_burst's reader MB/s).
    pub bytes: u64,
}

/// One rep's outcome.
pub struct Rep {
    /// Host ns from the start of set-up to the first timed event.
    pub setup_ns: u64,
    /// Host ns of the measured run.
    pub run_ns: u64,
    /// DES events processed.
    pub events: u64,
    /// Simulated seconds covered; `None` where the public API does not
    /// expose the simulated clock (check_matrix).
    pub sim_s: Option<f64>,
    /// Op measurements.
    pub ops: Ops,
    /// Digest of the simulated output.
    pub digest: u64,
    /// Events scheduled in the past and clamped (must be zero).
    pub late: u64,
    /// Workload-specific deterministic counters and host timings.
    pub extra: BTreeMap<&'static str, f64>,
    /// Allocations during set-up.
    pub alloc_setup: u64,
    /// Allocations during the run.
    pub alloc_steady: u64,
    /// Peak live heap bytes during the rep.
    pub alloc_peak: u64,
    /// Set in traced reps.
    pub trace: Option<Trace>,
}

/// FNV-1a over 64-bit words: a digest of simulated output.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, s: &[u8]) {
        self.word(s.len() as u64);
        for &b in s {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Worker threads of the fleet's parallel reps: two, or fewer on a
/// smaller host. Every other rep runs the fleet on one worker.
pub fn fleet_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Run one rep of `w`. `fleet_jobs` is the fleet's worker count; traced
/// reps must use one worker, because worker threads install no profiler.
pub fn run_rep(w: Workload, seed: u64, size: Size, mode: Mode, fleet_jobs: usize) -> Rep {
    assert!(
        mode == Mode::Plain || fleet_jobs == 1,
        "traced reps run on one worker"
    );
    let profiler = (mode == Mode::Traced).then(|| {
        let p = Profiler::new();
        p.set_enabled(true);
        prof::install_thread(&p);
        p
    });
    let tracer = (mode == Mode::Traced).then(|| Rc::new(Tracer::new()));
    let mut rep = match w {
        Workload::WriteBurst | Workload::FsyncTenants => {
            single_kernel(w, seed, size, tracer.clone(), profiler.as_ref())
        }
        Workload::FleetFlash => fleet(seed, size, fleet_jobs, profiler.as_ref()),
        Workload::CheckMatrix => check_matrix(seed, size, profiler.as_ref()),
    };
    prof::uninstall_thread();
    if let (Some(p), Some(t)) = (profiler, tracer) {
        rep.trace = Some(Trace {
            spans: t,
            prof: p.snapshot(),
        });
    }
    rep
}

/// Set-up builds per rep of each workload. Set-up is short next to the
/// run, so each rep builds several times and reports the median build;
/// the last build is the one that runs.
fn setup_samples(w: Workload) -> usize {
    match w {
        Workload::WriteBurst | Workload::FsyncTenants => 9,
        Workload::FleetFlash => 1,
        Workload::CheckMatrix => 5,
    }
}

/// Host time and allocations of a rep's set-up and run.
struct Clock {
    setup_ns: u64,
    alloc_setup: u64,
    t1: Instant,
    a1: alloc::Snapshot,
}

impl Clock {
    /// Build `n` times with `build`, timing each; return the last build.
    /// The run starts when this returns. An installed profiler is reset
    /// so it only sees the run.
    fn setup<T>(n: usize, prof: Option<&Profiler>, mut build: impl FnMut() -> T) -> (T, Clock) {
        let mut times = Vec::with_capacity(n);
        let mut last = None;
        let mut alloc_setup = 0;
        for _ in 0..n.max(1) {
            drop(last.take());
            alloc::reset_peak();
            let a0 = alloc::snapshot();
            let t0 = Instant::now();
            last = Some(build());
            times.push(t0.elapsed().as_nanos() as u64);
            alloc_setup = alloc::snapshot().allocs - a0.allocs;
        }
        times.sort_unstable();
        if let Some(p) = prof {
            p.reset();
        }
        let clock = Clock {
            setup_ns: times[times.len() / 2],
            alloc_setup,
            a1: alloc::snapshot(),
            t1: Instant::now(),
        };
        (last.expect("at least one build"), clock)
    }

    /// Start the run clock again (after dropping set-up leftovers).
    fn restart(&mut self) {
        self.a1 = alloc::snapshot();
        self.t1 = Instant::now();
    }

    /// (run ns, allocations during the run, peak live bytes of the rep).
    fn run_done(&self) -> (u64, u64, u64) {
        let run_ns = self.t1.elapsed().as_nanos() as u64;
        let a2 = alloc::snapshot();
        (run_ns, a2.allocs - self.a1.allocs, a2.peak_bytes)
    }
}

// ---------------------------------------------------------------------
// Single-kernel workloads: write_burst and fsync_tenants.

fn single_kernel(
    w: Workload,
    seed: u64,
    size: Size,
    tr: Option<Rc<Tracer>>,
    prof: Option<&Profiler>,
) -> Rep {
    let ((mut world, k, ops), clock) = Clock::setup(setup_samples(w), prof, || match w {
        Workload::WriteBurst => build_write_burst(seed, tr.as_ref()),
        _ => build_fsync_tenants(seed, tr.as_ref()),
    });
    let start = world.now();
    let end = start + SimDuration::from_secs(size.sim_secs);
    let ev0 = world.events_processed();
    match &tr {
        None => while world.now() < end && world.step() {},
        Some(tr) => while world.now() < end && tr.root(|| world.step()) {},
    }
    let (run_ns, alloc_steady, alloc_peak) = clock.run_done();

    let events = world.events_processed() - ev0;
    let sim_s = (world.now().as_nanos() - start.as_nanos()) as f64 / 1e9;
    let ops = ops.borrow().clone();
    let kern = world.kernel(k);
    let mut d = Digest::new();
    d.word(events);
    d.word(world.now().as_nanos());
    d.word(kern.stats.requests_dispatched);
    d.word(kern.stats.device_bytes);
    let mut pids: Vec<_> = kern.stats.procs.keys().copied().collect();
    pids.sort();
    for pid in pids {
        let p = &kern.stats.procs[&pid];
        d.word(pid.0 as u64);
        for v in [p.reads, p.read_bytes, p.writes, p.write_bytes, p.io_errors] {
            d.word(v);
        }
        d.word(p.fsyncs.len() as u64);
        for (t, lat) in &p.fsyncs {
            d.word(t.as_nanos());
            d.word(lat.as_nanos());
        }
        d.word(p.meta_ops.len() as u64);
    }
    d.word(ops.attempted);
    d.word(ops.failed);
    for &l in &ops.latency_ns {
        d.word(l);
    }
    let completed = ops.latency_ns.len() as u64;
    Rep {
        setup_ns: clock.setup_ns,
        run_ns,
        events,
        sim_s: Some(sim_s),
        ops: Ops {
            attempted: ops.attempted,
            failed: ops.failed,
            unfinished: ops.attempted - completed - ops.failed,
            latency_ms: ops.latency_ns.iter().map(|&n| n as f64 / 1e6).collect(),
            bytes: ops.bytes,
        },
        digest: d.0,
        late: world.late_schedules(),
        extra: BTreeMap::new(),
        alloc_setup: clock.alloc_setup,
        alloc_steady,
        alloc_peak,
        trace: None,
    }
}

/// Add a kernel, wrapping scheduler and device when traced.
fn add_kernel(
    w: &mut World,
    setup: Setup,
    sched: Box<dyn IoSched>,
    device: Box<dyn DiskModel>,
    tr: Option<&Rc<Tracer>>,
) -> KernelId {
    let (sched, device): (Box<dyn IoSched>, Box<dyn DiskModel>) = match tr {
        Some(tr) => (
            Box::new(TimedSched::top(sched, Rc::clone(tr))),
            Box::new(TimedDisk::new(device, Rc::clone(tr))),
        ),
        None => (sched, device),
    };
    w.add_kernel(kernel_config(setup), DeviceKind::Physical(device), sched)
}

/// Spawn a process, wrapping it when traced.
fn spawn(
    w: &mut World,
    k: KernelId,
    logic: Box<dyn ProcessLogic>,
    tr: Option<&Rc<Tracer>>,
) -> sim_core::Pid {
    let logic: Box<dyn ProcessLogic> = match tr {
        Some(tr) => Box::new(TimedProc::new(logic, Rc::clone(tr))),
        None => logic,
    };
    w.spawn(k, logic)
}

type Built = (World, KernelId, Rc<RefCell<OpStats>>);

/// Reader A (1 MiB sequential reads of a 4 GiB file) against writer B
/// (idle-class 4 KiB random buffered writes over 16 GiB).
fn build_write_burst(seed: u64, tr: Option<&Rc<Tracer>>) -> Built {
    let setup = Setup::new(SchedChoice::Cfq).seed(seed);
    let mut w = World::new();
    let k = add_kernel(
        &mut w,
        setup,
        SchedChoice::Cfq.build(),
        Box::new(HddModel::new()),
        tr,
    );
    let a_file = w.prealloc_file(k, 4 * GB, true);
    let b_file = w.prealloc_file(k, 16 * GB, true);
    let (reader, ops) = OpLog::new(Box::new(SeqReader::new(a_file, 4 * GB, MB)), OpShape::Read);
    spawn(&mut w, k, Box::new(reader), tr);
    let b = spawn(
        &mut w,
        k,
        Box::new(RandWriter::new(b_file, 16 * GB, 4 * KB, seed ^ 0xb0b)),
        tr,
    );
    w.set_ioprio(k, b, IoPrio::idle());
    (w, k, ops)
}

/// The `fig_layers` tenants (latency appender, noisy random reader,
/// capped sequential writer) under the tenant tree at a 4 MiB/s cap.
fn build_fsync_tenants(seed: u64, tr: Option<&Rc<Tracer>>) -> Built {
    let setup = Setup {
        device: DeviceChoice::Ssd,
        seed,
        ..Setup::new(SchedChoice::Layered)
    }
    .queue_depth(8);
    let lcfg = LayeredConfig {
        dirty_budget: Some(48 * MB),
        eager_wb_bytes: Some(64 * KB),
        ..LayeredConfig::default()
    };
    let arbiter = Layered::build(tenant_tree(4 * MB), lcfg, &mut |name| {
        let child = resolve_layer_child(name)?;
        Some(match tr {
            Some(tr) => Box::new(TimedSched::child(child, Rc::clone(tr))) as Box<dyn IoSched>,
            None => child,
        })
    })
    .expect("the tenant tree's children resolve");
    let mut w = World::new();
    let k = add_kernel(
        &mut w,
        setup,
        Box::new(arbiter),
        Box::new(SsdModel::new()),
        tr,
    );
    let lat_file = w.prealloc_file(k, 256 * MB, true);
    let (appender, ops) = OpLog::new(
        Box::new(FsyncAppender::new(
            lat_file,
            256 * KB,
            SimDuration::from_millis(20),
        )),
        OpShape::AppendFsync,
    );
    let lat = spawn(&mut w, k, Box::new(appender), tr);
    let noisy_file = w.prealloc_file(k, GB, true);
    let capped_file = w.prealloc_file(k, GB, true);
    spawn(
        &mut w,
        k,
        Box::new(RandReader::new(noisy_file, GB, 64 * KB, seed ^ 0x0151)),
        tr,
    );
    let capped = spawn(
        &mut w,
        k,
        Box::new(SeqWriter::new(capped_file, GB, 64 * KB)),
        tr,
    );
    // The tenant tree binds tenants by pid, so spawn order is fixed.
    assert_eq!((lat.0, capped.0), (10, 12), "tenant pids match the tree");
    (w, k, ops)
}

// ---------------------------------------------------------------------
// fleet_flash.

/// Fleet configuration for `seed`.
pub fn fleet_config(seed: u64, size: Size) -> ClusterConfig {
    ClusterConfig {
        kernels: size.kernels,
        replication: 3,
        sched: ClusterSched::SplitToken,
        device: ClusterDevice::Hdd,
        arrival: ArrivalKind::parse("flash", 20.0).expect("flash is a known arrival process"),
        duration: SimDuration::from_secs(size.sim_secs),
        seed,
        ..ClusterConfig::default()
    }
}

fn fleet(seed: u64, size: Size, jobs: usize, prof: Option<&Profiler>) -> Rep {
    let cfg = fleet_config(seed, size);
    // Set-up: the fleet's worlds, built and timed outside the executor.
    // `run_cluster` builds its own copy, so this measures the build
    // alone without moving it out of the measured run.
    let (shards, mut clock) = Clock::setup(setup_samples(Workload::FleetFlash), prof, || {
        (0..cfg.kernels)
            .map(|i| Shard::new(&cfg, i))
            .collect::<Vec<Shard>>()
    });
    drop(std::hint::black_box(shards));
    clock.restart();
    let report = run_cluster(&cfg, jobs);
    let (run_ns, alloc_steady, alloc_peak) = clock.run_done();

    let mut d = Digest::new();
    for v in [report.events, report.late, report.inflight] {
        d.word(v);
    }
    for s in &report.samples {
        for v in [
            s.req,
            s.shard as u64,
            matches!(s.kind, sim_cluster::ReqKind::Put) as u64,
            s.arrival.as_nanos(),
            s.done.as_nanos(),
            s.e2e_ms.to_bits(),
        ] {
            d.word(v);
        }
    }
    let mut extra = BTreeMap::new();
    extra.insert("fleet.build.ns", clock.setup_ns as f64);
    extra.insert("fleet.inflight_end", report.inflight as f64);
    extra.insert("fleet.late", report.late as f64);
    let completed = report.samples.len() as u64;
    Rep {
        setup_ns: clock.setup_ns,
        run_ns,
        events: report.events,
        sim_s: Some(cfg.duration.as_secs_f64()),
        ops: Ops {
            attempted: completed + report.inflight,
            failed: 0,
            unfinished: report.inflight,
            latency_ms: report.samples.iter().map(|s| s.e2e_ms).collect(),
            bytes: 0,
        },
        digest: d.0,
        late: report.late,
        extra,
        alloc_setup: clock.alloc_setup,
        alloc_steady,
        alloc_peak,
        trace: None,
    }
}

// ---------------------------------------------------------------------
// check_matrix.

/// The program `idx` under root seed `seed`, as `runner check` makes it.
pub fn program(seed: u64, idx: u64) -> ProgramSpec {
    generate(&mut SimRng::stream(seed, idx), &GenConfig::default())
}

/// What the matrix found for one program.
pub struct MatrixResult {
    /// One message per failing run (`check_program` words its list
    /// per diverging process; the verdict, empty or not, is the same).
    pub problems: Vec<String>,
    /// Events over all 20 runs.
    pub events: u64,
    /// Fsync latencies (ms) of every run, in matrix order.
    pub fsync_ms: Vec<f64>,
    /// Digest of every run's outcome.
    pub digest: u64,
}

/// Replay `spec` through the full scheduler x device matrix through
/// `sim_sweep::run_one`, judging it the way `check_program` does
/// (auditor violations, and outcome divergence from the noop reference).
/// Unlike `check_program` it also returns the runs' events and fsyncs.
pub fn check_matrix_program(spec: &ProgramSpec) -> MatrixResult {
    let mut out = MatrixResult {
        problems: Vec::new(),
        events: 0,
        fsync_ms: Vec::new(),
        digest: 0,
    };
    let mut d = Digest::new();
    for &device in &ALL_DEVICES {
        let dev = match device {
            DeviceChoice::Hdd => "hdd",
            DeviceChoice::Ssd => "ssd",
        };
        let reference = sim_sweep::run_one(spec, ALL_SCHEDS[0], device, None);
        for &sched in &ALL_SCHEDS {
            let r = if sched == ALL_SCHEDS[0] {
                None
            } else {
                Some(sim_sweep::run_one(spec, sched, device, None))
            };
            let r = r.as_ref().unwrap_or(&reference);
            for v in &r.violations {
                out.problems.push(format!("{}/{dev}: {v}", sched.name()));
            }
            if r.per_proc != reference.per_proc {
                out.problems.push(format!(
                    "{}/{dev}: outcomes diverge from noop reference",
                    sched.name()
                ));
            }
            out.events += r.events;
            out.fsync_ms.extend_from_slice(&r.fsync_ms);
            d.word(r.events);
            d.word(r.io_errors);
            d.word(r.violations.len() as u64);
            d.bytes(r.fingerprint.as_bytes());
            d.bytes(format!("{:?}", r.per_proc).as_bytes());
        }
    }
    out.digest = d.0;
    out
}

fn check_matrix(seed: u64, size: Size, prof: Option<&Profiler>) -> Rep {
    let (programs, clock) = Clock::setup(setup_samples(Workload::CheckMatrix), prof, || {
        (0..size.programs as u64)
            .map(|i| program(seed, i))
            .collect::<Vec<ProgramSpec>>()
    });
    let mut d = Digest::new();
    let mut ops = Ops::default();
    let mut events = 0;
    let mut late_runs = 0u64;
    for spec in &programs {
        let m = check_matrix_program(spec);
        ops.attempted += 1;
        if !m.problems.is_empty() {
            ops.failed += 1;
        }
        late_runs += m
            .problems
            .iter()
            .filter(|p| p.contains("drain gate"))
            .count() as u64;
        events += m.events;
        ops.latency_ms.extend_from_slice(&m.fsync_ms);
        d.word(m.digest);
        d.word(m.problems.len() as u64);
    }
    let (run_ns, alloc_steady, alloc_peak) = clock.run_done();
    let mut extra = BTreeMap::new();
    extra.insert("check.generate.ns", clock.setup_ns as f64);
    extra.insert("check.program.ns", run_ns as f64);
    extra.insert("check.programs", ops.attempted as f64);
    extra.insert("check.failed", ops.failed as f64);
    Rep {
        setup_ns: clock.setup_ns,
        run_ns,
        events,
        sim_s: None,
        ops,
        digest: d.0,
        late: late_runs,
        extra,
        alloc_setup: clock.alloc_setup,
        alloc_steady,
        alloc_peak,
        trace: None,
    }
}

/// Profiler phase `p` of a snapshot: (calls, ns).
pub fn phase(s: &ProfSnapshot, p: Phase) -> (u64, u64) {
    s.phases
        .iter()
        .find(|x| x.phase == p)
        .map(|x| (x.calls, x.nanos))
        .unwrap_or((0, 0))
}
